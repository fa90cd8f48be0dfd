"""The arrays of a few multi-section trees, pinned by sha256.

Block ids feed the hash through the parent id, so the depth-first id order
of the tree builder is part of every hashing and hybrid partition. Each
digest covers ``first_kid``, ``kids``, ``lo``, ``hi`` (int64) and
``capacity``, ``alpha`` (float64), in that order, of a tree built with
lmax 7 and stamped with ``set_alphas(100000, 543763)``. The digests were
taken from the object-per-block builder that the array builder replaced.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from streammap.hierarchy import build_tree_explicit, build_tree_synth, parse_hierarchy

PINS = {
    "4:16:2": "401d5520cb503a22a5f00bdc5f20f050f5d7ac0d1578a99d4fa0c42e93929423",
    "3:5:2": "2d33721669d8858d56362915ef6298f25181300671a21223dee0640da6b9641c",
    (1, 4): "09567ab4b22945803b740900b52ab1a7391d9c7a8ab771ac823712193c897b69",
    (5, 2): "8d0b622731553f52eb0d75a832a75cabcd9fafa3d9d8385423c640cf1fb606a8",
    (6, 4): "b4b76df6a9bf5d590f0a170ddecde57f164308597bb5dc50f21b575893318d99",
    (130, 4): "d6bdface6990a09094fceadbd02b6619adc368d0898c6807bc3235161db11734",
    (1024, 4): "bb15030dc1656bebb00f00121c917cff38b39912f2a72dfaced4d1445ed62e3b",
    (65536, 4): "feeb72f3c12426fc3c7bd352e58ec810bbddef31e74a14ca098409fc3d588fdc",
    # the wide flat tree: one root over 1024 leaves
    (1024, 1024): "18b505b590f7f9e20e5ea5405e40b798dd321b3d5802d7ceff2366815921833e",
}


@pytest.mark.parametrize("shape", list(PINS), ids=str)
def test_tree_arrays_are_pinned(shape):
    if isinstance(shape, str):
        tree = build_tree_explicit(parse_hierarchy(shape), 7)
    else:
        tree = build_tree_synth(*shape, 7)
    tree.set_alphas(100000, 543763)
    digest = hashlib.sha256()
    for array, dtype in ((tree.first_kid, np.int64), (tree.kids, np.int64),
                         (tree.lo, np.int64), (tree.hi, np.int64),
                         (tree.capacity, np.float64), (tree.alpha, np.float64)):
        digest.update(np.ascontiguousarray(array, dtype=dtype).tobytes())
    assert digest.hexdigest() == PINS[shape]
