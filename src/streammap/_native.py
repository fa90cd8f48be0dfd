"""streammap's compiled half: one C library, built with ``gcc`` on first use.

The library holds the descent kernel (``_descent.c``, behind
``partitioner.partition_oms``) and the METIS body reader (``_reader.c``,
behind ``graph_stream.open_chunks``). It is compiled from those sources on
the first call that needs it, never at import, and cached as
``CACHE/_native-<crc32 of the sources>.so``, so an edited source builds anew
and an unchanged one is loaded as is. A successful build removes the
libraries of earlier sources from the cache. A build that fails raises one
OSError naming the compiler command; the CLI reports it and exits 1.
"""

from __future__ import annotations

import functools
import os
import re
import zlib
from pathlib import Path

__all__ = ["CC", "CACHE", "SOURCES", "library"]

SOURCES = tuple(Path(__file__).with_name(name) for name in ("_descent.c", "_reader.c"))
CACHE = Path(__file__).with_name("__pycache__")
# No -ffast-math or -march=native: contracted or reassociated arithmetic would
# round differently from Python's doubles and break equality with
# multipass_reference.
CC = ("gcc", "-O2", "-shared", "-fPIC", "-ffp-contract=off")

# _descent-*: the name before the reader joined the kernel in one library
_LIBRARY_NAME = re.compile(r"_(native|descent)-[0-9a-f]{8}\.so")


@functools.cache
def library():
    """The loaded library, with the argument types of its two entry points."""
    import ctypes

    crc = zlib.crc32(b"".join(source.read_bytes() for source in SOURCES))
    lib_path = CACHE / f"_native-{crc:08x}.so"
    if not lib_path.exists():
        _build(lib_path)
    lib = ctypes.CDLL(str(lib_path))
    i64, ptr, flag = ctypes.c_int64, ctypes.c_void_p, ctypes.c_int
    lib.place_chunk.argtypes = (
        [ptr] * 8 + [i64, i64, flag, ctypes.c_uint64, i64, i64] + [ptr] * 6
    )
    lib.place_chunk.restype = flag
    lib.read_chunk.argtypes = (
        [ctypes.c_char_p, i64, flag, i64, flag, flag, flag, ptr, ptr, i64, i64] + [ptr] * 5
    )
    lib.read_chunk.restype = flag
    return lib


def _build(lib_path: Path) -> None:
    import subprocess

    command = [*CC, *map(str, SOURCES), "-lm"]
    # a private name, then an atomic rename: concurrent builders never load a
    # half-written library
    tmp = lib_path.with_name(f"{lib_path.stem}.{os.getpid()}.tmp")
    try:
        CACHE.mkdir(exist_ok=True)
        done = subprocess.run([*command, "-o", str(tmp)], capture_output=True, text=True)
        if done.returncode != 0:
            lines = done.stderr.strip().splitlines() or [f"exit status {done.returncode}"]
            raise OSError(lines[0])
        os.replace(tmp, lib_path)
    except OSError as exc:
        raise OSError(f"cannot build streammap's C library with `{' '.join(command)}`: "
                      f"{exc}") from None
    finally:
        if tmp.exists():
            tmp.unlink()
    # libraries of earlier sources; a process that has one loaded keeps it
    for old in CACHE.iterdir():
        if old != lib_path and _LIBRARY_NAME.fullmatch(old.name):
            old.unlink(missing_ok=True)
