"""Golden outputs: fixed CLI jobs must reproduce pinned digests byte for byte.

Each job runs ``cli.main`` in process on a small seeded graph and hashes the
partition file, the report's ``quality`` object and its ``run.counters`` (both
as canonical JSON). A refactor that claims unchanged behaviour keeps every
digest; a change that means to alter output updates them and says why.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from streammap.cli import main
from streammap.graph_stream import random_geometric, write_metis


def _weighted_text(n: int, seed: int) -> str:
    """fmt-11 METIS text over an rgg's edges, with fractional node and edge weights."""
    g = random_geometric(n, seed=seed)
    rnd = random.Random(seed)
    node_w = [rnd.choice(["0.5", "1", "1.25", "2", "3"]) for _ in range(g.n)]
    edge_w: dict[tuple[int, int], str] = {}
    lines = [f"{g.n} {g.m} 11"]
    for rec in g.records:
        row = [node_w[rec.id]]
        for v, _ in rec.neighbors:
            key = (min(rec.id, v), max(rec.id, v))
            if key not in edge_w:
                edge_w[key] = rnd.choice(["1", "2", "0.5", "3"])
            row.append(f"{v + 1} {edge_w[key]}")
        lines.append(" ".join(row))
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def graphs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    rgg = root / "rgg.graph"
    write_metis(random_geometric(3000, seed=1), rgg)
    weighted = root / "weighted.graph"
    weighted.write_text(_weighted_text(1500, seed=2), encoding="ascii")
    return {"rgg": str(rgg), "weighted": str(weighted)}


# (job id, graph, argv after the input) -> (partition, quality, counters) sha256
JOBS = {
    ("partition-k1-fennel", "rgg", "partition --k 1"): (
        "d3c94bb5749f49ba091e67cb63da782211b60c08f930f0d121e89eca9b63a523",
        "21f24e90b566b10192ebee591b6e5b081f551d9911f2013a60b55c7653c13ce4",
        "89da719efae897dcee2dedb90dbd91b872a6b20b4e459489b9c31a10e94a4bfb"),
    ("partition-k4-ldg-preload", "rgg", "partition --k 4 --algorithm ldg --preload"): (
        "ccdeb2bd27bee1ca41ffb21cbdc695abefb55e31a9afd2beb000f0e09da7c550",
        "f94d887041113c9cf545db0d5c14e625b71edfaef6a370145ed7fcd9c47d30fe",
        "47b82ec63e1a7eb7d7576a977eb43f601170665f3db2a243741d0d5bd5a557f7"),
    ("partition-k130-fennel-preload", "rgg", "partition --k 130 --preload"): (
        "24e918e30448f0e9257e5a726fe699552dd34c1b4ac88f6353560a9c8abaa070",
        "f606c272c50e5c4578068f6066332ed5830094614bc22ce7018dd38e4ed21aa1",
        "d384573bb2a3b83f094ec8a49d4e516fbaa655d0ed227fd7997e256746139515"),
    ("partition-k130-hashing", "rgg", "partition --k 130 --algorithm hashing --seed 3"): (
        "ce8c7dda16d02072257c065e3bd3ec11a63f90c15855efef6df53cfe5558f8c6",
        "2bd8a5e6e96d0a277f70717bbe904459f68a8eceb738681b5a1fa757de4cc6c6",
        "e996d9928b9774d4ab966cb69d5fdc8cb623bccd4d8c0df5c78d56d9198e835b"),
    ("partition-k4-fennel-w", "weighted", "partition --k 4"): (
        "345065c7784ba71dc434b8cf68c08ccba922d8d665497a54a44dadff6b42afef",
        "422c1c02b9a5c3c3113ec499af341d59e7de0e518dfcf8ec8dcf223d6be5cc44",
        "be8b764bbffc32758da48270f22198c35298206ccda74f54848145c41f5dbf13"),
    ("partition-k130-ldg-w-preload", "weighted", "partition --k 130 --algorithm ldg --preload"): (
        "9946443aa07970b70724f36860b19b2768c023ed970ba50a5e624ef2f0f87ad7",
        "7059aeba2e1989585d3c1177a57cc868daea3702f26281dab150e9ec581a92f6",
        "7ddd1a32e5019e081ff952938a76af059bb32c7208948e84549749cc92de39fe"),
    ("partition-k1-hashing-w", "weighted", "partition --k 1 --algorithm hashing"): (
        "0b977d5bc89bb2fdef733a0f26dcb61299c4fdc33802ab7d27a29aad115fa5b9",
        "7874758b879458d75d54ab7439bf5486ba55035d926449fa7c4a2af678b1641a",
        "11e78abf0be5fe70ac9dcf7cb2094b4ae10e470efdbba70c59b10b3f4845276e"),
    ("nh-k130-fennel-preload", "rgg", "nh --k 130 --base 4 --preload"): (
        "7506d1c715715f61f89daa0afc008af7849e58dfbe98b6d6f09fd70d93def4e7",
        "c708c1d9f60300717a22e04dcc782cc6d346f41bba743ac41187704067292e94",
        "452366628911d3955b46071ec844ffab3fb6f45b9cceff1811068bf14addedd5"),
    ("nh-k130-ldg", "rgg", "nh --k 130 --base 4 --algorithm ldg"): (
        "3a45dc1feb3d01f3cd8ac06821c0b84296cf90e379faf5e902ca229256870881",
        "01bd3a37eb8f7b0fa21d7309214cc8b940b7ffd8a54cbb8e711f74a2a5c94cf7",
        "7bdc3e9122b70d11e9972a0fc3a98b2c3f899560461a5ce5c0e356add24e4b98"),
    ("nh-k130-hashing-preload", "rgg",
     "nh --k 130 --base 4 --algorithm hashing --seed 5 --preload"): (
        "20b73d59aeed8c6e8b0c6c4594295fd64d08eb6999e39fb01511340bc7b62701",
        "2af715a28e565cf8bc2b368b9029f05667112362e9b82a699220fb1acc87a0ae",
        "14407524c0f6e382e3dcfd475b4a39757ea8578eb614c7fa366bae10efb85ccb"),
    ("nh-k130-hybrid2", "rgg", "nh --k 130 --base 4 --hybrid-h 2 --seed 1"): (
        "d2a361a9bf7b085d8bebef9526472624166db54be2ce13a3417cf64d6c322bb3",
        "16d6cbb3bfdc36e494bfbb8dcfe1da1c139fea394a52600d90456cd45711c199",
        "d8d04d50c34cc7d36338a6719e961e4c419290a08f8e89b5b1c0c0836304fbe3"),
    ("nh-k130-ldg-hybrid2-w-preload", "weighted",
     "nh --k 130 --base 4 --algorithm ldg --hybrid-h 2 --seed 2 --preload"): (
        "13a2e216d7680fe0a209dba5c97d74b5011f91ec5d4637cea44f7989d546d6c0",
        "4d62ff2e67510b0d5e389207102e9260d7fe2eb734c121554e26c034ba97cc47",
        "a46ecc311b567ef8a18535825beb44263e54ff1a014f41ef79634d61b70ddb21"),
    ("map-4:16:2-fennel-preload", "rgg",
     "map --hierarchy 4:16:2 --distances 1:10:100 --preload"): (
        "9b09ee786351a718e98b584dda3b484897c0cb3df59803fa93a0eb9b2a5acc16",
        "3e756a3b96073c01e381534bf63093ecdef414eb5239f4e13a119303123ee8b6",
        "5a3d92bef10fa7202cad1ffcd57ba4f67e278984e22ea2dcc6ffaad97d55d0e6"),
    ("map-4:16:2-ldg-w", "weighted",
     "map --hierarchy 4:16:2 --distances 1:10:100 --algorithm ldg"): (
        "e927beb7098e163b0503879e69f4c187f0eede9d68a4f8eea0259e5d816c18c6",
        "42fd868a3b5b4bc4a78d20d3994dbbcdff4437276d71408fcf2c8725addd1a59",
        "fa87f069da033b68f091591309e7be9a642597564304039188d241e0f7a338d9"),
    ("map-3:5:2-hybrid1", "rgg", "map --hierarchy 3:5:2 --distances 1:10:100 --hybrid-h 1"): (
        "2bd5e436b818eb00c3613ca182de7c22ec437c68de76553e497bfe2b516044f0",
        "289c9ca792fd536c86777d295075aaf1445fa8013b31966b058bbd629fb8864b",
        "1b886cdc58181f2f2239db905b2d5927be6e9c0520b4acb71c6b2f9b9c39ff44"),
    ("map-3:5:2-hashing-hybrid1-w-preload", "weighted",
     "map --hierarchy 3:5:2 --distances 1:10:100 --algorithm hashing --hybrid-h 1 --preload"): (
        "b1f6f517af8c300d1bd1c646d39c91c42a0e269757ba7eafd916b15c43276e6c",
        "81b3dc84d621e29208a6af190a879fa612c42386745fbcda761aeb542083ef19",
        "6b886020672deb22cd5084e72097ce15154038707254a685dfdbac9aab8a4d2c"),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("ascii")


def run_job(graph: str, argv: str, out_dir) -> tuple[str, str, str]:
    """Run one job; return the sha256 of its partition, quality and counters."""
    part = out_dir / "out.part"
    report = out_dir / "report.json"
    command, *flags = argv.split()
    code = main([command, "--input", graph, *flags,
                 "--output", str(part), "--report", str(report)])
    assert code == 0
    payload = json.loads(report.read_text(encoding="ascii"))
    return (_sha(part.read_bytes()), _sha(_canonical(payload["quality"])),
            _sha(_canonical(payload["run"]["counters"])))


@pytest.mark.parametrize("job", list(JOBS), ids=[job[0] for job in JOBS])
def test_golden_output(job, graphs, tmp_path):
    _, graph, argv = job
    partition, quality, counters = run_job(graphs[graph], argv, tmp_path)
    want_partition, want_quality, want_counters = JOBS[job]
    assert partition == want_partition
    assert quality == want_quality
    assert counters == want_counters


# Runs CLI argument lists given as JSON in one process; prints their exit
# codes and whether numpy was imported.
_NUMPY_FREE = """
import json, sys
from streammap.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "numpy": "numpy" in sys.modules}))
"""


def test_jobs_import_no_numpy(graphs, tmp_path):
    """partition, map, nh (streamed and preloaded) and eval, the commands that
    read a graph to place or score it, run without numpy and write the golden
    partitions and qualities."""
    jobs = [job for job in JOBS if job[0] in (
        "partition-k130-fennel-preload", "partition-k4-fennel-w", "nh-k130-ldg",
        "nh-k130-fennel-preload", "map-4:16:2-fennel-preload")]
    runs = []
    for i, (_, graph, argv) in enumerate(jobs):
        command, *flags = argv.split()
        runs.append([command, "--input", graphs[graph], *flags, "--output",
                     str(tmp_path / f"{i}.part"), "--report", str(tmp_path / f"{i}.json")])
    mapped = len(jobs) - 1
    runs.append(["eval", "--input", graphs["rgg"], "--partition", str(tmp_path / f"{mapped}.part"),
                 "--hierarchy", "4:16:2", "--distances", "1:10:100",
                 "--report", str(tmp_path / "eval.json")])
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = [src, os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [src]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run([sys.executable, "-c", _NUMPY_FREE, json.dumps(runs)], env=env,
                          capture_output=True, text=True, check=False)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == {"codes": [0] * len(runs), "numpy": False}
    for i, job in enumerate(jobs):
        quality = json.loads((tmp_path / f"{i}.json").read_text(encoding="ascii"))["quality"]
        assert (_sha((tmp_path / f"{i}.part").read_bytes()), _sha(_canonical(quality))) == \
            JOBS[job][:2], job[0]
    quality = json.loads((tmp_path / "eval.json").read_text(encoding="ascii"))["quality"]
    assert _sha(_canonical(quality)) == JOBS[jobs[mapped]][1]
