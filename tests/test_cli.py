from __future__ import annotations

import csv
import json

import pytest

from streammap import graph_stream
from streammap.cli import main
from streammap.graph_stream import load_graph
from streammap.hierarchy import parse_distances, parse_hierarchy
from streammap.metrics import evaluate
from streammap.partitioner import RunConfig, partition_flat, partition_oms, prepare_tree


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "g.graph"
    assert main(["gen", "--kind", "rgg", "--n", "400", "--seed", "3",
                 "--out", str(path)]) == 0
    return path


class TestGen:
    def test_grid(self, tmp_path):
        out = tmp_path / "grid.graph"
        assert main(["gen", "--kind", "grid2d", "--rows", "4", "--cols", "4",
                     "--out", str(out)]) == 0
        g = load_graph(out)
        assert (g.n, g.m) == (16, 24)

    def test_ring(self, tmp_path):
        out = tmp_path / "ring.graph"
        assert main(["gen", "--kind", "ring", "--n", "5", "--out", str(out)]) == 0
        g = load_graph(out)
        assert (g.n, g.m) == (5, 5)

    def test_missing_params_is_infeasible(self, tmp_path):
        assert main(["gen", "--kind", "grid2d", "--out", str(tmp_path / "x")]) == 3


class TestPartition:
    def test_writes_partition_and_report(self, graph_file, tmp_path):
        part = tmp_path / "out.part"
        report = tmp_path / "report.json"
        code = main(["partition", "--input", str(graph_file), "--k", "8",
                     "--output", str(part), "--report", str(report)])
        assert code == 0
        labels = [int(x) for x in part.read_text().split()]
        assert len(labels) == 400
        assert all(1 <= pe <= 8 for pe in labels)
        payload = json.loads(report.read_text())
        assert payload["quality"]["k"] == 8
        assert payload["run"]["counters"]["score_evaluations"] == 400 * 8
        assert set(payload["run"]["timings"]) == {"parse_s", "assign_s", "evaluate_s"}

    def test_hashing_byte_identical_across_runs(self, graph_file, tmp_path):
        outs = []
        for name in ("a.part", "b.part"):
            out = tmp_path / name
            assert main(["partition", "--input", str(graph_file), "--k", "4",
                         "--algorithm", "hashing", "--seed", "1",
                         "--output", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_missing_input_is_io_error(self, tmp_path):
        assert main(["partition", "--input", str(tmp_path / "nope.graph"),
                     "--k", "4"]) == 1

    def test_bad_flags_exit_two(self):
        assert main(["partition", "--nonsense"]) == 2
        for command in (["partition", "--k", "4"], ["map", "--hierarchy", "2:2"],
                        ["nh", "--k", "4"], ["bench", "--k", "4"]):
            assert main([*command, "--input", "g.graph", "--threads", "2"]) == 2


class TestMap:
    def test_map_with_hierarchy(self, graph_file, tmp_path):
        part = tmp_path / "map.part"
        report = tmp_path / "map.json"
        code = main(["map", "--input", str(graph_file),
                     "--hierarchy", "4:2:2", "--distances", "1:10:100",
                     "--seed", "7", "--output", str(part), "--report", str(report)])
        assert code == 0
        labels = [int(x) for x in part.read_text().split()]
        assert all(1 <= pe <= 16 for pe in labels)
        payload = json.loads(report.read_text())
        assert payload["quality"]["mapping_cost"] > 0
        assert len(payload["quality"]["per_layer_cut"]) == 3

    def test_bad_hierarchy_is_infeasible(self, graph_file):
        assert main(["map", "--input", str(graph_file), "--hierarchy", "4:1"]) == 3

    @pytest.mark.parametrize("distances", ["1", "1:10:100"])
    def test_distance_levels_must_match_hierarchy(self, graph_file, tmp_path, capsys,
                                                  distances):
        part = tmp_path / "p.part"
        assert main(["partition", "--input", str(graph_file), "--k", "4",
                     "--output", str(part)]) == 0
        capsys.readouterr()
        flags = ["--input", str(graph_file), "--hierarchy", "2:2", "--distances", distances]
        for argv in (["map", *flags],
                     ["eval", *flags, "--partition", str(part)],
                     ["bench", *flags, "--algorithms", "oms", "--reps", "1"]):
            assert main(argv) == 3
            err = capsys.readouterr().err
            assert err.count("\n") == 1
            assert "hierarchy has 2" in err

    def test_full_machine_hierarchy_k128(self, tmp_path):
        graph = tmp_path / "big.graph"
        assert main(["gen", "--kind", "rgg", "--n", "1000", "--seed", "2",
                     "--out", str(graph)]) == 0
        part = tmp_path / "big.part"
        report = tmp_path / "big.json"
        code = main(["map", "--input", str(graph), "--hierarchy", "4:16:2",
                     "--distances", "1:10:100", "--eps", "0.03", "--seed", "7",
                     "--output", str(part), "--report", str(report)])
        assert code == 0
        labels = [int(x) for x in part.read_text().split()]
        assert len(labels) == 1000
        assert all(1 <= pe <= 128 for pe in labels)
        emitted = json.loads(report.read_text())["quality"]
        assert emitted["mapping_cost"] > 0
        eval_report = tmp_path / "big_eval.json"
        assert main(["eval", "--input", str(graph), "--partition", str(part),
                     "--hierarchy", "4:16:2", "--distances", "1:10:100",
                     "--report", str(eval_report)]) == 0
        assert json.loads(eval_report.read_text())["quality"] == emitted

    def test_preload_matches_streaming(self, graph_file, tmp_path):
        a = tmp_path / "stream.part"
        b = tmp_path / "preload.part"
        base = ["map", "--input", str(graph_file), "--hierarchy", "2:2"]
        assert main(base + ["--output", str(a)]) == 0
        assert main(base + ["--preload", "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestNh:
    def test_arbitrary_k(self, graph_file, tmp_path):
        part = tmp_path / "nh.part"
        report = tmp_path / "nh.json"
        code = main(["nh", "--input", str(graph_file), "--k", "13",
                     "--output", str(part), "--report", str(report)])
        assert code == 0
        labels = [int(x) for x in part.read_text().split()]
        assert all(1 <= pe <= 13 for pe in labels)
        assert json.loads(report.read_text())["run"]["base"] == 4

    def test_hybrid_flag(self, graph_file, tmp_path):
        report = tmp_path / "h.json"
        code = main(["nh", "--input", str(graph_file), "--k", "16",
                     "--hybrid-h", "1", "--report", str(report)])
        assert code == 0
        counters = json.loads(report.read_text())["run"]["counters"]
        assert counters["hash_assignments"] == 400  # one hashed level per node


class TestEval:
    def test_reproduces_partition_time_quality_exactly(self, graph_file, tmp_path):
        part = tmp_path / "p.part"
        report = tmp_path / "r.json"
        eval_report = tmp_path / "e.json"
        base = ["--input", str(graph_file), "--hierarchy", "4:2:2",
                "--distances", "1:10:100"]
        assert main(["map", *base, "--output", str(part), "--report", str(report)]) == 0
        assert main(["eval", *base, "--partition", str(part),
                     "--report", str(eval_report)]) == 0
        emitted = json.loads(report.read_text())["quality"]
        recomputed = json.loads(eval_report.read_text())["quality"]
        assert emitted == recomputed

    @pytest.mark.parametrize("body, where", [
        ("1\n2\nx\n", "line 3: non-integer label 'x'"),
        ("1\n2\n", "file ends at line 2 with 2 labels, expected n=400"),
    ])
    def test_bad_partition_file_is_format_error(self, graph_file, tmp_path, capsys,
                                                body, where):
        part = tmp_path / "bad.part"
        part.write_text(body, encoding="ascii")
        assert main(["eval", "--input", str(graph_file), "--partition", str(part)]) == 1
        assert f"{part}: {where}" in capsys.readouterr().err

    def test_report_types_follow_the_weight_tokens(self, tmp_path):
        # PE 1 holds int-token weights only, PE 3 float ones; the cut mixes an
        # int-token edge (level 1) with a fractional one (level 2)
        graph = tmp_path / "w.graph"
        graph.write_text("4 3 11\n3 2 1\n2 1 1 3 0.5\n0.5 2 0.5 4 2\n1.5 3 2\n")
        part = tmp_path / "p.part"
        part.write_text("1\n2\n3\n3\n")
        for extra in ([], ["--hierarchy", "2:2", "--distances", "1:10"]):
            report = tmp_path / "r.json"
            assert main(["eval", "--input", str(graph), "--partition", str(part), "--k", "4",
                         *extra, "--report", str(report)]) == 0
            quality = json.loads(report.read_text())["quality"]
            assert quality["max_block_weight"] == 3 and type(quality["max_block_weight"]) is int
            assert quality["edge_cut"] == 1.5 and type(quality["edge_cut"]) is float
            assert quality["total_edge_weight"] == 3.5
            assert quality["imbalance"] == 3 * 4 / 7.0 - 1.0
        assert quality["per_layer_cut"] == [1, 0.5]
        assert [type(x) for x in quality["per_layer_cut"]] == [int, float]
        assert quality["mapping_cost"] == 6.0 and type(quality["mapping_cost"]) is float

    @pytest.mark.parametrize("run, scoring", [
        (["partition", "--k", "3"], []),
        (["map", "--hierarchy", "3"], ["--hierarchy", "3", "--distances", "5"]),
    ])
    def test_asymmetric_edge_weights_charge_the_later_row(self, tmp_path, run, scoring):
        # rows 1 and 2 give their edge the weights 1 and 3; eps 0 leaves each
        # node alone on its PE, so both edges are cut
        graph = tmp_path / "a.graph"
        graph.write_text("3 2 1\n2 1 3 1\n1 3\n1 1\n")
        part, report, eval_report = tmp_path / "p.part", tmp_path / "r.json", tmp_path / "e.json"
        assert main([*run, "--input", str(graph), "--eps", "0", *scoring[2:],
                     "--output", str(part), "--report", str(report)]) == 0
        assert main(["eval", "--input", str(graph), "--partition", str(part), *scoring,
                     "--report", str(eval_report)]) == 0
        emitted = json.loads(report.read_text())["quality"]
        assert emitted == json.loads(eval_report.read_text())["quality"]
        assert emitted["edge_cut"] == emitted["total_edge_weight"] == 3 + 1
        if scoring:
            assert emitted["mapping_cost"] == 5.0 * (3 + 1)

    def test_eval_without_hierarchy(self, graph_file, tmp_path):
        part = tmp_path / "p.part"
        assert main(["partition", "--input", str(graph_file), "--k", "4",
                     "--output", str(part)]) == 0
        assert main(["eval", "--input", str(graph_file),
                     "--partition", str(part)]) == 0


class TestBench:
    def test_row_accounting_and_profiles(self, graph_file, tmp_path):
        other = tmp_path / "g2.graph"
        assert main(["gen", "--kind", "ring", "--n", "64", "--out", str(other)]) == 0
        out_csv = tmp_path / "bench.csv"
        profile_csv = tmp_path / "profile.csv"
        summary = tmp_path / "summary.json"
        code = main([
            "bench", "--input", str(graph_file), "--input", str(other),
            "--algorithms", "fennel,hashing,nh-oms", "--k", "8", "--reps", "2",
            "--out-csv", str(out_csv), "--profile-csv", str(profile_csv),
            "--summary-json", str(summary),
        ])
        assert code == 0
        with open(out_csv) as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 2 * 3 * 2  # instances x algorithms x reps
        assert set(rows[0]) == {"instance", "algorithm", "k", "seed", "cut", "J",
                                "max_load", "score_evals", "wall_ms"}
        payload = json.loads(summary.read_text())
        assert set(payload["geomean_cut"]) == {"fennel", "hashing", "nh-oms"}
        with open(profile_csv) as handle:
            profile_rows = list(csv.DictReader(handle))
        assert {r["algorithm"] for r in profile_rows} == {"fennel", "hashing", "nh-oms"}

    def test_summary_matches_recomputed_aggregate(self, graph_file, tmp_path):
        from streammap.metrics import aggregate

        out_csv = tmp_path / "bench.csv"
        summary = tmp_path / "summary.json"
        assert main(["bench", "--input", str(graph_file), "--algorithms", "fennel",
                     "--k", "4", "--reps", "3", "--out-csv", str(out_csv),
                     "--summary-json", str(summary)]) == 0
        with open(out_csv) as handle:
            rows = list(csv.DictReader(handle))
        cuts = [float(r["cut"]) for r in rows]
        expected = aggregate([cuts])  # one instance, reps averaged arithmetically
        got = json.loads(summary.read_text())["geomean_cut"]["fennel"]
        assert got == pytest.approx(expected)

    def test_config_file_with_flag_precedence(self, graph_file, tmp_path):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(
            f"input = {graph_file}\nk = 4\nreps = 5\nalgorithms = hashing\n",
            encoding="ascii",
        )
        out_csv = tmp_path / "bench.csv"
        # --reps on the command line overrides the config value
        assert main(["bench", "--config", str(cfg), "--reps", "2",
                     "--out-csv", str(out_csv)]) == 0
        with open(out_csv) as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 2
        assert {r["algorithm"] for r in rows} == {"hashing"}

    def test_rows_carry_the_quality_of_their_run(self, graph_file, tmp_path):
        # each pass charges its own quality, with the bench's hierarchy and
        # distances whatever tree it descends; a row reports that charge
        out_csv = tmp_path / "bench.csv"
        assert main(["bench", "--input", str(graph_file), "--algorithms", "fennel,nh-oms,oms",
                     "--hierarchy", "4:4:2", "--distances", "1:10:100", "--reps", "1",
                     "--seed", "3", "--out-csv", str(out_csv)]) == 0
        with open(out_csv) as handle:
            rows = {r["algorithm"]: r for r in csv.DictReader(handle)}
        graph = load_graph(graph_file)
        spec, dist = parse_hierarchy("4:4:2"), parse_distances("1:10:100")
        config = RunConfig(seed=3)
        runs = {
            "fennel": partition_flat(graph, spec.k, config),
            "nh-oms": partition_oms(graph, prepare_tree(graph, k=spec.k, base=4)[0], config),
            "oms": partition_oms(graph, prepare_tree(graph, hierarchy=spec)[0], config),
        }
        for alg, result in runs.items():
            quality = evaluate(graph, result.assignment, hierarchy=spec, distances=dist)
            assert rows[alg]["cut"] == str(quality.edge_cut)
            assert float(rows[alg]["J"]) == quality.mapping_cost

    def test_distances_need_a_hierarchy(self, graph_file, capsys):
        assert main(["bench", "--input", str(graph_file), "--algorithms", "fennel,nh-oms",
                     "--k", "4", "--distances", "1:10", "--reps", "1"]) == 3
        assert "distances need a hierarchy" in capsys.readouterr().err

    def test_needs_k_or_hierarchy(self, graph_file):
        assert main(["bench", "--input", str(graph_file),
                     "--algorithms", "fennel"]) == 3

    def test_threads_config_key_rejected(self, graph_file, tmp_path):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(f"input = {graph_file}\nk = 4\nthreads = 2\n", encoding="ascii")
        assert main(["bench", "--config", str(cfg)]) == 3

    def test_runs_all_modes(self, graph_file, tmp_path):
        out_csv = tmp_path / "bench.csv"
        assert main(["bench", "--input", str(graph_file),
                     "--algorithms", "fennel,nh-oms,oms", "--hierarchy", "2:2:2",
                     "--reps", "1", "--out-csv", str(out_csv)]) == 0
        with open(out_csv) as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 3
        assert all(int(r["k"]) == 8 for r in rows)


class TestOnePass:
    @pytest.mark.parametrize("fmt, reads", [("", 1), (" 10", 2)])
    def test_a_streamed_job_reads_the_body_once(self, tmp_path, monkeypatch, fmt, reads):
        # the placing pass reports quality; weighted nodes add the pass
        # that sums the total weight for the capacities
        graph = tmp_path / "g.graph"
        weight = "2 " if fmt else ""
        graph.write_text(f"3 2{fmt}\n{weight}2\n{weight}1 3\n{weight}2\n")
        opened = []
        read = graph_stream._native_chunks
        monkeypatch.setattr(graph_stream, "_native_chunks",
                            lambda *args: opened.append(args) or read(*args))
        report = tmp_path / "r.json"
        assert main(["map", "--input", str(graph), "--hierarchy", "2:2",
                     "--distances", "1:10", "--report", str(report)]) == 0
        assert len(opened) == reads
        assert json.loads(report.read_text())["quality"]["total_edge_weight"] == 2


class TestBadGraphFiles:
    """A malformed graph file exits 1 with one line naming the file line."""

    @staticmethod
    def run(tmp_path, capsys, data: bytes, *flags) -> str:
        graph = tmp_path / "bad.graph"
        graph.write_bytes(data)
        report = tmp_path / "r.json"
        assert main(["partition", "--input", str(graph), "--k", "2", *flags,
                     "--report", str(report)]) == 1
        assert not report.exists()  # so no report carries a NaN
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        return err

    @pytest.mark.parametrize("token", ["nan", "inf"])
    @pytest.mark.parametrize("preload", [[], ["--preload"]])
    def test_non_finite_weights(self, tmp_path, capsys, token, preload):
        err = self.run(tmp_path, capsys, f"2 1 10\n{token} 2\n1 1\n".encode(), *preload)
        assert f"line 2: node weight must be finite, got {token}" in err
        err = self.run(tmp_path, capsys, f"2 1 1\n2 1\n1 {token}\n".encode(), *preload)
        assert f"line 3: edge weight must be finite, got {token}" in err

    @pytest.mark.parametrize("preload", [[], ["--preload"]])
    def test_header_beyond_the_file(self, tmp_path, capsys, preload):
        # n records need n bytes; neither the reader nor the pass may size
        # arrays by this n
        err = self.run(tmp_path, capsys, b"1000000000000 0\n\n", *preload)
        assert "fewer records than n=1000000000000: got 1" in err

    @pytest.mark.parametrize("preload", [[], ["--preload"]])
    def test_non_ascii_bytes(self, tmp_path, capsys, preload):
        err = self.run(tmp_path, capsys, b"3 2\n2\n1 3\n2 \xc3\xa9\n", *preload)
        assert "line 4: non-ASCII character" in err
