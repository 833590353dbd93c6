import numpy as np
import pytest

import sparsemips.cli
from sparsemips import (
    BuildParams, VectorSet, build_index, load_graph, load_index, save_collection, save_ground_truth, save_index,
)
from sparsemips.cli import main
from sparsemips.storage import read_results_tsv
from sparsemips.synth import random_collection


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    vset = random_collection(300, 80, 10, seed=40)
    queries = random_collection(20, 80, 10, seed=41)
    save_collection(vset, root / "docs.bin")
    save_collection(queries, root / "queries.bin")
    return root


def run(argv):
    return main([str(a) for a in argv])


class TestPipeline:
    def test_build(self, workspace, capsys):
        rc = run([
            "build", "--input", workspace / "docs.bin", "--output", workspace / "idx.bin",
            "--alpha", "0.6", "--beta", "0.2", "--gamma", "0.8", "--seed", "7",
        ])
        assert rc == 0
        assert "indexed 300 vectors" in capsys.readouterr().out
        index = load_index(workspace / "idx.bin")
        assert len(index) == 300

    def test_knn_graph(self, workspace):
        rc = run([
            "knn-graph", "--index", workspace / "idx.bin", "--kappa", "5",
            "--output", workspace / "g.bin", "--exact",
        ])
        assert rc == 0
        graph = load_graph(workspace / "g.bin")
        assert graph.kappa == 5 and len(graph) == 300

    def test_ground_truth_and_search_and_evaluate(self, workspace, capsys):
        assert run([
            "ground-truth", "--input", workspace / "docs.bin",
            "--queries", workspace / "queries.bin", "--k", "10",
            "--output", workspace / "gt.bin",
        ]) == 0
        assert run([
            "search", "--index", workspace / "idx.bin", "--graph", workspace / "g.bin",
            "--queries", workspace / "queries.bin", "--k", "10",
            "--alpha-q", "0.9", "--heap-factor", "0.9",
            "--output", workspace / "run.tsv",
        ]) == 0
        runs = read_results_tsv(workspace / "run.tsv")
        assert len(runs) == 20 and all(len(r) == 10 for r in runs)
        capsys.readouterr()
        assert run([
            "evaluate", "--run", workspace / "run.tsv", "--gt", workspace / "gt.bin", "--k", "10",
        ]) == 0
        out = capsys.readouterr().out
        assert out.startswith("mean accuracy@10: ")
        assert float(out.split(": ")[1]) >= 0.8

    def test_search_with_k_past_every_int64(self, workspace):
        assert run([
            "search", "--index", workspace / "idx.bin", "--queries", workspace / "queries.bin",
            "--k", 2**63, "--alpha-q", "0.9", "--heap-factor", "0.9", "--output", workspace / "all.tsv",
        ]) == 0
        runs = read_results_tsv(workspace / "all.tsv")
        assert len(runs) == 20 and all(len(r) == 300 for r in runs)

    def test_stats_modes(self, workspace, capsys):
        assert run(["stats", "--input", workspace / "docs.bin", "--mode", "mass", "--max-keep", "5"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "kept\tmass_fraction" and len(out) == 6
        assert run([
            "stats", "--input", workspace / "docs.bin", "--queries", workspace / "queries.bin",
            "--mode", "ip", "--alpha", "0.6", "--alpha-q", "0.6", "--sample", "200",
        ]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "mean\tci95_low\tci95_high\tpairs"
        assert run([
            "stats", "--input", workspace / "docs.bin", "--queries", workspace / "queries.bin",
            "--mode", "norm-ratio", "--k-far", "5",
        ]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "ratio\tcdf"

    def test_bench(self, workspace, capsys):
        assert run([
            "bench", "--index", workspace / "idx.bin", "--queries", workspace / "queries.bin",
            "--k", "10", "--alpha-q", "0.9", "--heap-factor", "0.9", "--reps", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "mean_us" in out and "reps: 2" in out


class TestErrorHandling:
    def test_missing_file_is_a_clean_failure(self, tmp_path, capsys):
        rc = run([
            "build", "--input", tmp_path / "nope.bin", "--output", tmp_path / "idx.bin",
            "--alpha", "0.5", "--beta", "0.2", "--gamma", "0.8", "--seed", "0",
        ])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_corrupt_collection_is_a_clean_failure(self, tmp_path, capsys):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"\x01\x02\x03")
        rc = run([
            "ground-truth", "--input", bad, "--queries", bad, "--k", "5",
            "--output", tmp_path / "gt.bin",
        ])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_params_fail_cleanly(self, workspace, capsys):
        rc = run([
            "build", "--input", workspace / "docs.bin", "--output", workspace / "x.bin",
            "--alpha", "2.0", "--beta", "0.2", "--gamma", "0.8", "--seed", "0",
        ])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["-1", str(2**63)])
    def test_seed_outside_the_file_field_is_named(self, workspace, tmp_path, capsys, seed):
        rc = run([
            "build", "--input", workspace / "docs.bin", "--output", tmp_path / "x.bin",
            "--alpha", "0.6", "--beta", "0.2", "--gamma", "0.8", "--seed", seed,
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: seed=") and err.count("\n") == 1
        assert not (tmp_path / "x.bin").exists()

    def test_kappa_outside_the_file_field_is_named(self, workspace, tmp_path, capsys):
        save_index(build_index(random_collection(50, 80, 10, seed=42), BuildParams(0.6, 0.2, 0.8)), tmp_path / "idx.bin")
        rc = run([
            "knn-graph", "--index", tmp_path / "idx.bin", "--kappa", str(2**32), "--exact",
            "--output", tmp_path / "g.bin",
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: kappa=") and err.count("\n") == 1
        assert not (tmp_path / "g.bin").exists()

    @pytest.mark.parametrize("kappa", ["0", "5"])
    @pytest.mark.parametrize("argv, message", [
        (["--alpha-q", "1.5"], "alpha_q=1.5 must lie in (0, 1]"),
        (["--heap-factor", "0"], "heap_factor=0.0 must lie in (0, 1]"),
    ], ids=["alpha-q", "heap-factor"])
    def test_approx_graph_bad_fraction_is_named(self, tmp_path, capsys, kappa, argv, message):
        save_index(build_index(random_collection(50, 80, 10, seed=42), BuildParams(0.6, 0.2, 0.8)), tmp_path / "idx.bin")
        rc = run([
            "knn-graph", "--index", tmp_path / "idx.bin", "--kappa", kappa, "--output", tmp_path / "g.bin",
        ] + argv)
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"
        assert not (tmp_path / "g.bin").exists()

    def test_truncated_index_is_a_clean_failure(self, workspace, tmp_path, capsys):
        bad = tmp_path / "idx.bin"
        save_index(build_index(random_collection(50, 80, 10, seed=42), BuildParams(0.6, 0.2, 0.8)), bad)
        bad.write_bytes(bad.read_bytes()[:30])  # inside the build parameters
        rc = run([
            "search", "--index", bad, "--queries", workspace / "queries.bin", "--k", "5",
            "--alpha-q", "0.9", "--heap-factor", "0.9", "--output", tmp_path / "run.tsv",
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_huge_length_field_is_a_clean_failure(self, workspace, tmp_path, capsys):
        bad = tmp_path / "idx.bin"
        save_index(build_index(random_collection(50, 80, 10, seed=42), BuildParams(0.6, 0.2, 0.8)), bad)
        data = bytearray(bad.read_bytes())
        data[8 + 36 + 40:8 + 36 + 48] = np.uint64(2**60).tobytes()  # summary entries
        bad.write_bytes(bytes(data))
        rc = run([
            "search", "--index", bad, "--queries", workspace / "queries.bin", "--k", "5",
            "--alpha-q", "0.9", "--heap-factor", "0.9", "--output", tmp_path / "run.tsv",
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_query_dims_past_the_collection_are_a_clean_failure(self, tmp_path, capsys):
        save_collection(random_collection(40, 20, 5, seed=43), tmp_path / "docs.bin")
        wide = random_collection(6, 30, 5, seed=44)  # ncols 30 against dim 20
        assert int(wide.indices.max()) >= 20
        save_collection(wide, tmp_path / "wide.bin")
        for argv in (
            ["ground-truth", "--k", "5", "--output", tmp_path / "gt.bin"],
            ["stats", "--mode", "norm-ratio", "--k-far", "5"],
        ):
            rc = run(argv + ["--input", tmp_path / "docs.bin", "--queries", tmp_path / "wide.bin"])
            assert rc == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("mode", ["ip", "norm-ratio"])
    def test_stats_without_queries_is_a_clean_failure(self, workspace, capsys, mode):
        rc = run(["stats", "--input", workspace / "docs.bin", "--mode", mode])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: stats --mode ip|norm-ratio requires --queries\n"

    @pytest.mark.parametrize("query", [5, -1])
    def test_run_query_outside_the_ground_truth_is_a_clean_failure(self, tmp_path, capsys, query):
        ids = np.tile(np.arange(3, dtype=np.uint32), (5, 1))
        save_ground_truth(ids, np.ones((5, 3), dtype=np.float32), tmp_path / "gt.bin")
        (tmp_path / "run.tsv").write_text(f"0\t0\t1\t1.000000\n{query}\t0\t2\t1.000000\n")
        rc = run(["evaluate", "--run", tmp_path / "run.tsv", "--gt", tmp_path / "gt.bin", "--k", "3"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("k", [0, -1])
    def test_evaluate_k_below_one_is_a_clean_failure(self, tmp_path, capsys, k):
        ids = np.tile(np.arange(3, dtype=np.uint32), (2, 1))
        save_ground_truth(ids, np.ones((2, 3), dtype=np.float32), tmp_path / "gt.bin")
        (tmp_path / "run.tsv").write_text("0\t0\t1\t1.000000\n1\t0\t2\t1.000000\n")
        rc = run(["evaluate", "--run", tmp_path / "run.tsv", "--gt", tmp_path / "gt.bin", "--k", k])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: k={k} must be at least 1\n"

    def test_stats_mass_negative_max_keep_is_a_clean_failure(self, workspace, capsys):
        rc = run(["stats", "--input", workspace / "docs.bin", "--mode", "mass", "--max-keep", "-1"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: max_keep=-1 must be at least 0\n"

    @pytest.mark.parametrize("which, argv, message", [
        ("queries", ["--sample", "100"], "cannot sample pairs from an empty query set"),
        ("docs", ["--sample", "100"], "cannot sample pairs from an empty collection"),
        (None, ["--sample", "0"], "sample=0 must be at least 1"),
        (None, ["--sample", "-1"], "sample=-1 must be at least 1"),
    ], ids=["empty-queries", "empty-docs", "sample-0", "sample-negative"])
    def test_stats_ip_bad_input_is_named(self, workspace, tmp_path, capsys, which, argv, message):
        paths = {"docs": workspace / "docs.bin", "queries": workspace / "queries.bin"}
        if which:
            paths[which] = tmp_path / "empty.bin"
            save_collection(VectorSet.from_vectors(80, []), paths[which])
        rc = run(["stats", "--input", paths["docs"], "--queries", paths["queries"], "--mode", "ip"] + argv)
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("argv, message", [
        (["--mode", "ip", "--alpha-q", "1.5"], "alpha_query=1.5 must lie in (0, 1]"),
        (["--mode", "ip", "--alpha", "0"], "alpha_doc=0.0 must lie in (0, 1]"),
        (["--mode", "norm-ratio", "--k-far", "0"], "k_far=0 must be at least 1"),
        (["--mode", "norm-ratio", "--k-far", "-3"], "k_far=-3 must be at least 1"),
    ], ids=["alpha-q", "alpha", "k-far-0", "k-far-negative"])
    def test_stats_bad_parameter_is_named(self, workspace, capsys, argv, message):
        rc = run(["stats", "--input", workspace / "docs.bin", "--queries", workspace / "queries.bin"] + argv)
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"

    def test_bench_without_repetitions_is_a_clean_failure(self, workspace, tmp_path, capsys):
        save_index(build_index(random_collection(50, 80, 10, seed=42), BuildParams(0.6, 0.2, 0.8)), tmp_path / "idx.bin")
        rc = run([
            "bench", "--index", tmp_path / "idx.bin", "--queries", workspace / "queries.bin",
            "--k", "5", "--alpha-q", "0.9", "--heap-factor", "0.9", "--reps", "0",
        ])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_memory_error_is_a_clean_failure(self, workspace, tmp_path, capsys, monkeypatch):
        def exhausted(vset, params):
            raise MemoryError("Unable to allocate 8.00 TiB for an array")

        monkeypatch.setattr(sparsemips.cli, "build_index", exhausted)
        rc = run([
            "build", "--input", workspace / "docs.bin", "--output", tmp_path / "idx.bin",
            "--alpha", "0.6", "--beta", "0.2", "--gamma", "0.8", "--seed", "0",
        ])
        assert rc == 1
        assert capsys.readouterr().err == "error: Unable to allocate 8.00 TiB for an array\n"
