"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""
import json
from pathlib import Path

import numpy as np
import pytest

import run

run.load_program()

import harness  # noqa: E402  (needs load_program first)
import speed  # noqa: E402
import sparsemips.query  # noqa: E402
from sparsemips import SparseVector  # noqa: E402
from tracer import NO_PARENT, Tracer, self_times  # noqa: E402

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
TINY = harness.Sizes(n_docs=400, dim=200, doc_nnz=20, n_clusters=10, query_nnz=8,
                     queries=60, warmup=5, compare=10, traced=30)


def run_tiny(capsys, workload, seed, trace):
    assert run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0.05",
                     "--trace", str(trace)], sizes=TINY) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


def expected_units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_benchmark_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(harness.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(harness.WORKLOADS))
def test_tiny_run_prints_every_metric_with_unit(capsys, workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        lines, result = run_tiny(capsys, workload, seed=5, trace=trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        assert units == expected_units(section)
        for name, unit in units.items():
            assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}")
                       for line in lines)
        failed_frac = [line for line in lines if line.startswith("# failed_frac = ")]
        assert len(failed_frac) == 1 and failed_frac[0].startswith("# failed_frac = 0.0 (")
    # the per-query span is its self time plus the spans of the layers it calls
    m = {name: v["value"] for name, v in result["metrics"].items()}
    parts = ("query.search_self_ms", "query.forward_ms", "sketching.query_sketch_ms",
             "graph.expand_ms")
    assert m["query.search_ms"] == pytest.approx(sum(m[p] for p in parts), rel=1e-9)


def test_other_seed_changes_inputs_not_metric_names(capsys):
    docs1, queries1 = harness.make_inputs(TINY, 1)
    docs2, queries2 = harness.make_inputs(TINY, 2)
    assert docs1 != docs2
    assert queries1 != queries2
    assert harness.make_inputs(TINY, 1)[0] == docs1
    names = [set(run_tiny(capsys, "zipf-tuned", seed, 0)[1]["metrics"]) for seed in (1, 2)]
    assert names[0] == names[1]


def test_self_times_on_hand_built_tree():
    #   0 [0,100]  ->  1 [10,30] -> 3 [12,20]
    #              ->  2 [25,50]   (overlaps 1: the union [10,50] is covered once)
    #              ->  4 [90,120]  (clipped to the parent: covers [90,100])
    #   5 [200,210]    a second root
    start = [0, 10, 25, 12, 90, 200]
    end = [100, 30, 50, 20, 120, 210]
    parent = [NO_PARENT, 0, 0, 1, 0, NO_PARENT]
    assert self_times(start, end, parent).tolist() == [50, 12, 25, 8, 30, 10]


def test_window_speed_on_hand_built_pass(monkeypatch):
    # calls 0-1 precede kernel run 0, 2-3 run 1, 4 run 2, 5-6 run 3;
    # windows of two runs: runs 0-1 (median 20) and runs 2-3 (median 30)
    monkeypatch.setattr(speed, "WINDOW_PROBES", 2)
    assert speed.window_speed([2, 4, 5, 7], [10, 30, 20, 40], 7).tolist() == [
        20, 20, 20, 20, 30, 30, 30]
    with pytest.raises(ValueError):
        speed.window_speed([2, 4], [10, 30], 5)


def test_tracer_records_nesting_and_restores_names():
    tracer = Tracer()
    original = sparsemips.query.evaluate_block
    targets = [(sparsemips.query, "evaluate_block", "query.forward", None, None),
               (SparseVector, "__post_init__", "vectors.validate", None, None)]
    with tracer.installed(targets):
        assert sparsemips.query.evaluate_block is not original
        with tracer.span("outer"):
            SparseVector(np.array([1, 4]), np.array([0.5, 0.25]))
    assert sparsemips.query.evaluate_block is original
    assert "__wrapped__" not in vars(SparseVector.__post_init__)
    spans = tracer.arrays()
    assert [tracer.names[i] for i in spans["name"]] == ["outer", "vectors.validate"]
    assert spans["parent"].tolist() == [NO_PARENT, 0]
    own = self_times(spans["start"], spans["end"], spans["parent"])
    dur = spans["end"] - spans["start"]
    assert own[0] == dur[0] - dur[1] and own[1] == dur[1]
