"""Workloads, timed passes, correctness checks and metrics for sparsemips.

Everything runs in one process on one thread (BLAS pinned to one thread by
``run.py``).  The search side is a closed loop with a single client: the
next query is sent only after the previous one returns.  See NOTES.md for
why each workload exists and which layer figure should move which
end-to-end figure.
"""
from __future__ import annotations

import contextlib
import dataclasses
import os
import resource
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

import sparsemips.index
import sparsemips.query
from sparsemips import (
    BuildParams,
    ResultList,
    SearchParams,
    SparseVector,
    accuracy_at_k,
    build_exact_graph,
    build_index,
    exact_topk,
    load_graph,
    load_index,
    save_collection,
    save_graph,
    save_index,
    search,
)
from sparsemips.synth import zipfian_clustered_collection, zipfian_queries
import speed
from tracer import SETUP_QID, Tracer, self_times

K = 10
TUNED_BUILD = BuildParams(alpha=0.4, beta=0.2, gamma=0.6, quantize=True, seed=0)
TUNED_SEARCH = SearchParams(k=K, alpha_q=0.8, heap_factor=0.9)


@dataclasses.dataclass(frozen=True)
class Workload:
    build: BuildParams
    search: SearchParams
    graph_kappa: int = 0      # 0: no graph is built or searched
    exact: bool = False       # every result must equal exact_topk


WORKLOADS = {
    # criterion-6 operating point: 8-bit summaries, pruning on, no graph
    "zipf-tuned": Workload(TUNED_BUILD, TUNED_SEARCH),
    # every approximation off: results must equal the oracle bit for bit
    "zipf-exact": Workload(
        BuildParams(alpha=1.0, beta=0.1, gamma=1.0, quantize=False, seed=0),
        SearchParams(k=K, alpha_q=1.0, heap_factor=1.0),
        exact=True,
    ),
    # the tuned index plus an exact kappa=10 graph, one-hop expansion on
    "zipf-graph": Workload(
        TUNED_BUILD, dataclasses.replace(TUNED_SEARCH, use_graph=True), graph_kappa=10
    ),
}


@dataclasses.dataclass(frozen=True)
class Sizes:
    n_docs: int = 10_000
    dim: int = 1000
    doc_nnz: int = 40
    n_clusters: int = 50
    query_nnz: int = 15
    queries: int = 2000       # distinct queries, each timed at least once: >= 10 beyond p99
    warmup: int = 20
    compare: int = 50         # queries searched on both the built and the loaded index
    traced: int = 500         # queries searched again with tracing on


FULL = Sizes()

END_TO_END_UNITS = {
    "setup_s": "s",
    "search_p50_ms": "ms",
    "search_p99_ms": "ms",
    "qps": "1/s",
    "accuracy_at_10": "fraction",
    "index_bytes_per_input_byte": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "vectors.validate_s": "s",
    "vectors.rows_built": "count",
    "sketching.set_sketch_s": "s",
    "sketching.truncate_s": "s",
    "sketching.query_sketch_ms": "ms",
    "sketching.query_dims_kept": "count",
    "index.build_s": "s",
    "index.cluster_s": "s",
    "index.summarize_s": "s",
    "index.quantize_s": "s",
    "index.build_self_s": "s",
    "query.search_ms": "ms",
    "query.search_self_ms": "ms",
    "query.forward_ms": "ms",
    "query.docs_scored": "count",
    "query.summaries_scored": "count",
    "query.blocks_visited": "count",
    "query.block_hit_rate": "fraction",
    "query.fallback_queries": "count",
    "query.fallback_docs": "count",
    "graph.build_s": "s",
    "graph.expand_ms": "ms",
    "graph.docs_scored": "count",
    "graph.hit_rate": "fraction",
    "storage.save_index_s": "s",
    "storage.load_index_s": "s",
    "storage.graph_io_s": "s",
    "storage.index_bytes": "bytes",
    "evaluation.exact_topk_p50_ms": "ms",
    "evaluation.exact_topk_p99_ms": "ms",
    "trace.setup_overhead": "ratio",
    "trace.search_overhead": "ratio",
}


def make_inputs(sizes, seed):
    """Collection and query set, both determined by ``seed``."""
    docs, _, info = zipfian_clustered_collection(
        sizes.n_docs, sizes.dim, sizes.doc_nnz, n_clusters=sizes.n_clusters, seed=[seed, 0]
    )
    queries = list(zipfian_queries(info, sizes.queries, sizes.dim, sizes.query_nnz, seed=[seed, 1]))
    return docs, queries


def _no_span(name):
    return contextlib.nullcontext()


@dataclasses.dataclass
class SetUp:
    built: object             # index as returned by build_index
    built_graph: object
    index: object             # index as returned by load_index
    graph: object
    seconds: float
    index_bytes: int


def set_up(workload, docs, tmp, span=_no_span):
    """Build, save and reload the index (and graph); wall time of all of it."""
    index_path, graph_path = Path(tmp) / "index.bin", Path(tmp) / "graph.bin"
    t0 = time.perf_counter()
    with span("index.build"):
        built = build_index(docs, workload.build)
    built_graph = graph = None
    if workload.graph_kappa:
        with span("graph.build"):
            built_graph = build_exact_graph(docs, workload.graph_kappa)
    with span("storage.save_index"):
        save_index(built, index_path)
    with span("storage.load_index"):
        index = load_index(index_path)
    if built_graph is not None:
        with span("storage.graph_io"):
            save_graph(built_graph, graph_path)
            graph = load_graph(graph_path)
    seconds = time.perf_counter() - t0
    return SetUp(built, built_graph, index, graph, seconds, os.path.getsize(index_path))


def _report_error(exc):
    traceback.print_exception(type(exc), exc, exc.__traceback__, file=sys.stderr)


@dataclasses.dataclass
class TimedPass:
    cpu_ns: np.ndarray        # per call: CPU time of the calling thread
    wall_ns: np.ndarray       # per call: wall clock
    results: list             # ResultList, or the exception the call raised
    probe_after: np.ndarray   # per reference-kernel run: calls made before it
    probe_ns: np.ndarray      # per reference-kernel run: its CPU time
    total_wall_ns: int        # whole pass
    total_cpu_ns: int         # whole pass, calling thread
    total_process_cpu_ns: int  # whole pass, every thread of the process


def timed_pass(index, graph, queries, params, seconds):
    """Closed loop over the query set, each call timed once.

    Runs for ``seconds`` of wall time and at least once over every query,
    cycling over the set.  Each call is timed by the calling thread's CPU
    clock, which leaves out time the host stole from the VM, and by the wall
    clock.  The reference kernel of ``speed`` runs after every
    ``speed.PROBE_EVERY_NS`` of search CPU time and after the last call.
    """
    cpu, wall, results, probe_after, probe_ns = [], [], [], [], []
    for _ in range(20):
        speed.probe()  # warm-up
    w_start, c_start = time.perf_counter_ns(), time.thread_time_ns()
    p_start = time.process_time_ns()
    deadline = w_start + int(seconds * 1e9)
    since_probe = 0
    while True:
        q = queries[len(results) % len(queries)]
        w0, c0 = time.perf_counter_ns(), time.thread_time_ns()
        try:
            res = search(index, graph, q, params)
        except Exception as exc:  # counted as a failed operation
            res = exc
        c1, w1 = time.thread_time_ns(), time.perf_counter_ns()
        cpu.append(c1 - c0)
        wall.append(w1 - w0)
        results.append(res)
        since_probe += c1 - c0
        done = w1 >= deadline and len(results) >= len(queries)
        if since_probe >= speed.PROBE_EVERY_NS or done:
            probe_after.append(len(results))
            probe_ns.append(speed.probe())
            since_probe = 0
        if done:
            break
    return TimedPass(
        np.asarray(cpu, dtype=np.int64), np.asarray(wall, dtype=np.int64), results,
        np.asarray(probe_after, dtype=np.int64), np.asarray(probe_ns, dtype=np.int64),
        time.perf_counter_ns() - w_start, time.thread_time_ns() - c_start,
        time.process_time_ns() - p_start,
    )


def exact_pass(docs, queries, k, warmup):
    """One exact_topk pass: the brute-force timings and the ground truth."""
    docs.scipy64()  # lazy float64 CSR cache, built once outside the timing
    for q in queries[:warmup]:
        exact_topk(docs, q, k)
    latencies, truth = [], []
    for q in queries:
        t0 = time.thread_time_ns()
        res = exact_topk(docs, q, k)
        latencies.append(time.thread_time_ns() - t0)
        truth.append(res)
    return np.asarray(latencies, dtype=np.int64), truth


def well_formed(res, q, forward64, k):
    """No duplicates, ids < N, exact scores, sorted by (score desc, id asc).

    The order is that of the float64 inner products: two docs whose float32
    scores tie may still be ranked by their float64 scores.
    """
    if not isinstance(res, ResultList):
        return False
    n = forward64.shape[0]
    ids = res.ids.astype(np.int64)
    if ids.size != min(k, n) or (ids.size and int(ids.max()) >= n):
        return False
    if np.unique(ids).size != ids.size:
        return False
    exact = forward64[ids] @ q.to_dense(forward64.shape[1])
    if not np.array_equal(exact.astype(np.float32), res.scores):
        return False
    ahead, behind = exact[:-1], exact[1:]
    return bool(np.all((ahead > behind) | ((ahead == behind) & (ids[:-1] < ids[1:]))))


def check_results(workload, docs, queries, results, truth, k):
    """Per timed call: True when the result passes every check."""
    forward64 = docs.scipy64()
    ok = []
    for i, res in enumerate(results):
        qi = i % len(queries)
        good = well_formed(res, queries[qi], forward64, k)
        if good and workload.exact:
            good = res == truth[qi]
        ok.append(good)
    return np.asarray(ok, dtype=bool)


def compare_built_and_loaded(setup, queries, params, results):
    """Number of sample queries whose built-index result differs from the loaded one."""
    failed = 0
    for i, q in enumerate(queries):
        try:
            same = search(setup.built, setup.built_graph, q, params) == results[i]
        except Exception as exc:  # counted as a failed operation
            _report_error(exc)
            same = False
        failed += not same
    return failed


def _ms(ns):
    return float(ns) / 1e6


def run_workload(name, seed, seconds, trace, sizes=FULL, out_dir=None):
    """Run one workload; return (metrics, attempted, failed)."""
    workload = WORKLOADS[name]
    params = workload.search
    docs, queries = make_inputs(sizes, seed)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        docs_path = Path(tmp) / "docs.bin"
        save_collection(docs, docs_path)
        input_bytes = os.path.getsize(docs_path)
        setup = set_up(workload, docs, tmp)
        if trace:
            # straight after the untraced set-up, so machine drift between them is small
            traced = TracedRun(workload)
            traced_setup = traced.set_up(docs, tmp)

    for q in queries[: sizes.warmup]:
        search(setup.index, setup.graph, q, params)
    timed = timed_pass(setup.index, setup.graph, queries, params, seconds)
    results = timed.results
    n_run = len(results)
    for res in results:
        if isinstance(res, Exception):
            _report_error(res)
            break

    exact_lat, truth = exact_pass(docs, queries, params.k, sizes.warmup)
    ok = check_results(workload, docs, queries, results, truth, params.k)
    n_compare = min(sizes.compare, n_run)
    compare_failed = compare_built_and_loaded(setup, queries[:n_compare], params, results)
    attempted = n_run + n_compare
    failed = int(np.count_nonzero(~ok)) + compare_failed

    accuracy = float(np.mean([  # first pass over the query set
        accuracy_at_k(truth[i].ids, results[i].ids, params.k)
        if isinstance(results[i], ResultList) else 0.0
        for i in range(len(queries))
    ]))
    cpu_p50, cpu_p99 = np.percentile(timed.cpu_ns, [50, 99])
    # Scaled to the reference host (speed.py): p50 and qps by the speed of the
    # ~2 s window each call ran in, p99 by the speed of the whole pass.  The
    # top 1% of calls would pick out the calls whose window speed errs low,
    # so window speeds made p99 noisier than the unscaled CPU time.
    window_ns = speed.window_speed(timed.probe_after, timed.probe_ns, n_run)
    scaled_ns = timed.cpu_ns * (speed.REFERENCE_NS / window_ns)
    pass_ns = float(np.median(timed.probe_ns))
    p50 = np.percentile(scaled_ns, 50)
    p99 = cpu_p99 * speed.REFERENCE_NS / pass_ns
    wall_p50, wall_p99 = np.percentile(timed.wall_ns, [50, 99])
    other_cpu_ns = timed.total_process_cpu_ns - timed.total_cpu_ns
    exact_p50, exact_p99 = np.percentile(exact_lat, [50, 99])

    print(f"# workload {name}: N={sizes.n_docs} dim={sizes.dim} seed={seed}, "
        f"k={params.k}, one closed-loop client, one thread")
    print(f"# search samples: {n_run} timed calls cycling over {len(queries)} distinct "
        f"queries in {_ms(timed.total_wall_ns) / 1e3:.3f} s; p99 has "
        f"{int(n_run - np.ceil(0.99 * n_run))} samples beyond it")
    print(f"# search latency and qps are the calling thread's CPU time scaled to a host where "
        f"the reference kernel takes {_ms(speed.REFERENCE_NS):g} ms; here it took "
        f"{_ms(pass_ns):.4f} ms (median of {timed.probe_ns.size} runs; speed windows "
        f"{_ms(window_ns.min()):.4f} to {_ms(window_ns.max()):.4f} ms)")
    print(f"# unscaled CPU time: p50 {_ms(cpu_p50):.4f} ms, p99 {_ms(cpu_p99):.4f} ms, "
        f"qps {n_run / (timed.cpu_ns.sum() / 1e9):.2f}; by the wall clock "
        f"p50 {_ms(wall_p50):.4f} ms, p99 {_ms(wall_p99):.4f} ms, "
        f"qps {n_run / (timed.total_wall_ns / 1e9):.2f}; the thread was off the CPU for "
        f"{1 - timed.total_cpu_ns / timed.total_wall_ns:.2%} of the pass; other threads "
        f"used {other_cpu_ns / timed.total_process_cpu_ns:.2%} of the process's CPU time")
    print(f"# accuracy base: {len(queries)} queries against one exact_topk pass over them")
    print(f"# failed_frac = {failed / attempted} ({failed} failed of {attempted} attempted: "
        f"{n_run} timed searches + {n_compare} built-vs-loaded comparisons)")
    print(f"# exact_topk p50 {_ms(exact_p50):.4f} ms, p99 {_ms(exact_p99):.4f} ms; "
        f"unscaled search p50 / exact_topk p50 = {cpu_p50 / exact_p50:.3f} (informational)")

    if not trace:
        metrics = {
            "setup_s": setup.seconds,
            "search_p50_ms": _ms(p50),
            "search_p99_ms": _ms(p99),
            "qps": n_run / (scaled_ns.sum() / 1e9),
            "accuracy_at_10": accuracy,
            "index_bytes_per_input_byte": setup.index_bytes / input_bytes,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        return _with_units(metrics, END_TO_END_UNITS), attempted, failed

    n_traced = min(sizes.traced, n_run)
    traced_failed, search_overhead = traced.search(
        traced_setup, queries[:n_traced], results[:n_traced]
    )
    if out_dir is not None:
        traced.tracer.write(Path(out_dir) / f"trace-{name}.npz")
    layers = traced.metrics(n_traced)
    layers.update({
        "storage.index_bytes": traced_setup.index_bytes,
        "evaluation.exact_topk_p50_ms": _ms(exact_p50),
        "evaluation.exact_topk_p99_ms": _ms(exact_p99),
        "trace.setup_overhead": traced_setup.seconds / setup.seconds,
        "trace.search_overhead": search_overhead,
    })
    print(f"# traced run: {n_traced} queries traced; per-query span "
        f"{layers['query.search_ms']:.4f} ms = search_self {layers['query.search_self_ms']:.4f} "
        f"+ forward {layers['query.forward_ms']:.4f} + query_sketch "
        f"{layers['sketching.query_sketch_ms']:.4f} + graph expand {layers['graph.expand_ms']:.4f}")
    return _with_units(layers, PER_LAYER_UNITS), attempted + 2 * n_traced, failed + traced_failed


def _with_units(values, units):
    if values.keys() != units.keys():
        raise KeyError(f"metric names out of step: {sorted(values.keys() ^ units.keys())}")
    return {key: {"value": values[key], "unit": units[key]} for key in units}


class QueryObserver:
    """Counts gathered by the traced wrappers for the query in flight."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.dims_kept = 0
        self.forward_docs = 0
        self.blocks = []
        self.graph_docs = np.empty(0, dtype=np.int64)

    # each before() returns the token its after() receives

    def sketch_after(self, token, result):
        self.dims_kept += result.dims.size

    def forward_before(self, args, kwargs):
        stats = args[6] if len(args) > 6 else kwargs.get("stats")
        self.blocks.append(args[0])
        return stats, stats.forward_evaluations if stats is not None else 0

    def forward_after(self, token, result):
        stats, before = token
        if stats is not None:
            self.forward_docs += stats.forward_evaluations - before

    def expand_before(self, args, kwargs):
        visited = args[5] if len(args) > 5 else kwargs["visited"]
        return visited, visited.copy()

    def expand_after(self, token, result):
        visited, before = token
        self.graph_docs = np.flatnonzero(visited & ~before)


class TracedRun:
    """Set-up and search with the outside-in tracer installed."""

    def __init__(self, workload):
        self.workload = workload
        self.tracer = Tracer()
        self.obs = obs = QueryObserver()
        self.targets = [
            (SparseVector, "__post_init__", "vectors.validate", None, None),
            (sparsemips.index, "set_alpha_mss", "sketching.set_sketch", None, None),
            (sparsemips.index, "cluster_list", "index.cluster", None, None),
            (sparsemips.index, "summarize", "index.summarize", None, None),
            (sparsemips.index, "alpha_mss", "sketching.truncate", None, None),
            (sparsemips.index, "quantize_summary", "index.quantize", None, None),
            (sparsemips.query, "alpha_mss", "sketching.query_sketch", None, obs.sketch_after),
            (sparsemips.query, "evaluate_block", "query.forward",
             obs.forward_before, obs.forward_after),
            (sparsemips.query, "expand_with_graph", "graph.expand",
             obs.expand_before, obs.expand_after),
        ]
        self.per_query = {key: [] for key in (
            "blocks_visited", "summaries", "hit_blocks", "fallback",
            "forward_docs", "graph_docs", "graph_hits", "dims_kept")}

    def set_up(self, docs, tmp):
        with self.tracer.installed(self.targets):
            return set_up(self.workload, docs, tmp, self.tracer.span)

    def search(self, setup, queries, expected):
        """Two passes over the queries; each query is traced in one of them.

        Even queries are traced in the first pass and odd ones in the second,
        the rest run untraced, so drift in the machine's speed falls on both
        sides alike and no call follows a call for the same query.  Returns
        the failure count and traced ÷ untraced search wall time.
        """
        params = self.workload.search
        failed = traced_ns = untraced_ns = 0
        for parity in (0, 1):
            for qi, q in enumerate(queries):
                t0 = time.perf_counter_ns()
                try:
                    if qi % 2 == parity:
                        res, stats = self._search_once(qi, setup, q, params)
                        traced_ns += time.perf_counter_ns() - t0
                        failed += not res == expected[qi]
                        self._count(res, stats)
                    else:
                        search(setup.index, setup.graph, q, params)
                        untraced_ns += time.perf_counter_ns() - t0
                except Exception as exc:  # counted as a failed operation
                    _report_error(exc)
                    failed += 1
        self.tracer.current_qid = SETUP_QID
        return failed, traced_ns / untraced_ns if untraced_ns else 0.0

    def _search_once(self, qi, setup, q, params):
        self.obs.reset()
        self.tracer.current_qid = qi
        with self.tracer.installed(self.targets), self.tracer.span("query.search"):
            return search(setup.index, setup.graph, q, params, return_stats=True)

    def _count(self, res, stats):
        obs, pq = self.obs, self.per_query
        top = res.ids.astype(np.int64)
        pq["blocks_visited"].append(stats.blocks_visited)
        pq["summaries"].append(stats.blocks_visited + stats.blocks_skipped)
        pq["hit_blocks"].append(sum(
            bool(np.isin(top, b.ids, assume_unique=True).any()) for b in obs.blocks
        ))
        pq["forward_docs"].append(obs.forward_docs)
        pq["graph_docs"].append(obs.graph_docs.size)
        pq["graph_hits"].append(int(np.isin(obs.graph_docs, top).sum()))
        pq["fallback"].append(stats.forward_evaluations - obs.forward_docs - obs.graph_docs.size)
        pq["dims_kept"].append(obs.dims_kept)

    def metrics(self, n_queries):
        layers = layer_metrics(self.tracer, n_queries)
        pq = {key: np.asarray(vals, dtype=np.float64) for key, vals in self.per_query.items()}
        layers.update({
            "sketching.query_dims_kept": float(pq["dims_kept"].mean()),
            "query.docs_scored": float(pq["forward_docs"].mean()),
            "query.summaries_scored": float(pq["summaries"].mean()),
            "query.blocks_visited": float(pq["blocks_visited"].mean()),
            "query.block_hit_rate": _ratio(pq["hit_blocks"].sum(), pq["blocks_visited"].sum()),
            "query.fallback_queries": int(np.count_nonzero(pq["fallback"])),
            "query.fallback_docs": float(pq["fallback"].mean()),
            "graph.docs_scored": float(pq["graph_docs"].mean()),
            "graph.hit_rate": _ratio(pq["graph_hits"].sum(), pq["graph_docs"].sum()),
        })
        return layers


def _ratio(num, den):
    return float(num / den) if den else 0.0


def layer_metrics(tracer, n_queries):
    """Set-up totals in seconds and per-query means in milliseconds, from spans."""
    spans = tracer.arrays()
    dur = spans["end"] - spans["start"]
    own = self_times(spans["start"], spans["end"], spans["parent"])
    in_setup = spans["qid"] == SETUP_QID
    index_of = {name: i for i, name in enumerate(tracer.names)}

    def pick(name, setup):
        return (spans["name"] == index_of.get(name, -1)) & (in_setup if setup else ~in_setup)

    def setup_s(name, values=dur):
        return float(values[pick(name, True)].sum()) / 1e9

    def query_ms(name, values=dur):
        return float(values[pick(name, False)].sum()) / 1e6 / max(n_queries, 1)

    return {
        "vectors.validate_s": setup_s("vectors.validate"),
        "vectors.rows_built": int(np.count_nonzero(pick("vectors.validate", True))),
        "sketching.set_sketch_s": setup_s("sketching.set_sketch"),
        "sketching.truncate_s": setup_s("sketching.truncate"),
        "sketching.query_sketch_ms": query_ms("sketching.query_sketch"),
        "index.build_s": setup_s("index.build"),
        "index.cluster_s": setup_s("index.cluster"),
        "index.summarize_s": setup_s("index.summarize"),
        "index.quantize_s": setup_s("index.quantize"),
        "index.build_self_s": setup_s("index.build", own),
        "query.search_ms": query_ms("query.search"),
        "query.search_self_ms": query_ms("query.search", own),
        "query.forward_ms": query_ms("query.forward"),
        "graph.build_s": setup_s("graph.build"),
        "graph.expand_ms": query_ms("graph.expand"),
        "storage.save_index_s": setup_s("storage.save_index"),
        "storage.load_index_s": setup_s("storage.load_index"),
        "storage.graph_io_s": setup_s("storage.graph_io"),
    }
