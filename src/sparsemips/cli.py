"""Command-line surface: index building, graph construction, search, and evaluation."""
from __future__ import annotations

import argparse
import sys

import numpy as np

from . import evaluation, storage
from .graph import KnnGraph, build_approx_graph, build_exact_graph, load_graph, save_graph
from .index import BuildParams, build_index, load_index, save_index
from .query import SearchParams, search
from .storage import StorageError


def _cmd_build(args):
    vset = storage.load_collection(args.input)
    params = BuildParams(
        alpha=args.alpha, beta=args.beta, gamma=args.gamma,
        quantize=not args.no_quantize, seed=args.seed,
    )
    index = build_index(vset, params)
    save_index(index, args.output)
    print(f"indexed {len(vset)} vectors (dim={vset.dim}) into {index.num_blocks} blocks")


def _cmd_knn_graph(args):
    index = load_index(args.index)
    if args.exact:
        graph = build_exact_graph(index.forward, args.kappa)
    else:
        graph = build_approx_graph(index, args.kappa, args.alpha_q, args.heap_factor)
    save_graph(graph, args.output)
    print(f"graph: {len(graph)} nodes, kappa={graph.kappa}, width={graph.width}")


def _search_setup(args):
    """The index, graph (or None), queries and SearchParams of `search` and `bench`."""
    index = load_index(args.index)
    graph = load_graph(args.graph) if args.graph else None
    queries = storage.load_collection(args.queries)
    params = SearchParams(
        k=args.k, alpha_q=args.alpha_q, heap_factor=args.heap_factor,
        use_graph=graph is not None,
    )
    return index, graph, queries, params


def _cmd_search(args):
    index, graph, queries, params = _search_setup(args)
    results = []
    for q in queries:
        if q.dims.size == 0:
            results.append([])
            continue
        results.append(search(index, graph, q, params).pairs())
    storage.write_results_tsv(results, args.output)
    print(f"searched {len(queries)} queries, k={args.k}")


def _cmd_ground_truth(args):
    vset = storage.load_collection(args.input)
    queries = storage.load_collection(args.queries)
    ids, scores = evaluation.ground_truth(vset, queries, args.k)
    storage.save_ground_truth(ids, scores, args.output)
    print(f"ground truth for {len(ids)} queries at k={args.k}")


def _cmd_evaluate(args):
    ids, _ = storage.load_ground_truth(args.gt)
    runs = storage.read_results_tsv(args.run, len(ids))
    acc = evaluation.mean_accuracy(ids, runs, args.k)
    print(f"mean accuracy@{args.k}: {acc:.4f}")


def _cmd_stats(args):
    vset = storage.load_collection(args.input)
    if args.mode == "mass":
        curve = evaluation.mass_curve(vset, args.max_keep)
        print("kept\tmass_fraction")
        for j, frac in curve:
            print(f"{j}\t{frac:.6f}")
        return
    if not args.queries:
        raise ValueError("stats --mode ip|norm-ratio requires --queries")
    queries = storage.load_collection(args.queries)
    if args.mode == "ip":
        mean, half, used = evaluation.ip_preservation(
            vset, queries, args.alpha, args.alpha_q, sample=args.sample,
        )
        print("mean\tci95_low\tci95_high\tpairs")
        print(f"{mean:.6f}\t{mean - half:.6f}\t{mean + half:.6f}\t{used}")
    else:  # norm-ratio
        cdf = evaluation.norm_ratio_cdf(vset, queries, args.k_far)
        print("ratio\tcdf")
        for ratio, frac in cdf:
            print(f"{ratio:.6f}\t{frac:.6f}")


def _cmd_bench(args):
    index, graph, queries, params = _search_setup(args)
    us = evaluation.bench(index, graph, queries, params, repetitions=args.reps)
    if us.size == 0:
        print("no queries")
        return
    print(f"queries: {us.size}  reps: {args.reps} (best-of)")
    print(f"mean_us: {us.mean():.1f}  median_us: {np.median(us):.1f}  p95_us: {np.percentile(us, 95):.1f}")


def _add_search_flags(p):
    """The flags `_search_setup` reads."""
    p.add_argument("--index", required=True)
    p.add_argument("--graph")
    p.add_argument("--queries", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--alpha-q", type=float, required=True)
    p.add_argument("--heap-factor", type=float, required=True)


def build_parser():
    parser = argparse.ArgumentParser(prog="sparsemips", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build a blocked inverted index")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--no-quantize", action="store_true")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("knn-graph", help="build the neighbor graph for an index")
    p.add_argument("--index", required=True)
    p.add_argument("--kappa", type=int, required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--exact", action="store_true")
    p.add_argument("--alpha-q", type=float, default=1.0)
    p.add_argument("--heap-factor", type=float, default=1.0)
    p.set_defaults(func=_cmd_knn_graph)

    p = sub.add_parser("search", help="run top-k queries against an index")
    _add_search_flags(p)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("ground-truth", help="exact top-k for a query file")
    p.add_argument("--input", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_ground_truth)

    p = sub.add_parser("evaluate", help="mean accuracy@k of a run against ground truth")
    p.add_argument("--run", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("stats", help="dataset statistics as TSV curve data")
    p.add_argument("--input", required=True)
    p.add_argument("--queries")
    p.add_argument("--mode", choices=["mass", "ip", "norm-ratio"], required=True)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--alpha-q", type=float, default=0.5)
    p.add_argument("--k-far", type=int, default=10)
    p.add_argument("--max-keep", type=int, default=50)
    p.add_argument("--sample", type=int, default=10000)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("bench", help="per-query latency statistics")
    _add_search_flags(p)
    p.add_argument("--reps", type=int, required=True)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (StorageError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
