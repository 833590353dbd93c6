"""Approximate maximum inner product search over nonnegative sparse vectors.

Mass-based collection sketching, a blocked inverted index with
coordinatewise-max summaries (truncated and optionally quantized, so an
upper bound on their members' scores only at gamma=1 without quantization),
forward-index re-scoring, and optional one-hop neighbor-graph candidate
expansion, plus an exact oracle and evaluation tools.
"""
from .evaluation import (
    accuracy_at_k,
    bench,
    exact_topk,
    ground_truth,
    ip_preservation,
    mass_curve,
    norm_ratio_cdf,
)
from .graph import KnnGraph, build_approx_graph, build_exact_graph, graph_size_bits, load_graph, save_graph
from .index import (
    Block,
    BlockedIndex,
    BuildParams,
    build_index,
    cluster_list,
    dequantize,
    load_index,
    quantize_summary,
    save_index,
    summarize,
)
from .query import ResultList, SearchParams, evaluate_block, expand_with_graph, search
from .sketching import (
    ThresholdSketch,
    ZeroVectorError,
    alpha_mss,
    l1_threshold_sample,
    set_alpha_mss,
    ts_estimate,
    ts_estimate_trials,
)
from .storage import load_collection, load_ground_truth, save_collection, save_ground_truth
from .vectors import SparseVector, VectorSet, dot, lp_norm, restrict

__all__ = [
    "Block", "BlockedIndex", "BuildParams", "KnnGraph",
    "ResultList", "SearchParams", "SparseVector", "ThresholdSketch",
    "VectorSet", "ZeroVectorError", "accuracy_at_k", "alpha_mss", "bench",
    "build_approx_graph", "build_exact_graph", "build_index", "cluster_list",
    "dequantize", "dot", "evaluate_block", "exact_topk",
    "expand_with_graph", "graph_size_bits", "ground_truth", "ip_preservation",
    "l1_threshold_sample", "load_collection", "load_graph", "load_ground_truth",
    "load_index", "lp_norm", "mass_curve", "norm_ratio_cdf", "quantize_summary",
    "restrict", "save_collection", "save_graph", "save_ground_truth",
    "save_index", "search", "set_alpha_mss", "summarize", "ts_estimate",
    "ts_estimate_trials",
]
