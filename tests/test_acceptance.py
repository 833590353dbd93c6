"""Acceptance suite: one test per criterion, each emitting a pass/fail line.

Every criterion must pass at its stated tolerance.
"""
import time

import numpy as np
import pytest

from sparsemips import (
    BuildParams,
    SearchParams,
    accuracy_at_k,
    alpha_mss,
    build_approx_graph,
    build_exact_graph,
    build_index,
    dot,
    exact_topk,
    lp_norm,
    restrict,
    save_collection,
    save_index,
    search,
    set_alpha_mss,
    ts_estimate_trials,
)
from sparsemips.cli import main as cli_main
from sparsemips.synth import (
    bernoulli_collection,
    random_collection,
    random_vector,
    zipfian_clustered_collection,
    zipfian_queries,
)
from conftest import (
    GOLDEN_EXCLUDED_COLUMNS,
    GOLDEN_TIE_COLUMNS,
    golden_expected_dense,
    summary_of,
)


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {status}: {detail}")


# ---------------------------------------------------------------------------
# shared large fixtures (built once per module)

@pytest.fixture(scope="module")
def corpus10k():
    vset, _, info = zipfian_clustered_collection(10_000, 1000, 40, n_clusters=50, seed=11)
    queries = zipfian_queries(info, 100, 1000, 15, seed=12)
    return vset, queries


@pytest.fixture(scope="module")
def exact_index(corpus10k):
    vset, _ = corpus10k
    return build_index(vset, BuildParams(alpha=1.0, beta=0.1, gamma=1.0, quantize=False, seed=5))


@pytest.fixture(scope="module")
def tuned_index(corpus10k):
    vset, _ = corpus10k
    return build_index(vset, BuildParams(alpha=0.4, beta=0.2, gamma=0.6, quantize=True, seed=5))


@pytest.fixture(scope="module")
def truth10(corpus10k):
    vset, queries = corpus10k
    return [exact_topk(vset, q, 10) for q in queries]


@pytest.fixture(scope="module")
def exact_graph10k(corpus10k):
    vset, _ = corpus10k
    return build_exact_graph(vset, 10)


# ---------------------------------------------------------------------------

def test_criterion_01_golden_set_sketch_example(golden_set):
    """Set-level sketch at alpha=0.4 reproduces the published worked example.

    The published pruned matrix breaks equal-value ties inconsistently
    between its own columns (no single deterministic rule produces both tie
    columns as drawn), so on the tie columns we require agreement up to
    equal-value tie groups; all other columns must match positionally.
    Column 6 is excluded as a documented anomaly in the example itself.
    """
    t0 = time.perf_counter()
    got = set_alpha_mss(golden_set, 0.4).scipy64().toarray()
    expected = golden_expected_dense()
    strict_cols = [
        c for c in range(expected.shape[1])
        if c not in GOLDEN_TIE_COLUMNS and c not in GOLDEN_EXCLUDED_COLUMNS
    ]
    strict_ok = np.array_equal(got[:, strict_cols], expected[:, strict_cols])
    tie_ok = True
    for c in GOLDEN_TIE_COLUMNS:
        kept_got = np.flatnonzero(got[:, c])
        kept_exp = np.flatnonzero(expected[:, c])
        # same survivor count and identical kept-value multisets
        tie_ok &= kept_got.size == kept_exp.size
        tie_ok &= sorted(got[kept_got, c].tolist()) == sorted(expected[kept_exp, c].tolist())
        # any positional disagreement is confined to an equal-value tie group
        for r in set(kept_got.tolist()) ^ set(kept_exp.tolist()):
            value = golden_set.scipy64().toarray()[r, c]
            tied = [x for x in set(kept_got.tolist()) ^ set(kept_exp.tolist())]
            tie_ok &= all(golden_set.scipy64().toarray()[x, c] == value for x in tied)
    elapsed = time.perf_counter() - t0
    ok = strict_ok and tie_ok and elapsed < 1.0
    report(1, ok, (
        f"worked example matches on non-tie columns ({strict_ok}), tie columns "
        f"agree up to equal-value groups ({tie_ok}), {elapsed:.3f}s"
    ))
    assert strict_ok, "pruned matrix differs on a column with no value ties"
    assert tie_ok, "tie-column disagreement is not confined to equal-value groups"
    assert elapsed < 1.0


def test_criterion_02_threshold_sampling_estimator_moments():
    """Estimator is unbiased with variance within the proven bound."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    seeds = np.arange(100_000, dtype=np.uint64)
    d_target = 32.0
    worst_dev, worst_var = 0.0, 0.0
    for _ in range(20):
        u = random_vector(rng, 1000, 100, normalize=True)
        v = random_vector(rng, 1000, 100, normalize=True)
        true_ip = dot(u, v)
        var_bound = true_ip * (lp_norm(u, 1) + lp_norm(v, 1)) / d_target
        w = ts_estimate_trials(u, v, d_target, seeds)
        dev = abs(float(w.mean()) - true_ip)
        limit = 4.0 * np.sqrt(var_bound / seeds.size)
        worst_dev = max(worst_dev, dev / limit)
        worst_var = max(worst_var, float(w.var(ddof=1)) / var_bound)
        assert dev <= limit
        assert float(w.var(ddof=1)) <= 1.05 * var_bound
    elapsed = time.perf_counter() - t0
    ok = elapsed <= 60.0
    report(2, ok, (
        f"20 pairs x 1e5 trials: worst |mean-ip|/limit={worst_dev:.3f}, "
        f"worst var/bound={worst_var:.3f}, {elapsed:.1f}s"
    ))
    assert ok


def test_criterion_03_top_mass_sketch_inner_product_bound():
    """Sketched inner products under-estimate within the three-term bound."""
    rng = np.random.default_rng(13)
    alpha = beta = 0.8
    violations = 0
    for _ in range(1000):
        u = random_vector(rng, 500, 50)
        v = random_vector(rng, 500, 50)
        diff = dot(u, v) - dot(alpha_mss(u, alpha), alpha_mss(v, beta))
        common = np.intersect1d(u.dims, v.dims, assume_unique=True)
        lu, lv = lp_norm(u, 1), lp_norm(v, 1)
        lui = lp_norm(restrict(u, common), 1)
        lvi = lp_norm(restrict(v, common), 1)
        bound = (
            (1 - alpha) * lu * (1 - beta) * lv
            + lui * (1 - beta) * lv
            + lvi * (1 - alpha) * lu
        )
        if not (-1e-9 <= diff <= bound + 1e-9):
            violations += 1
    report(3, violations == 0, f"1000 pairs at alpha=beta=0.8: {violations} bound violations")
    assert violations == 0


def test_criterion_04_set_sketch_mass_expectation():
    """Kept count and kept l1 mass of the set-level sketch on i.i.d. data.

    The set-level sketch is a count law: per dimension it keeps the
    ceil(alpha * |L_i|) largest values of the column.  Each entry therefore
    survives with rate ~alpha, and the mean kept-*count* fraction per vector
    is alpha.

    The kept-*mass* fraction is larger, because the survivors are the largest
    values.  ``bernoulli_collection`` draws values i.i.d. Uniform(0, 1), so
    keeping the top alpha share of a column keeps every value above 1 - alpha.
    Per entry, the expected kept mass is the integral of x over
    [1 - alpha, 1], i.e. (1 - (1 - alpha)^2) / 2, against an expected mass of
    1/2.  The expected kept-mass fraction is their ratio:

        1 - (1 - alpha)^2 = alpha * (2 - alpha)   (0.36, 0.75, 0.96)

    Both targets must hold within +/- 0.02.  Keeping random entries per
    column would match the count target but give a mass fraction near alpha;
    a per-column alpha-mass rule would give a mass fraction near alpha too.
    """
    vset = bernoulli_collection(10_000, 500, 0.1, seed=23)
    orig_mass = np.array([lp_norm(v, 1) for v in vset])
    orig_nnz = vset.nnz_per_row().astype(np.float64)
    mask = orig_mass > 0
    count = {}
    mass = {}
    for alpha in (0.2, 0.5, 0.8):
        pruned = set_alpha_mss(vset, alpha)
        kept_mass = np.array([lp_norm(v, 1) for v in pruned])
        kept_nnz = pruned.nnz_per_row().astype(np.float64)
        count[alpha] = float((kept_nnz[mask] / orig_nnz[mask]).mean())
        mass[alpha] = float((kept_mass[mask] / orig_mass[mask]).mean())
    count_ok = all(abs(count[a] - a) <= 0.02 for a in count)
    mass_ok = all(abs(mass[a] - a * (2 - a)) <= 0.02 for a in mass)
    report(4, count_ok and mass_ok, (
        "mean kept count / mass fraction per alpha: "
        + ", ".join(f"alpha={a}: {count[a]:.3f} / {mass[a]:.3f}" for a in count)
        + " (required within alpha / alpha*(2-alpha) +/- 0.02)"
    ))
    assert count_ok, f"kept-count fractions {count} are not within +/-0.02 of alpha"
    assert mass_ok, (
        f"kept-mass fractions {mass} are not within +/-0.02 of alpha*(2-alpha), "
        "the expected mass kept by the top alpha share of i.i.d. Uniform(0, 1) columns"
    )


def test_criterion_05_exact_mode_equals_oracle(corpus10k, exact_index, truth10):
    """With every approximation disabled, search is the exact oracle."""
    _, queries = corpus10k
    params = SearchParams(k=10, alpha_q=1.0, heap_factor=1.0)
    mismatches = 0
    for q, expected in zip(queries, truth10):
        got = search(exact_index, None, q, params)
        if got != expected:  # identical ids, scores, and tie order
            mismatches += 1
    report(5, mismatches == 0, f"100 queries, exact mode vs oracle: {mismatches} mismatches")
    assert mismatches == 0


def test_criterion_06_pruning_reaches_target_accuracy(corpus10k, tuned_index, truth10):
    """Tuned pruning keeps accuracy@10 >= 0.9 while evaluating <= 10% of N."""
    t0 = time.perf_counter()
    vset, queries = corpus10k
    params = SearchParams(k=10, alpha_q=0.8, heap_factor=0.9)
    accs, evals = [], []
    for q, expected in zip(queries, truth10):
        got, stats = search(tuned_index, None, q, params, return_stats=True)
        accs.append(accuracy_at_k(expected.ids, got.ids, 10))
        evals.append(stats.forward_evaluations)
    mean_acc = float(np.mean(accs))
    mean_evals = float(np.mean(evals))
    elapsed = time.perf_counter() - t0
    ok = mean_acc >= 0.9 and mean_evals <= 0.1 * len(vset) and elapsed <= 60.0
    report(6, ok, (
        f"mean accuracy@10={mean_acc:.3f} (>=0.9), mean forward evals="
        f"{mean_evals:.0f} ({100 * mean_evals / len(vset):.1f}% of N, <=10%), {elapsed:.1f}s"
    ))
    assert mean_acc >= 0.9
    assert mean_evals <= 0.1 * len(vset)
    assert elapsed <= 60.0


def test_criterion_07_graph_expansion_is_monotone(corpus10k, tuned_index, truth10, exact_graph10k):
    """One-hop expansion never hurts accuracy or any top-k score."""
    _, queries = corpus10k
    base_params = SearchParams(k=10, alpha_q=0.8, heap_factor=0.9)
    exp_params = SearchParams(k=10, alpha_q=0.8, heap_factor=0.9, use_graph=True)
    regressions = 0
    for q, expected in zip(queries, truth10):
        base = search(tuned_index, None, q, base_params)
        expanded = search(tuned_index, exact_graph10k, q, exp_params)
        acc_base = accuracy_at_k(expected.ids, base.ids, 10)
        acc_exp = accuracy_at_k(expected.ids, expanded.ids, 10)
        score_ok = all(
            e >= b - 1e-7 for b, e in zip(base.scores.tolist(), expanded.scores.tolist())
        )
        if acc_exp < acc_base or not score_ok:
            regressions += 1
    report(7, regressions == 0, f"kappa=10 vs kappa=0 paired on 100 queries: {regressions} regressions")
    assert regressions == 0


def test_criterion_08_quantization_error_bound(corpus10k, tuned_index):
    """Every quantized summary entry reconstructs within one step (delta)."""
    vset, _ = corpus10k
    raw_index = build_index(vset, BuildParams(alpha=0.4, beta=0.2, gamma=0.6, quantize=False, seed=5))
    worst_entry = 0.0
    rng = np.random.default_rng(31)
    worst_score = 0.0
    # same seeds, same blocks: the two indexes align block by block
    assert np.array_equal(tuned_index.list_ptr, raw_index.list_ptr)
    assert np.array_equal(tuned_index.summary_ptr, raw_index.summary_ptr)
    assert np.array_equal(tuned_index.summary_blocks, raw_index.summary_blocks)
    checked = 0
    for b in range(tuned_index.num_blocks):
        _, recon = summary_of(tuned_index, b)
        _, raw = summary_of(raw_index, b)
        delta = float(tuned_index.delta[b])
        err = np.abs(recon - raw)
        worst_entry = max(worst_entry, float((err / max(delta, 1e-300)).max()) if delta else float(err.max()))
        assert np.all(err <= delta + 1e-12)
        checked += 1
    # summary-score error against random queries is bounded by delta*||q||_1
    for _ in range(20):
        q = random_vector(rng, vset.dim, 30)
        q_dense = q.to_dense(vset.dim)
        for b in range(tuned_index.list_ptr[50]):  # the blocks of the first 50 lists
            dq, vq = summary_of(tuned_index, b)
            dr, vr = summary_of(raw_index, b)
            err = abs(float(vq @ q_dense[dq]) - float(vr @ q_dense[dr]))
            limit = float(tuned_index.delta[b]) * lp_norm(q, 1)
            worst_score = max(worst_score, err / limit if limit else 0.0)
            assert err <= limit + 1e-12
    report(8, True, (
        f"{checked} summaries: worst entry error {worst_entry:.3f}*delta, "
        f"worst summary-score error {worst_score:.3f}*delta*||q||1"
    ))


def test_criterion_09_neighbor_graph_oracle(corpus10k, tuned_index, exact_graph10k):
    """Graph built through the index matches/approximates the brute-force graph."""
    # exact mode at N=1k: bit-for-bit equality
    small = random_collection(1000, 300, 25, seed=2)
    small_exact = build_exact_graph(small, 10)
    small_index = build_index(small, BuildParams(alpha=1.0, beta=0.05, gamma=1.0, quantize=False, seed=1))
    small_approx = build_approx_graph(small_index, 10)
    exact_equal = np.array_equal(small_exact.neighbors, small_approx.neighbors)
    # tuned mode at N=10k: >= 95% of true edges recovered
    approx = build_approx_graph(tuned_index, 10, alpha_q=0.8, heap_factor=0.9)
    n = len(exact_graph10k)
    agreement = sum(
        np.intersect1d(exact_graph10k.neighbors[i], approx.neighbors[i]).size
        for i in range(n)
    ) / (n * exact_graph10k.width)
    ok = exact_equal and agreement >= 0.95
    report(9, ok, (
        f"exact mode bit-identical at N=1k: {exact_equal}; tuned edge agreement "
        f"at N=10k: {agreement:.4f} (>=0.95)"
    ))
    assert exact_equal
    assert agreement >= 0.95


def test_criterion_10_builds_and_runs_are_byte_identical(tmp_path):
    """Same seeds and params give identical index files and result files."""
    vset = random_collection(2000, 300, 20, seed=51)
    queries = random_collection(25, 300, 12, seed=52)
    save_collection(vset, tmp_path / "docs.bin")
    save_collection(queries, tmp_path / "queries.bin")
    outputs = []
    for tag in ("a", "b"):
        idx = tmp_path / f"idx_{tag}.bin"
        run = tmp_path / f"run_{tag}.tsv"
        assert cli_main([
            "build", "--input", str(tmp_path / "docs.bin"), "--output", str(idx),
            "--alpha", "0.5", "--beta", "0.2", "--gamma", "0.7", "--seed", "9",
        ]) == 0
        assert cli_main([
            "search", "--index", str(idx), "--queries", str(tmp_path / "queries.bin"),
            "--k", "10", "--alpha-q", "0.8", "--heap-factor", "0.9", "--output", str(run),
        ]) == 0
        outputs.append((idx.read_bytes(), run.read_bytes()))
    idx_same = outputs[0][0] == outputs[1][0]
    run_same = outputs[0][1] == outputs[1][1]
    report(10, idx_same and run_same, (
        f"repeated build/search: index files identical={idx_same}, "
        f"result files identical={run_same}"
    ))
    assert idx_same and run_same
