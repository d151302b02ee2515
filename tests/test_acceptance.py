"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s``) and asserts
the criterion. The union-of-forests corpus is generated once and shared by
the exact-inequality and estimator-ratio criteria.
"""

import math
import random
import statistics
import time
from bisect import bisect_right

import pytest

from arbormatch import (
    Alg1Params,
    alg1_estimate,
    alg2_estimate,
    alg4_estimate_e_alpha,
    characterize,
    check_lemmas,
    degeneracy,
    delete_event,
    dynamic_estimate,
    estimate_matching_logspace,
    forest_matching_size,
    generate_dynamic_stream,
    generate_star_forest,
    generate_union_of_forests,
    greedy_maximal_matching,
    insert_event,
    later_degree_profile,
    maximum_matching_size,
    offline_alpha_good_set,
    order_stream,
)
from arbormatch.estimators import alg2_greedy_cutoff, dynamic_greedy_cutoff
from arbormatch.harness import lemma_alpha_threshold
from arbormatch.streams import EdgeStream

from conftest import (
    brute_force_matching_size,
    checked_alg4_trace,
    naive_degeneracy,
    path_graph,
    petersen,
    preferential_attachment,
    random_graph,
    star_graph,
)

CORPUS_SIZE = 1000
CORPUS_MASTER_SEED = 20250810


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {name} -- {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def corpus():
    """1000 union-of-forests graphs, c in {1,2,3}, n <= 200, with exact M*."""
    rng = random.Random(CORPUS_MASTER_SEED)
    out = []
    for idx in range(CORPUS_SIZE):
        c = 1 + idx % 3
        n = rng.randint(10, 200)
        g = generate_union_of_forests(n, c, seed=rng.randrange(2**32))
        out.append((g, maximum_matching_size(g)))
    return out


def test_corpus_degeneracy_matches_naive_peel(corpus):
    for g, _ in corpus:
        assert degeneracy(g) == naive_degeneracy(g)


# ---------------------------------------------------------------------------
# 1. oracle equivalence
# ---------------------------------------------------------------------------


def test_c01_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(101)
    mismatches = 0
    trials = 10_000
    for _ in range(trials):
        g = random_graph(rng, rng.randint(1, 7))
        if maximum_matching_size(g) != brute_force_matching_size(g):
            mismatches += 1
    pet = petersen()
    pet_ok = maximum_matching_size(pet) == brute_force_matching_size(pet) == 5
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and pet_ok and elapsed < 60.0
    _report(
        1,
        "oracle equivalence",
        ok,
        f"{trials} random graphs, mismatches={mismatches}, petersen_ok={pet_ok}, "
        f"elapsed={elapsed:.1f}s (<60s)",
    )


# ---------------------------------------------------------------------------
# 2. exact degree-threshold inequalities on the corpus
# ---------------------------------------------------------------------------


def test_c02_degree_threshold_inequalities(corpus):
    start = time.perf_counter()
    violations = 0
    checked = 0
    for g, m_star in corpus:
        c = g.c_declared
        for mu in range(2 * c + 1, 6 * c + 1):
            rep = characterize(g, mu, m_star)
            factor = 2.0 * mu / (mu - 2 * c + 1)
            checked += 1
            if rep.h_mu > factor * m_star + 1e-9:
                violations += 1
            if not (m_star <= rep.h_mu + rep.m_mu <= (factor + 1.0) * m_star + 1e-9):
                violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 300.0
    _report(
        2,
        "degree-threshold inequalities",
        ok,
        f"{len(corpus)} graphs, {checked} (graph, mu) pairs, violations={violations}, "
        f"elapsed={elapsed:.1f}s (<300s)",
    )


# ---------------------------------------------------------------------------
# 3. per-ordering survivor-count windows on the corpus
# ---------------------------------------------------------------------------


def test_c03_alpha_good_windows(corpus):
    orderings = 10
    violations = 0
    checked = 0
    for gi, (g, m_star) in enumerate(corpus):
        c = g.c_declared
        mus = list(range(2 * c + 1, 6 * c + 1))
        alphas = {mu: lemma_alpha_threshold(c, mu) for mu in mus}
        for j in range(orderings):
            stream = order_stream(g, "uniform-random", seed=gi * 1000 + j)
            profile = sorted(later_degree_profile(stream))
            for mu in mus:
                alpha = alphas[mu]
                e_alpha = bisect_right(profile, alpha)
                coeff = 0.5 - c / (mu + 1.0)
                checked += 1
                if not (coeff * m_star - 1e-9 <= e_alpha <= (1.25 * alpha + 2.0) * m_star + 1e-9):
                    violations += 1
            # mu = 6c-1 specializes the threshold to exactly 6c
            e_6c = bisect_right(profile, 6 * c)
            if not (m_star <= 3 * e_6c <= (22.5 * c + 6.0) * m_star + 1e-9):
                violations += 1
    ok = violations == 0
    _report(
        3,
        "survivor-count windows per ordering",
        ok,
        f"{len(corpus)} graphs x {orderings} orderings, {checked} window checks, "
        f"violations={violations}",
    )


# ---------------------------------------------------------------------------
# 4. forest window at threshold 1
# ---------------------------------------------------------------------------


def test_c04_tree_window():
    rng = random.Random(404)
    violations = 0
    trees = 500
    orderings = 20
    from arbormatch import generate_random_tree

    for i in range(trees):
        n = rng.randint(2, 100)
        g = generate_random_tree(n, seed=rng.randrange(2**32))
        m_star = forest_matching_size(g)
        for j in range(orderings):
            stream = order_stream(g, "uniform-random", seed=i * 100 + j)
            e_1 = sum(1 for w in later_degree_profile(stream) if w <= 1)
            if not (m_star <= e_1 <= 2 * m_star):
                violations += 1
    ok = violations == 0
    _report(
        4,
        "forest survivor window",
        ok,
        f"{trees} trees x {orderings} orderings, violations={violations}",
    )


# ---------------------------------------------------------------------------
# 5. degree-sampling expectation window
# ---------------------------------------------------------------------------


def test_c05_alg1_expectation_window():
    seeds = 10_000
    mu, c = 3, 1
    cases = [("star-7", star_graph(7)), ("path-4", path_graph(4)), ("path-8", path_graph(8))]
    details = []
    ok = True
    for label, g in cases:
        rep = characterize(g, mu)
        lo = rep.m_mu + rep.h_mu
        hi = mu * (rep.m_mu + rep.h_mu)
        stream = order_stream(g, "as-generated")
        for p in (0.5, 1.0):
            params = Alg1Params(mu=mu, p=p, c=c, epsilon=0.5)
            values = [alg1_estimate(stream, params, seed).value for seed in range(seeds)]
            mean = statistics.fmean(values)
            se = statistics.pstdev(values) / math.sqrt(seeds)
            inside = lo - 3 * se <= mean <= hi + 3 * se
            ok = ok and inside
            details.append(f"{label}@p={p}: mean={mean:.3f} in [{lo},{hi}]+/-3se({3*se:.3f})")
    _report(5, "expectation window", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 6. composite success probability at the prescribed sampling rate
# ---------------------------------------------------------------------------


def _run_c06_corpus(g, m_star, mu, c, epsilon, runs):
    beta = mu * (2.0 * mu / (mu - 2 * c + 1) + 1.0)
    lam = epsilon / beta
    t = alg2_greedy_cutoff(g.n, c, epsilon, beta)
    assert m_star >= t, f"corpus too small: M*={m_star} < t={t}"
    p = 8.0 / (lam * lam * t)
    assert p < 1.0
    lo, hi = (1 - epsilon) * m_star, (1 + epsilon) * beta * m_star
    hits = 0
    branches = {"greedy": 0, "alg1": 0}
    for seed in range(runs):
        stream = order_stream(g, "uniform-random", seed)
        est = alg2_estimate(stream, c=c, mu=mu, epsilon=epsilon, seed=seed)
        assert est.params["p"] == pytest.approx(p)
        branches[est.params["branch"]] += 1
        if lo <= est.value <= hi:
            hits += 1
    return hits, branches, t, p


def test_c06_alg2_success_probability():
    mu, c, epsilon, runs = 3, 1, 0.8, 200
    g = generate_union_of_forests(15_000, c, seed=60601)
    m_star = forest_matching_size(g)
    hits_a, branches_a, t_a, p_a = _run_c06_corpus(g, m_star, mu, c, epsilon, runs)

    g2 = generate_star_forest(16_000, 1)
    # one edge per star and 2k vertices: the matching is exactly k, no oracle needed
    m_star2 = 16_000
    assert greedy_maximal_matching(order_stream(g2, "as-generated")) == m_star2
    hits_b, branches_b, t_b, p_b = _run_c06_corpus(g2, m_star2, mu, c, epsilon, runs)
    assert branches_b["alg1"] == runs  # the greedy task saturates t every time

    threshold = 0.86 - 0.05
    ok = hits_a / runs >= threshold and hits_b / runs >= threshold
    _report(
        6,
        "composite success probability",
        ok,
        f"forest: {hits_a}/{runs} in window (t={t_a}, p={p_a:.3f}, M*={m_star}, "
        f"branches={branches_a}); star-forest: {hits_b}/{runs} in window "
        f"(t={t_b}, p={p_b:.3f}, M*={m_star2}); need >= {threshold:.2f}",
    )


# ---------------------------------------------------------------------------
# 7. survivor-count estimator accuracy
# ---------------------------------------------------------------------------


def test_c07_alg4_accuracy_on_star_forest():
    g = generate_star_forest(1000, 5)
    stream = order_stream(g, "as-generated")
    alpha, c, epsilon = 6, 1, 0.1
    exact = len(offline_alpha_good_set(stream, alpha))
    assert exact == 5000
    runs = 100
    hits = 0
    exact_returns = 0
    tau = None
    for seed in range(runs):
        est = alg4_estimate_e_alpha(stream, alpha=alpha, c=c, epsilon=epsilon, seed=seed)
        tau = est.params["tau"]
        if (1 - 3 * epsilon) * exact <= est.value <= (1 + 3 * epsilon) * exact:
            hits += 1
        if est.params["selected_level"] == 0 and est.value == exact:
            exact_returns += 1
    # the whole survivor set fits under the cap, so level 0 must return it exactly
    ok = hits >= 90 and exact <= tau and exact_returns == runs
    _report(
        7,
        "survivor-count accuracy",
        ok,
        f"{hits}/{runs} within (1+/-{3 * epsilon:.1f})x{exact}; exact level-0 returns="
        f"{exact_returns}/{runs} (tau={tau:.0f} >= {exact})",
    )


# ---------------------------------------------------------------------------
# 8. end-to-end matching ratio over adversarial and random orderings
# ---------------------------------------------------------------------------


def test_c08_logspace_ratio_over_corpus(corpus):
    epsilon = 0.2
    policies = ("centers-first", "leaves-last", "uniform-random")
    runs = 0
    hits = 0
    worst = (None, None)
    for gi, (g, m_star) in enumerate(corpus):
        c = g.c_declared
        lo = 1.0 - 3 * epsilon
        hi = (22.5 * c + 6.0) * (1.0 + 3 * epsilon)
        for policy in policies:
            stream = order_stream(g, policy, seed=gi)
            est = estimate_matching_logspace(stream, c=c, epsilon=epsilon, seed=gi)
            runs += 1
            ratio = est.value / m_star
            if lo <= ratio <= hi:
                hits += 1
            elif worst[0] is None:
                worst = (gi, ratio)
    ok = hits / runs >= 0.9
    _report(
        8,
        "matching ratio windows",
        ok,
        f"{hits}/{runs} ratios inside [1-3eps, (22.5c+6)(1+3eps)]; first outlier={worst}",
    )


# ---------------------------------------------------------------------------
# 9. space instrumentation
# ---------------------------------------------------------------------------


def test_c09_space_instrumentation(corpus):
    # level sampler: per-event cap on live tests and the global item bound
    failures = 0
    workloads = [
        (order_stream(generate_star_forest(2000, 1), "uniform-random", 0), 1, 0.9),
        (order_stream(generate_star_forest(300, 5), "as-generated"), 1, 0.3),
    ]
    for gi in range(0, 60, 7):
        g, _ = corpus[gi]
        workloads.append((order_stream(g, "uniform-random", gi), g.c_declared, 0.4))
    for stream, c, epsilon in workloads:
        for seed in range(3):
            est = checked_alg4_trace(stream, 6 * c, c, epsilon, seed)
            tau = est.params["tau"]
            levels = est.params["num_levels"]
            cn = c * stream.n
            level_bound = math.ceil(math.log(cn) / math.log(1 + epsilon)) + 1
            assert levels <= level_bound
            for lvl in range(levels):
                if not est.trace["terminated"][lvl] and est.trace["max_live"][lvl] > tau:
                    failures += 1
            if est.space_peak > level_bound * 3 * tau:
                failures += 1

    # degree sampler: items scale linearly with the sampling probability once
    # p is small enough that the either-endpoint-sampled terms stop saturating
    slopes = []
    for c, gseed in ((1, 1), (3, 2)):
        g = generate_union_of_forests(2000, c, seed=gseed)
        stream = order_stream(g, "uniform-random", 0)
        ps = [2.0**-k for k in range(3, 7)]
        means = []
        for p in ps:
            params = Alg1Params(mu=2 * c + 1, p=p, c=c, epsilon=0.5)
            peaks = [
                alg1_estimate(stream, params, seed).space_peak for seed in range(40)
            ]
            means.append(statistics.fmean(peaks))
        fit = statistics.linear_regression([math.log(p) for p in ps], [math.log(m) for m in means])
        slopes.append(fit.slope)
    slope_ok = all(0.8 <= s <= 1.2 for s in slopes)
    ok = failures == 0 and slope_ok
    _report(
        9,
        "space instrumentation",
        ok,
        f"level-cap/item-bound failures={failures}; "
        f"space-vs-p log-log slopes={[round(s, 3) for s in slopes]} (need 1 +/- 0.2)",
    )


# ---------------------------------------------------------------------------
# 10. insert/delete variant sanity
# ---------------------------------------------------------------------------


def test_c10_dynamic_variant():
    mu, c, epsilon = 3, 1, 0.5
    n = 300
    beta = mu * (2.0 * mu / (mu - 2 * c + 1) + 1.0)
    t_expected = dynamic_greedy_cutoff(n, c, epsilon, beta)
    assert t_expected == math.ceil((8 * beta * n * c / epsilon**2) ** (1 / 3))
    runs = 0
    hits = 0
    for i in range(40):
        fraction = 0.3 if i % 2 == 0 else 0.5
        g = generate_union_of_forests(n, c, seed=7000 + i)
        m_star = forest_matching_size(g)
        stream = generate_dynamic_stream(g, fraction, seed=i)
        assert len(stream.events) <= 4 * c * n
        lo, hi = (1 - epsilon) * m_star, (1 + epsilon) * beta * m_star
        for seed in range(5):
            est = dynamic_estimate(stream, c=c, mu=mu, epsilon=epsilon, seed=seed)
            assert est.params["t"] == t_expected
            runs += 1
            if lo <= est.value <= hi:
                hits += 1
    cancel = EdgeStream(n=4, events=(insert_event(0, 1), delete_event(0, 1)))
    cancel_value = dynamic_estimate(cancel, c=c, mu=mu, epsilon=epsilon, seed=0).value
    ok = runs == 200 and hits / runs >= 0.8 and cancel_value == 0
    _report(
        10,
        "insert/delete variant",
        ok,
        f"{hits}/{runs} in [(1-eps)M*, (1+eps)beta*M*] (t={t_expected}); "
        f"insert+delete cancels to {cancel_value}",
    )


# ---------------------------------------------------------------------------
# 11. a corpus where the survival rule bites
# ---------------------------------------------------------------------------


def test_c11_survival_rule_on_preferential_attachment():
    # union-of-forests keeps nearly every edge at alpha = 6c, so c07/c08 cannot see
    # the survival rule; preferential attachment drops about a fifth of them
    epsilon = 0.2
    runs = 0
    lemma_failures = 0
    exact_returns = 0
    in_window = 0
    fractions = []
    for c in (1, 2):
        lo = 1.0 - 3 * epsilon
        hi = (22.5 * c + 6.0) * (1.0 + 3 * epsilon)
        for gi in range(20):
            g = preferential_attachment(2000, c, seed=gi)
            lemma_failures += not check_lemmas(g, orderings=3, mu=2 * c + 1, seed=gi).passed
            stream = order_stream(g, "uniform-random", seed=gi)
            e_6c = len(offline_alpha_good_set(stream, 6 * c))
            fractions.append(e_6c / g.m)
            runs += 1
            # the survivor set fits under the cap, so level 0 must return it exactly
            est = alg4_estimate_e_alpha(stream, alpha=6 * c, c=c, epsilon=epsilon, seed=gi)
            exact_returns += est.params["selected_level"] == 0 and est.value == e_6c
            ratio = estimate_matching_logspace(stream, c=c, epsilon=epsilon, seed=gi).value / (
                maximum_matching_size(g)
            )
            in_window += lo <= ratio <= hi
    ok = (
        lemma_failures == 0
        and exact_returns == runs
        and in_window >= 0.9 * runs
        and max(fractions) < 0.9  # the rule really drops edges
    )
    _report(
        11,
        "survival rule on preferential attachment",
        ok,
        f"lemma failures={lemma_failures}; exact level-0 e_6c returns={exact_returns}/{runs}; "
        f"{in_window}/{runs} ratios inside [1-3eps, (22.5c+6)(1+3eps)]; "
        f"e_6c/m in [{min(fractions):.3f}, {max(fractions):.3f}]",
    )
