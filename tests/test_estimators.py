import math

import pytest

from arbormatch import (
    Alg1Params,
    Alg1State,
    BudgetExceeded,
    ConfigError,
    EdgeStream,
    HasDeletions,
    alg1_estimate,
    alg2_estimate,
    characterize,
    delete_event,
    dynamic_estimate,
    generate_star_forest,
    generate_union_of_forests,
    insert_event,
    maximum_matching_size,
    order_stream,
)

from conftest import path_graph, random_graph, star_graph


def _stream(n, edges):
    return EdgeStream(n=n, events=tuple(insert_event(u, v) for u, v in edges))


# ---------------------------------------------------------------------------
# degree-sampling estimator
# ---------------------------------------------------------------------------


def test_alg1_params_validation():
    with pytest.raises(ConfigError):
        Alg1Params(mu=2, p=0.5, c=1, epsilon=0.5)  # mu must exceed 2c
    with pytest.raises(ConfigError):
        Alg1Params(mu=3, p=0.0, c=1, epsilon=0.5)
    with pytest.raises(ConfigError):
        Alg1Params(mu=3, p=0.5, c=1, epsilon=1.5)
    params = Alg1Params(mu=3, p=0.5, c=1, epsilon=0.5)
    assert params.beta == pytest.approx(12.0)
    assert params.lam == pytest.approx(0.5 / 12.0)


def test_alg1_full_sample_star():
    st = order_stream(star_graph(7), "as-generated")
    params = Alg1Params(mu=3, p=1.0, c=1, epsilon=0.5)
    assert alg1_estimate(st, params, seed=0).value == 1


def test_alg1_full_sample_path():
    st = order_stream(path_graph(4), "as-generated")
    params = Alg1Params(mu=3, p=1.0, c=1, epsilon=0.5)
    assert alg1_estimate(st, params, seed=0).value == 4


def test_alg1_empty_stream():
    st = EdgeStream(n=10, events=())
    params = Alg1Params(mu=3, p=0.5, c=1, epsilon=0.5)
    assert alg1_estimate(st, params, seed=1).value == 0


def test_alg1_rejects_deletions():
    st = EdgeStream(n=3, events=(insert_event(0, 1), delete_event(0, 1)))
    params = Alg1Params(mu=3, p=1.0, c=1, epsilon=0.5)
    with pytest.raises(HasDeletions):
        alg1_estimate(st, params, seed=0)


def test_alg1_deterministic():
    g = generate_union_of_forests(60, 2, seed=4)
    st = order_stream(g, "uniform-random", seed=2)
    params = Alg1Params(mu=5, p=0.3, c=2, epsilon=0.5)
    a = alg1_estimate(st, params, seed=77)
    b = alg1_estimate(st, params, seed=77)
    assert (a.value, a.space_peak) == (b.value, b.space_peak)
    assert a.value != alg1_estimate(st, params, seed=78).value or True  # seeds differ freely


def test_alg1_state_counter_invariants(rng):
    for seed in range(15):
        g = random_graph(rng, rng.randint(3, 14))
        st = order_stream(g, "uniform-random", seed)
        params = Alg1Params(mu=3, p=0.5, c=1, epsilon=0.5)
        state = Alg1State(g.n, params, seed)
        for ev in st.events:
            state.apply(ev)
        deg = g.degrees
        for v in state.sampled:
            assert state.deg[v] == deg[v]  # sampled vertices see every incident edge
        for w, lw in state.lower.items():
            assert w not in state.sampled
            assert 1 <= lw <= deg[w]  # lower-bound property
        for u, v in state.stored:
            assert u in state.sampled or v in state.sampled
        assert state.space_peak == state.items()  # insert-only: monotone growth


def test_alg1_space_counts_sample_and_counters():
    st = order_stream(star_graph(4), "as-generated")
    params = Alg1Params(mu=3, p=1.0, c=1, epsilon=0.5)
    est = alg1_estimate(st, params, seed=0)
    # 4 stored edges + 5 degree counters, no outside neighbors
    assert est.space_peak == 9


def test_alg1_success_window_on_long_path():
    # parameters chosen so the one-run failure bound exp(-lam^2 M* p / 4) is small
    n = 4000
    g = path_graph(n)
    m_star = n // 2
    epsilon, mu, c, p = 0.9, 3, 1, 0.75
    params = Alg1Params(mu=mu, p=p, c=c, epsilon=epsilon)
    bound = 1.0 - math.exp(-(params.lam**2) * m_star * p / 4.0)
    assert bound >= 0.86
    st = order_stream(g, "as-generated")
    lo, hi = (1 - epsilon) * m_star, (1 + epsilon) * params.beta * m_star
    hits = sum(1 for seed in range(150) if lo <= alg1_estimate(st, params, seed).value <= hi)
    assert hits / 150 >= bound - 0.05


# ---------------------------------------------------------------------------
# greedy + sampling composite
# ---------------------------------------------------------------------------


def test_alg2_single_edge():
    st = _stream(2, [(0, 1)])
    est = alg2_estimate(st, c=1, mu=3, epsilon=0.5, seed=0)
    assert est.value == 2
    assert est.params["branch"] == "greedy"


def test_alg2_perfect_star_forest():
    g = generate_star_forest(3, 1)
    est = alg2_estimate(order_stream(g, "uniform-random", 1), c=1, mu=3, epsilon=0.5, seed=0)
    assert est.value == 6


def test_alg2_empty_stream():
    st = EdgeStream(n=5, events=())
    assert alg2_estimate(st, c=1, mu=3, epsilon=0.5, seed=0).value == 0


def test_alg2_rejects_bad_mu():
    st = _stream(2, [(0, 1)])
    with pytest.raises(ConfigError):
        alg2_estimate(st, c=2, mu=4, epsilon=0.5, seed=0)


def test_alg2_greedy_branch_is_two_approximation(rng):
    for seed in range(25):
        g = random_graph(rng, rng.randint(2, 12))
        st = order_stream(g, "uniform-random", seed)
        est = alg2_estimate(st, c=max(1, g.n), mu=2 * max(1, g.n) + 1, epsilon=0.5, seed=seed)
        m_star = maximum_matching_size(g)
        assert est.params["branch"] == "greedy"  # t is far above any desk-scale matching
        assert est.value == 2 * est.params["greedy_r"]
        assert m_star <= est.value <= 2 * m_star or m_star == 0


def test_alg2_deterministic():
    g = generate_union_of_forests(80, 2, seed=1)
    st = order_stream(g, "uniform-random", 0)
    a = alg2_estimate(st, c=2, mu=5, epsilon=0.5, seed=9)
    b = alg2_estimate(st, c=2, mu=5, epsilon=0.5, seed=9)
    assert (a.value, a.space_peak, a.params["t"]) == (b.value, b.space_peak, b.params["t"])


# ---------------------------------------------------------------------------
# insert/delete variant
# ---------------------------------------------------------------------------


def test_dynamic_insert_then_delete_is_zero():
    st = EdgeStream(n=4, events=(insert_event(0, 1), delete_event(0, 1)))
    est = dynamic_estimate(st, c=1, mu=3, epsilon=0.5, seed=0)
    assert est.value == 0


def test_dynamic_star_with_center_decoys():
    # star on vertices 0..7 plus 7 decoy edges at the center, inserted and deleted
    events = [insert_event(0, i) for i in range(1, 8)]
    events += [insert_event(0, i) for i in range(8, 15)]
    events += [delete_event(0, i) for i in range(8, 15)]
    st = EdgeStream(n=15, events=tuple(events))
    est = dynamic_estimate(st, c=1, mu=3, epsilon=0.5, seed=0)
    assert est.params["p"] == 1.0
    assert est.params["alg1_value"] == 1  # counters decremented back to the static case
    assert est.value == 2 * est.params["greedy_r"] == 2


def test_dynamic_budget_enforced():
    events = []
    for _ in range(5):
        events.append(insert_event(0, 1))
        events.append(delete_event(0, 1))
    st = EdgeStream(n=2, events=tuple(events))  # 10 events > 4*c*n = 8
    with pytest.raises(BudgetExceeded):
        dynamic_estimate(st, c=1, mu=3, epsilon=0.5, seed=0)


def test_dynamic_on_insert_only_matches_greedy_contract(rng):
    for seed in range(10):
        g = random_graph(rng, rng.randint(2, 10))
        st = order_stream(g, "uniform-random", seed)
        est = dynamic_estimate(st, c=max(1, g.n), mu=2 * max(1, g.n) + 1, epsilon=0.5, seed=seed)
        m_star = maximum_matching_size(g)
        if est.params["branch"] == "greedy":
            assert m_star <= est.value <= 2 * m_star or m_star == 0


def test_dynamic_counters_match_final_graph():
    from arbormatch import generate_dynamic_stream

    for seed in range(8):
        g = generate_union_of_forests(50, 1, seed=seed)
        st = generate_dynamic_stream(g, 0.5, seed=seed + 50)
        est = dynamic_estimate(st, c=1, mu=3, epsilon=0.4, seed=seed)
        assert est.params["p"] == 1.0  # tiny t at this scale
        rep = characterize(g, 3)
        # full sample: the estimate is exactly h_mu + n_l of the final live graph
        assert est.params["alg1_value"] == rep.h_mu + rep.n_l


def test_dynamic_deterministic():
    from arbormatch import generate_dynamic_stream

    g = generate_union_of_forests(40, 2, seed=2)
    st = generate_dynamic_stream(g, 0.3, seed=8)
    a = dynamic_estimate(st, c=2, mu=5, epsilon=0.5, seed=3)
    b = dynamic_estimate(st, c=2, mu=5, epsilon=0.5, seed=3)
    assert (a.value, a.space_peak) == (b.value, b.space_peak)
    assert a.params["matching_substitute"] == "uniform-edge-sample+greedy-rebuild"
