import copy
import dataclasses
import hashlib
import math
import pathlib
import random
import re
import statistics
import tracemalloc

import pytest

from arbormatch import (
    Alg1Params,
    ConfigError,
    EdgeStream,
    StreamInvariantError,
    alg1_estimate,
    alg2_estimate,
    alg4_estimate_e_alpha,
    characterize,
    delete_event,
    dynamic_estimate,
    estimate_matching_logspace,
    generate_dynamic_stream,
    generate_random_tree,
    generate_star_forest,
    generate_union_of_forests,
    greedy_maximal_matching,
    insert_event,
    later_degree_profile,
    maximum_matching_size,
    offline_alpha_good_set,
    order_stream,
)
from arbormatch.estimators import Alg1State

from conftest import (
    BAD_ENDPOINTS,
    alg1_exact_mean,
    path_graph,
    random_graph,
    reference_split,
    star_graph,
)


def _stream(n, edges):
    return EdgeStream(n=n, events=tuple(insert_event(u, v) for u, v in edges))


def _replay(state, events):
    """Feed every event to an Alg1State, inserts and deletes alike."""
    for kind, u, v in events:
        if kind == "+":
            state.apply_insert(u, v)
        else:
            state.apply_delete(u, v)
    return state


def _dynamic_streams(n, fractions):
    """generate_dynamic_stream outputs on union-of-forests graphs (c=2)."""
    return [
        generate_dynamic_stream(generate_union_of_forests(n, 2, seed=seed), fraction, seed + 20)
        for seed, fraction in enumerate(fractions)
    ]


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


INSERT_ONLY_CONSUMERS = {
    "alg1": lambda st: alg1_estimate(st, Alg1Params(mu=3, p=1.0, c=1, epsilon=0.5), 0),
    "alg2": lambda st: alg2_estimate(st, c=1, mu=3, epsilon=0.5, seed=0),
    "alg4": lambda st: alg4_estimate_e_alpha(st, alpha=1, c=1, epsilon=0.5, seed=0),
    "logspace": lambda st: estimate_matching_logspace(st, c=1, epsilon=0.5, seed=0),
    "later_degree_profile": later_degree_profile,
    "offline_alpha_good_set": lambda st: offline_alpha_good_set(st, 1),
    "greedy_maximal_matching": greedy_maximal_matching,
}


@pytest.mark.parametrize("consumer", sorted(INSERT_ONLY_CONSUMERS))
def test_insert_only_consumers_reject_a_final_delete(consumer):
    st = _stream(4, [(0, 1), (1, 2), (2, 3)])
    INSERT_ONLY_CONSUMERS[consumer](st)
    bad = EdgeStream(n=4, events=(*st.events, delete_event(0, 1)))
    with pytest.raises(StreamInvariantError, match="^stream contains delete events$"):
        INSERT_ONLY_CONSUMERS[consumer](bad)


@pytest.mark.parametrize("consumer", sorted(INSERT_ONLY_CONSUMERS))
def test_insert_only_consumers_reject_an_unknown_kind(consumer):
    # the stream refuses the kind when built, ahead of a later delete, so no
    # consumer ever reads it
    for second in (insert_event(1, 2), delete_event(1, 2)):
        with pytest.raises(StreamInvariantError, match=r"^event 1: unknown kind '\*'$"):
            INSERT_ONLY_CONSUMERS[consumer](EdgeStream(n=3, events=(("*", 0, 1), second)))


@pytest.mark.parametrize("bad", sorted(BAD_ENDPOINTS))
@pytest.mark.parametrize("consumer", [*sorted(INSERT_ONLY_CONSUMERS), "dynamic"])
def test_every_consumer_rejects_endpoints_outside_the_stream_rule(consumer, bad):
    # no consumer checks endpoints itself: a stream built or rebuilt with them
    # raises before the consumer runs
    events, pos = BAD_ENDPOINTS[bad]
    _, u, v = events[pos - 1]
    message = f"event {pos}: endpoints ({u}, {v}) must satisfy 0 <= u < v < n=3"
    run = INSERT_ONLY_CONSUMERS.get(consumer, lambda st: dynamic_estimate(st, 1, 3, 0.5, 0))
    with pytest.raises(StreamInvariantError, match=f"^{re.escape(message)}$"):
        run(EdgeStream(3, events))
    good = _stream(3, [(0, 1)])
    run(good)
    with pytest.raises(StreamInvariantError, match=f"^{re.escape(message)}$"):
        run(dataclasses.replace(good, events=events))


def test_dynamic_rejects_an_unknown_kind():
    with pytest.raises(StreamInvariantError, match="^event 2: unknown kind 'x'$"):
        dynamic_estimate(EdgeStream(3, (("+", 0, 1), ("x", 1, 2))), 1, 3, 0.5, 0)


class _PassCountingEvents(tuple):
    """A stream's events, counting the passes made over them."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


@pytest.mark.parametrize("consumer", [*sorted(INSERT_ONLY_CONSUMERS), "dynamic"])
def test_each_consumer_reads_the_stream_in_one_pass(consumer):
    # construction checked kinds and endpoints, so no consumer walks the events to
    # check them again; the later-degree profile reads them backward by index
    events = _PassCountingEvents(insert_event(u, v) for u, v in [(0, 1), (1, 2), (2, 3)])
    st = EdgeStream(4, events)
    events.passes = 0
    run = INSERT_ONLY_CONSUMERS.get(consumer, lambda st: dynamic_estimate(st, 1, 3, 0.5, 0))
    run(st)
    by_index = consumer in ("later_degree_profile", "offline_alpha_good_set")
    assert events.passes == (0 if by_index else 1)


def test_bad_parameters_win_over_deletes():
    bad = EdgeStream(n=2, events=(insert_event(0, 1), delete_event(0, 1)))
    with pytest.raises(ConfigError):
        alg2_estimate(bad, c=2, mu=4, epsilon=0.5, seed=0)
    with pytest.raises(ConfigError):
        alg4_estimate_e_alpha(bad, alpha=0, c=1, epsilon=0.5, seed=0)


def test_every_estimator_returns_zero_on_an_empty_vertex_set():
    st = EdgeStream(0, ())
    runs = [
        alg1_estimate(st, Alg1Params(mu=3, p=0.5, c=1, epsilon=0.5), 0),
        alg2_estimate(st, c=1, mu=3, epsilon=0.5, seed=0),
        alg4_estimate_e_alpha(st, alpha=6, c=1, epsilon=0.5, seed=0),
        estimate_matching_logspace(st, c=1, epsilon=0.5, seed=0),
        dynamic_estimate(st, c=1, mu=3, epsilon=0.5, seed=0),
    ]
    assert [(est.value, est.space_peak, est.failed) for est in runs] == [(0, 0, False)] * 5


def test_alg1_deterministic():
    g = generate_union_of_forests(60, 2, seed=4)
    st = order_stream(g, "uniform-random", seed=2)
    params = Alg1Params(mu=5, p=0.3, c=2, epsilon=0.5)
    a = alg1_estimate(st, params, seed=77)
    b = alg1_estimate(st, params, seed=77)
    assert (a.value, a.space_peak) == (b.value, b.space_peak)
    assert a.value != alg1_estimate(st, params, seed=78).value or True  # seeds differ freely


def test_alg1_state_counter_invariants(rng):
    streams = [
        order_stream(random_graph(rng, rng.randint(3, 14)), "uniform-random", seed)
        for seed in range(15)
    ]
    streams += _dynamic_streams(40, (0.5, 1.0, 0.5, 1.0))  # deletes undo the counters
    params = Alg1Params(mu=3, p=0.5, c=1, epsilon=0.5)
    for seed, st in enumerate(streams):
        state = _replay(Alg1State(st.n, params, seed), st.events)
        live = st.live_edges()
        nbrs = [set() for _ in range(st.n)]
        for u, v in live:
            nbrs[u].add(v)
            nbrs[v].add(u)
        sampled = state.neighbors
        for v, stored in sampled.items():
            assert stored == nbrs[v]  # sampled vertices see every live incident edge
        for w, lw in state.lower.items():
            assert w not in sampled
            assert 1 <= lw <= len(nbrs[w])  # lower-bound property
        assert state.edges == sum(1 for u, v in live if u in sampled or v in sampled)


def test_alg1_delete_of_an_edge_never_stored_changes_nothing():
    params = Alg1Params(mu=3, p=1.0, c=1, epsilon=0.5)
    state = _replay(Alg1State(4, params, 0), _stream(4, [(0, 1), (1, 2), (2, 3)]).events)
    items, neighbors, lower = state.items(), copy.deepcopy(state.neighbors), dict(state.lower)
    state.apply_delete(0, 2)  # both endpoints are sampled at p = 1, and 0 never stored 2
    assert (state.items(), state.neighbors, state.lower) == (items, neighbors, lower)


@pytest.mark.parametrize("p", [0.3, 0.5, 1.0])
def test_alg1_split_matches_the_per_neighbour_reference(rng, p):
    streams = [
        order_stream(random_graph(rng, rng.randint(2, 30)), "uniform-random", seed)
        for seed in range(20)
    ]
    streams += _dynamic_streams(60, (0.5, 1.0, 0.5, 1.0))
    params = Alg1Params(mu=3, p=p, c=1, epsilon=0.5)
    s1_total = s2_total = all_high = 0
    for seed, st in enumerate(streams):
        state = _replay(Alg1State(st.n, params, seed), st.events)
        s1, s2 = state.split()
        want1, want2 = reference_split(state)
        assert (sorted(s1), sorted(s2)) == (sorted(want1), sorted(want2))
        s1_total += len(s1)
        s2_total += len(s2)
        # low sampled vertices whose neighbours all have high counters
        all_high += sum(
            1 for v, nbrs in state.neighbors.items()
            if nbrs and len(nbrs) <= params.mu and v not in want1
        )
    assert s1_total and s2_total and all_high  # every branch of the split is reached


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


FORESTS = {
    "random-tree": lambda: generate_random_tree(300, 1),
    "star-forest": lambda: generate_star_forest(40, 6),
    "union-of-forests": lambda: generate_union_of_forests(300, 1, 2),
}


@pytest.mark.parametrize("p", [0.1, 0.3, 0.7])
@pytest.mark.parametrize("forest", sorted(FORESTS))
def test_alg1_mean_matches_the_exact_mean_on_forests(forest, p):
    # a bias that keeps every run inside c05's beta*M* window still moves the mean
    g = FORESTS[forest]()
    st = order_stream(g, "uniform-random", 0)
    params = Alg1Params(mu=3, p=p, c=1, epsilon=0.5)
    values = [alg1_estimate(st, params, seed).value for seed in range(400)]
    mean = statistics.fmean(values)
    stderr = statistics.stdev(values) / math.sqrt(len(values))
    assert abs(mean - alg1_exact_mean(g, p, mu=3)) <= 4 * stderr


@pytest.mark.parametrize("p", [0.3, 0.7])
@pytest.mark.parametrize("forest", ["random-tree", "union-of-forests"])
def test_alg1_state_mean_after_churn_matches_the_final_forest(forest, p):
    # deletes undo inserts: after a churn stream the state has the exact mean of
    # the forest left live, as if that forest had been inserted alone
    g = FORESTS[forest]()
    churn = generate_dynamic_stream(g, 0.5, 0)
    assert churn.live_edges() == set(g.edges)
    assert sum(kind == "-" for kind, _, _ in churn.events) > g.m // 3
    params = Alg1Params(mu=3, p=p, c=1, epsilon=0.5)
    values = [
        _replay(Alg1State(g.n, params, seed), churn.events).estimate() for seed in range(400)
    ]
    mean = statistics.fmean(values)
    stderr = statistics.stdev(values) / math.sqrt(len(values))
    assert abs(mean - alg1_exact_mean(g, p, mu=3)) <= 4 * stderr


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


def test_alg2_sampler_branch_is_alg1_at_the_same_p_and_seed():
    # c06's star forest: the greedy side reaches t on every ordering, so alg2 returns
    # its sampler's value, which alg1 run alone at alg2's p and seed must equal; the
    # exact-mean test of alg1 on forests then holds alg2's sampler path too
    g = generate_star_forest(16_000, 1)
    for seed in range(3):
        st = order_stream(g, "uniform-random", seed)
        est = alg2_estimate(st, c=1, mu=3, epsilon=0.8, seed=seed)
        assert est.params["branch"] == "alg1" and est.params["p"] < 1
        params = Alg1Params(mu=3, p=est.params["p"], c=1, epsilon=0.8)
        assert est.value == alg1_estimate(st, params, seed).value


def test_alg2_greedy_branch_is_two_approximation(rng):
    for seed in range(25):
        g = random_graph(rng, rng.randint(2, 12))
        st = order_stream(g, "uniform-random", seed)
        est = alg2_estimate(st, c=max(1, g.n), mu=2 * max(1, g.n) + 1, epsilon=0.5, seed=seed)
        m_star = maximum_matching_size(g)
        assert est.params["branch"] == "greedy"  # t is far above any desk-scale matching
        assert est.value == 2 * est.params["greedy_r"]
        assert m_star <= est.value <= 2 * m_star or m_star == 0


def test_alg1_and_alg2_space_peak_is_the_largest_per_event_count(rng):
    # reference: replay each estimator event by event and keep the running maximum
    for seed in range(20):
        g = random_graph(rng, rng.randint(2, 40))
        st = order_stream(g, "uniform-random", seed)
        params = Alg1Params(mu=3, p=0.5, c=1, epsilon=0.5)
        state = Alg1State(g.n, params, seed)
        peak = state.items()
        for _, u, v in st.events:
            state.apply_insert(u, v)
            peak = max(peak, state.items())
        assert alg1_estimate(st, params, seed).space_peak == peak

        est = alg2_estimate(st, c=1, mu=3, epsilon=0.5, seed=seed)
        t = est.params["t"]
        state = Alg1State(g.n, Alg1Params(mu=3, p=est.params["p"], c=1, epsilon=0.5), seed)
        matched, r = set(), 0
        peak = state.items()
        for _, u, v in st.events:
            if r < t and u not in matched and v not in matched:
                matched |= {u, v}
                r += 1
            state.apply_insert(u, v)
            peak = max(peak, state.items() + r)
        assert est.space_peak == peak

    # dynamic: replay the live-edge set and the degree state, deletes included;
    # the insert that takes the set past capacity counts, and the set is gone after it
    for seed, st in enumerate(_dynamic_streams(80, (0.5, 1.0, 0.3))):
        for capacity in (None, 3, 20):
            est = dynamic_estimate(st, c=2, mu=5, epsilon=0.5, seed=seed,
                                   capacity_override=capacity)
            params = Alg1Params(mu=5, p=est.params["p"], c=2, epsilon=0.5)
            state = Alg1State(st.n, params, random.Random(seed).getrandbits(64))
            live = set()
            peak = state.items()
            for kind, u, v in st.events:
                if kind == "+":
                    state.apply_insert(u, v)
                    if live is not None:
                        live.add((u, v))
                    peak = max(peak, state.items() + len(live or ()))
                    if live is not None and len(live) > est.params["capacity"]:
                        live = None
                else:
                    state.apply_delete(u, v)
                    if live is not None:
                        live.discard((u, v))
            assert (live is None) == (est.params["greedy_r"] is None)
            assert est.space_peak == peak


def test_alg2_deterministic():
    g = generate_union_of_forests(80, 2, seed=1)
    st = order_stream(g, "uniform-random", 0)
    a = alg2_estimate(st, c=2, mu=5, epsilon=0.5, seed=9)
    b = alg2_estimate(st, c=2, mu=5, epsilon=0.5, seed=9)
    assert (a.value, a.space_peak, a.params["t"]) == (b.value, b.space_peak, b.params["t"])


@pytest.mark.parametrize("algorithm, ceiling", [
    ("alg1-p1", 200), ("alg1-p0.1", 110), ("alg2", 170),
    # 270 held the hash-and-level edge sample; the live-edge set meets 180
    ("dynamic", 270), ("dynamic", 180),
])
def test_degree_samplers_stay_under_a_bytes_per_space_item_ceiling(algorithm, ceiling):
    # next to alg4's 41 B/item: a stored edge costs a set entry at each
    # sampled endpoint, and every sampled vertex owns a set
    if algorithm == "dynamic":
        st = generate_dynamic_stream(generate_union_of_forests(5000, 1, seed=0), 0.5, 0)
    else:
        st = order_stream(generate_union_of_forests(20_000, 2, seed=0), "uniform-random", 0)
    tracemalloc.start()
    try:
        if algorithm == "dynamic":
            est = dynamic_estimate(st, c=1, mu=3, epsilon=0.5, seed=0)
        elif algorithm == "alg2":
            est = alg2_estimate(st, c=2, mu=7, epsilon=0.5, seed=0)
        else:
            p = 1.0 if algorithm == "alg1-p1" else 0.1
            est = alg1_estimate(st, Alg1Params(mu=5, p=p, c=2, epsilon=0.5), seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.space_peak > 10_000
    assert peak <= ceiling * est.space_peak


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
    with pytest.raises(StreamInvariantError, match="^stream of 10 events exceeds the budget 8$"):
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
    for seed in range(8):
        g = generate_union_of_forests(50, 1, seed=seed)
        st = generate_dynamic_stream(g, 0.5, seed=seed + 50)
        est = dynamic_estimate(st, c=1, mu=3, epsilon=0.4, seed=seed)
        assert est.params["p"] == 1.0  # tiny t at this scale
        rep = characterize(g, 3)
        # full sample: the estimate is exactly h_mu + n_l of the final live graph
        assert est.params["alg1_value"] == rep.h_mu + rep.n_l


def test_dynamic_deterministic():
    g = generate_union_of_forests(40, 2, seed=2)
    st = generate_dynamic_stream(g, 0.3, seed=8)
    a = dynamic_estimate(st, c=2, mu=5, epsilon=0.5, seed=3)
    b = dynamic_estimate(st, c=2, mu=5, epsilon=0.5, seed=3)
    assert (a.value, a.space_peak) == (b.value, b.space_peak)
    assert a.params == b.params
    assert a.params["greedy_r"] is not None  # 4t^2 holds every live edge at this size


# ---------------------------------------------------------------------------
# the dynamic estimator's live-edge set
# ---------------------------------------------------------------------------


def test_dynamic_greedy_side_is_the_greedy_matching_of_the_live_edges():
    for seed, st in enumerate(_dynamic_streams(120, (0.0, 0.5, 1.0, 0.5, 1.0))):
        live = {}  # live edges in insertion order: a re-inserted edge goes last
        for kind, u, v in st.events:
            if kind == "+":
                live[u, v] = None
            else:
                del live[u, v]
        reference = EdgeStream(n=st.n, events=tuple(insert_event(u, v) for u, v in live))
        est = dynamic_estimate(st, c=2, mu=5, epsilon=0.5, seed=seed)
        assert est.params["capacity"] == 4 * est.params["t"] ** 2 >= len(live)
        assert est.params["greedy_r"] == greedy_maximal_matching(reference)


def test_dynamic_overflow_forces_the_alg1_branch():
    g = generate_union_of_forests(300, 1, seed=7000)
    st = generate_dynamic_stream(g, 0.5, seed=1)
    kept = dynamic_estimate(st, c=1, mu=3, epsilon=0.5, seed=0)
    assert kept.params["capacity"] == 4 * kept.params["t"] ** 2
    assert kept.params["greedy_r"] is not None
    est = dynamic_estimate(st, c=1, mu=3, epsilon=0.5, seed=0, capacity_override=50)
    assert est.params["capacity"] == 50
    assert est.params["greedy_r"] is None
    assert est.params["branch"] == "alg1"
    assert est.value == est.params["alg1_value"] == kept.params["alg1_value"]
    with pytest.raises(ConfigError):
        dynamic_estimate(st, c=1, mu=3, epsilon=0.5, seed=0, capacity_override=0)


def test_dynamic_overflow_on_few_large_stars_takes_the_exact_alg1_branch():
    # fewer than t stars, so the greedy side would decide, but more live edges
    # than the capacity: the degree sampler answers, and at p = 1 it counts
    # each high-degree centre once
    g = generate_star_forest(10, 60)
    m_star = maximum_matching_size(g)
    st = generate_dynamic_stream(g, 0.5, seed=0)
    for seed in range(5):
        est = dynamic_estimate(st, c=1, mu=3, epsilon=0.5, seed=seed, capacity_override=100)
        assert m_star == 10 < est.params["t"]
        assert g.m > est.params["capacity"]
        assert est.params["p"] == 1.0
        assert est.params["branch"] == "alg1"
        assert est.value == 10 == m_star


def test_dynamic_overflowed_runs_land_in_the_c10_window():
    mu, c, epsilon = 3, 1, 0.5
    beta = mu * (2.0 * mu / (mu - 2 * c + 1) + 1.0)
    runs = hits = 0
    for i in range(20):
        g = generate_union_of_forests(100, c, seed=7000 + i)
        m_star = maximum_matching_size(g)
        st = generate_dynamic_stream(g, 0.3 if i % 2 == 0 else 0.5, seed=i)
        for seed in range(5):
            est = dynamic_estimate(
                st, c=c, mu=mu, epsilon=epsilon, seed=seed, capacity_override=40
            )
            runs += 1
            if (1 - epsilon) * m_star <= est.value <= (1 + epsilon) * beta * m_star:
                hits += 1
    assert hits / runs >= 0.8, f"{hits}/{runs}"


# ---------------------------------------------------------------------------
# every estimator's output, pinned
# ---------------------------------------------------------------------------


def _pinned_estimator_runs():
    """(name, run) per estimator configuration; each run maps (graph, c, seed)
    to an Estimate."""
    def ordered(g, seed):
        return order_stream(g, "uniform-random", seed)

    yield "alg1", lambda g, c, s: alg1_estimate(
        ordered(g, s), Alg1Params(mu=2 * c + 1, p=0.3, c=c, epsilon=0.5), s
    )
    yield "alg2", lambda g, c, s: alg2_estimate(ordered(g, s), c, 2 * c + 1, 0.9, s)
    for tau in (None, 40, 0.5):
        yield f"alg4 tau={tau}", lambda g, c, s, tau=tau: alg4_estimate_e_alpha(
            ordered(g, s), 6 * c, c, 0.3, s, tau_override=tau
        )
    for tau in (None, 0.5):
        yield f"logspace tau={tau}", lambda g, c, s, tau=tau: estimate_matching_logspace(
            ordered(g, s), c, 0.3, s, tau_override=tau
        )
    for capacity in (None, 30):
        yield f"dynamic capacity={capacity}", lambda g, c, s, cap=capacity: dynamic_estimate(
            generate_dynamic_stream(g, 0.5, s), c, 2 * c + 1, 0.5, s, capacity_override=cap
        )


# sha256 over repr((value, space_peak, failed, sorted(params.items()))) of
# every run, union-of-forests n in {300, 3000} x c in {1, 2} x seeds {0, 1, 2},
# plus 3000 disjoint edges, on which alg2 (at epsilon 0.9) saturates its cutoff
# and takes the alg1 branch; recorded before alg2 and dynamic shared a helper
PINNED_ESTIMATOR_DIGESTS = {
    "alg1": "1e4b529795f19c0f371b159948e724287f4ee5e8f699dbfc4775e86991ba7264",
    "alg2": "33712f4316dee8a3acd22b763ef169906707d6320d5d97499530054d7f2a68eb",
    "alg4 tau=None": "badbb7952cbd8757c810098eee5f82a815b04b560bbfc665d5569ca6b68e9f72",
    "alg4 tau=40": "0387d4445490d62a685b92aa30dc45c7e06a7b4806a9ee29c9ec0e2d9d5de264",
    "alg4 tau=0.5": "2ff78d8fb00383a967254fb80593146ddc6e175b0db40dfcad0e04871a5a8146",
    "logspace tau=None": "efb44e5537402c659889cbcee65fd6311f9b749a5142f21b28a1617a7c39e80a",
    "logspace tau=0.5": "e11d1575260a479e05616b56497d22ed916de03351cf649bb7e03b71f8beff7b",
    "dynamic capacity=None": "7c6b23745a36860fa273f2b509f08a42293cb6cde837655542c74ab5db04469f",
    "dynamic capacity=30": "1ee45b6ee26d649855cafaa141a8654aa7093c2f899527309be3817ff4bed5d8",
}


def test_estimators_match_pinned_digests():
    graphs = [
        (generate_union_of_forests(n, c, seed=n + c), c) for n in (300, 3000) for c in (1, 2)
    ]
    graphs.append((generate_star_forest(3000, 1), 1))
    got = {}
    for name, run in _pinned_estimator_runs():
        h = hashlib.sha256()
        for g, c in graphs:
            for seed in range(3):
                est = run(g, c, seed)
                record = (est.value, est.space_peak, est.failed, sorted(est.params.items()))
                h.update(repr(record).encode())
        got[name] = h.hexdigest()
    assert got == PINNED_ESTIMATOR_DIGESTS


# ---------------------------------------------------------------------------
# the README's params table
# ---------------------------------------------------------------------------

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _readme_params_table():
    """estimator -> (keys every run returns, keys a successful run adds), read
    from the README's table: parenthesized remarks dropped, and the keys after
    a ';' ("on success also") counted as success-only."""
    lines = README.read_text().splitlines()
    start = lines.index("| estimator | `params` keys |")
    table = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        name, keys = (cell.strip() for cell in line.strip("|").split("|"))
        always, _, on_success = re.sub(r"\([^)]*\)", "", keys).partition(";")
        table[name.strip("`")] = tuple(re.findall(r"`(\w+)`", part) for part in (always, on_success))
    return table


def test_readme_params_table_lists_the_returned_keys():
    st = order_stream(generate_union_of_forests(60, 1, seed=0), "uniform-random", 0)
    churn = generate_dynamic_stream(generate_union_of_forests(60, 1, seed=0), 0.5, 0)
    runs = {
        "alg1_estimate": [alg1_estimate(st, Alg1Params(mu=3, p=0.5, c=1, epsilon=0.5), 0)],
        "alg2_estimate": [alg2_estimate(st, 1, 3, 0.5, 0)],
        "alg4_estimate_e_alpha": [
            alg4_estimate_e_alpha(st, 6, 1, 0.5, 0, tau_override=tau) for tau in (None, 0.5)
        ],
        "estimate_matching_logspace": [
            estimate_matching_logspace(st, 1, 0.5, 0, tau_override=tau) for tau in (None, 0.5)
        ],
        "dynamic_estimate": [dynamic_estimate(churn, 1, 3, 0.5, 0)],
    }
    table = _readme_params_table()
    assert sorted(table) == sorted(runs)
    for name, estimates in runs.items():
        always, on_success = table[name]
        for est in estimates:
            assert list(est.params) == always + ([] if est.failed else on_success), name
    for name in ("alg4_estimate_e_alpha", "estimate_matching_logspace"):
        assert [est.failed for est in runs[name]] == [False, True]  # both outcomes read


def _readme_trace_keys():
    """The trace keys the README's ``Estimate.trace`` paragraph names, each as
    ``key[i]``, in its order."""
    text = README.read_text()
    start = text.index("`alg4_estimate_e_alpha(..., collect_trace=True)` also fills")
    return re.findall(r"`(\w+)\[i\]`", text[start:text.index("\n\n", start)])


def test_readme_trace_paragraph_lists_the_returned_keys():
    st = order_stream(generate_union_of_forests(60, 1, seed=0), "uniform-random", 0)
    for tau in (None, 0.5):  # a run that succeeds and one that fails
        est = alg4_estimate_e_alpha(st, 6, 1, 0.5, 0, tau_override=tau, collect_trace=True)
        assert _readme_trace_keys() == list(est.trace)
