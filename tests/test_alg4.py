import gc
import itertools
import math
import random
import tracemalloc

import pytest

from arbormatch import (
    ConfigError,
    EdgeStream,
    StreamInvariantError,
    alg4_estimate_e_alpha,
    build_graph,
    delete_event,
    estimate_matching_logspace,
    generate_star_forest,
    generate_union_of_forests,
    insert_event,
    offline_alpha_good_set,
    order_stream,
)
from arbormatch import estimators
from arbormatch.estimators import alg4_level_cap, alg4_num_levels
from arbormatch.streams import OrderingPolicy

from conftest import checked_alg4_trace, preferential_attachment, random_graph


def _stream(n, edges):
    return EdgeStream(n=n, events=tuple(insert_event(u, v) for u, v in edges))


def test_path_is_counted_exactly_at_level_zero():
    st = _stream(4, [(0, 1), (1, 2), (2, 3)])
    est = alg4_estimate_e_alpha(st, alpha=1, c=1, epsilon=0.5, seed=0)
    assert est.value == 3
    assert est.params["selected_level"] == 0
    assert est.params["tau"] >= 3


def test_survival_test_by_hand():
    # position 1's endpoint 2 sees two later edges, position 2's one, position 3's none
    st = _stream(5, [(1, 2), (2, 3), (2, 4)])
    for alpha, survivors in ((1, [2, 3]), (2, [1, 2, 3])):
        est = checked_alg4_trace(st, alpha, 1, 0.5, 0, tau_override=math.inf)
        assert est.trace["started"][0] == [1, 2, 3]
        assert est.trace["survivors"][0] == survivors
        assert est.value == len(survivors)


def test_small_streams_return_exact_survivor_counts(rng):
    # level 0 samples everything, so under the cap the count is exact
    for seed in range(20):
        g = random_graph(rng, rng.randint(2, 12))
        st = order_stream(g, "uniform-random", seed)
        for alpha in (1, 2, 5):
            est = alg4_estimate_e_alpha(st, alpha=alpha, c=1, epsilon=0.5, seed=seed)
            assert est.value == len(offline_alpha_good_set(st, alpha))
            assert est.params["selected_level"] == 0


def test_validation():
    st = _stream(2, [(0, 1)])
    with pytest.raises(ConfigError):
        alg4_estimate_e_alpha(st, alpha=0, c=1, epsilon=0.5, seed=0)
    with pytest.raises(ConfigError):
        alg4_estimate_e_alpha(st, alpha=1, c=1, epsilon=1.2, seed=0)
    bad = EdgeStream(n=2, events=(insert_event(0, 1), delete_event(0, 1)))
    with pytest.raises(StreamInvariantError, match="^stream contains delete events$"):
        alg4_estimate_e_alpha(bad, alpha=1, c=1, epsilon=0.5, seed=0)


def test_cyclic_collector_is_paused_in_the_loop_and_left_as_found():
    st = order_stream(generate_union_of_forests(3000, 1, seed=0), "uniform-random", 0)
    bad = EdgeStream(n=2, events=(insert_event(0, 1), delete_event(0, 1)))
    passes = []

    def count(phase, info):
        if phase == "start":
            passes.append(info["generation"])

    was_enabled = gc.isenabled()
    gc.callbacks.append(count)
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            gc.collect()  # zeroes the allocation counts, so no pass is due at the call
            passes.clear()
            alg4_estimate_e_alpha(st, alpha=6, c=1, epsilon=0.5, seed=0)
            # no pass while the loop makes thousands of queues, at most the one due on resuming
            assert len(passes) <= (1 if enabled else 0)
            assert gc.isenabled() is enabled
            with pytest.raises(StreamInvariantError, match="^stream contains delete events$"):
                alg4_estimate_e_alpha(bad, alpha=1, c=1, epsilon=0.5, seed=0)
            assert gc.isenabled() is enabled
    finally:
        gc.callbacks.remove(count)
        (gc.enable if was_enabled else gc.disable)()


def test_the_call_leaves_no_collector_pass_due():
    # the loop's queues are freed before the collector resumes, so their
    # allocation counts are taken back and resuming starts no pass
    st = order_stream(generate_union_of_forests(3000, 1, seed=0), "uniform-random", 0)
    passes = []

    def count(phase, info):
        if phase == "start":
            passes.append(info["generation"])

    was_enabled = gc.isenabled()
    gc.callbacks.append(count)
    try:
        gc.enable()
        gc.collect()
        passes.clear()
        est = alg4_estimate_e_alpha(st, alpha=6, c=1, epsilon=0.5, seed=0)
        assert passes == []
    finally:
        gc.callbacks.remove(count)
        (gc.enable if was_enabled else gc.disable)()
    assert est.space_peak > 3000  # thousands of tests were live at once


def test_live_tests_cost_at_most_41_bytes_per_space_item():
    # space accounting is honest: the bytes the call allocates track the items it counts.
    # Each test's two queue entries hold it inline, and each names the other endpoint,
    # an int the stream already holds: about 37 B per item on CPython 3.11
    stream = order_stream(generate_union_of_forests(20_000, 2, seed=0), "uniform-random", 0)
    tracemalloc.start()
    try:
        est = alg4_estimate_e_alpha(
            stream, alpha=12, c=2, epsilon=0.5, seed=0, tau_override=math.inf
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.params["selected_level"] == 0 and est.space_peak > 10_000
    assert peak <= 41 * est.space_peak


def _fixed_cap_stream(m):
    # union-of-forests at c=2 has m close to 2n; at tau=2000 space_peak is 6000 items at every m
    return order_stream(generate_union_of_forests(m // 2, 2, seed=0), "uniform-random", 0)


def test_bytes_stop_growing_with_the_stream_at_a_fixed_cap():
    # dead queue entries are swept once they outnumber the live entries, so
    # the bytes follow the live tests, not m: the peak reads 0.73 MB at m = 20k and
    # 0.96 MB at m = 80k on CPython 3.11 (1.31x), against 1.01 and 1.70 MB (1.69x)
    # when dead entries stayed until their vertex's next event reached them
    peaks = []
    for m in (20_000, 80_000):
        stream = _fixed_cap_stream(m)
        tracemalloc.start()
        try:
            est = alg4_estimate_e_alpha(
                stream, alpha=12, c=2, epsilon=0.5, seed=0, tau_override=2000
            )
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert est.space_peak == 6000
    assert peaks[1] <= 1.4 * peaks[0], peaks


def test_dead_entries_are_swept_at_a_fixed_cap_and_never_on_survivor_streams(monkeypatch):
    sweeps = []
    sweep = estimators._drop_dead_entries

    def counted(by_vertex, floor):
        sweeps.append(floor)
        return sweep(by_vertex, floor)

    monkeypatch.setattr(estimators, "_drop_dead_entries", counted)
    checked_alg4_trace(_fixed_cap_stream(20_000), 12, 2, 0.5, 0, tau_override=2000)
    assert sweeps, "the floor rose past thousands of tests, yet nothing was swept"
    sweeps.clear()
    survivor = order_stream(generate_union_of_forests(20_000, 1, seed=0), "uniform-random", 0)
    checked_alg4_trace(survivor, 6, 1, 0.6, 0)
    assert sweeps == []  # few tests fail and the floor never rises: only the bookkeeping is paid


def test_empty_stream_is_zero():
    st = EdgeStream(n=4, events=())
    assert alg4_estimate_e_alpha(st, alpha=2, c=1, epsilon=0.5, seed=0).value == 0


def test_deterministic():
    g = generate_union_of_forests(100, 2, seed=6)
    st = order_stream(g, "uniform-random", 1)
    a = alg4_estimate_e_alpha(st, alpha=12, c=2, epsilon=0.3, seed=5)
    b = alg4_estimate_e_alpha(st, alpha=12, c=2, epsilon=0.3, seed=5)
    assert (a.value, a.space_peak) == (b.value, b.space_peak)


def test_survivors_are_a_level_sample_of_the_offline_set(rng):
    # with the cap disabled, each level's surviving tests are exactly the
    # sampled positions intersected with the offline survivor set
    for seed in range(10):
        g = random_graph(rng, rng.randint(3, 12))
        st = order_stream(g, "uniform-random", seed)
        alpha = rng.choice([1, 1.5, 2, 2.5, 3])
        est = checked_alg4_trace(st, alpha, 1, 0.5, seed, tau_override=math.inf)
        offline = offline_alpha_good_set(st, alpha)
        trace = est.trace
        for level, started in trace["started"].items():
            assert set(trace["survivors"][level]) == set(started) & offline


def test_level_size_cap_is_respected():
    g = generate_star_forest(300, 1)
    st = order_stream(g, "uniform-random", 3)
    est = checked_alg4_trace(st, 1, 1, 0.9, 7)
    tau = est.params["tau"]
    trace = est.trace
    for level, alive_max in enumerate(trace["max_live"]):
        if not trace["terminated"][level]:
            assert alive_max <= tau
    levels = est.params["num_levels"]
    assert est.space_peak <= levels * 3 * tau
    for level, survivors in trace["survivors"].items():
        if trace["terminated"][level]:
            assert survivors == []  # a terminated level discards its tests
        else:
            assert len(survivors) <= tau


def test_level_selection_after_level_zero_terminates():
    # 2000 disjoint edges: every position survives at alpha=1, far above tau
    g = generate_star_forest(2000, 1)
    st = order_stream(g, "uniform-random", 0)
    exact = len(offline_alpha_good_set(st, 1))
    assert exact == 2000
    tau = alg4_level_cap(g.n, 1, 1, 0.9)
    assert tau < exact  # forces the sampled-level path
    good = 0
    for seed in range(10):
        est = alg4_estimate_e_alpha(st, alpha=1, c=1, epsilon=0.9, seed=seed)
        assert not est.failed
        assert est.params["selected_level"] >= 1
        if abs(est.value - exact) <= 0.5 * exact:
            good += 1
    assert good >= 8


def test_failure_is_a_value_and_retries_recover():
    # a tiny cap override kills every level that ever samples; on a short
    # dense stream that often terminates all levels, which is the failure path
    g = build_graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    st = order_stream(g, "as-generated")
    failing = None
    for seed in range(300):
        est = alg4_estimate_e_alpha(st, alpha=6, c=1, epsilon=0.9, seed=seed, tau_override=0.5)
        if est.failed:
            failing = seed
            break
    assert failing is not None
    est = alg4_estimate_e_alpha(st, alpha=6, c=1, epsilon=0.9, seed=failing, tau_override=0.5)
    assert est.failed and est.value is None and est.params["selected_level"] is None

    # all four derived attempt seeds failing surfaces failure from the composite
    def run(seed):
        return alg4_estimate_e_alpha(
            st, alpha=6, c=1, epsilon=0.9, seed=seed, tau_override=0.5
        ).failed

    all_fail = next(s for s in range(500) if all(run(s + k) for k in range(4)))
    est = estimate_matching_logspace(st, c=1, epsilon=0.9, seed=all_fail, tau_override=0.5)
    assert est.failed and est.params["attempts"] == 4
    some_pass = next(s for s in range(500) if run(s) and not run(s + 1))
    est = estimate_matching_logspace(st, c=1, epsilon=0.9, seed=some_pass, tau_override=0.5)
    assert not est.failed and est.params["attempts"] == 2


def test_logspace_examples():
    st = _stream(2, [(0, 1)])
    est = estimate_matching_logspace(st, c=1, epsilon=0.5, seed=0)
    assert est.value == 3  # one surviving edge, tripled
    assert est.params["alpha"] == 6
    empty = EdgeStream(n=3, events=())
    assert estimate_matching_logspace(empty, c=1, epsilon=0.5, seed=0).value == 0


def test_logspace_ratio_on_star_forest():
    g = generate_star_forest(200, 5)
    st = order_stream(g, "uniform-random", 2)
    m_star = 200
    est = estimate_matching_logspace(st, c=1, epsilon=0.2, seed=1)
    ratio = est.value / m_star
    assert 1.0 <= ratio <= (22.5 + 6.0) * 1.2


def test_num_levels_uses_the_stream_length_bound():
    assert alg4_num_levels(100, 2, 0.5) == math.floor(math.log(200) / math.log(1.5)) + 1
    assert alg4_num_levels(1, 1, 0.5) == 1


def _coupled_level_workloads():
    # c09's star-forest workloads, then union-of-forests streams far above the
    # cap; at a cap below one test every new test ends all the levels it reaches
    yield order_stream(generate_star_forest(2000, 1), "uniform-random", 0), 1, 0.9, None
    yield order_stream(generate_star_forest(300, 5), "as-generated"), 1, 0.3, None
    for c, n, tau in ((1, 3000, 40), (2, 2000, 150), (3, 1000, 400), (1, 300, 0.5)):
        g = generate_union_of_forests(n, c, seed=c)
        yield order_stream(g, "uniform-random", c), c, 0.3, tau


def test_coupled_levels_nest_and_terminate_from_the_bottom():
    for stream, c, epsilon, tau_override in _coupled_level_workloads():
        for seed in range(4):
            est = checked_alg4_trace(stream, 6 * c, c, epsilon, seed, tau_override=tau_override)
            trace = est.trace
            terminated = trace["terminated"]
            floor = sum(terminated)
            assert terminated == [True] * floor + [False] * (len(terminated) - floor)
            if tau_override is not None:
                assert floor >= 1  # the cap really was exceeded
            for level in range(floor, len(terminated) - 1):
                assert set(trace["survivors"][level + 1]) <= set(trace["survivors"][level])
            # one level's worth of live tests, at 3 items each
            assert est.space_peak <= 3 * est.params["tau"]


def test_collect_trace_only_observes():
    for stream, c, epsilon, tau_override in _coupled_level_workloads():
        for seed in range(2):
            plain, traced = (
                alg4_estimate_e_alpha(
                    stream, alpha=6 * c, c=c, epsilon=epsilon, seed=seed,
                    tau_override=tau_override, collect_trace=flag,
                )
                for flag in (False, True)
            )
            assert plain.trace is None and traced.trace is not None
            assert (plain.value, plain.space_peak, plain.failed, plain.params) == (
                traced.value, traced.space_peak, traced.failed, traced.params
            )


def test_sampled_regime_tracks_the_offline_count():
    # the cap sits far below m, so level 0 terminates and a sampled level is selected
    epsilon = 0.1
    for c in (1, 2):
        hits = 0
        seeds = range(20)
        for seed in seeds:
            g = generate_union_of_forests(3000, c, seed=seed)
            stream = order_stream(g, "uniform-random", seed)
            exact = len(offline_alpha_good_set(stream, 6 * c))
            est = alg4_estimate_e_alpha(
                stream, alpha=6 * c, c=c, epsilon=epsilon, seed=seed, tau_override=200
            )
            assert exact > 10 * 200
            assert not est.failed and est.params["selected_level"] >= 1
            if (1 - 3 * epsilon) * exact <= est.value <= (1 + 3 * epsilon) * exact:
                hits += 1
        assert hits >= 0.9 * len(seeds)


def _repeated_inserts(n, m, seed):
    # an unvalidated stream that inserts some pairs again, so one pair can hold two
    # live tests and a failed test's copy must be told apart from its twin's
    rng = random.Random(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return _stream(n, [rng.choice(pairs) for _ in range(m)])


def _differential_corpus():
    # per c: union-of-forests under all five orderings, a star forest whose
    # 60-leaf hubs see far more than alpha later edges, and repeated inserts
    for c in (1, 2, 3):
        g = generate_union_of_forests(200, c, seed=c)
        for policy in OrderingPolicy:
            yield c, order_stream(g, policy, c)
        yield c, order_stream(generate_star_forest(10, 60), "uniform-random", c)
        yield c, _repeated_inserts(30, 400, c)


def test_queue_loop_matches_the_offline_replay():
    rose = []
    for c, stream in _differential_corpus():
        for alpha in (1, 2.0, 2.5, 2.999, 6 * c):
            for tau in (None, 40, 400, math.inf):
                for seed in range(2):
                    est = checked_alg4_trace(stream, alpha, c, 0.5, seed, tau_override=tau)
                    if tau == 40 and alpha == 6 * c:
                        rose.append(est.trace["terminated"][0])
    assert len(rose) == 42 and all(rose)  # at alpha = 6c, tau = 40 always raised the floor


def test_sampled_levels_hold_exactly_the_replayed_offline_survivors():
    # At a level at or above the final floor every edge whose top reaches it got a
    # test, so its survivors are the offline alpha-good positions whose top, replayed
    # from the seed's one draw per event, reaches that level; only the floor needs the run
    epsilon = 0.5
    bit = 0  # (graph, ordering, alpha) cases where the survival rule dropped an edge
    graphs = [
        (c, make(2000, c, seed=c))
        for c in (1, 2)
        for make in (generate_union_of_forests, preferential_attachment)
    ]
    for c, g in graphs:
        for policy in ("uniform-random", "centers-first"):
            stream = order_stream(g, policy, c)
            for alpha in (c, 6 * c):
                good = offline_alpha_good_set(stream, alpha)
                bit += len(good) < g.m
                for tau, seed in itertools.product((30, 200), range(3)):
                    est = checked_alg4_trace(stream, alpha, c, epsilon, seed, tau_override=tau)
                    num_levels = est.params["num_levels"]
                    rand = random.Random(seed).random
                    tops = [
                        min(int(-math.log(1.0 - rand()) / math.log(1.0 + epsilon)), num_levels - 1)
                        for _ in stream.events
                    ]
                    floor = sum(est.trace["terminated"])
                    assert floor >= 1, (c, policy, alpha, tau, seed)
                    for i in range(floor, num_levels):
                        want = sorted(p for p in good if tops[p - 1] >= i)
                        assert est.trace["survivors"][i] == want, (c, policy, alpha, tau, seed, i)
                    j = est.params["selected_level"]
                    count = sum(tops[p - 1] >= j for p in good)
                    assert est.value == (count / (1.0 + epsilon) ** -j if j else count)
    assert bit >= 14  # all 8 preferential-attachment cases, 6 union-of-forests ones
