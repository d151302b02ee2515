import contextlib
import re
import signal

import pytest

from arbormatch import (
    Graph,
    GraphError,
    ParseError,
    StreamInvariantError,
    build_graph,
    characterize,
    degeneracy,
    forest_matching_size,
    generate_random_tree,
    generate_star_forest,
    generate_union_of_forests,
    greedy_maximal_matching,
    later_degree_profile,
    maximum_matching_size,
    offline_alpha_good_set,
    order_stream,
    parse_graph,
    serialize_graph,
)
from arbormatch.streams import EdgeStream

from conftest import (
    brute_force_matching_size,
    naive_alpha_positions,
    naive_degeneracy,
    path_graph,
    petersen,
    random_graph,
    star_graph,
    subset_dp_matching_size,
)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_build_graph_basic():
    g = build_graph(3, [(0, 1), (1, 2)])
    assert g.m == 2
    assert g.edges == ((0, 1), (1, 2))


def test_adjacency_is_built_once_per_graph():
    g = build_graph(4, [(0, 1), (1, 2), (0, 3)])
    assert g.adjacency is g.adjacency  # degeneracy and the matcher share it
    assert g.adjacency == [[1, 3], [0, 2], [1], [0]]


def test_build_graph_rejects_duplicates():
    with pytest.raises(GraphError, match=r"duplicate edge \(0, 1\)"):
        build_graph(3, [(0, 1), (0, 1)])
    # same pair in the other orientation is still a duplicate
    with pytest.raises(GraphError, match=r"duplicate edge \(1, 0\)"):
        build_graph(3, [(0, 1), (1, 0)])


def test_build_graph_rejects_out_of_range():
    with pytest.raises(GraphError, match=r"\(0, 2\) has an endpoint outside \[0, 2\)"):
        build_graph(2, [(0, 2)])


def test_build_graph_rejects_self_loops():
    with pytest.raises(GraphError, match=r"self-loop \(1, 1\)"):
        build_graph(3, [(1, 1)])


def test_build_graph_rejects_a_negative_vertex_count():
    with pytest.raises(GraphError, match="^vertex count must be non-negative, got -1$"):
        build_graph(-1, [])


def test_build_graph_checks_declared_bound():
    k5 = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    with pytest.raises(GraphError, match="degeneracy"):
        build_graph(5, k5, c_declared=1)
    assert build_graph(5, k5, c_declared=2).c_declared == 2


def test_graph_built_directly_enforces_its_declared_bound():
    k5 = tuple((i, j) for i in range(5) for j in range(i + 1, 5))
    with pytest.raises(GraphError, match=r"degeneracy 4 exceeds 2\*c_declared = 2"):
        Graph(5, k5, c_declared=1)
    with pytest.raises(GraphError, match="c_declared must be a positive integer"):
        Graph(2, ((0, 1),), c_declared=0)
    assert Graph(5, k5).c_declared is None
    assert Graph(5, k5, c_declared=2).degeneracy == 4


def test_graph_text_format_round_trip():
    g = build_graph(4, [(0, 1), (2, 3)])
    text = serialize_graph(g)
    assert text == "n 4\n0 1\n2 3\n"
    assert parse_graph(text) == g


def test_parse_graph_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 1"):
        parse_graph("m 4\n0 1\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_graph("n 4\n0 1 2\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_graph("n -1\n")


@pytest.mark.parametrize("text, message", [
    ("n four\n0 1\n", "line 1: vertex count is not an integer"),
    ("n 4\n0 1\n# a comment\n1 x\n", "line 4: endpoints are not integers"),
    ("# a comment only\n\n", "line 1: missing 'n <count>' header"),
], ids=["count", "endpoints", "no-header"])
def test_parse_graph_rejects_malformed_text(text, message):
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        parse_graph(text)


# ---------------------------------------------------------------------------
# matching oracles
# ---------------------------------------------------------------------------


def test_matching_triangle():
    tri = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert maximum_matching_size(tri) == 1


def test_matching_path():
    assert maximum_matching_size(path_graph(4)) == 2


def test_matching_petersen_matches_brute_force():
    g = petersen()
    assert brute_force_matching_size(g) == 5
    assert maximum_matching_size(g) == 5


def test_brute_force_examples():
    assert brute_force_matching_size(build_graph(2, [(0, 1)])) == 1
    assert brute_force_matching_size(star_graph(5)) == 1
    two_triangles = build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert brute_force_matching_size(two_triangles) == 2


def test_brute_force_cap():
    g = build_graph(10, [(i, j) for i in range(8) for j in range(i + 1, 8)][:25])
    with pytest.raises(GraphError, match="25 edges exceeds the exhaustive cap of 24"):
        brute_force_matching_size(g)


def test_matching_oracle_equivalence_small(rng):
    for _ in range(400):
        g = random_graph(rng, rng.randint(1, 7))
        assert maximum_matching_size(g) == brute_force_matching_size(g)


def test_subset_dp_agrees_with_brute_force(rng):
    for _ in range(100):
        g = random_graph(rng, rng.randint(1, 8))
        if g.m <= 24:
            assert subset_dp_matching_size(g) == brute_force_matching_size(g)


def test_matching_agrees_with_subset_dp_beyond_brute_force_cap(rng):
    for _ in range(300):
        n = rng.randint(10, 16)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = build_graph(n, rng.sample(pairs, rng.randint(25, 40)))
        assert maximum_matching_size(g) == subset_dp_matching_size(g)


@contextlib.contextmanager
def _deadline(seconds):
    """Raise TimeoutError in the block once it has run for ``seconds`` of wall
    time, so a search that never ends fails the test instead of hanging it
    (SIGALRM: POSIX only)."""
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_matching_where_state_left_by_an_earlier_search_misleads():
    # A search that keeps the previous root's "used" marks skips re-queueing
    # a blossom vertex in the first graph and finds 6, not 7; one that keeps
    # the previous root's blossom members never ends on the second. Those two
    # were found under a plain greedy seed. Under the Karp-Sipser seed the
    # kept marks find 6, not 7, on the third and 7, not 8, on the fourth, and
    # the kept members never end on the fifth.
    cases = [
        (14, [
            (7, 13), (4, 5), (0, 13), (8, 10), (1, 3), (0, 6), (1, 12), (4, 10),
            (2, 4), (0, 7), (3, 8), (5, 13), (2, 8), (2, 7), (3, 7), (7, 12),
            (10, 12), (3, 10), (9, 10), (4, 7), (11, 12), (2, 6), (2, 3), (1, 10),
            (0, 2), (3, 6), (4, 12),
        ], 7),
        (7, [
            (2, 6), (4, 5), (3, 5), (0, 6), (1, 6), (1, 5), (4, 6), (0, 5),
            (1, 2), (0, 1), (5, 6), (0, 2),
        ], 3),
        (14, [
            (0, 9), (3, 11), (10, 13), (9, 12), (1, 3), (0, 1), (7, 10), (1, 12),
            (4, 9), (2, 8), (0, 4), (6, 12), (6, 11), (3, 13), (5, 8), (2, 6),
            (7, 13), (2, 5), (0, 2),
        ], 7),
        (16, [
            (7, 9), (0, 15), (1, 6), (2, 14), (6, 13), (5, 7), (3, 10), (1, 11),
            (2, 9), (5, 14), (8, 13), (12, 15), (10, 13), (4, 8), (3, 4), (0, 1),
            (10, 14), (6, 11), (0, 12),
        ], 8),
        (9, [
            (1, 2), (2, 3), (0, 7), (4, 7), (1, 3), (0, 5), (6, 8), (0, 4),
            (2, 7), (0, 2), (5, 7),
        ], 4),
    ]
    for n, edges, expected in cases:
        g = build_graph(n, edges)
        assert subset_dp_matching_size(g) == expected
        with _deadline(5):
            size = maximum_matching_size(g)
        assert size == expected


def _pendant_cascade(rng, kind):
    """Edges and vertex count of a graph whose degree-1 vertices, matched
    away one after another, expose new ones: a caterpillar, a spider, or a
    path with pendant triangles."""
    if kind == "caterpillar":
        spine = rng.randint(1, 8)
        edges = [(i, i + 1) for i in range(spine - 1)]
        n = spine
        for s in range(spine):
            for _ in range(rng.randint(0, 2)):
                if n < 16:
                    edges.append((s, n))
                    n += 1
    elif kind == "spider":
        edges, n = [], 1
        while n < 16:
            leg = rng.randint(1, min(4, 16 - n))
            edges += [(0 if i == 0 else n + i - 1, n + i) for i in range(leg)]
            n += leg
            if rng.random() < 0.3:
                break
    else:
        spine = rng.randint(1, 6)
        edges = [(i, i + 1) for i in range(spine - 1)]
        n = spine
        for s in range(spine):
            if n + 2 <= 16 and rng.random() < 0.6:
                if rng.random() < 0.5:
                    edges += [(s, n), (s, n + 1), (n, n + 1)]  # triangle on the path
                    n += 2
                elif n + 3 <= 16:
                    edges += [(s, n), (n, n + 1), (n, n + 2), (n + 1, n + 2)]  # on a stalk
                    n += 3
    return n, edges


def test_matching_on_pendant_cascades(rng):
    # the seed's degree-1 rule does most of the work here; scrambled labels
    # change which vertex it takes first
    for _ in range(300):
        n, edges = _pendant_cascade(rng, rng.choice(("caterpillar", "spider", "triangles")))
        g = _relabelled(rng, n, edges)
        assert maximum_matching_size(g) == subset_dp_matching_size(g)


def test_matching_on_forests_matches_the_forest_oracle():
    # the greedy step never guesses on a forest, so these sizes come from the
    # seed matching alone, with no blossom search
    forests = [generate_random_tree(n, seed) for n in (2, 3, 9, 50, 400, 5000) for seed in range(3)]
    forests += [generate_union_of_forests(n, 1, seed) for n in (2, 3, 9, 50, 400, 5000) for seed in range(3)]
    forests += [generate_star_forest(k, s) for k in (1, 2, 7) for s in (1, 2, 5)]
    for t in forests:
        assert maximum_matching_size(t) == forest_matching_size(t)


def test_matching_where_the_greedy_step_guesses_wrong():
    # no vertex has degree 1, and the vertex-order greedy step's first match
    # is in no maximum matching: the seed falls one short, so only the
    # blossom phase after a guess reaches M*
    cases = [
        (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)], 2),
        (5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)], 2),
        (6, [(0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (2, 4), (2, 5)], 3),
        (7, [(0, 2), (0, 3), (1, 2), (1, 5), (2, 3), (2, 4), (2, 6), (4, 5), (5, 6)], 3),
        (8, [(0, 1), (0, 6), (1, 4), (1, 5), (2, 3), (2, 5), (3, 5), (4, 7), (6, 7)], 4),
    ]
    for n, edges, expected in cases:
        g = build_graph(n, edges)
        assert min(map(len, g.adjacency)) >= 2
        assert brute_force_matching_size(g) == expected
        assert maximum_matching_size(g) == expected


def test_matching_where_two_trees_meet_only_through_a_blossom():
    # In the first graph the seed matches 0-9, 1-7, 3-8 and 4-6 and leaves 2
    # and 5 free. 2's tree reaches 7 first, as odd, so 5's edge to 7 meets an
    # odd vertex; the one augmenting path, 2-1=7-5, needs 7 even, which only
    # the triangle 2-7-1 contracted in 2's tree makes it. In the second the
    # seed leaves 5 and 8 free, and the one augmenting path,
    # 5-4=7-3=2-6=1-8, runs through blossoms contracted in both trees.
    cases = [
        (10, [
            (2, 7), (3, 6), (1, 7), (4, 9), (5, 7), (5, 9), (1, 2), (3, 8), (3, 5),
            (4, 6), (6, 8), (0, 9), (5, 8),
        ], 5),
        (10, [
            (1, 6), (3, 7), (2, 3), (4, 7), (0, 9), (2, 4), (7, 9), (4, 5), (6, 8),
            (1, 8), (2, 6), (2, 5),
        ], 5),
    ]
    for n, edges, expected in cases:
        g = build_graph(n, edges)
        assert brute_force_matching_size(g) == expected
        with _deadline(5):
            size = maximum_matching_size(g)
        assert size == expected


def test_matching_where_the_last_phase_finds_trees_that_never_meet():
    # Free vertices left in different odd components: their trees each
    # contract a blossom and never meet, so the phase fails and ends the
    # matcher below the counting bound. In the second graph a first phase
    # augments inside K4 minus an edge before that.
    triangle_and_c5 = [(0, 1), (1, 2), (0, 2)] + [(3 + i, 3 + (i + 1) % 5) for i in range(5)]
    k4_minus_edge = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]
    cases = [
        (8, triangle_and_c5, 3),
        (12, k4_minus_edge + [(4 + u, 4 + v) for u, v in triangle_and_c5], 5),
    ]
    for n, edges, expected in cases:
        g = build_graph(n, edges)
        assert brute_force_matching_size(g) == expected
        with _deadline(5):
            size = maximum_matching_size(g)
        assert size == expected


def test_matching_where_the_counting_bound_ends_the_matcher():
    # Odd n and isolated vertices: once the matching pairs all but at most
    # one of the non-isolated vertices no phase runs. The greedy step guesses
    # wrong on each base graph, so one augmentation reaches the bound.
    bases = [
        (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)], 2),
        (5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)], 2),
        (7, [(0, 2), (0, 3), (1, 2), (1, 5), (2, 3), (2, 4), (2, 6), (4, 5), (5, 6)], 3),
    ]
    for n, edges, expected in bases:
        for before, after in ((0, 0), (1, 0), (0, 1), (2, 3)):
            g = build_graph(before + n + after, [(before + u, before + v) for u, v in edges])
            assert brute_force_matching_size(g) == expected
            assert maximum_matching_size(g) == expected
    for n in (11, 13, 15):
        for seed in range(10):
            g = generate_union_of_forests(n, 2, seed)
            for isolated in (0, 1):
                h = Graph(g.n + isolated, g.edges)
                assert maximum_matching_size(h) == subset_dp_matching_size(h)


def test_matching_with_a_forest_beside_a_guess(rng):
    # one guess, in a triangle or in K4 minus an edge, sends every free
    # vertex through the blossom search, the forest's free roots included
    for seed in range(10):
        tree = generate_random_tree(rng.randint(2, 60), seed)
        expected = forest_matching_size(tree)
        for other, size in (([(0, 1), (1, 2), (0, 2)], 1), ([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)], 2)):
            k = max(max(e) for e in other) + 1
            before = other + [(k + u, k + v) for u, v in tree.edges]
            after = list(tree.edges) + [(tree.n + u, tree.n + v) for u, v in other]
            for edges in (before, after):
                g = build_graph(tree.n + k, edges)
                assert maximum_matching_size(g) == expected + size


def _odd_cycle_edges(start, k):
    return [(start + i, start + (i + 1) % k) for i in range(k)]


def _relabelled(rng, n, edges):
    perm = list(range(n))
    rng.shuffle(perm)
    return build_graph(n, [(perm[u], perm[v]) for u, v in edges])


def test_matching_on_odd_cycles_joined_by_chords(rng):
    # nested and neighbouring blossoms on n <= 16, scrambled labels
    for _ in range(150):
        edges, n = [], 0
        while True:
            k = rng.choice((3, 5, 7))
            if n + k > 16:
                break
            edges += _odd_cycle_edges(n, k)
            n += k
        present = set(edges)
        for _ in range(rng.randint(0, 4)):
            u, v = sorted(rng.sample(range(n), 2))
            if (u, v) not in present and (v, u) not in present:
                present.add((u, v))
                edges.append((u, v))
        g = _relabelled(rng, n, edges)
        assert maximum_matching_size(g) == subset_dp_matching_size(g)


def test_matching_on_disjoint_odd_cycles_and_petersen_copies(rng):
    # many roots each contract a blossom and fail: state one root's search
    # leaves behind must not leak into the next
    pet = petersen().edges
    for _ in range(20):
        edges, n, expected = [], 0, 0
        for _ in range(rng.randint(5, 30)):
            if rng.random() < 0.3:
                edges += [(n + u, n + v) for u, v in pet]
                n, expected = n + 10, expected + 5
            else:
                k = rng.choice((3, 5, 7, 9, 11))
                edges += _odd_cycle_edges(n, k)
                n, expected = n + k, expected + k // 2
        n += rng.randint(0, 5)  # isolated vertices
        assert maximum_matching_size(_relabelled(rng, n, edges)) == expected


def test_matching_on_structured_graphs():
    from arbormatch import generate_star_forest

    sf = generate_star_forest(50, 3)
    assert maximum_matching_size(sf) == 50
    assert maximum_matching_size(path_graph(101)) == 50
    # odd cycle forces a blossom contraction
    c9 = build_graph(9, [(i, (i + 1) % 9) for i in range(9)])
    assert maximum_matching_size(c9) == 4


def test_forest_matching_agrees_with_other_oracles(rng):
    for seed in range(30):
        t = generate_random_tree(rng.randint(2, 60), seed)
        assert forest_matching_size(t) == maximum_matching_size(t)
    small = generate_random_tree(8, 123)
    assert forest_matching_size(small) == brute_force_matching_size(small)


def test_forest_matching_rejects_cycles():
    tri = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(GraphError, match="cycle"):
        forest_matching_size(tri)


# ---------------------------------------------------------------------------
# degeneracy
# ---------------------------------------------------------------------------


def test_degeneracy_examples():
    assert degeneracy(generate_random_tree(30, 4)) == 1
    assert degeneracy(build_graph(3, [(0, 1), (1, 2), (0, 2)])) == 2
    k5 = build_graph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
    assert degeneracy(k5) == 4
    assert degeneracy(build_graph(3, [])) == 0


def test_degeneracy_matches_naive_peel(rng):
    triangle_and_isolated = build_graph(9, [(2, 5), (5, 7), (2, 7), (7, 8)])
    cases = [build_graph(0, []), build_graph(1, []), build_graph(6, []), triangle_and_isolated]
    cases += [build_graph(k, [(i, j) for i in range(k) for j in range(i + 1, k)]) for k in range(1, 9)]
    cases += [star_graph(s) for s in range(1, 9)] + [path_graph(n) for n in range(1, 9)]
    cases += [petersen()]
    cases += [random_graph(rng, rng.randint(0, 30)) for _ in range(200)]
    cases += [generate_union_of_forests(rng.randint(2, 80), c, seed) for c in (1, 2, 3) for seed in range(10)]
    for g in cases:
        assert degeneracy(g) == naive_degeneracy(g), g


def test_degeneracy_reads_degrees_from_the_adjacency(rng):
    # degeneracy takes its degrees from the adjacency lists, not Graph.degrees:
    # both must agree, and isolated vertices must still be peeled at degree 0
    cases = [Graph(12, ((0, 1), (1, 2), (0, 2), (2, 3))), Graph(7, ((3, 6),))]
    for _ in range(60):
        g = random_graph(rng, rng.randint(2, 25))
        cases.append(Graph(g.n + 5, g.edges))  # five more isolated vertices
    for g in cases:
        assert "degrees" not in g.__dict__  # the cached degrees were never read
        assert degeneracy(g) == naive_degeneracy(g), g
    for c in (1, 2, 3, 4):
        for seed in range(5):
            g = generate_union_of_forests(rng.randint(2, 300), c, seed)
            assert g.degrees == tuple(map(len, g.adjacency))


def _clique_edges(start, k):
    return [(start + i, start + j) for i in range(k) for j in range(i + 1, k)]


def test_degeneracy_of_graphs_the_threshold_must_climb():
    # the peel starts at the minimum degree, which is above 0 on cycles, K5 and
    # the Petersen graph; isolated vertices pull it down to 0; and a clique
    # joined to a long path peels the path at k = 1, then finds nothing to
    # peel until k reaches the clique's own degree
    cases = [build_graph(k, _odd_cycle_edges(0, k)) for k in range(3, 11)]
    cases += [build_graph(5, _clique_edges(0, 5)), petersen()]
    cases += [build_graph(k + 4, _odd_cycle_edges(0, k)) for k in (3, 4, 7)]
    cases += [build_graph(14, _clique_edges(2, 5) + [(0, 1)])]
    for k in (4, 6, 8):
        path = [(k - 1 + i, k + i) for i in range(30)]
        cases += [build_graph(k + 30, _clique_edges(0, k) + path)]
        clique_last = [(i, i + 1) for i in range(31)] + _clique_edges(31, k)
        cases += [build_graph(31 + k, clique_last)]
    for g in cases:
        assert degeneracy(g) == naive_degeneracy(g), g
    assert [degeneracy(g) for g in cases[-6:]] == [3, 3, 5, 5, 7, 7]


def test_a_declared_bound_below_the_degeneracy_still_raises():
    k4_and_tail = tuple(_clique_edges(0, 4) + [(3, 4), (4, 5)])
    with pytest.raises(GraphError, match=r"^degeneracy 3 exceeds 2\*c_declared = 2; "):
        Graph(6, k4_and_tail, c_declared=1)
    assert Graph(6, k4_and_tail, c_declared=2).degeneracy == 3


def test_degeneracy_bounds_declared_arboricity(rng):
    for seed in range(20):
        c = rng.randint(1, 3)
        g = generate_union_of_forests(rng.randint(5, 60), c, seed)
        assert degeneracy(g) <= 2 * c


# ---------------------------------------------------------------------------
# characterization
# ---------------------------------------------------------------------------


def test_characterize_star():
    rep = characterize(star_graph(7), 3)
    assert (rep.h_mu, rep.s_mu, rep.m_mu, rep.n_l, rep.m_star) == (1, 0, 0, 0, 1)


def test_characterize_path():
    rep = characterize(path_graph(4), 3)
    assert (rep.h_mu, rep.s_mu, rep.m_mu, rep.n_l, rep.m_star) == (0, 3, 2, 4, 2)


def test_characterize_empty():
    rep = characterize(build_graph(5, []), 2)
    assert (rep.h_mu, rep.s_mu, rep.m_mu, rep.n_l, rep.m_star) == (0, 0, 0, 0, 0)


def test_characterize_rejects_bad_mu():
    with pytest.raises(GraphError):
        characterize(path_graph(3), 0)


def test_characterize_sanity_invariants(rng):
    for seed in range(25):
        g = random_graph(rng, rng.randint(2, 12))
        mu = rng.randint(1, 5)
        rep = characterize(g, mu)
        assert rep.h_mu + 2 * rep.s_mu <= g.n + 2 * g.m
        assert 0 <= rep.m_mu <= rep.m_star
        assert 2 * rep.m_mu <= rep.n_l <= g.n


# ---------------------------------------------------------------------------
# stream-order oracles
# ---------------------------------------------------------------------------


def _insert_stream(n, edges):
    return EdgeStream(n=n, events=tuple(("+", u, v) for u, v in edges))


def test_alpha_good_star_in_order():
    s = _insert_stream(6, [(0, i) for i in range(1, 6)])
    assert offline_alpha_good_set(s, 1) == {4, 5}


def test_alpha_good_threshold_at_stream_length():
    s = _insert_stream(6, [(0, 1), (1, 2), (0, 3), (3, 4)])
    assert offline_alpha_good_set(s, 4) == {1, 2, 3, 4}


def test_alpha_good_path_in_order():
    s = _insert_stream(4, [(0, 1), (1, 2), (2, 3)])
    assert offline_alpha_good_set(s, 1) == {1, 2, 3}


def test_alpha_good_matches_naive_reference(rng):
    for seed in range(40):
        g = random_graph(rng, rng.randint(2, 10))
        s = order_stream(g, "uniform-random", seed)
        edges = [(u, v) for _, u, v in s.events]
        for alpha in (0, 1, 2, 3.5):
            assert offline_alpha_good_set(s, alpha) == naive_alpha_positions(edges, alpha)


def test_later_degree_profile_on_a_stream_with_many_vertices():
    # the counters are a list of n ints: a long list, three events
    n = 10**6
    edges = [(0, n - 1), (5, n - 1), (0, 5)]
    s = _insert_stream(n, edges)
    assert later_degree_profile(s) == [1, 1, 0]
    for alpha in (0, 1, 2):
        assert offline_alpha_good_set(s, alpha) == naive_alpha_positions(edges, alpha)
    deleted = EdgeStream(n=n, events=(("+", 0, n - 1), ("-", 0, n - 1), ("+", 5, n - 1)))
    with pytest.raises(StreamInvariantError, match="^stream contains delete events$"):
        later_degree_profile(deleted)


def test_greedy_matching_examples():
    assert greedy_maximal_matching(_insert_stream(4, [(0, 1), (1, 2), (2, 3)])) == 2
    assert greedy_maximal_matching(_insert_stream(4, [(1, 2), (0, 1), (2, 3)])) == 1
    assert greedy_maximal_matching(_insert_stream(2, [(0, 1)])) == 1


def test_greedy_is_within_half_of_maximum(rng):
    for seed in range(40):
        g = random_graph(rng, rng.randint(2, 11))
        m_star = maximum_matching_size(g)
        r = greedy_maximal_matching(order_stream(g, "uniform-random", seed))
        assert m_star / 2 <= r <= m_star


def test_prefix_matching_is_monotone(rng):
    for seed in range(10):
        g = random_graph(rng, 8)
        edges = [(u, v) for _, u, v in order_stream(g, "uniform-random", seed).events]
        prev = 0
        for i in range(len(edges) + 1):
            cur = maximum_matching_size(Graph(n=g.n, edges=tuple(edges[:i])))
            assert cur >= prev
            prev = cur
