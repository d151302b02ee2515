import math
import random
from functools import cache

import pytest

from arbormatch import EdgeStream, Estimate, Graph, GraphError, ParseError, build_graph
from arbormatch.estimators import (
    _check_c_epsilon,
    alg4_estimate_e_alpha,
    alg4_level_cap,
    alg4_num_levels,
    alg4_selection_threshold,
    check_alpha,
)
from arbormatch.graphs import _parse_header


def path_graph(n: int) -> Graph:
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(leaves: int) -> Graph:
    return build_graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def petersen() -> Graph:
    edges = (
        [(i, (i + 1) % 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        + [(i, 5 + i) for i in range(5)]
    )
    return build_graph(10, edges)


def random_graph(rng: random.Random, n: int, density: float | None = None) -> Graph:
    """Erdos-Renyi-ish graph with a random density unless one is given."""
    prob = rng.random() if density is None else density
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < prob
    ]
    return build_graph(n, edges)


# event lists whose endpoints break 0 <= u < v < n=3, and the event that breaks it
BAD_ENDPOINTS = {
    "past-n": ((("+", 0, 7), ("+", 1, 9)), 1),
    "reversed": ((("+", 0, 1), ("+", 2, 1)), 2),
    "self-loop": ((("+", 0, 1), ("+", 1, 2), ("+", 2, 2)), 3),
    "negative": ((("+", -1, 2),), 1),
}


# Hard cap for the exhaustive matching oracle (2^m subsets, implicitly).
BRUTE_FORCE_EDGE_CAP = 24


def brute_force_matching_size(g: Graph) -> int:
    """Exhaustive maximum matching size by branching over every edge subset.

    Independent of the augmenting-path implementation; each edge is either
    included (when disjoint from the picks so far) or skipped. Capped at
    BRUTE_FORCE_EDGE_CAP edges.
    """
    if g.m > BRUTE_FORCE_EDGE_CAP:
        raise GraphError(
            f"{g.m} edges exceeds the exhaustive cap of {BRUTE_FORCE_EDGE_CAP}"
        )
    edges = g.edges
    m = len(edges)
    best = 0

    def branch(i: int, used_mask: int, size: int) -> None:
        nonlocal best
        if size > best:
            best = size
        if i == m or size + (m - i) <= best:
            return
        u, v = edges[i]
        bit = (1 << u) | (1 << v)
        if not used_mask & bit:
            branch(i + 1, used_mask | bit, size + 1)
        branch(i + 1, used_mask, size)

    branch(0, 0, 0)
    return best


def subset_dp_matching_size(g: Graph) -> int:
    """Maximum matching by dynamic programming over vertex subsets (n <= 16).

    The lowest vertex of a subset is either left unmatched or matched to one
    of its neighbours in the subset; memoised on the subset's bitmask.
    Independent of both the blossom search and the exhaustive edge branching.
    """
    if g.n > 16:
        raise ValueError(f"subset DP needs n <= 16, got {g.n}")
    nbr = [0] * g.n
    for u, v in g.edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u

    @cache
    def best(mask: int) -> int:
        if not mask:
            return 0
        low = mask & -mask
        rest = mask ^ low
        out = best(rest)
        cand = nbr[low.bit_length() - 1] & rest
        while cand:
            w = cand & -cand
            out = max(out, 1 + best(rest ^ w))
            cand ^= w
        return out

    return best((1 << g.n) - 1)


def naive_alpha_positions(edges: list[tuple[int, int]], alpha: float) -> set[int]:
    """Quadratic reference for the surviving-position oracle (1-indexed)."""
    out = set()
    for i, (u, v) in enumerate(edges):
        later = edges[i + 1 :]
        du = sum(1 for e in later if u in e)
        dv = sum(1 for e in later if v in e)
        if max(du, dv) <= alpha:
            out.add(i + 1)
    return out


def reference_union_of_forests(n: int, c: int, seed: int) -> Graph:
    """Reference for generate_union_of_forests: the same draw written with
    ``rng.randrange`` and a union-find by rank. Both must build one graph."""
    rng = random.Random(seed)
    seen: set[tuple[int, int]] = set()
    edges = []
    for _ in range(c):
        parent = list(range(n))
        rank = [0] * n

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        accepted = 0
        while accepted < n - 1:
            u = rng.randrange(n)
            v = rng.randrange(n - 1)
            if v >= u:
                v += 1
            ru, rv = find(u), find(v)
            if ru == rv:
                continue
            if rank[ru] < rank[rv]:
                ru, rv = rv, ru
            parent[rv] = ru
            if rank[ru] == rank[rv]:
                rank[ru] += 1
            accepted += 1
            e = (u, v) if u < v else (v, u)
            if e not in seen:
                seen.add(e)
                edges.append(e)
    return build_graph(n, edges, c_declared=c)


def preferential_attachment(n: int, c: int, seed: int) -> Graph:
    """Preferential-attachment graph (Barabasi & Albert, Science 1999): a clique
    on vertices 0..c, then each later vertex joins c distinct earlier vertices,
    each picked with probability proportional to its degree. Every vertex has
    at most c earlier neighbours, so orienting each edge toward its earlier
    endpoint splits the graph into c forests: its arboricity is at most c.
    Unlike union-of-forests, alg4's survival rule drops edges at alpha = 6c."""
    rng = random.Random(seed)
    edges = [(u, v) for v in range(c + 1) for u in range(v)]
    ends = [x for edge in edges for x in edge]  # each vertex once per incident edge
    for v in range(c + 1, n):
        picked: set[int] = set()
        while len(picked) < c:
            picked.add(rng.choice(ends))
        for u in sorted(picked):
            edges.append((u, v))
            ends += (u, v)
    return build_graph(n, edges, c_declared=c)


def naive_degeneracy(g: Graph) -> int:
    """Quadratic reference for the degeneracy: repeatedly remove a vertex of
    minimum remaining degree, found by scanning every remaining vertex."""
    nbrs: list[set[int]] = [set() for _ in range(g.n)]
    for u, v in g.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    alive = set(range(g.n))
    best = 0
    while alive:
        v = min(alive, key=lambda x: len(nbrs[x]))
        best = max(best, len(nbrs[v]))
        for w in nbrs[v]:
            nbrs[w].discard(v)
        alive.remove(v)
    return best


def reference_split(state) -> tuple[list[int], list[int]]:
    """Reference for Alg1State.split: each neighbour's one counter, d(w) if
    w is sampled, else l(w), compared with mu one neighbour at a time."""
    mu = state.params.mu

    def counter(w: int) -> int:
        if w in state.neighbors:
            return len(state.neighbors[w])
        return state.lower.get(w, 0)

    s1 = []
    s2 = []
    for v, nbrs in state.neighbors.items():
        if len(nbrs) > mu:
            s2.append(v)
        elif any(counter(w) <= mu for w in nbrs):
            s1.append(v)
    return s1, s2


def alg1_exact_mean(g: Graph, p: float, mu: int) -> float:
    """Exact mean of alg1's value on an insert-only stream of the forest g.

    A sampled v lands in S_2 iff deg v > mu, and in S_1 iff 1 <= deg v <= mu
    and some neighbour w has a low counter. w's counter is high with
    probability q_w = p*[deg w > mu] + (1-p)*P[Bin(deg w - 1, p) >= mu]: if w
    is unsampled, l(w) counts v and each other sampled neighbour of w. In a
    forest no two neighbours of v share another neighbour, so the q_w are
    independent, and dividing by p cancels v's own sampling:

    E = #{v : deg v > mu} + sum over 1 <= deg v <= mu of (1 - prod_w q_w).
    """
    assert g.degeneracy <= 1, "the closed form holds on forests only"
    nbrs: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges:
        nbrs[u].append(v)
        nbrs[v].append(u)

    def q(w: int) -> float:
        d = len(nbrs[w])
        return p * (d > mu) + (1 - p) * _binomial_tail(d - 1, p, mu)

    mean = 0.0
    for v in range(g.n):
        if len(nbrs[v]) > mu:
            mean += 1
        elif nbrs[v]:
            mean += 1 - math.prod(q(w) for w in nbrs[v])
    return mean


def _binomial_tail(k: int, p: float, at_least: int) -> float:
    """P[Bin(k, p) >= at_least]."""
    return sum(math.comb(k, j) * p**j * (1 - p) ** (k - j) for j in range(at_least, k + 1))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xA5B)


def reference_uniform_random_events(g: Graph, seed: int) -> tuple:
    """Reference for order_stream's uniform-random policy: ``random.shuffle``
    of the edge list, then one insert event per edge."""
    edges = list(g.edges)
    random.Random(seed).shuffle(edges)
    return tuple(("+", u, v) for u, v in edges)


def reference_parse_stream(text: str) -> EdgeStream:
    """Reference for parse_stream: the per-line parser that checks liveness
    with one loop over every event, and locates a violation by re-splitting
    the text. Both must return one stream or raise one (line, message)."""
    n = None
    events = []
    malformed = None
    for line_no, raw in enumerate(text.splitlines(), 1):
        parts = raw.split()
        if not parts:
            continue
        if parts[0][0] == "#":
            continue
        if n is None:
            n = _parse_header(line_no, parts)
            continue
        if len(parts) != 3 or parts[0] not in ("+", "-"):
            malformed = ParseError(line_no, "expected '+ u v' or '- u v'")
            break
        try:
            events.append((parts[0], int(parts[1]), int(parts[2])))
        except ValueError:
            malformed = ParseError(line_no, "endpoints are not integers")
            break
    if n is None:
        raise ParseError(1, "missing 'n <count>' header")
    live = set()
    for pos, (kind, u, v) in enumerate(events, 1):
        problem = None
        if not 0 <= u < v < n:
            problem = f"endpoints ({u}, {v}) must satisfy 0 <= u < v < n={n}"
        elif kind == "+":
            if (u, v) in live:
                problem = f"insert of live edge {(u, v)}"
            live.add((u, v))
        elif (u, v) not in live:
            problem = f"delete of non-live edge {(u, v)}"
        else:
            live.remove((u, v))
        if problem is not None:
            records = [
                i for i, raw in enumerate(text.splitlines(), 1)
                if raw.split() and raw.split()[0][0] != "#"
            ]
            raise ParseError(records[pos], problem)  # records[0] is the header's
    if malformed is not None:
        raise malformed
    return EdgeStream(n=n, events=tuple(events))


def reference_alg4_estimate_e_alpha(
    stream: EdgeStream, alpha, c, epsilon, seed, *, tau_override=None, collect_trace=False
) -> Estimate:
    """Reference for alg4_estimate_e_alpha: the loop that keeps a list of tests
    per vertex, each test a list [u, top, r_u, r_v] with a later-edge counter
    per endpoint, and walks and rebuilds both endpoints' lists on every event.
    Both must return one value, space_peak and params, and the trace keys that
    production keeps (``started``, ``terminated``) must match. Only this trace
    also holds ``survivors[i]`` (positions still live at a live level i) and
    ``max_live[i]`` (level i's largest live-test count while it was live)."""
    _check_c_epsilon(c, epsilon)
    check_alpha(alpha)
    stream.require_insert_only()
    n = stream.n
    num_levels = alg4_num_levels(n, c, epsilon)
    tau = alg4_level_cap(n, alpha, c, epsilon) if tau_override is None else tau_override
    tau_prime = alg4_selection_threshold(n, epsilon)
    growth = 1.0 + epsilon
    top_level = num_levels - 1
    rand = random.Random(seed).random
    at_top = [0] * num_levels
    live = 0
    floor = 0
    by_vertex = {}
    peak = 0
    all_tests = []
    max_live = [0] * num_levels
    for pos, (_, u, v) in enumerate(stream.events, 1):
        for x in (u, v):
            tests = by_vertex.get(x, [])
            kept = []
            for tst in tests:
                if tst[1] < floor:
                    continue  # failed or below the floor
                side = 2 if x == tst[0] else 3
                tst[side] += 1
                if tst[side] > alpha:
                    at_top[tst[1]] -= 1
                    live -= 1
                    tst[1] = -1
                    continue
                kept.append(tst)
            if kept:
                by_vertex[x] = kept
            else:
                by_vertex.pop(x, None)
        top = min(int(-math.log(1.0 - rand()) / math.log(growth)), top_level)
        if top >= floor:
            tst = [u, top, 0, 0]
            by_vertex.setdefault(u, []).append(tst)
            by_vertex.setdefault(v, []).append(tst)
            at_top[top] += 1
            live += 1
            if collect_trace:
                all_tests.append((tst, top, pos, floor))
                count = 0
                for i in range(top_level, floor - 1, -1):
                    count += at_top[i]
                    max_live[i] = max(max_live[i], count)
            while floor < num_levels and live > tau:
                live -= at_top[floor]
                floor += 1
            peak = max(peak, 3 * live)

    threshold = math.inf if floor == 0 else tau_prime * (1.0 + epsilon)
    value = None
    selected = None
    count = live
    for i in range(floor, num_levels):
        if count <= threshold:
            selected = i
            value = count / growth ** (-i) if i else count
            break
        count -= at_top[i]

    trace = None
    if collect_trace:
        started = {i: [] for i in range(num_levels)}
        survivors = {i: [] for i in range(num_levels)}
        for tst, top, pos, low in all_tests:
            for i in range(low, top + 1):
                started[i].append(pos)
            for i in range(floor, tst[1] + 1):
                survivors[i].append(pos)
        trace = {
            "started": started,
            "survivors": survivors,
            "max_live": max_live,
            "terminated": [i < floor for i in range(num_levels)],
        }
    return Estimate(
        value=value,
        space_peak=peak,
        params={
            "algorithm": "alg4",
            "alpha": alpha,
            "c": c,
            "epsilon": epsilon,
            "tau": tau,
            "tau_prime": tau_prime,
            "num_levels": num_levels,
            "selected_level": selected,
        },
        trace=trace,
    )


def checked_alg4_trace(
    stream: EdgeStream, alpha, c, epsilon, seed, *, tau_override=None
) -> Estimate:
    """The reference's traced run, after holding production's traced run on the
    same arguments equal to it: value, space_peak, params and every trace key
    production keeps. So a test that reads the reference's ``survivors`` or
    ``max_live`` still checks production."""
    args = (stream, alpha, c, epsilon, seed)
    got = alg4_estimate_e_alpha(*args, tau_override=tau_override, collect_trace=True)
    want = reference_alg4_estimate_e_alpha(*args, tau_override=tau_override, collect_trace=True)
    assert (got.value, got.space_peak, got.params) == (want.value, want.space_peak, want.params)
    assert got.trace == {key: want.trace[key] for key in got.trace}
    return want
