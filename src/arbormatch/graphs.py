"""Exact graph representation and offline matching/characterization oracles.

Vertices are dense integers in [0, n) and edges are unordered pairs stored as
(u, v) with u < v. Everything in this module is deterministic; the matching
oracles are meant for desk-scale instances and are cross-validated against
each other in the test suite.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterable

from .errors import GraphError, ParseError

if TYPE_CHECKING:
    from .streams import EdgeStream

Edge = tuple[int, int]


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph.

    ``edges`` keeps construction order (generators rely on it for the
    as-generated stream ordering) and is taken as given: ``build_graph``
    validates edge lists from outside. ``c_declared`` is an optional
    arboricity bound; when it is set, the graph must pass the checkable test
    of it, degeneracy <= 2*c_declared, or construction raises GraphError.
    Instances are immutable and safe to share.
    """

    n: int
    edges: tuple[Edge, ...]
    c_declared: int | None = None

    def __post_init__(self) -> None:
        c = self.c_declared
        if c is not None:
            if c < 1:
                raise GraphError(f"c_declared must be a positive integer, got {c}")
            if self.degeneracy > 2 * c:
                raise GraphError(
                    f"degeneracy {self.degeneracy} exceeds 2*c_declared = {2 * c}; "
                    "the declared arboricity bound cannot hold"
                )

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return tuple(deg)

    @cached_property
    def degeneracy(self) -> int:
        """The module-level ``degeneracy`` of this graph, computed once."""
        return degeneracy(self)

    @cached_property
    def adjacency(self) -> list[list[int]]:
        """Adjacency lists, neighbor order following edge construction order.

        Built once per graph and shared by every caller: read-only.
        """
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj


def build_graph(n: int, edge_list: Iterable[Edge], c_declared: int | None = None) -> Graph:
    """Validate an edge list and return a normalized Graph.

    Rejects a negative n, self-loops, duplicate edges (in either orientation)
    and endpoints outside [0, n), raising GraphError. ``c_declared`` is passed
    on to Graph, which enforces it.
    """
    if n < 0:
        raise GraphError(f"vertex count must be non-negative, got {n}")
    seen: set[Edge] = set()
    edges: list[Edge] = []
    for u, v in edge_list:
        if u == v:
            raise GraphError(f"self-loop ({u}, {v})")
        if not (0 <= u < n) or not (0 <= v < n):
            raise GraphError(f"edge ({u}, {v}) has an endpoint outside [0, {n})")
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise GraphError(f"duplicate edge ({u}, {v})")
        seen.add(e)
        edges.append(e)
    return Graph(n=n, edges=tuple(edges), c_declared=c_declared)


def serialize_graph(g: Graph) -> str:
    """Text form: ``n <count>`` header, then one ``u v`` pair per line."""
    lines = [f"n {g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def _parse_header(line_no: int, parts: list[str]) -> int:
    """Vertex count of the ``n <count>`` line that opens graph and stream files."""
    if len(parts) != 2 or parts[0] != "n":
        raise ParseError(line_no, "expected 'n <count>' header")
    try:
        n = int(parts[1])
    except ValueError:
        raise ParseError(line_no, "vertex count is not an integer") from None
    if n < 0:
        raise ParseError(line_no, "vertex count must be non-negative")
    return n


def parse_graph(text: str, c_declared: int | None = None) -> Graph:
    """Inverse of serialize_graph; raises ParseError with the offending line."""
    n: int | None = None
    pairs: list[Edge] = []
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if n is None:
            n = _parse_header(line_no, parts)
            continue
        if len(parts) != 2:
            raise ParseError(line_no, "expected 'u v'")
        try:
            pairs.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ParseError(line_no, "endpoints are not integers") from None
    if n is None:
        raise ParseError(1, "missing 'n <count>' header")
    return build_graph(n, pairs, c_declared=c_declared)


# ---------------------------------------------------------------------------
# Matching oracles
# ---------------------------------------------------------------------------


def maximum_matching_size(g: Graph) -> int:
    """Exact maximum matching size via augmenting paths with blossom contraction.

    Deterministic. A Karp-Sipser greedy matching (FOCS 1981) seeds the search,
    so few vertices trigger an augmentation round: a free vertex with one free
    neighbour is matched to it before the vertex-order greedy takes its next
    step, and such a match is always in some maximum matching of what is left.
    If the greedy step never had to guess (match a vertex with two or more
    free neighbours), every match was forced and no edge joins two free
    vertices, so the seed is already maximum and the blossom phase is skipped;
    on a forest the greedy step never guesses.

    After a guess each phase grows one alternating forest from every free,
    non-isolated vertex at once (Edmonds, *Paths, trees, and flowers*, Canad.
    J. Math. 1965), breadth first from all roots: an edge between even
    vertices of two trees closes an augmenting path, which is flipped at
    once, and one inside a tree contracts a blossom. A phase that finds no
    augmenting path ends the matcher, since then none exists. No matching
    covers an isolated vertex, so the matcher stops before a phase once fewer
    than two free roots are left (the counting bound); on odd n that skips a
    failing last phase, which would explore a whole component. Each phase
    resets only the vertices it touched, and each contraction relabels only
    the vertices inside the new blossom, found from the bases on its cycle;
    so a phase costs time in the part of the graph it explores, not in n. A
    forest, or any graph the greedy step matches without a guess, costs
    O(n + m).
    """
    n = g.n
    if n == 0 or not g.edges:
        return 0
    adj = g.adjacency
    match = [-1] * n
    free = list(map(len, adj))  # free neighbours of each free vertex
    ones = [v for v in range(n - 1, -1, -1) if free[v] == 1]  # stack, pops in vertex order
    guessed = False
    for u in range(n):
        while True:
            if ones:
                x = ones.pop()
                if match[x] >= 0 or free[x] != 1:
                    continue  # matched, or its one free neighbour was taken
            elif match[u] < 0 and free[u]:
                x = u  # the greedy step: u has two or more free neighbours
                guessed = True
            else:
                break
            for y in adj[x]:
                if match[y] < 0:
                    break
            match[x] = y
            match[y] = x
            for z in (x, y):
                for w in adj[z]:
                    if match[w] < 0:
                        free[w] -= 1
                        if free[w] == 1:
                            ones.append(w)
    size = (n - match.count(-1)) // 2
    if not guessed:
        return size  # every match was forced, and no edge joins two free vertices

    parent = [-1] * n
    base = list(range(n))
    used = [False] * n  # even: a root, an odd vertex's mate, or inside a blossom
    tree = [0] * n  # the root of each vertex the current phase has reached; read only there
    # Vertices whose parent/base/used the current phase has set: the roots,
    # each vertex reached through an unmatched edge, and that vertex's mate.
    touched: list[int] = []
    # Blossom base -> the other vertices contracted into it, this phase.
    members: dict[int, list[int]] = {}
    cycle_bases: list[int] = []  # of the blossom being contracted

    def mark_path(v: int, b: int, child: int) -> None:
        while base[v] != b:
            cycle_bases.append(base[v])
            cycle_bases.append(base[match[v]])
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    def lowest_common_base(a: int, b: int) -> int:
        marked = set()
        v = a
        while True:
            v = base[v]
            marked.add(v)
            if match[v] < 0:
                break
            v = parent[match[v]]
        v = b
        while base[v] not in marked:
            v = parent[match[v]]
        return base[v]

    def flip(w: int) -> None:
        # w is an even vertex's mate: flip matched/unmatched edges back to the root
        while w >= 0:
            pv = parent[w]
            nxt = match[pv]
            match[w] = pv
            match[pv] = w
            w = nxt

    def augment(roots: list[int]) -> bool:
        for i in touched:
            parent[i] = -1
            base[i] = i
            used[i] = False
        touched[:] = roots
        members.clear()
        for r in roots:
            used[r] = True
            tree[r] = r
        queue = deque(roots)
        while queue:
            v = queue.popleft()
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if used[to]:
                    if tree[to] != tree[v]:
                        # two trees touch: join their roots through v-to
                        roots.remove(tree[v])
                        roots.remove(tree[to])
                        flip(match[v])
                        flip(match[to])
                        match[v] = to
                        match[to] = v
                        return True
                    # odd cycle: contract the blossom around its base
                    cur = lowest_common_base(v, to)
                    cycle_bases.clear()
                    mark_path(v, cur, to)
                    mark_path(to, cur, v)
                    inside = [i for b in set(cycle_bases) for i in (b, *members.pop(b, ()))]
                    members.setdefault(cur, []).extend(inside)
                    entering = []
                    for i in inside:
                        base[i] = cur
                        if not used[i]:
                            used[i] = True
                            entering.append(i)
                    # in vertex order, as a scan over every vertex would enqueue them
                    entering.sort()
                    queue.extend(entering)
                elif parent[to] < 0:
                    # every free vertex is a root, so to is matched: it joins v's
                    # tree as odd and its mate as even
                    mate = match[to]
                    touched.append(to)
                    touched.append(mate)
                    parent[to] = v
                    tree[to] = tree[mate] = tree[v]
                    used[mate] = True
                    queue.append(mate)
        return False

    roots = [v for v in range(n) if match[v] < 0 and adj[v]]
    # no matching covers an isolated vertex: at best the free roots pair up
    bound = size + len(roots) // 2
    while size < bound and augment(roots):
        size += 1
    return size


def forest_matching_size(g: Graph) -> int:
    """Exact maximum matching size of a forest by repeated leaf matching.

    Matching any leaf with its neighbor is always optimal on forests, which
    makes this a linear-time second oracle for tree-shaped corpora. Raises
    GraphError if the graph contains a cycle.
    """
    n = g.n
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    alive = [True] * n
    leaves = deque(v for v in range(n) if len(adj[v]) == 1)
    size = 0
    removed_edges = 0

    def drop(x: int) -> None:
        nonlocal removed_edges
        alive[x] = False
        nbrs = adj[x]
        adj[x] = set()
        removed_edges += len(nbrs)
        for w in nbrs:
            adj[w].discard(x)
            if alive[w] and len(adj[w]) == 1:
                leaves.append(w)

    while leaves:
        v = leaves.popleft()
        if not alive[v] or len(adj[v]) != 1:
            continue
        u = next(iter(adj[v]))
        size += 1
        drop(v)
        drop(u)
    if removed_edges != g.m:
        raise GraphError("graph contains a cycle; forest_matching_size needs a forest")
    return size


# ---------------------------------------------------------------------------
# Degree-structure oracles
# ---------------------------------------------------------------------------


def degeneracy(g: Graph) -> int:
    """Smallest k such that repeatedly removing a vertex of degree <= k empties g.

    Upper-bounds the arboricity within a factor of two, which makes it a
    checkable proxy for the bound a Graph declares.

    Rising-threshold peel (the k-cores of Seidman, Social Networks 1983): k
    starts at the minimum degree; every vertex of degree <= k is removed, and
    only neighbours still above k lose degree, each queued once when it falls
    to k. When nothing is left at or below k, the vertices still above k form
    the (k+1)-core: k is the answer if it is empty, and otherwise k rises by
    one. A vertex stays above the threshold for at most deg + 1 levels, so the
    rescans total at most 2m + n and the peel is O(n + m).
    """
    if not g.edges:
        return 0
    adj = g.adjacency
    deg = list(map(len, adj))
    k = min(deg)
    peel = [v for v, d in enumerate(deg) if d == k]
    rest = range(len(deg))  # each level keeps the vertices still above k
    while True:
        for v in peel:  # a queue: it grows while it is read
            for w in adj[v]:
                d = deg[w]
                if d > k:  # removed and queued vertices sit at or below k
                    d -= 1
                    deg[w] = d
                    if d == k:
                        peel.append(w)
        rest = [v for v in rest if deg[v] > k]
        if not rest:
            return k
        k += 1
        peel = [v for v in rest if deg[v] == k]


@dataclass(frozen=True)
class CharacterizationReport:
    """Exact offline quantities tying matching size to the degree structure.

    ``h_mu`` counts vertices of degree > mu; the low-degree subgraph G_L is
    induced on the others, with ``s_mu`` edges, maximum matching ``m_mu`` and
    ``n_l`` non-isolated vertices. The surviving-edge count depends on a
    stream ordering, not just the graph, so it is not part of this report.
    """

    mu: int
    m_star: int
    h_mu: int
    s_mu: int
    m_mu: int
    n_l: int


def characterize(g: Graph, mu: int, m_star: int | None = None) -> CharacterizationReport:
    """Exact degree-threshold characterization of g at threshold mu >= 1.

    A caller that already holds M*(g) passes it as ``m_star`` to skip the
    whole-graph matching; otherwise it is computed here.
    """
    if mu < 1:
        raise GraphError(f"mu must be >= 1, got {mu}")
    deg = g.degrees
    h_mu = sum(1 for v in range(g.n) if deg[v] > mu)
    low_edges = tuple(e for e in g.edges if deg[e[0]] <= mu and deg[e[1]] <= mu)
    non_isolated: set[int] = set()
    for u, v in low_edges:
        non_isolated.add(u)
        non_isolated.add(v)
    low_graph = Graph(n=g.n, edges=low_edges)
    return CharacterizationReport(
        mu=mu,
        m_star=maximum_matching_size(g) if m_star is None else m_star,
        h_mu=h_mu,
        s_mu=len(low_edges),
        m_mu=maximum_matching_size(low_graph),
        n_l=len(non_isolated),
    )


# ---------------------------------------------------------------------------
# Stream-order oracles (insert-only streams)
# ---------------------------------------------------------------------------


def later_degree_profile(stream: "EdgeStream") -> list[int]:
    """Per stream position, the larger endpoint count of strictly later incident edges.

    Entry i-1 (0-based) belongs to the 1-indexed position i. A single backward
    pass keeps a list of ``stream.n`` running incidence counts, so the profile
    costs O(n + m). Raises StreamInvariantError on streams with events other
    than inserts.
    """
    stream.require_insert_only()
    events = stream.events
    later = [0] * stream.n
    out = [0] * len(events)
    for i in range(len(events) - 1, -1, -1):
        _, u, v = events[i]
        a = later[u]
        b = later[v]
        out[i] = a if a > b else b
        later[u] = a + 1
        later[v] = b + 1
    return out


def offline_alpha_good_set(stream: "EdgeStream", alpha: float) -> set[int]:
    """1-indexed positions whose edge sees at most alpha later incident edges
    on each endpoint. Raises StreamInvariantError on events other than inserts."""
    profile = later_degree_profile(stream)
    return {i + 1 for i, worst in enumerate(profile) if worst <= alpha}


def greedy_maximal_matching(stream: "EdgeStream") -> int:
    """Size of the maximal matching built by admitting each edge whose
    endpoints are both still unmatched, in stream order. Raises
    StreamInvariantError on streams with events other than inserts."""
    stream.require_insert_only()
    taken: set[int] = set()
    size = 0
    for _, u, v in stream.events:
        if u not in taken and v not in taken:
            taken.add(u)
            taken.add(v)
            size += 1
    return size
