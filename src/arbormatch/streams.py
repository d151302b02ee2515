"""Edge-stream events, bounded-arboricity generators, orderings and the
stream text format.

All generators are deterministic functions of their parameters and seed.
Stream files are line-oriented: ``n <count>`` first, then ``+ u v`` or
``- u v`` with u < v; lines starting with ``#`` are comments.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field
from enum import Enum
from itertools import islice
from operator import itemgetter

from .errors import GraphError, ParseError, StreamInvariantError
from .graphs import Edge, Graph, _parse_header

INSERT = "+"
DELETE = "-"


# A stream event is a plain (kind, u, v) tuple with u < v: unlike a tuple subclass, the
# cyclic collector untracks it on its first pass, so a held stream adds nothing to later ones.
StreamEvent = tuple[str, int, int]


def _normalized(u: int, v: int) -> Edge:
    if u == v:
        raise StreamInvariantError(f"self-loop event ({u}, {v})")
    return (u, v) if u < v else (v, u)


def insert_event(u: int, v: int) -> StreamEvent:
    return (INSERT, *_normalized(u, v))


def delete_event(u: int, v: int) -> StreamEvent:
    return (DELETE, *_normalized(u, v))


@dataclass(frozen=True)
class EdgeStream:
    """Ordered sequence of insert/delete events over vertices [0, n).

    Construction checks the stream's shape: every kind is ``+`` or ``-`` and
    every event has 0 <= u < v < n, else StreamInvariantError names the first
    event that breaks it, in validate()'s words. ``insert_only`` records
    whether the stream has no delete. Liveness (no insert of a live edge, no
    delete of a non-live one) is left to validate(), which parse_stream runs.
    """

    n: int
    events: tuple[StreamEvent, ...]
    insert_only: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # in bulk: a set of the kinds, then one comprehension with a chained compare
        # (2-3.5x faster on Python 3.10-3.13 than three whole-sequence passes for the
        # least u, the greatest v and u < v); only a failing stream is walked again
        n, events = self.n, self.events
        kinds = set(map(itemgetter(0), events))
        if not kinds <= _KINDS or [None for _, u, v in events if not 0 <= u < v < n]:
            for pos, (kind, u, v) in enumerate(events, 1):
                if not 0 <= u < v < n:
                    raise StreamInvariantError(f"event {pos}: {_endpoint_problem(u, v, n)}")
                if kind not in _KINDS:
                    raise StreamInvariantError(f"event {pos}: unknown kind {kind!r}")
        object.__setattr__(self, "insert_only", DELETE not in kinds)

    def require_insert_only(self) -> None:
        """Raise StreamInvariantError if the stream has a delete event; every
        estimator and stream oracle but the insert/delete estimator calls this first."""
        if not self.insert_only:
            raise StreamInvariantError("stream contains delete events")

    def live_edges(self) -> set[Edge]:
        """Edge set left after replaying every event."""
        live: set[Edge] = set()
        for kind, u, v in self.events:
            e = (u, v)
            if kind == INSERT:
                live.add(e)
            else:
                live.discard(e)
        return live

    def validate(self) -> None:
        """Check the liveness rules; raises StreamInvariantError."""
        violation = _first_violation(self.events, self.n, self.insert_only)
        if violation is not None:
            pos, problem = violation
            raise StreamInvariantError(f"event {pos}: {problem}")


_KINDS = frozenset((INSERT, DELETE))


def _endpoint_problem(u: int, v: int, n: int) -> str:
    return f"endpoints ({u}, {v}) must satisfy 0 <= u < v < n={n}"


def _first_violation(
    events: Sequence[StreamEvent], n: int, insert_only: bool = False
) -> tuple[int, str] | None:
    """1-based position of the first event the stream rules forbid and why, or None.

    Every kind is ``+`` or ``-``, as parse_stream reads them and EdgeStream
    admits them. ``insert_only`` says the events also passed EdgeStream's
    shape check and hold no delete; such a stream is accepted in bulk when
    no event repeats. Any other goes through the per-event loop, the only
    code that names a liveness violation; it names an endpoint fault too,
    for parse_stream's events that failed construction.
    """
    if insert_only and len(set(events)) == len(events):
        return None
    live: set[Edge] = set()
    for pos, (kind, u, v) in enumerate(events, 1):
        if not 0 <= u < v < n:
            return pos, _endpoint_problem(u, v, n)
        e = (u, v)
        if kind == INSERT:
            if e in live:
                return pos, f"insert of live edge {e}"
            live.add(e)
        else:  # a delete
            if e not in live:
                return pos, f"delete of non-live edge {e}"
            live.remove(e)
    return None


class OrderingPolicy(str, Enum):
    """Deterministic permutation procedures for streaming a graph's edges."""

    AS_GENERATED = "as-generated"
    UNIFORM_RANDOM = "uniform-random"
    STAR_BY_STAR = "star-by-star"
    LEAVES_LAST = "leaves-last"
    CENTERS_FIRST = "centers-first"


def order_stream(g: Graph, policy: OrderingPolicy | str, seed: int = 0) -> EdgeStream:
    """Insert-only stream of each edge of g exactly once, permuted per policy.

    Only UNIFORM_RANDOM consumes the seed; the other policies are
    degree-keyed deterministic sorts:

    * STAR_BY_STAR groups edges under their hub (the higher-degree endpoint,
      ties to the smaller id) so one hub's edges finish before the next start.
    * CENTERS_FIRST emits edges on the highest-degree endpoints first.
    * LEAVES_LAST pushes pendant-ish edges (small minimum endpoint degree)
      to the end of the stream.
    """
    policy = OrderingPolicy(policy)
    edges = list(g.edges)
    if policy is OrderingPolicy.UNIFORM_RANDOM:
        _shuffle(edges, random.Random(seed).getrandbits)
    elif policy is not OrderingPolicy.AS_GENERATED:
        deg = g.degrees
        if policy is OrderingPolicy.STAR_BY_STAR:

            def hub_key(e: Edge) -> tuple[int, int]:
                u, v = e
                if deg[u] != deg[v]:
                    hub = u if deg[u] > deg[v] else v
                else:
                    hub = u  # u < v: ties go to the smaller id
                return (hub, v if hub == u else u)

            edges.sort(key=hub_key)
        elif policy is OrderingPolicy.CENTERS_FIRST:
            edges.sort(key=lambda e: (-max(deg[e[0]], deg[e[1]]), -min(deg[e[0]], deg[e[1]]), e))
        else:  # LEAVES_LAST
            edges.sort(key=lambda e: (-min(deg[e[0]], deg[e[1]]), -max(deg[e[0]], deg[e[1]]), e))
    return EdgeStream(n=g.n, events=tuple([(INSERT, u, v) for u, v in edges]))


def _shuffle(items: list, getrandbits: Callable[[int], int]) -> None:
    """Permute items in place exactly as ``random.Random.shuffle`` does.

    Fisher-Yates from the end: position i swaps with j drawn below i + 1 the
    way CPython's ``Random._randbelow`` draws, ``getrandbits`` of (i + 1)'s
    bit length until the value is at most i. Inlining the draw saves the two
    method calls ``shuffle`` makes per item. The bit count is set once per
    block: every i in [2^(bits-1) - 1, 2^bits - 2] draws ``bits`` bits.
    """
    hi = len(items) - 1
    for bits in range(len(items).bit_length(), 1, -1):
        lo = (1 << (bits - 1)) - 1
        for i in range(hi, lo - 1, -1):
            j = getrandbits(bits)
            while j > i:
                j = getrandbits(bits)
            items[i], items[j] = items[j], items[i]
        hi = lo - 1


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def generate_union_of_forests(n: int, c: int, seed: int) -> Graph:
    """Union of c random spanning forests of the complete graph on n vertices.

    Each forest accepts uniformly random non-cycle pairs until it spans, which
    matches the acceptance distribution of scanning a shuffled list of all
    pairs without materializing the O(n^2) pair list. Edges duplicated across
    forests are skipped, so the arboricity is at most c by construction.

    A pair is ``u = rng.randrange(n)``, then ``v = rng.randrange(n - 1)``
    shifted past u, drawn from ``random.Random(seed)``. Each draw is made
    the way CPython's ``Random._randbelow`` serves ``randrange(k)``:
    ``getrandbits(k.bit_length())`` until the value is below k. So the graph
    is the same one a ``randrange`` loop builds, with both bit lengths
    computed once. A pair is accepted when its endpoints carry different
    component labels in ``comp``. An accepted pair relabels the smaller
    component into the larger (weighted quick-find, Tarjan & van Leeuwen,
    JACM 1984): O(n log n) relabels per forest, and a rejected pair costs
    one compare. ``members`` lists the vertices of each component of two or
    more; a singleton's label is its own vertex. Which label survives a
    merge does not change which later pairs are accepted.
    """
    if n < 2:
        raise GraphError(f"n must be >= 2, got {n}")
    if c < 1:
        raise GraphError(f"c must be >= 1, got {c}")
    getrandbits = random.Random(seed).getrandbits
    last = n - 1
    bits_u = n.bit_length()
    bits_v = last.bit_length()
    seen: set[Edge] = set()
    edges: list[Edge] = []
    for _ in range(c):
        comp = list(range(n))
        members: dict[int, list[int]] = {}
        for _ in range(last):  # a spanning forest accepts n - 1 pairs
            while True:
                u = getrandbits(bits_u)
                while u >= n:
                    u = getrandbits(bits_u)
                v = getrandbits(bits_v)
                while v >= last:
                    v = getrandbits(bits_v)
                if v >= u:
                    v += 1
                a = comp[u]
                b = comp[v]
                if a != b:
                    break
            keep = members.pop(a, None) or [a]
            gone = members.pop(b, None) or [b]
            if len(keep) < len(gone):
                a, keep, gone = b, gone, keep
            for w in gone:
                comp[w] = a
            keep += gone
            members[a] = keep
            e = (u, v) if u < v else (v, u)
            if e not in seen:
                seen.add(e)
                edges.append(e)
    return Graph(n, tuple(edges), c_declared=c)


def generate_star_forest(k: int, s: int) -> Graph:
    """k disjoint stars with s leaves each.

    Star j occupies ids j*(s+1)..j*(s+1)+s with the center first, so
    n = k*(s+1), m = k*s and the maximum matching picks one edge per star.
    """
    if k < 1:
        raise GraphError(f"star count must be >= 1, got {k}")
    if s < 1:
        raise GraphError(f"star size must be >= 1, got {s}")
    edges: list[Edge] = []
    for j in range(k):
        center = j * (s + 1)
        edges.extend((center, center + i) for i in range(1, s + 1))
    return Graph(k * (s + 1), tuple(edges), c_declared=1)


def pruefer_to_edges(seq: list[int]) -> list[Edge]:
    """Decode a Pruefer sequence over labels [0, len(seq)+2) into tree edges."""
    n = len(seq) + 2
    deg = [1] * n
    for x in seq:
        if not 0 <= x < n:
            raise GraphError(f"sequence value {x} outside [0, {n})")
        deg[x] += 1
    leaves = [v for v in range(n) if deg[v] == 1]
    heapq.heapify(leaves)
    edges: list[Edge] = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x) if leaf < x else (x, leaf))
        deg[x] -= 1
        if deg[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v) if u < v else (v, u))
    return edges


def generate_random_tree(n: int, seed: int) -> Graph:
    """Uniform random labeled tree on n >= 2 vertices (decoded Pruefer sequence)."""
    if n < 2:
        raise GraphError(f"n must be >= 2, got {n}")
    rng = random.Random(seed)
    seq = [rng.randrange(n) for _ in range(n - 2)]
    return Graph(n, tuple(pruefer_to_edges(seq)), c_declared=1)


def check_dynamic_budget(events: int, c: int, n: int) -> None:
    """Raise StreamInvariantError when a dynamic stream runs past 4*c*n events."""
    budget = 4 * c * n
    if events > budget:
        raise StreamInvariantError(f"stream of {events} events exceeds the budget {budget}")


def generate_dynamic_stream(g: Graph, delete_fraction: float, seed: int) -> EdgeStream:
    """Insert/delete stream whose final live graph is exactly g.

    The real edges arrive in a random order, interleaved with decoy edges that
    are inserted and later deleted. A decoy share of ``delete_fraction`` of m
    is targeted, so the total length is at most (1 + 2*delete_fraction)*m.
    Decoys are rejection-sampled so every prefix keeps degeneracy within twice
    the arboricity bound; a real insert flushes live decoys first if they
    would push the prefix over that cap.

    The cap is checked locally. Every prefix stays within it: decoys enter
    only when they fit, and once every decoy is gone a real insert leaves a
    subgraph of g, whose degeneracy is within the cap (Graph enforces it for a
    declared bound; without one the cap is twice g's degeneracy). So adding e
    breaks the cap exactly when the live graph plus e has a nonempty
    (cap+1)-core, and that core is connected and holds both endpoints of e:
    the check peels only the region of degree > cap reachable from one end.

    The real edges' order, each step's pick among the open actions (real,
    decoy-in, decoy-out) and each decoy's endpoints are drawn with
    ``getrandbits`` rejection, the way CPython's ``rng.shuffle``,
    ``rng.choice`` and ``rng.randrange`` draw, so the streams are the ones
    those calls build.
    """
    if not 0.0 <= delete_fraction <= 1.0:
        raise GraphError(f"delete_fraction must be in [0, 1], got {delete_fraction}")
    eff_c = g.c_declared if g.c_declared is not None else max(1, g.degeneracy)
    cap = 2 * eff_c
    m = g.m
    target_decoys = int(delete_fraction * m)
    check_dynamic_budget(m + 2 * target_decoys, eff_c, g.n)
    getrandbits = random.Random(seed).getrandbits
    real = list(g.edges)
    _shuffle(real, getrandbits)
    real_idx = 0
    pending = target_decoys
    n = g.n
    last = n - 1
    bits_u = n.bit_length()
    bits_v = last.bit_length()
    adj: list[set[int]] = [set() for _ in range(n)]  # of the live graph
    live_decoys: deque[Edge] = deque()
    forbidden = set(g.edges)
    events: list[StreamEvent] = []
    append = events.append

    def delete_oldest_decoy() -> None:
        u, v = live_decoys.popleft()
        adj[u].remove(v)
        adj[v].remove(u)
        append((DELETE, u, v))

    def fits(u: int, v: int) -> bool:
        if len(adj[u]) < cap or len(adj[v]) < cap:
            return True  # an endpoint would have degree <= cap: not in the core
        adj[u].add(v)
        adj[v].add(u)
        region = {u}
        stack = [u]
        while stack:
            for y in adj[stack.pop()]:
                if y not in region and len(adj[y]) > cap:
                    region.add(y)
                    stack.append(y)
        deg = {x: len(adj[x] & region) for x in region}
        doomed = [x for x in region if deg[x] <= cap]
        peeled = 0
        while doomed:
            peeled += 1
            for y in adj[doomed.pop()]:
                if y in deg:
                    deg[y] -= 1
                    if deg[y] == cap:  # each vertex crosses to cap at most once
                        doomed.append(y)
        adj[u].remove(v)
        adj[v].remove(u)
        return peeled == len(region)

    while True:
        open_real = real_idx < len(real)
        k = open_real + (pending > 0) + bool(live_decoys)
        if k == 0:
            break
        # pick among the k open actions as rng.choice does (k <= 3 needs 2 bits),
        # then map the pick onto 0 real, 1 decoy-in, 2 decoy-out
        act = 0
        if k > 1:
            act = getrandbits(2)
            while act >= k:
                act = getrandbits(2)
        if not open_real:
            act += 1
        if act == 1 and pending == 0:
            act = 2
        if act == 0:
            u, v = real[real_idx]
            real_idx += 1
            while live_decoys and not fits(u, v):
                delete_oldest_decoy()
            adj[u].add(v)
            adj[v].add(u)
            append((INSERT, u, v))
        elif act == 1:
            pending -= 1
            for _ in range(50):
                u = getrandbits(bits_u)
                while u >= n:
                    u = getrandbits(bits_u)
                v = getrandbits(bits_v)
                while v >= last:
                    v = getrandbits(bits_v)
                if v >= u:
                    v += 1
                else:
                    u, v = v, u
                if v in adj[u] or (u, v) in forbidden or not fits(u, v):
                    continue
                adj[u].add(v)
                adj[v].add(u)
                append((INSERT, u, v))
                live_decoys.append((u, v))
                break
        else:
            delete_oldest_decoy()
    return EdgeStream(n=g.n, events=tuple(events))


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

def serialize_stream(s: EdgeStream) -> str:
    """Bit-exact text form: the header line, then one line per event."""
    lines = [f"n {s.n}"]
    lines.extend(f"{kind} {u} {v}" for kind, u, v in s.events)
    return "\n".join(lines) + "\n"


def _record_lines(text: str) -> Iterator[int]:
    """Numbers of the lines that are neither blank nor comments: the header's, then each event's."""
    for line_no, raw in enumerate(text.splitlines(), 1):
        parts = raw.split()
        if parts and parts[0][0] != "#":
            yield line_no


def parse_stream(text: str) -> EdgeStream:
    """Inverse of serialize_stream.

    Raises ParseError (with the line number) on malformed lines and on
    liveness violations such as deleting an edge that was never inserted.
    Each line is first tested as an event line; blank lines, comments, the
    header and malformed lines are handled after that test. The events read
    are checked once the lines are: EdgeStream's construction checks their
    shape, a valid insert-only stream is accepted in bulk when no event
    repeats, and the per-event loop runs only for a stream with deletes or a
    fault, so a violation on a line before the first malformed one is still
    the error raised.
    """
    n: int | None = None
    events: list[StreamEvent] = []
    append = events.append
    kinds = (INSERT, DELETE)
    malformed: ParseError | None = None
    for line_no, parts in enumerate(map(str.split, text.splitlines()), 1):
        if len(parts) == 3 and parts[0] in kinds and n is not None:
            try:
                append((parts[0], int(parts[1]), int(parts[2])))
            except ValueError:
                malformed = ParseError(line_no, "endpoints are not integers")
                break
            continue
        if not parts or parts[0][0] == "#":
            continue
        if n is None:
            n = _parse_header(line_no, parts)
            continue
        malformed = ParseError(line_no, "expected '+ u v' or '- u v'")
        break
    if n is None:
        raise ParseError(1, "missing 'n <count>' header")
    try:
        stream = EdgeStream(n=n, events=tuple(events))
    except StreamInvariantError:
        # a shape fault: the loop names it, or a liveness fault on an earlier line
        violation = _first_violation(events, n)
    else:
        violation = _first_violation(stream.events, n, stream.insert_only)
    if violation is not None:
        pos, problem = violation
        raise ParseError(next(islice(_record_lines(text), pos, None)), problem)
    if malformed is not None:
        raise malformed
    return stream
