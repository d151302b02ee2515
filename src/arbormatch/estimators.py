"""One-pass streaming estimators for maximum-matching size.

Four building blocks, combined two ways:

* ``alg1_estimate`` samples vertices and tracks exact degree counters d(.) on
  sampled vertices plus lower-bound counters l(.) on their neighbors; its
  output estimates the high-degree count plus the non-isolated low-degree
  count, a constant-factor surrogate for the matching size.
* ``alg2_estimate`` runs a greedy maximal matching truncated at t edges next
  to alg1 in the same pass and picks whichever side is trustworthy.
* ``alg4_estimate_e_alpha`` runs a per-edge survival test (at most alpha
  later incident edges per endpoint) under geometric level sampling to
  estimate the number of surviving edges: each edge draws one top level and
  one test serves every level up to it, so levels nest and terminate from
  the bottom up as a single rising floor; ``graphs.offline_alpha_good_set``
  is the exact offline reference for the same test, and
  ``estimate_matching_logspace`` turns the count into a matching estimate.
* ``dynamic_estimate`` is the insert/delete variant of alg2: counters are
  decremented on deletes, and the greedy side is a maximal matching over the
  live edges, kept while they number at most 4t^2; a stream that overflows
  that capacity is decided by the degree sampler.

Space is instrumented at event granularity in abstract items: one stored
edge = 1 item, one counter = 1 item, one live survival test = 3 items.
"""

from __future__ import annotations

import gc
import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import ConfigError
from .graphs import greedy_maximal_matching
from .streams import INSERT, EdgeStream, StreamEvent, check_dynamic_budget

if TYPE_CHECKING:
    from collections.abc import Callable


@dataclass(frozen=True)
class Estimate:
    """Result of one estimator run.

    ``value`` is None when the run failed, which ``failed`` reports (failure
    is a value, not an error; callers decide whether to retry with a fresh
    seed). ``params`` is the per-run record: the effective parameters plus
    per-run diagnostics (the README lists its keys per estimator); ``trace``
    is filled only by alg4's ``collect_trace`` hook, with the per-level
    ``started`` positions and ``terminated`` flags.
    """

    value: float | int | None
    space_peak: int
    params: dict
    trace: dict | None = None

    @property
    def failed(self) -> bool:
        return self.value is None


# ---------------------------------------------------------------------------
# Degree-sampling estimator (alg1) and its greedy companion (alg2)
# ---------------------------------------------------------------------------


def _check_c_epsilon(c: int, epsilon: float) -> None:
    if c < 1:
        raise ConfigError(f"c must be >= 1, got {c}")
    if not 0.0 < epsilon < 1.0:
        raise ConfigError(f"epsilon must be in (0, 1), got {epsilon}")


def check_degree_threshold(mu: int, c: int) -> None:
    """mu must exceed 2c so the factor 2*mu/(mu-2c+1) stays positive."""
    if mu is None or mu <= 2 * c:
        raise ConfigError(f"the degree threshold needs mu > 2c = {2 * c}, got {mu}")


@dataclass(frozen=True)
class Alg1Params:
    """Parameters of the degree-sampling estimator.

    beta is the approximation factor mu*(2*mu/(mu-2c+1)+1) and lam = epsilon/beta
    the relative accuracy used to size sampling probabilities. mu must exceed
    2c so the factor's denominator stays positive.
    """

    mu: int
    p: float
    c: int
    epsilon: float

    def __post_init__(self):
        _check_c_epsilon(self.c, self.epsilon)
        check_degree_threshold(self.mu, self.c)
        if self.p is None or not 0.0 < self.p <= 1.0:
            raise ConfigError(f"the degree sampler needs p in (0, 1], got {self.p}")

    @property
    def beta(self) -> float:
        return self.mu * (2.0 * self.mu / (self.mu - 2 * self.c + 1) + 1.0)

    @property
    def lam(self) -> float:
        return self.epsilon / self.beta


class Alg1State:
    """Stream state of the degree-sampling estimator; handles deletes too.

    Every vertex enters the sample S independently with probability p at
    initialization. Each arriving edge with a sampled endpoint is stored;
    sampled endpoints add the other endpoint to their neighbour set, whose
    size is the exact counter d(.), and unsampled endpoints of stored edges
    advance the lower-bound counter l(.). Deletes undo those updates, and a
    neighbor whose stored edges all vanish is discarded.

    Each stored edge is kept once, in the neighbour set of a sampled
    endpoint, so an edge is stored iff such an endpoint lists the other.
    """

    def __init__(self, n: int, params: Alg1Params, seed: int):
        self.params = params
        if params.p >= 1.0:
            sampled = range(n)
        else:
            rng = random.Random(seed)
            p = params.p
            sampled = [v for v in range(n) if rng.random() < p]
        # S -> live stored neighbours: the keys are S, and d(v) = len(neighbors[v])
        self.neighbors: dict[int, set[int]] = {v: set() for v in sampled}
        self.lower: dict[int, int] = {}  # l(.): stored-edge count per outside neighbor
        self.edges = 0  # |H|: live edges with a sampled endpoint

    def items(self) -> int:
        """Current stored items: |H| edges plus one counter per S and Gamma(S)\\S vertex."""
        return self.edges + len(self.neighbors) + len(self.lower)

    def apply_insert(self, u: int, v: int) -> None:
        neighbors = self.neighbors
        nu = neighbors.get(u)
        nv = neighbors.get(v)
        if nu is not None:
            nu.add(v)
        elif nv is None:
            return
        else:
            self.lower[u] = self.lower.get(u, 0) + 1
        if nv is not None:
            nv.add(u)
        else:
            self.lower[v] = self.lower.get(v, 0) + 1
        self.edges += 1

    def apply_delete(self, u: int, v: int) -> None:
        neighbors = self.neighbors
        nu = neighbors.get(u)
        nv = neighbors.get(v)
        if nu is not None:
            if v not in nu:
                return
            nu.remove(v)
        elif nv is None or u not in nv:
            return
        else:
            self._drop_lower(u)
        if nv is not None:
            nv.remove(u)
        else:
            self._drop_lower(v)
        self.edges -= 1

    def _drop_lower(self, x: int) -> None:
        lower = self.lower
        count = lower[x] - 1
        if count:
            lower[x] = count
        else:
            del lower[x]  # all stored edges gone: drop from Gamma(S)

    def split(self) -> tuple[list[int], list[int]]:
        """(S_1, S_2): low-degree sampled vertices with a low-counter neighbor,
        and high-degree sampled vertices.

        A neighbor's one counter is d(.) if it is sampled, else l(.): ``lower``
        never holds a sampled vertex, so the high-counter vertices are the
        high-degree sampled vertices and the high entries of ``lower``.
        """
        mu = self.params.mu
        neighbors = self.neighbors
        s2 = [v for v, nbrs in neighbors.items() if len(nbrs) > mu]
        high = set(s2)
        high.update(w for w, count in self.lower.items() if count > mu)
        s1 = [v for v, nbrs in neighbors.items() if len(nbrs) <= mu and not nbrs <= high]
        return s1, s2

    def estimate(self) -> float:
        s1, s2 = self.split()
        return (len(s1) + len(s2)) / self.params.p


def alg1_estimate(stream: "EdgeStream", params: Alg1Params, seed: int) -> Estimate:
    """Run the degree-sampling estimator over an insert-only stream.

    Returns s = (|S_1| + |S_2|) / p; an empty sample simply yields 0. Items
    only grow on inserts, so the final count is the peak.
    """
    stream.require_insert_only()
    state = Alg1State(stream.n, params, seed)
    for _, u, v in stream.events:
        state.apply_insert(u, v)
    return Estimate(
        value=state.estimate(),
        space_peak=state.items(),
        params={
            "algorithm": "alg1",
            "mu": params.mu,
            "p": params.p,
            "c": params.c,
            "epsilon": params.epsilon,
            "beta": params.beta,
            "sample_size": len(state.neighbors),
        },
    )


def alg2_greedy_cutoff(n: int, c: int, epsilon: float, beta: float) -> int:
    """Greedy truncation threshold t = ceil(beta * sqrt(8*n*c) / epsilon)."""
    return math.ceil(beta * math.sqrt(8.0 * n * c) / epsilon)


def _cutoff_and_sampler(
    n: int, c: int, mu: int, epsilon: float, cutoff: Callable[[int, int, float, float], int]
) -> tuple[int, Alg1Params]:
    """The greedy cutoff t = cutoff(n, c, epsilon, beta) and the degree
    sampler's parameters at p = min(1, 8/(lam^2 t)); validates mu/c/epsilon.

    t is at least 1, as the formula gives for every n >= 1; at n = 0 the
    empty greedy matching then decides, with value 0."""
    probe = Alg1Params(mu=mu, p=1.0, c=c, epsilon=epsilon)
    t = max(1, cutoff(n, c, epsilon, probe.beta))
    p = min(1.0, 8.0 / (probe.lam * probe.lam * t))
    return t, Alg1Params(mu=mu, p=p, c=c, epsilon=epsilon)


def _composite(
    algorithm: str, params: Alg1Params, t: int, r: int | None,
    sampler_estimate: Callable[[], float], space_peak: int, **extra,
) -> Estimate:
    """alg2's post-processing, shared with the insert/delete variant: twice the
    greedy matching size r while it stays below t, else ``sampler_estimate()``;
    r is None when the caller has no greedy matching. ``extra`` appends the
    caller's own ``params`` keys."""
    if r is not None and r < t:
        value, branch = 2 * r, "greedy"
    else:
        value, branch = sampler_estimate(), "alg1"
    return Estimate(
        value=value,
        space_peak=space_peak,
        params={
            "algorithm": algorithm,
            "mu": params.mu,
            "c": params.c,
            "epsilon": params.epsilon,
            "beta": params.beta,
            "t": t,
            "p": params.p,
            "greedy_r": r,
            "branch": branch,
            **extra,
        },
    )


def alg2_estimate(stream: "EdgeStream", c: int, mu: int, epsilon: float, seed: int) -> Estimate:
    """One-pass composite: truncated greedy matching next to the degree sampler.

    The greedy side admits edges while its matching is below t; if it ends
    below t its doubled size is already a 2-approximation and is returned,
    otherwise the degree-sampling estimate (run at p = min(1, 8/(lam^2 t)))
    is returned.
    """
    t, params = _cutoff_and_sampler(stream.n, c, mu, epsilon, alg2_greedy_cutoff)
    stream.require_insert_only()
    state = Alg1State(stream.n, params, seed)
    matched: set[int] = set()
    r = 0
    for _, u, v in stream.events:
        if r < t and u not in matched and v not in matched:
            matched.add(u)
            matched.add(v)
            r += 1
        state.apply_insert(u, v)
    # both sides only grow on inserts, so the final count is the peak
    return _composite("alg2", params, t, r, state.estimate, state.items() + r)


# ---------------------------------------------------------------------------
# Survival test (alg3) and level-sampled survivor counting (alg4)
# ---------------------------------------------------------------------------


def alg4_num_levels(n: int, c: int, epsilon: float) -> int:
    """Level count: indices 0..floor(log_{1+eps}(c*n)), using m <= c*n."""
    cn = max(c * n, 1)
    return int(math.floor(math.log(cn) / math.log(1.0 + epsilon))) + 1


def alg4_level_cap(n: int, alpha: float, c: int, epsilon: float) -> float:
    """Per-level live-test cap tau = 64*alpha^2*ln(n)/(c*eps^2)."""
    return 64.0 * alpha * alpha * math.log(max(n, 2)) / (c * epsilon * epsilon)


def alg4_selection_threshold(n: int, epsilon: float) -> float:
    """Post-selection threshold tau' = 8*ln(n)/eps^2."""
    return 8.0 * math.log(max(n, 2)) / (epsilon * epsilon)


def check_alpha(alpha: float) -> None:
    """The survival threshold alpha must be a finite number >= 1; raises ConfigError."""
    if alpha is None or not alpha >= 1:  # also rejects NaN
        raise ConfigError(f"alpha must be >= 1, got {alpha}")
    if alpha == math.inf:
        raise ConfigError(f"alpha must be >= 1 and finite, got {alpha}")


def _mark_copy_dead(queue: list[int], x: int, floor: int) -> None:
    """Mark dead, in alg4's ``queue`` of a test's other endpoint, the copy of that
    test, which just failed at ``x``: the first entry there that names ``x`` and
    still counts. A copy of an earlier test on the same pair no longer counts, as
    that test left ``x``'s queue first."""
    for i in range(2, len(queue), 3):
        if queue[i + 1] == x and queue[i] >= floor:
            queue[i] = -1
            return


def _drop_dead_entries(by_vertex: dict[int, list[int]], floor: int) -> dict[int, list[int]]:
    """alg4's queues without their dead entries, in a new dict: each queue is
    compacted in place to the entries whose top is at or above ``floor``, and a
    queue left empty is dropped."""
    for queue in by_vertex.values():
        kept = [queue[0]]
        for i in range(1, len(queue), 3):
            if queue[i + 1] >= floor:
                kept += queue[i : i + 3]
        queue[:] = kept
    return {x: queue for x, queue in by_vertex.items() if len(queue) > 1}


def alg4_estimate_e_alpha(
    stream: "EdgeStream",
    alpha: float,
    c: int,
    epsilon: float,
    seed: int,
    *,
    tau_override: float | None = None,
    collect_trace: bool = False,
) -> Estimate:
    """Estimate the number of surviving (alpha-good) edges of an insert-only stream.

    Each edge draws one geometric top level L with P(L >= i) = (1+eps)^-i, so
    level i samples it with probability (1+eps)^-i, and gets one survival
    test that counts toward every level from the current floor up to L;
    existing tests are fed before the event's own draw. Level counts nest
    (level i holds at least as many live tests as level i+1), so levels are
    terminated from the bottom up: the floor rises past every level whose
    live-test count exceeds tau, and an edge whose L is below the floor gets
    no test. One count per top level carries all of it: level i's count is
    the sum of the counts at tops i and above (Gibbons, VLDB 2001).
    Post-processing returns |X_0| exactly when level 0 survived, otherwise
    |X_j|/p_j for the smallest live level under tau'*(1+eps), or a failed
    Estimate when no level qualifies.

    ``tau_override`` (e.g. math.inf) and ``collect_trace`` are test hooks: the
    trace holds per-level ``started`` positions and ``terminated`` flags.
    """
    _check_c_epsilon(c, epsilon)
    check_alpha(alpha)
    stream.require_insert_only()
    n = stream.n
    num_levels = alg4_num_levels(n, c, epsilon)
    tau = alg4_level_cap(n, alpha, c, epsilon) if tau_override is None else tau_override
    tau_prime = alg4_selection_threshold(n, epsilon)
    growth = 1.0 + epsilon
    log_growth = math.log(growth)
    top_level = num_levels - 1

    rand = random.Random(seed).random
    log = math.log
    at_top = [0] * num_levels  # live tests per top level
    live = 0  # live tests at the floor: those whose top is at or above it
    floor = 0  # levels below the floor are terminated
    # A test fails at x once it has seen more than alpha later edges there, that is
    # for a finite alpha >= 1 once it has seen int(alpha) + 1 of them.
    reach = int(alpha) + 1
    # by_vertex[x] is x's queue, [k, deadline_1, top_1, other_1, deadline_2, top_2,
    # other_2, ...]: each entry holds its test inline, so a test is no object of its
    # own and its two endpoints' queues each keep a copy. k counts the events at x
    # since the queue was made, and a test begun at count k0 fails at x when k reaches
    # its deadline k0 + reach; top_i is the edge's top level and other_i its other
    # endpoint. Tests enter in creation order, so deadlines never decrease along a
    # queue: feeding x bumps k and pops the front while k has reached its deadline. A
    # test popped there whose top is at or above the floor fails, and its copy at the
    # other end gets top -1, so it is counted down once. Any other entry is dead and
    # leaves at its deadline, uncounted. ``entries`` counts every queued entry, and
    # once dead ones outnumber the live ones (two per live test), _drop_dead_entries
    # rebuilds the queues and the dict without them. A queue whose last test leaves
    # is deleted.
    by_vertex: dict[int, list[int]] = {}
    queue_at = by_vertex.get
    entries = 0
    peak = 0  # the most live tests at once
    if collect_trace:
        started: dict[int, list[int]] = {i: [] for i in range(num_levels)}

    # The loop's only containers are queues of ints, so it makes no reference cycles
    # and the cyclic collector has nothing to free in it. Left on, its passes take
    # about a quarter of a call on 100k edges, at points set by allocation counts.
    collecting = gc.isenabled()
    gc.disable()
    try:
        for pos, (_, u, v) in enumerate(stream.events, 1):
            # feed existing tests before this event's own sampling decision, u's
            # queue then v's, each fetched once
            queue_u = queue_at(u)
            if queue_u is not None:
                k = queue_u[0] + 1
                queue_u[0] = k
                while k >= queue_u[1]:
                    top = queue_u[2]
                    if top >= floor:  # fails at u: its copy at the other end is dead
                        at_top[top] -= 1
                        live -= 1
                        _mark_copy_dead(by_vertex[queue_u[3]], u, floor)
                    del queue_u[1:4]
                    entries -= 1
                    if len(queue_u) == 1:
                        del by_vertex[u]
                        queue_u = None
                        break
            queue_v = queue_at(v)
            if queue_v is not None:
                k = queue_v[0] + 1
                queue_v[0] = k
                while k >= queue_v[1]:
                    top = queue_v[2]
                    if top >= floor:
                        at_top[top] -= 1
                        live -= 1
                        _mark_copy_dead(by_vertex[queue_v[3]], v, floor)
                    del queue_v[1:4]
                    entries -= 1
                    if len(queue_v) == 1:
                        del by_vertex[v]
                        queue_v = None
                        break
            top = int(-log(1.0 - rand()) / log_growth)
            if top > top_level:  # a compare, not min(): a builtin call per event costs more
                top = top_level
            if top >= floor:
                if queue_u is None:
                    by_vertex[u] = [0, reach, top, v]
                else:
                    queue_u += (queue_u[0] + reach, top, v)
                if queue_v is None:
                    by_vertex[v] = [0, reach, top, u]
                else:
                    queue_v += (queue_v[0] + reach, top, u)
                at_top[top] += 1
                live += 1
                entries += 2
                if collect_trace:
                    for i in range(floor, top + 1):
                        started[i].append(pos)
                while live > tau and floor < num_levels:
                    # both entries of every live test at the old floor go dead
                    live -= at_top[floor]
                    floor += 1
                if live > peak:
                    peak = live
                if entries > 4 * live:
                    by_vertex = _drop_dead_entries(by_vertex, floor)
                    queue_at = by_vertex.get
                    entries = 2 * live
    finally:
        # free the queues while the collector is still off: each freed queue takes
        # back its allocation count, so resuming finds no pass due, where ~95k live
        # queues on 100k edges would force one
        by_vertex.clear()
        if collecting:
            gc.enable()

    # level 0 is exact while it lives; else walk up to the first level under tau'*(1+eps)
    threshold = math.inf if floor == 0 else tau_prime * (1.0 + epsilon)
    value: float | int | None = None
    selected: int | None = None
    count = live
    for i in range(floor, num_levels):
        if count <= threshold:
            selected = i
            value = count / growth ** (-i) if i else count
            break
        count -= at_top[i]

    trace = None
    if collect_trace:
        trace = {"started": started, "terminated": [i < floor for i in range(num_levels)]}
    return Estimate(
        value=value,
        space_peak=3 * peak,  # every live test counts toward the floor level, at 3 items each
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


LOGSPACE_MAX_ATTEMPTS = 4  # initial seed plus up to three fresh retries


def estimate_matching_logspace(
    stream: "EdgeStream",
    c: int,
    epsilon: float,
    seed: int,
    *,
    tau_override: float | None = None,
) -> Estimate:
    """Matching-size estimate 3 * (survivor-count estimate at alpha = 6c).

    A failed survivor estimate is retried with fresh derived seeds (seed+1,
    seed+2, ...) a bounded number of times before failure is surfaced.
    """
    alpha = 6 * c
    params = {"algorithm": "logspace", "alpha": alpha, "c": c, "epsilon": epsilon}
    peak = 0
    for attempt in range(LOGSPACE_MAX_ATTEMPTS):
        est = alg4_estimate_e_alpha(
            stream, alpha, c, epsilon, seed + attempt, tau_override=tau_override
        )
        if est.space_peak > peak:
            peak = est.space_peak
        if not est.failed:
            params["attempts"] = attempt + 1
            for key in ("selected_level", "num_levels", "tau"):
                params[key] = est.params[key]
            return Estimate(value=3 * est.value, space_peak=peak, params=params)
    params["attempts"] = LOGSPACE_MAX_ATTEMPTS
    return Estimate(value=None, space_peak=peak, params=params)


# ---------------------------------------------------------------------------
# Insert/delete variant
# ---------------------------------------------------------------------------


def dynamic_greedy_cutoff(n: int, c: int, epsilon: float, beta: float) -> int:
    """Cutoff t = ceil((8*beta*n*c/eps^2)^(1/3)) for the insert/delete variant."""
    return math.ceil((8.0 * beta * n * c / (epsilon * epsilon)) ** (1.0 / 3.0))


def dynamic_estimate(
    stream: "EdgeStream",
    c: int,
    mu: int,
    epsilon: float,
    seed: int,
    *,
    capacity_override: int | None = None,
) -> Estimate:
    """Insert/delete matching estimate with the alg2 post-processing.

    Runs the delete-aware degree sampler next to the set of live edges, which
    is given up for the rest of the stream the first time it holds more than
    4*t^2 edges. If the set survives, r is the greedy maximal matching over it
    in insertion order, and twice r is returned when r < t; otherwise, and
    after an overflow (``params["greedy_r"]`` is None), the degree-sampling
    estimate is returned. Streams longer than the 4*c*n budget are rejected;
    the stream's shape (kinds and endpoints) was checked at its construction,
    and its liveness is the caller's to check with validate().

    ``capacity_override`` is a test hook that replaces 4*t^2, so small inputs
    overflow the set.
    """
    n = stream.n
    t, params = _cutoff_and_sampler(n, c, mu, epsilon, dynamic_greedy_cutoff)
    check_dynamic_budget(len(stream.events), c, n)
    capacity = 4 * t * t if capacity_override is None else capacity_override
    if capacity < 1:
        raise ConfigError(f"the live-edge set needs capacity >= 1, got {capacity}")
    state = Alg1State(n, params, random.Random(seed).getrandbits(64))
    state_insert, state_delete = state.apply_insert, state.apply_delete
    lower = state.lower
    counters = len(state.neighbors)  # one per sampled vertex, fixed at initialization
    # the live edges' insert events in insertion order, None once past capacity;
    # keyed by the stream's own event tuples, so an insert allocates no key
    live: dict[StreamEvent, None] | None = {}
    peak = state.items()
    for event in stream.events:
        kind, u, v = event
        if kind == INSERT:
            state_insert(u, v)
            held = 0
            if live is not None:
                live[event] = None
                held = len(live)
                if held > capacity:
                    live = None
            # only an insert can raise the count: a delete never adds an item
            items = state.edges + counters + len(lower) + held
            if items > peak:
                peak = items
        else:  # a delete: construction admits no other kind
            state_delete(u, v)
            if live is not None:
                live.pop((INSERT, u, v), None)
    r = None if live is None else greedy_maximal_matching(EdgeStream(n, tuple(live)))
    s = state.estimate()
    return _composite(
        "dynamic", params, t, r, lambda: s, peak, capacity=capacity, alg1_value=s
    )
