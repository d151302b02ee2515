"""Experiment runner, inequality checker and CSV reporting.

Experiments are flat key=value configs: one graph + stream + estimator run
per trial, seeded by a counter split of the master seed so results do not
depend on scheduling. CSV rows are streamed as they are produced and are
byte-identical across runs except for the wall-time column.
"""

from __future__ import annotations

import csv
import gc
import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator

from .errors import ConfigError
from .estimators import (
    Alg1Params,
    Estimate,
    alg1_estimate,
    alg2_estimate,
    alg4_estimate_e_alpha,
    check_degree_threshold,
    dynamic_estimate,
    estimate_matching_logspace,
)
from .graphs import (
    Graph,
    characterize,
    later_degree_profile,
    maximum_matching_size,
)
from .streams import (
    EdgeStream,
    OrderingPolicy,
    generate_dynamic_stream,
    generate_random_tree,
    generate_star_forest,
    generate_union_of_forests,
    order_stream,
)

# Generator and estimator tables shared by ``arbormatch experiment`` and the
# CLI's generate/estimate subcommands. Entries read parameters by attribute,
# so an ExperimentConfig and parsed CLI arguments both work, and call library
# functions through this module's globals at call time, so rebinding one here
# (as a test or profiler does) reaches every front end.

# name -> (params, seed) -> Graph
GENERATORS: dict[str, Callable[[Any, int], Graph]] = {
    "union-of-forests": lambda a, seed: generate_union_of_forests(a.n, a.c, seed),
    "star-forest": lambda a, seed: generate_star_forest(a.k, a.s),
    "random-tree": lambda a, seed: generate_random_tree(a.n, seed),
}


# name -> run(params, stream, seed). Every estimator checks its parameters
# before it reads the stream and accepts the empty stream, so a run on
# EdgeStream(0, ()) is the parameter check (it raises ConfigError);
# validate_config and the CLI's estimate make it before any graph is
# generated, stream file read or CSV opened.
ESTIMATORS: dict[str, Callable[[Any, EdgeStream, int], Estimate]] = {
    "alg1": lambda a, stream, seed: alg1_estimate(
        stream, Alg1Params(mu=a.mu, p=a.p, c=a.c, epsilon=a.epsilon), seed
    ),
    "alg2": lambda a, stream, seed: alg2_estimate(
        stream, c=a.c, mu=a.mu, epsilon=a.epsilon, seed=seed
    ),
    "alg4": lambda a, stream, seed: alg4_estimate_e_alpha(
        stream, alpha=a.alpha, c=a.c, epsilon=a.epsilon, seed=seed
    ),
    "logspace": lambda a, stream, seed: estimate_matching_logspace(
        stream, c=a.c, epsilon=a.epsilon, seed=seed
    ),
    "dynamic": lambda a, stream, seed: dynamic_estimate(
        stream, c=a.c, mu=a.mu, epsilon=a.epsilon, seed=seed
    ),
}

CSV_HEADER = ["seed", "value", "m_star", "ratio", "space_peak", "fail", "ms"]


@dataclass
class ExperimentConfig:
    """One experiment: generator + ordering + estimator + trial count."""

    generator: str = "union-of-forests"
    n: int = 100
    c: int = 1
    k: int = 10  # star-forest: number of stars
    s: int = 3  # star-forest: leaves per star
    graph_seed: int | None = None  # fix one graph across trials when set
    ordering: OrderingPolicy = OrderingPolicy.UNIFORM_RANDOM
    estimator: str = "alg2"
    mu: int | None = None
    alpha: float | None = None
    epsilon: float = 0.5
    p: float | None = None
    delete_fraction: float = 0.0
    trials: int = 1
    seed0: int = 0
    output: str | None = None


_CONFIG_FIELDS: dict[str, Callable[[str], object]] = {
    "generator": str,
    "n": int,
    "c": int,
    "k": int,
    "s": int,
    "graph-seed": int,
    "ordering": str,
    "estimator": str,
    "mu": int,
    "alpha": float,
    "epsilon": float,
    "p": float,
    "delete-fraction": float,
    "trials": int,
    "seed0": int,
    "output": str,
}


def parse_config(text: str) -> ExperimentConfig:
    """Parse a flat key=value config (one pair per line, # comments)."""
    values: dict[str, object] = {}
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value'")
        key, _, rhs = line.partition("=")
        key = key.strip()
        rhs = rhs.strip()
        if key not in _CONFIG_FIELDS:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
        if key.replace("-", "_") in values:
            raise ConfigError(f"line {line_no}: duplicate key {key!r}")
        try:
            values[key.replace("-", "_")] = _CONFIG_FIELDS[key](rhs)
        except ValueError:
            raise ConfigError(f"line {line_no}: bad value {rhs!r} for {key}") from None
    config = ExperimentConfig(**values)  # type: ignore[arg-type]
    validate_config(config)
    return config


def validate_config(config: ExperimentConfig) -> None:
    """Reject invalid parameter combinations before any trial runs."""
    if config.generator not in GENERATORS:
        raise ConfigError(f"unknown generator {config.generator!r}")
    if config.estimator not in ESTIMATORS:
        raise ConfigError(f"unknown estimator {config.estimator!r}")
    try:
        config.ordering = OrderingPolicy(config.ordering)
    except ValueError:
        raise ConfigError(f"unknown ordering {config.ordering!r}") from None
    if config.trials < 1:
        raise ConfigError(f"trials must be >= 1, got {config.trials}")
    if config.generator == "star-forest":
        if config.k < 1 or config.s < 1:
            raise ConfigError("star-forest needs k >= 1 and s >= 1")
    elif config.n < 2:
        raise ConfigError(f"n must be >= 2, got {config.n}")
    if not 0.0 <= config.delete_fraction <= 1.0:
        raise ConfigError(f"delete-fraction must be in [0, 1], got {config.delete_fraction}")
    if config.delete_fraction > 0 and config.estimator != "dynamic":
        raise ConfigError("delete-fraction only applies to the dynamic estimator")
    ESTIMATORS[config.estimator](config, EdgeStream(0, ()), 0)  # the parameter check


def _run_estimator(config: ExperimentConfig, g: Graph, seed: int) -> Estimate:
    if config.estimator == "dynamic":
        stream = generate_dynamic_stream(g, config.delete_fraction, seed)
    else:
        stream = order_stream(g, config.ordering, seed)
    return ESTIMATORS[config.estimator](config, stream, seed)


@dataclass
class TrialRecord:
    """One estimator run against the exact matching size of its graph."""

    seed: int
    value: float | int | None
    m_star: int
    ratio: float | None
    space_peak: int
    failed: bool
    ms: float


def _format_number(x: float | int) -> str:
    if isinstance(x, int):
        return str(x)
    return str(int(x)) if float(x).is_integer() else repr(x)


def _format_row(rec: TrialRecord) -> list[str]:
    return [
        str(rec.seed),
        "" if rec.value is None else _format_number(rec.value),
        str(rec.m_star),
        "" if rec.ratio is None else repr(rec.ratio),
        str(rec.space_peak),
        "1" if rec.failed else "0",
        f"{rec.ms:.3f}",
    ]


def emit_csv(records: Iterable[TrialRecord], path: str) -> list[TrialRecord]:
    """Write records as CSV, one row as each arrives, and return them.

    The ratio (and value) cell is empty when absent.
    """
    written: list[TrialRecord] = []
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for rec in records:
            writer.writerow(_format_row(rec))
            written.append(rec)
    return written


def _trial(
    config: ExperimentConfig, seed: int, fixed: tuple[Graph, int] | None
) -> TrialRecord:
    # A trial's containers (edge and event tuples, adjacency lists, sampler sets)
    # form no reference cycles, so the cyclic collector's passes free nothing in
    # it. The graph, stream and estimate are this frame's locals, so they are
    # freed on return, before anything allocates with the collector back on.
    collecting = gc.isenabled()
    gc.disable()
    try:
        if fixed is not None:
            g, m_star = fixed
        else:
            g = GENERATORS[config.generator](config, seed)
            m_star = maximum_matching_size(g)
        start = time.perf_counter()
        est = _run_estimator(config, g, seed)
        ms = (time.perf_counter() - start) * 1000.0
        ratio = None
        if not est.failed and m_star > 0:
            ratio = est.value / m_star
        return TrialRecord(
            seed=seed,
            value=est.value,
            m_star=m_star,
            ratio=ratio,
            space_peak=est.space_peak,
            failed=est.failed,
            ms=ms,
        )
    finally:
        if collecting:
            gc.enable()


def _trials(
    config: ExperimentConfig, fixed: tuple[Graph, int] | None
) -> Iterator[TrialRecord]:
    for i in range(config.trials):
        yield _trial(config, config.seed0 + i, fixed)


def run_experiment(config: ExperimentConfig) -> list[TrialRecord]:
    """Run config.trials seeded trials and return their records.

    When config.output is set, each record is also written to that CSV path
    as it is produced. Trial i uses seed seed0+i for the graph (unless
    graph-seed pins one), the stream ordering and the estimator, so identical
    configs give identical records (the wall-time column aside).
    """
    validate_config(config)
    fixed = None
    if config.graph_seed is not None:
        fixed_graph = GENERATORS[config.generator](config, config.graph_seed)
        fixed = (fixed_graph, maximum_matching_size(fixed_graph))
    trials = _trials(config, fixed)
    return list(trials) if config.output is None else emit_csv(trials, config.output)


def summarize_ratios(records: list[TrialRecord]) -> dict:
    """Trial and failure counts, plus min/median/max ratio when any trial has one."""
    ratios = [r.ratio for r in records if r.ratio is not None]
    summary: dict = {
        "trials": len(records),
        "fails": sum(1 for r in records if r.failed),
    }
    if ratios:
        summary["ratio_min"] = min(ratios)
        summary["ratio_median"] = statistics.median(ratios)
        summary["ratio_max"] = max(ratios)
    return summary


# ---------------------------------------------------------------------------
# Inequality checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LemmaCheck:
    name: str
    holds: bool
    witness: str


@dataclass(frozen=True)
class LemmaReport:
    """Outcome of every characterization inequality on one graph."""

    graph_label: str
    mu: int
    alpha: float
    checks: tuple[LemmaCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.holds for c in self.checks)

    def format(self) -> str:
        lines = [f"{self.graph_label}: mu={self.mu} alpha={self.alpha}"]
        for c in self.checks:
            mark = "ok " if c.holds else "VIOLATION"
            lines.append(f"  {mark} {c.name}: {c.witness}")
        lines.append("all checks passed" if self.passed else "violations found")
        return "\n".join(lines)


def lemma_alpha_threshold(c: int, mu: int) -> float:
    """The later-neighbor threshold max(mu-1, 4c(mu+1)/(mu+1-2c))."""
    return max(mu - 1.0, 4.0 * c * (mu + 1) / (mu + 1 - 2 * c))


def _at_most(name: str, left: str, lhs: float, right: str, rhs: float) -> LemmaCheck:
    """The check ``lhs <= rhs``, witnessed as ``left=lhs <= right=rhs`` (floats to 4 places)."""
    a, b = (f"{x:.4f}" if isinstance(x, float) else str(x) for x in (lhs, rhs))
    return LemmaCheck(name, lhs <= rhs, f"{left}={a} <= {right}={b}")


def degree_threshold_checks(
    c: int, mu: int, m_star: int, h_mu: int, m_mu: int
) -> list[LemmaCheck]:
    """High-degree-count bound and the two-sided matching sandwich."""
    factor = 2.0 * mu / (mu - 2 * c + 1)
    return [
        _at_most("high-degree-count", "h_mu", h_mu, f"{factor:.4f}*m_star", factor * m_star),
        _at_most("sandwich-lower", "m_star", m_star, "h_mu+m_mu", h_mu + m_mu),
        _at_most(
            "sandwich-upper", "h_mu+m_mu", h_mu + m_mu,
            f"{factor + 1.0:.4f}*m_star", (factor + 1.0) * m_star,
        ),
    ]


def alpha_good_checks(
    c: int,
    mu: int,
    alpha: float,
    m_star: int,
    h_mu: int,
    s_mu: int,
    e_alpha: int,
    label: str,
) -> list[LemmaCheck]:
    """Two-sided window on the surviving-edge count, plus the finer lower bound."""
    coeff = 0.5 - c / (mu + 1.0)
    upper = 1.25 * alpha + 2.0
    return [
        _at_most(
            f"alpha-good-lower [{label}]", f"{coeff:.4f}*m_star", coeff * m_star,
            "e_alpha", e_alpha,
        ),
        _at_most(
            f"alpha-good-intermediate [{label}]", f"{coeff:.4f}*h_mu+s_mu",
            coeff * h_mu + s_mu, "e_alpha", e_alpha,
        ),
        _at_most(
            f"alpha-good-upper [{label}]", "e_alpha", e_alpha,
            f"{upper:.4f}*m_star", upper * m_star,
        ),
    ]


def triple_alpha_checks(c: int, m_star: int, e_6c: int, label: str) -> list[LemmaCheck]:
    """m_star <= 3*e_{6c} <= (22.5c+6)*m_star for the canonical threshold 6c."""
    factor = 22.5 * c + 6.0
    return [
        _at_most(f"triple-alpha-lower [{label}]", "m_star", m_star, "3*e_6c", 3 * e_6c),
        _at_most(
            f"triple-alpha-upper [{label}]", "3*e_6c", 3 * e_6c,
            f"{factor:.4f}*m_star", factor * m_star,
        ),
    ]


def forest_window_checks(m_star: int, e_1: int, label: str) -> list[LemmaCheck]:
    """On forests the survivor count at threshold 1 sits in [m_star, 2*m_star]."""
    return [
        _at_most(f"forest-window-lower [{label}]", "m_star", m_star, "e_1", e_1),
        _at_most(f"forest-window-upper [{label}]", "e_1", e_1, "2*m_star", 2 * m_star),
    ]


def check_lemmas(g: Graph, orderings: int, mu: int, seed: int) -> LemmaReport:
    """Evaluate every characterization inequality on g under random orderings.

    Needs g.c_declared. The graph-only checks run once; the ordering-dependent
    ones run for ``orderings`` uniform-random permutations seeded seed..seed+
    orderings-1. The forest window is only checked when g is a forest.
    """
    if g.c_declared is None:
        raise ConfigError("check_lemmas needs a graph with a declared arboricity bound")
    c = g.c_declared
    check_degree_threshold(mu, c)
    if orderings < 1:
        raise ConfigError(f"orderings must be >= 1, got {orderings}")
    report = characterize(g, mu)
    alpha = lemma_alpha_threshold(c, mu)
    is_forest = g.degeneracy <= 1
    checks = degree_threshold_checks(c, mu, report.m_star, report.h_mu, report.m_mu)
    for j in range(orderings):
        stream = order_stream(g, OrderingPolicy.UNIFORM_RANDOM, seed + j)
        profile = later_degree_profile(stream)
        label = f"ordering {seed + j}"
        e_alpha = sum(1 for worst in profile if worst <= alpha)
        e_6c = sum(1 for worst in profile if worst <= 6 * c)
        checks.extend(
            alpha_good_checks(
                c, mu, alpha, report.m_star, report.h_mu, report.s_mu, e_alpha, label
            )
        )
        checks.extend(triple_alpha_checks(c, report.m_star, e_6c, label))
        if is_forest:
            e_1 = sum(1 for worst in profile if worst <= 1)
            checks.extend(forest_window_checks(report.m_star, e_1, label))
    label = f"graph(n={g.n}, m={g.m}, c={c})"
    return LemmaReport(graph_label=label, mu=mu, alpha=alpha, checks=tuple(checks))
