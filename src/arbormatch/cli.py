"""Command-line front end.

Subcommands: generate, order, oracle, estimate, experiment, check-lemmas.
Exit codes: 0 success, 1 violation, failed estimate or a file that cannot be
read or written (``io error: ...`` on stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .errors import ConfigError
from .estimators import check_alpha
from .graphs import (
    characterize,
    offline_alpha_good_set,
    parse_graph,
    serialize_graph,
)
from .harness import (
    ESTIMATORS,
    GENERATORS,
    check_lemmas,
    parse_config,
    run_experiment,
    summarize_ratios,
)
from .streams import EdgeStream, OrderingPolicy, order_stream, parse_stream, serialize_stream


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _write(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


def _cmd_generate(args: argparse.Namespace) -> int:
    _write(args.output, serialize_graph(GENERATORS[args.kind](args, args.seed)))
    return 0


def _cmd_order(args: argparse.Namespace) -> int:
    g = parse_graph(_read(args.graph), c_declared=args.c)
    stream = order_stream(g, args.policy, args.seed)
    _write(args.output, serialize_stream(stream))
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    if args.stream is not None:
        if args.alpha is None:
            raise ConfigError("--alpha is required when --stream is given")
        check_alpha(args.alpha)
    g = parse_graph(_read(args.graph), c_declared=args.c)
    if args.stream is not None:
        stream = parse_stream(_read(args.stream))
        # m events that leave the graph's m edges live: each edge inserted once, no delete
        if (stream.n, len(stream.events)) != (g.n, g.m) or stream.live_edges() != set(g.edges):
            raise ConfigError(f"--stream {args.stream} is not a stream of the graph's edges")
    payload = {"n": g.n, "m": g.m, "degeneracy": g.degeneracy}
    payload.update(dataclasses.asdict(characterize(g, args.mu)))
    if args.stream is not None:
        payload["alpha"] = args.alpha
        payload["e_alpha"] = len(offline_alpha_good_set(stream, args.alpha))
    print(json.dumps(payload, sort_keys=True))
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    run = ESTIMATORS[args.algorithm]
    run(args, EdgeStream(0, ()), args.seed)  # the parameter check, before the file is read
    est = run(args, parse_stream(_read(args.stream)), args.seed)
    value = "" if est.value is None else est.value
    print(
        f"algorithm={args.algorithm} value={value} space_peak={est.space_peak} "
        f"fail={1 if est.failed else 0} seed={args.seed}"
    )
    return 1 if est.failed else 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    config = parse_config(_read(args.config))
    if args.output is not None:
        config.output = args.output
    records = run_experiment(config)
    summary = summarize_ratios(records)
    parts = [f"trials={summary['trials']}", f"fails={summary['fails']}"]
    if "ratio_min" in summary:
        parts.append(f"ratio_min={summary['ratio_min']:.4f}")
        parts.append(f"ratio_median={summary['ratio_median']:.4f}")
        parts.append(f"ratio_max={summary['ratio_max']:.4f}")
    print(" ".join(parts))
    return 0


def _cmd_check_lemmas(args: argparse.Namespace) -> int:
    g = parse_graph(_read(args.graph), c_declared=args.c)
    report = check_lemmas(g, orderings=args.orderings, mu=args.mu, seed=args.seed)
    print(report.format())
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arbormatch",
        description="Streaming matching-size estimators and exact oracles for sparse graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a generated graph to a file")
    p.add_argument("--kind", choices=tuple(GENERATORS), required=True)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--c", type=int, default=1)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--s", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("order", help="stream a graph file under an ordering policy")
    p.add_argument("graph")
    p.add_argument("--policy", choices=[pol.value for pol in OrderingPolicy],
                   default=OrderingPolicy.UNIFORM_RANDOM.value)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--c", type=int, default=None)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_order)

    p = sub.add_parser("oracle", help="exact characterization of a graph (JSON)")
    p.add_argument("graph")
    p.add_argument("--mu", type=int, required=True)
    p.add_argument("--c", type=int, default=None)
    p.add_argument("--stream", default=None, help="also count surviving edges of this stream")
    p.add_argument("--alpha", type=float, default=None)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("estimate", help="run one estimator over a stream file")
    p.add_argument("stream")
    p.add_argument("--algorithm", choices=tuple(ESTIMATORS), required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--mu", type=int, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--epsilon", type=float, default=0.5)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("experiment", help="run a key=value config file, emit CSV")
    p.add_argument("config")
    p.add_argument("-o", "--output", default=None, help="override the config's output path")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("check-lemmas", help="verify characterization inequalities on a graph")
    p.add_argument("graph")
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--mu", type=int, required=True)
    p.add_argument("--orderings", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_check_lemmas)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # every input fault the library raises is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
