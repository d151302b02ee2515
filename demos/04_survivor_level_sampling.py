#!/usr/bin/env python3
"""Counting survivor edges with level sampling.

An edge survives at threshold alpha if each endpoint gains at most alpha
later incident edges. The number of such survivors brackets the matching
size, and it can be estimated in one pass: levels sample the stream at
geometrically decaying rates, coupled so that each edge draws one top level
and runs one survival test that counts toward every level up to it. Level
counts therefore nest, and a level that hoards too many live tests raises a
single floor below which edges are no longer tested. The lowest surviving
level whose count is in the trusted band supplies the estimate.
"""

import math
from statistics import fmean

from arbormatch import (
    EdgeStream,
    alg4_estimate_e_alpha,
    estimate_matching_logspace,
    generate_star_forest,
    insert_event,
    later_degree_profile,
    offline_alpha_good_set,
    order_stream,
)


def main():
    print("== one survival test, by hand ==")
    edges = [(1, 2), (2, 3), (2, 4)]
    stream = EdgeStream(n=5, events=tuple(insert_event(u, v) for u, v in edges))
    profile = later_degree_profile(stream)
    for pos, ((u, v), worst) in enumerate(zip(edges, profile), 1):
        print(f"  position {pos} ({u},{v}): at most {worst} later edges per endpoint")
    for alpha in (1, 2):
        # no cap: level 0 tests every edge, so its survivors are the offline set
        est = alg4_estimate_e_alpha(stream, alpha=alpha, c=1, epsilon=0.5, seed=0,
                                    tau_override=math.inf)
        survivors = sorted(offline_alpha_good_set(stream, alpha))
        print(f"  alpha={alpha}: level-0 survivors {survivors}, estimator counts {est.value}")

    print("\n== small streams are counted exactly (level 0 samples everything) ==")
    g = generate_star_forest(1000, 5)
    stream = order_stream(g, "as-generated")
    exact = len(offline_alpha_good_set(stream, 6))
    est = alg4_estimate_e_alpha(stream, alpha=6, c=1, epsilon=0.1, seed=0)
    print(f"  star forest, m={g.m}: offline survivors={exact}, estimator={est.value} "
          f"(selected level {est.params['selected_level']}, cap tau={est.params['tau']:.0f})")

    print("\n== level selection once level 0 overflows ==")
    g = generate_star_forest(2000, 1)
    stream = order_stream(g, "uniform-random", seed=0)
    exact = len(offline_alpha_good_set(stream, 1))
    values, levels = [], []
    for seed in range(10):
        est = alg4_estimate_e_alpha(stream, alpha=1, c=1, epsilon=0.9, seed=seed)
        values.append(est.value)
        levels.append(est.params["selected_level"])
    print(f"  2000 disjoint edges, tau={est.params['tau']:.0f} < {exact} survivors")
    print(f"  10 seeds: mean={fmean(values):.0f} (exact {exact}), levels used: {sorted(set(levels))}")
    print(f"  space peak: {est.space_peak} items across {est.params['num_levels']} levels")

    print("\n== matching estimate: three times the survivor count at alpha = 6c ==")
    m_star = 2000  # one edge per star
    est = estimate_matching_logspace(stream, c=1, epsilon=0.9, seed=0)
    print(f"  estimate={est.value:.0f}, M*={m_star}, ratio={est.value / m_star:.2f} "
          f"(guaranteed O(c) window)")


if __name__ == "__main__":
    main()
