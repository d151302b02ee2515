#!/usr/bin/env python3
"""Estimating under edge deletions.

The insert/delete variant keeps the degree-sampling counters exact under
deletes (discarding neighbors whose stored edges all vanish) and replaces the
greedy task with a greedy maximal matching over the live edges, kept while
they number at most 4t^2; a stream that overflows that capacity is decided by
the degree sampler.
"""

from statistics import fmean

from arbormatch import (
    dynamic_estimate,
    generate_dynamic_stream,
    generate_union_of_forests,
    maximum_matching_size,
)


def main():
    mu, c, epsilon = 3, 1, 0.5
    g = generate_union_of_forests(300, c, seed=4)
    m_star = maximum_matching_size(g)
    print(f"final graph: n={g.n} m={g.m} M*={m_star}")

    print("\n== estimates stay in the guaranteed window as churn grows ==")
    for fraction in (0.0, 0.25, 0.5):
        stream = generate_dynamic_stream(g, fraction, seed=8)
        deletes = sum(1 for kind, _, _ in stream.events if kind == "-")
        values = []
        for seed in range(20):
            est = dynamic_estimate(stream, c=c, mu=mu, epsilon=epsilon, seed=seed)
            values.append(est.value)
        print(
            f"  delete share {fraction:4.2f}: {len(stream.events):4d} events "
            f"({deletes:3d} deletes)  estimates mean={fmean(values):7.1f} "
            f"window=[{(1-epsilon)*m_star:.0f}, {(1+epsilon)*est.params['beta']*m_star:.0f}]"
        )
    print(f"  greedy side keeps every live edge (capacity 4t^2={est.params['capacity']}, "
          f"t={est.params['t']}): greedy r={est.params['greedy_r']} on {g.m} live edges; "
          f"branch used: {est.params['branch']}")

    print("\n== a smaller capacity (test hook) overflows the live edges ==")
    lo, hi = (1 - epsilon) * m_star, (1 + epsilon) * est.params["beta"] * m_star
    for capacity in (150, 40):
        runs = [
            dynamic_estimate(stream, c=c, mu=mu, epsilon=epsilon, seed=seed,
                             capacity_override=capacity)
            for seed in range(20)
        ]
        overflowed = sum(run.params["greedy_r"] is None for run in runs)
        alg1 = sum(run.params["branch"] == "alg1" for run in runs)
        hits = sum(lo <= run.value <= hi for run in runs)
        print(f"  capacity {capacity:3d}: overflowed {overflowed:2d}/20, "
              f"alg1 branch {alg1:2d}/20, in window {hits:2d}/20, "
              f"estimates mean={fmean(run.value for run in runs):7.1f}")


if __name__ == "__main__":
    main()
