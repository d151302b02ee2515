#!/usr/bin/env python3
"""Estimating under edge deletions.

The insert/delete variant keeps the degree-sampling counters exact under
deletes (discarding neighbors whose stored edges all vanish) and replaces the
greedy task with a maximal matching over a hash-and-level edge sample of at
most 4t^2 live edges; when a matched edge leaves the sample, only its two
endpoints are re-matched.
"""

import numpy as np

from arbormatch import (
    dynamic_estimate,
    forest_matching_size,
    generate_dynamic_stream,
    generate_union_of_forests,
)


def main():
    mu, c, epsilon = 3, 1, 0.5
    g = generate_union_of_forests(300, c, seed=4)
    m_star = forest_matching_size(g)
    print(f"final graph: n={g.n} m={g.m} M*={m_star}")

    print("\n== estimates stay in the guaranteed window as churn grows ==")
    for fraction in (0.0, 0.25, 0.5):
        stream = generate_dynamic_stream(g, fraction, seed=8)
        deletes = sum(1 for kind, _, _ in stream.events if kind == "-")
        values = []
        for seed in range(20):
            est = dynamic_estimate(stream, c=c, mu=mu, epsilon=epsilon, seed=seed)
            values.append(est.value)
        arr = np.array(values, dtype=float)
        print(
            f"  delete share {fraction:4.2f}: {len(stream.events):4d} events "
            f"({deletes:3d} deletes)  estimates mean={arr.mean():7.1f} "
            f"window=[{(1-epsilon)*m_star:.0f}, {(1+epsilon)*est.params['beta']*m_star:.0f}]"
        )
    print(f"  greedy side runs on an edge sample (capacity 4t^2={est.params['capacity']}, "
          f"t={est.params['t']}): it ends at level {est.params['sample_level']} holding "
          f"{est.params['sample_size']} of {g.m} live edges; branch used: {est.params['branch']}")

    print("\n== a smaller capacity (test hook) puts the sample in its sampled regime ==")
    for capacity in (150, 40):
        runs = [
            dynamic_estimate(stream, c=c, mu=mu, epsilon=epsilon, seed=seed,
                             capacity_override=capacity)
            for seed in range(20)
        ]
        levels = sorted({run.params["sample_level"] for run in runs})
        largest = max(run.params["sample_size"] for run in runs)
        repairs = np.mean([run.params["repairs"] for run in runs])
        greedy = sum(run.params["branch"] == "greedy" for run in runs)
        arr = np.array([run.value for run in runs], dtype=float)
        print(f"  capacity {capacity:3d}: levels {levels}, largest sample {largest:3d}, "
              f"repairs mean={repairs:5.1f}, greedy branch {greedy:2d}/20, "
              f"estimates mean={arr.mean():7.1f}")


if __name__ == "__main__":
    main()
