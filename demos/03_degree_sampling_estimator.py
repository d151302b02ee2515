#!/usr/bin/env python3
"""The degree-sampling estimator and its greedy companion.

The sampler keeps exact degree counters on a random vertex sample plus
lower-bound counters on the sample's neighbors; its output lands between the
matching size and a constant multiple of it. The composite runs a truncated
greedy matching in the same pass and only trusts the sampler once the greedy
side saturates its cutoff.
"""

from statistics import fmean

from arbormatch import (
    Alg1Params,
    alg1_estimate,
    alg2_estimate,
    generate_union_of_forests,
    maximum_matching_size,
    order_stream,
)


def main():
    mu, c, epsilon = 3, 1, 0.8
    g = generate_union_of_forests(4000, c, seed=1)
    m_star = maximum_matching_size(g)
    stream = order_stream(g, "uniform-random", seed=0)
    print(f"graph: n={g.n} m={g.m} exact matching M*={m_star}")

    print("\n== sampler output across sampling rates (20 seeds each) ==")
    beta = Alg1Params(mu=mu, p=1.0, c=c, epsilon=epsilon).beta
    for p in (1.0, 0.5, 0.25, 0.1):
        params = Alg1Params(mu=mu, p=p, c=c, epsilon=epsilon)
        runs = [alg1_estimate(stream, params, seed) for seed in range(20)]
        mean_value = fmean(run.value for run in runs)
        mean_space = fmean(run.space_peak for run in runs)
        print(
            f"  p={p:<5} mean={mean_value:9.1f}  (M*={m_star}, cap {beta:.0f}*M*={beta*m_star:.0f})"
            f"  mean space items={mean_space:8.1f}"
        )

    print("\n== composite: greedy below the cutoff vs sampler above it ==")
    small = generate_union_of_forests(200, c, seed=2)
    small_stream = order_stream(small, "uniform-random", seed=0)
    est = alg2_estimate(small_stream, c=c, mu=mu, epsilon=epsilon, seed=0)
    print(f"  n=200:   branch={est.params['branch']:<6} value={est.value} "
          f"(greedy r={est.params['greedy_r']} < t={est.params['t']})")
    big = generate_union_of_forests(15_000, c, seed=3)
    big_star = maximum_matching_size(big)
    est = alg2_estimate(order_stream(big, "uniform-random", 0), c=c, mu=mu,
                        epsilon=epsilon, seed=0)
    print(f"  n=15000: branch={est.params['branch']:<6} value={est.value:.0f} "
          f"(greedy saturates t={est.params['t']}; sampler rate p={est.params['p']:.3f}, "
          f"ratio to M*={est.value / big_star:.2f})")


if __name__ == "__main__":
    main()
