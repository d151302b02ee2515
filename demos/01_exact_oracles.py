#!/usr/bin/env python3
"""Exact offline oracles: matching size, degeneracy and the degree-threshold
characterization.

Everything here is deterministic and desk-scale; these are the quantities the
streaming estimators are judged against.
"""

from arbormatch import (
    build_graph,
    characterize,
    degeneracy,
    generate_random_tree,
    maximum_matching_size,
)


def main():
    print("== matching oracles ==")
    triangle = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    path = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    petersen = build_graph(
        10,
        [(i, (i + 1) % 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        + [(i, 5 + i) for i in range(5)],
    )
    for name, g in [("triangle", triangle), ("path-4", path), ("petersen", petersen)]:
        print(f"  {name:<9} n={g.n:>2} m={g.m:>2}  matching={maximum_matching_size(g)}")

    tree = generate_random_tree(2000, seed=7)
    print(f"  random tree n={tree.n}: matching={maximum_matching_size(tree)}")

    print("\n== degeneracy (checkable arboricity proxy) ==")
    k5 = build_graph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
    for name, g in [("tree", tree), ("triangle", triangle), ("K5", k5)]:
        print(f"  {name:<9} degeneracy = {degeneracy(g)}")

    print("\n== degree-threshold characterization ==")
    star = build_graph(8, [(0, i) for i in range(1, 8)])
    for name, g, mu in [("star K_1,7", star, 3), ("path-4", path, 3)]:
        rep = characterize(g, mu)
        print(
            f"  {name} at mu={mu}: M*={rep.m_star} high-degree={rep.h_mu} "
            f"low-subgraph edges={rep.s_mu} matching={rep.m_mu} non-isolated={rep.n_l}"
        )
    print("  (M* always sits between h_mu + m_mu and a constant multiple of it)")


if __name__ == "__main__":
    main()
