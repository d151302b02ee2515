#!/usr/bin/env python3
"""Stream generation: bounded-arboricity graphs, ordering policies, dynamic
insert/delete streams and the text format.
"""

from arbormatch import (
    degeneracy,
    generate_dynamic_stream,
    generate_star_forest,
    generate_union_of_forests,
    offline_alpha_good_set,
    order_stream,
    parse_stream,
    serialize_stream,
)
from arbormatch.streams import OrderingPolicy


def main():
    print("== generators ==")
    for c in (1, 2, 3):
        g = generate_union_of_forests(100, c, seed=11)
        print(f"  union of {c} forests: n={g.n} m={g.m} degeneracy={degeneracy(g)} (<= {2*c})")

    print("\n== ordering policies change what a one-pass algorithm sees ==")
    g = generate_star_forest(3, 4)
    for policy in OrderingPolicy:
        s = order_stream(g, policy, seed=5)
        survivors = len(offline_alpha_good_set(s, 1))
        head = ", ".join(f"({u},{v})" for _, u, v in s.events[:4])
        print(f"  {policy.value:<15} first edges: {head} ...  survivors at threshold 1: {survivors}")

    print("\n== dynamic streams replay back to the generating graph ==")
    base = generate_union_of_forests(30, 2, seed=3)
    stream = generate_dynamic_stream(base, delete_fraction=0.5, seed=9)
    deletes = sum(1 for kind, _, _ in stream.events if kind == "-")
    print(f"  {len(stream.events)} events ({deletes} deletes), final graph matches: "
          f"{stream.live_edges() == set(base.edges)}")

    print("\n== text format round trip ==")
    text = serialize_stream(stream)
    print("  " + "\n  ".join(text.splitlines()[:5]) + "\n  ...")
    again = parse_stream(text)
    print(f"  parse(serialize(s)) == s: {again == stream}")


if __name__ == "__main__":
    main()
