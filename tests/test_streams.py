import dataclasses
import gc
import hashlib
import random
import re

import pytest

from arbormatch import (
    EdgeStream,
    GraphError,
    ParseError,
    StreamInvariantError,
    build_graph,
    degeneracy,
    delete_event,
    generate_dynamic_stream,
    generate_random_tree,
    generate_star_forest,
    generate_union_of_forests,
    insert_event,
    order_stream,
    parse_stream,
    serialize_stream,
)
from arbormatch.graphs import Graph
from arbormatch.streams import OrderingPolicy, pruefer_to_edges

from conftest import (
    BAD_ENDPOINTS,
    path_graph,
    preferential_attachment,
    random_graph,
    reference_parse_stream,
    reference_uniform_random_events,
    reference_union_of_forests,
)


# ---------------------------------------------------------------------------
# events and stream invariants
# ---------------------------------------------------------------------------


def test_events_normalize_endpoints():
    assert insert_event(3, 1) == ("+", 1, 3)
    assert delete_event(2, 5) == ("-", 2, 5)
    with pytest.raises(StreamInvariantError):
        insert_event(2, 2)


def test_events_are_plain_tuples_the_collector_untracks():
    g = generate_union_of_forests(40, 2, seed=1)
    produced = {
        "parse_stream": parse_stream("n 3\n# arboricity 1\n+ 0 1\n+ 1 2\n- 0 1\n").events,
        "order_stream": order_stream(g, "uniform-random", seed=2).events,
        "generate_dynamic_stream": generate_dynamic_stream(g, 0.5, seed=3).events,
        "insert_event": (insert_event(3, 1), insert_event(0, 7)),
        "delete_event": (delete_event(2, 5), delete_event(9, 4)),
    }
    gc.collect()  # a pass untracks every exact tuple that holds only atoms
    for source, events in produced.items():
        assert events, source
        for ev in events:
            assert type(ev) is tuple, (source, ev)
            assert not gc.is_tracked(ev), (source, ev)


def test_validate_catches_liveness_violations():
    bad = EdgeStream(n=3, events=(delete_event(0, 1),))
    with pytest.raises(StreamInvariantError, match="delete"):
        bad.validate()
    bad = EdgeStream(n=3, events=(insert_event(0, 1), insert_event(0, 1)))
    with pytest.raises(StreamInvariantError, match="insert"):
        bad.validate()
    EdgeStream(n=3, events=(insert_event(0, 1), delete_event(0, 1))).validate()


@pytest.mark.parametrize("bad", sorted(BAD_ENDPOINTS))
def test_construction_rejects_endpoints_outside_the_stream_rule(bad):
    # unchecked, alg2 read 4 and greedy_maximal_matching 2 on the 3-vertex "past-n" stream
    events, pos = BAD_ENDPOINTS[bad]
    _, u, v = events[pos - 1]
    problem = f"endpoints ({u}, {v}) must satisfy 0 <= u < v < n=3"
    with pytest.raises(StreamInvariantError, match=f"^{re.escape(f'event {pos}: {problem}')}$"):
        EdgeStream(3, events)
    # validate()'s loop gives the same words, which parse_stream reports at the event's line
    text = "n 3\n" + "".join(f"{kind} {u} {v}\n" for kind, u, v in events)
    with pytest.raises(ParseError, match=f"^{re.escape(f'line {pos + 1}: {problem}')}$"):
        parse_stream(text)


def test_validate_rejects_an_unknown_event_kind():
    # construction applies validate()'s kind rule, in its words
    with pytest.raises(StreamInvariantError, match=r"^event 2: unknown kind '\*'$"):
        EdgeStream(n=3, events=(insert_event(0, 1), ("*", 1, 2)))


def _first_shape_fault(events, n):
    """validate()'s words for the first event whose kind or endpoints break the rule."""
    for pos, (kind, u, v) in enumerate(events, 1):
        if not (0 <= u and u < v and v < n):
            return f"event {pos}: endpoints ({u}, {v}) must satisfy 0 <= u < v < n={n}"
        if kind != "+" and kind != "-":
            return f"event {pos}: unknown kind {kind!r}"
    return None


@pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 8])
def test_construction_raises_exactly_at_the_first_shape_fault(n):
    rng = random.Random(n)
    outcomes = set()
    for _ in range(400):
        events = []
        for _ in range(rng.randint(0, 10)):
            kind = rng.choices("+-*", weights=(20, 20, 1))[0]
            if n >= 2 and rng.random() < 0.8:
                u, v = sorted(rng.sample(range(n), 2))
            else:  # possibly reversed, equal or outside [0, n)
                u, v = rng.randint(-1, n + 1), rng.randint(-1, n + 1)
            events.append((kind, u, v))
        expected = _first_shape_fault(events, n)
        outcomes.add(expected is None)
        if expected is None:
            stream = EdgeStream(n, tuple(events))
            assert stream.insert_only == all(kind == "+" for kind, _, _ in events)
        else:
            with pytest.raises(StreamInvariantError, match=f"^{re.escape(expected)}$"):
                EdgeStream(n, tuple(events))
    assert outcomes == {True, False}  # the draw made both accepted and rejected lists


def test_replace_checks_the_stream_again():
    stream = EdgeStream(4, (insert_event(0, 1), insert_event(2, 3), delete_event(0, 1)))
    with pytest.raises(
        StreamInvariantError, match=r"^event 2: endpoints \(2, 3\) must satisfy 0 <= u < v < n=3$"
    ):
        dataclasses.replace(stream, n=3)
    assert not dataclasses.replace(stream, n=5).insert_only
    assert dataclasses.replace(stream, events=stream.events[:2]).insert_only
    with pytest.raises(TypeError):  # insert_only is derived, never passed
        EdgeStream(2, (), True)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def test_union_of_forests_single_forest_is_a_tree():
    g = generate_union_of_forests(10, 1, seed=0)
    assert g.m == 9
    assert degeneracy(g) == 1
    assert g.c_declared == 1


def test_union_of_forests_edge_bound():
    g = generate_union_of_forests(100, 3, seed=7)
    assert g.m <= 3 * 99
    assert degeneracy(g) <= 6


def test_union_of_forests_deterministic():
    a = generate_union_of_forests(40, 2, seed=11)
    b = generate_union_of_forests(40, 2, seed=11)
    assert a == b
    assert a != generate_union_of_forests(40, 2, seed=12)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 255, 256, 257, 4095, 4096, 4097])
def test_union_of_forests_matches_randrange_reference(n):
    # n and n - 1 on both sides of a bit-length boundary: the draw's
    # rejection bound and bit count change there
    for c in (1, 2, 3):
        for seed in (0, 1, 99):
            assert generate_union_of_forests(n, c, seed) == reference_union_of_forests(n, c, seed)


def test_preferential_attachment_is_a_c_forest_graph_per_seed():
    # the test-side generator whose hubs make alg4's survival rule drop edges at alpha = 6c
    for c in (1, 2, 3):
        g = preferential_attachment(300, c, seed=5)
        assert g == preferential_attachment(300, c, seed=5)
        assert g != preferential_attachment(300, c, seed=6)
        assert g.c_declared == c and degeneracy(g) == c
        assert g.m == c * (c + 1) // 2 + (300 - c - 1) * c  # the clique, then c per vertex
        earlier = [0] * g.n  # neighbours below each vertex
        for u, v in g.edges:
            earlier[max(u, v)] += 1
        assert max(earlier) == c


def test_union_of_forests_validates_arguments():
    with pytest.raises(GraphError):
        generate_union_of_forests(1, 1, seed=0)
    with pytest.raises(GraphError):
        generate_union_of_forests(10, 0, seed=0)


# (a generator call with an argument out of range, the whole GraphError message)
BAD_GENERATOR_CALLS = {
    "star-count": (lambda: generate_star_forest(0, 3), "star count must be >= 1, got 0"),
    "star-size": (lambda: generate_star_forest(3, 0), "star size must be >= 1, got 0"),
    "tree-n": (lambda: generate_random_tree(1, 0), "n must be >= 2, got 1"),
    "delete-fraction-low": (
        lambda: generate_dynamic_stream(generate_random_tree(5, 0), -0.1, 0),
        "delete_fraction must be in [0, 1], got -0.1",
    ),
    "delete-fraction-high": (
        lambda: generate_dynamic_stream(generate_random_tree(5, 0), 1.5, 0),
        "delete_fraction must be in [0, 1], got 1.5",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_GENERATOR_CALLS))
def test_generators_reject_arguments_out_of_range(case):
    call, message = BAD_GENERATOR_CALLS[case]
    with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
        call()


def test_star_forest_shape():
    g = generate_star_forest(1, 5)
    assert (g.n, g.m) == (6, 5)
    perfect = generate_star_forest(3, 1)
    assert (perfect.n, perfect.m) == (6, 3)
    from arbormatch import maximum_matching_size

    assert maximum_matching_size(perfect) == 3
    assert maximum_matching_size(g) == 1


def test_star_forest_matching_picks_one_edge_per_star():
    big = generate_star_forest(1000, 5)
    from arbormatch import maximum_matching_size

    assert (big.n, big.m) == (6000, 5000)
    assert maximum_matching_size(big) == 1000


def test_random_tree_edge_count_and_determinism():
    assert generate_random_tree(2, 0).edges == ((0, 1),)
    t = generate_random_tree(5, seed=42)
    assert t.m == 4
    assert t == generate_random_tree(5, seed=42)
    assert degeneracy(t) == 1


def test_generated_graphs_are_valid_edge_lists():
    # generators build Graph directly, so no runtime scan checks their edges;
    # unions of forests are held to build_graph by their randrange reference
    graphs = [generate_star_forest(k, s) for k in range(1, 7) for s in range(1, 7)]
    graphs += [generate_random_tree(n, seed) for n in range(2, 81) for seed in range(3)]
    for g in graphs:
        assert build_graph(g.n, g.edges, g.c_declared) == g


def test_pruefer_decode_known_sequence():
    # label-shifted version of decoding (3,3,4) over 1..5
    assert set(pruefer_to_edges([2, 2, 3])) == {(0, 2), (1, 2), (2, 3), (3, 4)}


def test_pruefer_decode_rejects_bad_labels():
    with pytest.raises(GraphError):
        pruefer_to_edges([5])


# ---------------------------------------------------------------------------
# orderings
# ---------------------------------------------------------------------------


def test_order_stream_as_generated_keeps_order():
    g = generate_star_forest(1, 5)
    s = order_stream(g, OrderingPolicy.AS_GENERATED)
    assert tuple((u, v) for _, u, v in s.events) == g.edges


def test_order_stream_uniform_random_deterministic():
    g = generate_union_of_forests(30, 2, seed=3)
    a = order_stream(g, "uniform-random", seed=9)
    b = order_stream(g, "uniform-random", seed=9)
    assert a == b
    assert sorted((u, v) for _, u, v in a.events) == sorted(g.edges)


@pytest.mark.parametrize("m", [0, 1, 2, 3, 4, 5, 7, 8, 9, 1000, 1023, 1024, 1025, 15000])
def test_order_stream_uniform_random_matches_the_shuffle_reference(m):
    # m on both sides of a power of two: the shuffle's draw sets its bit count
    # once per block of positions, and a block ends there
    g = path_graph(m + 1) if m < 3 else generate_random_tree(m + 1, seed=m)
    for seed in range(4):
        events = order_stream(g, "uniform-random", seed).events
        assert events == reference_uniform_random_events(g, seed), seed


def test_order_stream_star_by_star_groups_hubs():
    g = generate_star_forest(2, 2)
    s = order_stream(g, "star-by-star")
    hubs = [u for _, u, _ in s.events]
    assert hubs == sorted(hubs)  # star 0's edges before star 1's


def test_order_stream_every_policy_is_a_permutation(rng):
    g = random_graph(rng, 12)
    for policy in OrderingPolicy:
        s = order_stream(g, policy, seed=5)
        assert sorted((u, v) for _, u, v in s.events) == sorted(g.edges)


def test_centers_first_and_leaves_last_put_hub_edges_early():
    g = generate_star_forest(2, 3)
    for policy in ("centers-first", "leaves-last"):
        s = order_stream(g, policy)
        assert len(s.events) == g.m


# ---------------------------------------------------------------------------
# dynamic streams
# ---------------------------------------------------------------------------


def test_dynamic_stream_zero_fraction_is_insert_only():
    g = generate_union_of_forests(20, 1, seed=1)
    s = generate_dynamic_stream(g, 0.0, seed=2)
    assert sorted(s.events) == sorted(("+", u, v) for u, v in g.edges)


def test_dynamic_stream_replay_recovers_graph():
    for seed in range(8):
        g = generate_union_of_forests(40, 2, seed=seed)
        s = generate_dynamic_stream(g, 0.5, seed=seed + 100)
        s.validate()
        assert s.live_edges() == set(g.edges)
        assert len(s.events) <= (1 + 2 * 0.5) * g.m


def test_dynamic_stream_single_edge_with_decoy():
    g = Graph(n=4, edges=((0, 1),), c_declared=1)
    s = generate_dynamic_stream(g, 1.0, seed=3)
    s.validate()
    assert s.live_edges() == {(0, 1)}


def test_dynamic_stream_prefix_degeneracy_stays_bounded():
    for seed in range(5):
        g = generate_union_of_forests(30, 2, seed=seed)
        s = generate_dynamic_stream(g, 0.5, seed=seed)
        live = set()
        for kind, u, v in s.events:
            if kind == "+":
                live.add((u, v))
            else:
                live.remove((u, v))
            assert degeneracy(Graph(n=g.n, edges=tuple(live))) <= 2 * g.c_declared


def test_dynamic_stream_deterministic():
    g = generate_union_of_forests(25, 1, seed=0)
    assert generate_dynamic_stream(g, 0.4, seed=9) == generate_dynamic_stream(g, 0.4, seed=9)


def _path_power(n, k, c):
    """Each vertex joined to the next k: degeneracy k, dense enough that
    random decoys often close a (k+1)-core and are refused or flushed."""
    edges = [(i, i + j) for i in range(n) for j in range(1, k + 1) if i + j < n]
    return build_graph(n, edges, c_declared=c)


def _pinned_cases():
    for c in (1, 2, 3):
        g = generate_union_of_forests(60, c, seed=c)
        for f in (0.0, 0.5, 1.0):
            yield f"union c={c} f={f}", g, f, 10 * c + int(4 * f)
    g = generate_union_of_forests(40, 2, seed=5)
    yield "undeclared bound", Graph(n=g.n, edges=g.edges), 0.5, 3
    yield "benchmark size", generate_union_of_forests(1000, 1, seed=0), 0.5, 1
    yield "path square", _path_power(10, 2, 1), 0.6, 5
    yield "path fourth power", _path_power(12, 4, 2), 0.75, 11


def _with_bound_line(text, c):
    """text with the old format's ``# arboricity <c>`` comment put back as line 2, if c is set."""
    if c is None:
        return text
    header, rest = text.split("\n", 1)
    return f"{header}\n# arboricity {c}\n{rest}"


# sha256 of serialize_stream(generate_dynamic_stream(g, f, seed)), recorded
# with the whole-graph degeneracy check the local core check replaced, in the
# text form of that time: a declared bound rode in a comment on line 2
PINNED_DYNAMIC_DIGESTS = {
    "union c=1 f=0.0": "08f697213274580cf47267d10fd3c84101ec9e1241f29d9b477a5618f6edb6ce",
    "union c=1 f=0.5": "33fde6733abc5e93415b6e6ca228d396197ebb52b27ef00b8578c39a602dc6de",
    "union c=1 f=1.0": "25b358f66e7c3f2810e83f6d99ab10c5836e425710c3bc129f5f5685aaa8e965",
    "union c=2 f=0.0": "97b718ff38491c2e31e94bd50a6e79a5728b14b6ea42c50c5806ec9e246dded3",
    "union c=2 f=0.5": "4d02e55754fe42d56ea4cd97029e6417b51726ac1e816ee20e7b0c954f3ba00f",
    "union c=2 f=1.0": "c8c205cd324ddec9827d30cb0d170b58eaf431f3f8b93c70e074a649a1ccce16",
    "union c=3 f=0.0": "dc3b9a13f0a4fba81a6752b99a3af456d6f73dfeabc32ff37e26f4c6e477c152",
    "union c=3 f=0.5": "2cdfff60812894dde68a9195d1acb3440cff00dc818d10fba36882de43a54783",
    "union c=3 f=1.0": "a6987431414ca87832b051e89560a2fcd7bf02ecb3fc6e0f9b9580e7faa6f06c",
    "undeclared bound": "68974b48dafb8c81162cd829c98b28a22ac0dbb6e146f388e43d03b3efb28e1c",
    "benchmark size": "990ef7540553e538b3b20e7f65cbe3856fd71cda16dbfb0bd6d3451353df5c67",
    "path square": "91e9eefbe96b0c698effdf0bce882844e5546acb6506afea2404760db6adb843",
    "path fourth power": "4dada9ed969274d43a09b763a969661aa016bf2f377573ef2761ef527beeb1a3",
}


def test_dynamic_streams_match_pinned_digests():
    got = {
        name: hashlib.sha256(
            _with_bound_line(serialize_stream(generate_dynamic_stream(g, f, seed)), g.c_declared)
            .encode()
        ).hexdigest()
        for name, g, f, seed in _pinned_cases()
    }
    assert got == PINNED_DYNAMIC_DIGESTS


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------


def test_serialize_format_example():
    s = EdgeStream(n=2, events=(insert_event(0, 1),))
    assert serialize_stream(s) == "n 2\n+ 0 1\n"


def test_round_trip_random_streams(rng):
    for seed in range(10):
        g = random_graph(rng, rng.randint(2, 15))
        if g.m == 0:
            continue
        s = generate_dynamic_stream(g, 0.5, seed=seed)
        assert parse_stream(serialize_stream(s)) == s
    # a file in the old format, with a declared bound on line 2, reads as the same stream
    g = generate_union_of_forests(10, 2, seed=0)
    s = order_stream(g, "uniform-random", 1)
    assert parse_stream(_with_bound_line(serialize_stream(s), 2)) == s


def test_parse_rejects_delete_before_insert():
    with pytest.raises(ParseError, match="line 2"):
        parse_stream("n 2\n- 0 1\n")


def test_parse_rejects_malformed_lines():
    with pytest.raises(ParseError, match="line 1"):
        parse_stream("x 2\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_stream("n 2\n+ 1 0\n")  # endpoints must satisfy u < v
    with pytest.raises(ParseError, match="line 2"):
        parse_stream("n 2\n+ 0 5\n")
    with pytest.raises(ParseError):
        parse_stream("")


# blank, whitespace-only and comment lines count toward line numbers
_PARSE_PREAMBLE = "# a stream\n\nn 4\n   \n  # arboricity 2  \n+ 0 1\n\t# note\n\n"


@pytest.mark.parametrize(
    "line, message",
    [
        ("- 1 2", "delete of non-live edge (1, 2)"),
        ("+ 0 1", "insert of live edge (0, 1)"),
        ("+ 2 4", "endpoints (2, 4) must satisfy 0 <= u < v < n=4"),
        ("+ 2 1", "endpoints (2, 1) must satisfy 0 <= u < v < n=4"),
        ("- 3 3", "endpoints (3, 3) must satisfy 0 <= u < v < n=4"),
        ("+ 0 x", "endpoints are not integers"),
        ("* 0 1", "expected '+ u v' or '- u v'"),
        ("+ 0 1 2", "expected '+ u v' or '- u v'"),
    ],
)
def test_parse_errors_name_their_line_after_blanks_and_comments(line, message):
    assert parse_stream(_PARSE_PREAMBLE + "+ 1 3\n").events == (("+", 0, 1), ("+", 1, 3))
    with pytest.raises(ParseError) as info:
        parse_stream(_PARSE_PREAMBLE + line + "\n+ 2 3\n")
    assert info.value.line_no == 9
    assert str(info.value) == f"line 9: {message}"


def test_parse_reports_the_first_bad_line():
    # a liveness error before a malformed line wins, and the other way round
    with pytest.raises(ParseError, match="^line 3: delete of non-live edge"):
        parse_stream("n 3\n+ 0 1\n- 1 2\n+ 0 x\n")
    with pytest.raises(ParseError, match="^line 3: endpoints are not integers"):
        parse_stream("n 3\n+ 0 1\n+ 0 x\n- 1 2\n")
    with pytest.raises(ParseError, match="^line 2: expected 'n <count>'"):
        parse_stream("# a note\n+ 0 1\nn 3\n")


def test_parse_ignores_plain_comments():
    s = parse_stream("# a note\nn 2\n# another\n+ 0 1\n")
    assert s.n == 2 and s.events == (("+", 0, 1),)


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except ParseError as err:
        return err.line_no, str(err)


def _mutations(text: str, rng: random.Random) -> list[str]:
    """Texts one fault (or one harmless edit) away from a serialized stream."""
    lines = text.splitlines()
    first = next(i for i, line in enumerate(lines) if line[0] in "+-")
    pick = rng.randrange(first, len(lines))
    other = rng.randrange(first, len(lines))
    kind, u, v = lines[pick].split()
    n = int(lines[0].split()[1])
    inserts = [i for i in range(first, len(lines)) if lines[i][0] == "+"]
    dup = rng.choice(inserts)
    swapped = list(lines)
    swapped[pick], swapped[other] = swapped[other], swapped[pick]

    def edited(i, line):
        return "\n".join(lines[:i] + [line] + lines[i + 1 :]) + "\n"

    noisy = list(lines)
    noisy[pick:pick] = ["# note", "", " \t ", "  # arboricity 3  "]
    early = list(lines)  # a delete moved before its insert, if there is one
    deletes = [i for i in range(first, len(lines)) if lines[i][0] == "-"]
    if deletes:
        early.insert(first, early.pop(rng.choice(deletes)))
    return [
        "\n".join(early) + "\n",
        "\n".join(lines + [lines[dup]]) + "\n",  # a duplicate insert at the end
        "\n".join(lines[: dup + 1] + [lines[dup]] + lines[dup + 1 :]) + "\n",
        "\n".join(swapped) + "\n",
        "\n".join(lines[1:]) + "\n",  # the header dropped
        "\r\n".join(noisy) + "\r\n",
        edited(pick, f"{kind} {u} x{v}"),
        edited(pick, f"* {u} {v}"),
        edited(pick, f"{kind} {u} {v} 0"),
        edited(pick, f"{kind} {u} {n}"),
        edited(pick, f"{kind} -1 {v}"),
        edited(pick, f"{kind} {v} {u}"),
    ]


def test_parse_matches_the_reference_parser():
    rng = random.Random(0xA11)
    texts = []
    for seed in range(12):
        g = generate_union_of_forests(rng.randint(2, 30), rng.randint(1, 2), seed=seed)
        for stream in (
            order_stream(g, "uniform-random", seed),
            generate_dynamic_stream(g, rng.choice((0.25, 0.5, 1.0)), seed),
        ):
            text = serialize_stream(stream)
            assert parse_stream(text) == stream
            texts.append(text)
            texts.extend(_mutations(text, rng))
    texts += ["", "n 0\n", "# a note\n", "n 3\r\n+ 0 1\r\n", "n 2\n+ 0 1\n- 0 1\n- 0 1\n"]
    # the arboricity comment with odd whitespace, a trailing word and another case
    for comment in ("#arboricity\t\t5", "#\u00a0arboricity\u20034 ", "# arboricity 2 x", "# Arboricity 2"):
        texts.append(f"n 2\n{comment}\n+ 0 1\n")
    failures = 0
    for text in texts:
        got = _parse_outcome(parse_stream, text)
        assert got == _parse_outcome(reference_parse_stream, text), text
        failures += not isinstance(got, EdgeStream)
    assert 0 < failures < len(texts)
