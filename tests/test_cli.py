import hashlib
import json

import pytest

from arbormatch import ConfigError, Estimate, order_stream, parse_config, parse_graph, parse_stream
from arbormatch.cli import main


def test_generate_and_order_round_trip(tmp_path):
    gpath = tmp_path / "g.txt"
    spath = tmp_path / "s.txt"
    assert main([
        "generate", "--kind", "union-of-forests", "--n", "30", "--c", "2",
        "--seed", "7", "-o", str(gpath),
    ]) == 0
    g = parse_graph(gpath.read_text())
    assert g.n == 30 and g.m <= 2 * 29
    assert main([
        "order", str(gpath), "--policy", "uniform-random", "--seed", "1",
        "--c", "2", "-o", str(spath),
    ]) == 0
    stream = parse_stream(spath.read_text())
    assert stream.events == order_stream(g, "uniform-random", 1).events
    # a declared bound is checked against the graph, not written to the stream
    plain = tmp_path / "plain.txt"
    assert main(["order", str(gpath), "--seed", "1", "-o", str(plain)]) == 0
    assert plain.read_bytes() == spath.read_bytes()


def test_oracle_reports_characterization(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    spath = tmp_path / "s.txt"
    main(["generate", "--kind", "star-forest", "--k", "1", "--s", "7", "-o", str(gpath)])
    main(["order", str(gpath), "--policy", "as-generated", "-o", str(spath)])
    capsys.readouterr()
    assert main(["oracle", str(gpath), "--mu", "3", "--stream", str(spath), "--alpha", "6"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["m_star"] == 1 and payload["h_mu"] == 1 and payload["e_alpha"] == 7


def test_estimate_prints_one_line(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    spath = tmp_path / "s.txt"
    main(["generate", "--kind", "star-forest", "--k", "5", "--s", "2", "-o", str(gpath)])
    main(["order", str(gpath), "--policy", "uniform-random", "-o", str(spath)])
    capsys.readouterr()
    for algorithm, params in (
        ("logspace", "--epsilon 0.5"),
        ("alg1", "--mu 3 --p 0.5"),
        ("alg2", "--mu 3"),
        ("dynamic", "--mu 3"),
    ):
        code = main([
            "estimate", str(spath), "--algorithm", algorithm, "--c", "1",
            *params.split(), "--seed", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out.strip()
        assert out.startswith(f"algorithm={algorithm} value=") and "fail=0" in out


def test_estimate_failure_sets_exit_code(tmp_path, capsys, monkeypatch):
    import arbormatch.harness as harness

    spath = tmp_path / "s.txt"
    spath.write_text("n 2\n+ 0 1\n")
    failed = Estimate(value=None, space_peak=0, params={})
    monkeypatch.setattr(harness, "estimate_matching_logspace", lambda *a, **k: failed)
    code = main(["estimate", str(spath), "--algorithm", "logspace", "--c", "1"])
    assert code == 1
    assert "fail=1" in capsys.readouterr().out


def test_estimate_rejects_c_below_one_naming_c(tmp_path, capsys):
    spath = tmp_path / "s.txt"
    spath.write_text("n 2\n+ 0 1\n")
    assert main(["estimate", str(spath), "--algorithm", "logspace", "--c", "0"]) == 2
    err = capsys.readouterr().err
    assert "c must be >= 1" in err and "alpha" not in err


def test_estimate_rejects_nan_alpha(tmp_path, capsys):
    spath = tmp_path / "s.txt"
    spath.write_text("n 5\n+ 0 1\n+ 1 2\n+ 2 3\n+ 3 4\n")
    code = main(["estimate", str(spath), "--algorithm", "alg4", "--c", "1", "--alpha", "nan"])
    assert code == 2
    captured = capsys.readouterr()
    assert "alpha must be >= 1" in captured.err and captured.out == ""


@pytest.mark.parametrize("alpha", ["inf", "1e999"])
def test_non_finite_alpha_is_rejected_everywhere(tmp_path, capsys, alpha):
    gpath = tmp_path / "g.txt"
    spath = tmp_path / "s.txt"
    main(["generate", "--kind", "star-forest", "--k", "1", "--s", "7", "-o", str(gpath)])
    main(["order", str(gpath), "--policy", "as-generated", "-o", str(spath)])
    capsys.readouterr()
    for argv in (
        ["oracle", str(gpath), "--mu", "3", "--stream", str(spath), "--alpha", alpha],
        ["estimate", str(spath), "--algorithm", "alg4", "--c", "1", "--alpha", alpha],
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "alpha must be >= 1 and finite" in captured.err and captured.out == ""
    with pytest.raises(ConfigError, match="alpha must be >= 1 and finite"):
        parse_config(f"estimator = alg4\nalpha = {alpha}\n")


def test_estimate_names_the_line_of_a_malformed_stream(tmp_path, capsys):
    spath = tmp_path / "bad.txt"
    spath.write_text("n 3\n# a comment\n\n+ 0 1\n- 1 2\n")
    code = main(["estimate", str(spath), "--algorithm", "logspace", "--c", "1"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == "error: line 5: delete of non-live edge (1, 2)\n"
    assert captured.out == ""


def test_estimate_over_budget_is_a_usage_error(tmp_path, capsys):
    spath = tmp_path / "dense.txt"
    k10 = [f"+ {u} {v}" for u in range(10) for v in range(u + 1, 10)]
    spath.write_text("n 10\n" + "\n".join(k10) + "\n")
    code = main(["estimate", str(spath), "--algorithm", "dynamic", "--c", "1", "--mu", "3"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "exceeds the budget" in err


def test_estimate_on_a_stream_with_deletes(tmp_path, capsys):
    spath = tmp_path / "churn.txt"
    spath.write_text("n 4\n+ 0 1\n+ 1 2\n- 0 1\n+ 2 3\n")
    code = main(["estimate", str(spath), "--algorithm", "dynamic", "--c", "1", "--mu", "3"])
    assert code == 0
    assert "value=" in capsys.readouterr().out
    for algorithm in ("alg1", "alg2", "alg4", "logspace"):
        code = main([
            "estimate", str(spath), "--algorithm", algorithm,
            "--c", "1", "--mu", "3", "--p", "1", "--alpha", "3",
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert "delete events" in captured.err and captured.out == "", algorithm


def test_experiment_writes_csv(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    out = tmp_path / "out.csv"
    cfg.write_text(
        "generator = random-tree\nn = 30\nordering = uniform-random\n"
        "estimator = logspace\nepsilon = 0.5\ntrials = 3\nseed0 = 1\n"
        f"output = {out}\n"
    )
    assert main(["experiment", str(cfg)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "seed,value,m_star,ratio,space_peak,fail,ms"
    assert len(lines) == 4
    assert "trials=3" in capsys.readouterr().out


def test_experiment_output_flag_overrides_the_config(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    named = tmp_path / "named.csv"
    flag = tmp_path / "flag.csv"
    cfg.write_text(f"generator = random-tree\nn = 30\nestimator = logspace\noutput = {named}\n")
    assert main(["experiment", str(cfg), "-o", str(flag)]) == 0
    assert flag.read_text().splitlines()[0] == "seed,value,m_star,ratio,space_peak,fail,ms"
    assert not named.exists()


def test_check_lemmas_exit_codes(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    main(["generate", "--kind", "random-tree", "--n", "40", "--seed", "2", "-o", str(gpath)])
    capsys.readouterr()
    assert main([
        "check-lemmas", str(gpath), "--c", "1", "--mu", "3", "--orderings", "5",
    ]) == 0
    assert "all checks passed" in capsys.readouterr().out


def test_check_lemmas_violation_exits_one(tmp_path, capsys, monkeypatch):
    import arbormatch.harness as harness
    from arbormatch.graphs import CharacterizationReport

    gpath = tmp_path / "g.txt"
    main(["generate", "--kind", "random-tree", "--n", "40", "--seed", "2", "-o", str(gpath)])
    capsys.readouterr()
    # 50 high-degree vertices against M* = 1 break h_mu <= 3*m_star at mu = 3
    fabricated = CharacterizationReport(mu=3, m_star=1, h_mu=50, s_mu=0, m_mu=0, n_l=0)
    monkeypatch.setattr(harness, "characterize", lambda g, mu: fabricated)
    assert main(["check-lemmas", str(gpath), "--c", "1", "--mu", "3"]) == 1
    out = capsys.readouterr().out
    assert "VIOLATION high-degree-count: h_mu=50 <=" in out
    assert out.rstrip().endswith("violations found")


def test_usage_errors_exit_two(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    main(["generate", "--kind", "random-tree", "--n", "10", "-o", str(gpath)])
    # mu at twice the declared bound is a parameter error, not a crash
    assert main(["check-lemmas", str(gpath), "--c", "1", "--mu", "2"]) == 2
    assert "error:" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["estimate"])  # missing required arguments
    assert exc.value.code == 2


def test_missing_file_reports_io_error(capsys):
    assert main(["oracle", "/nonexistent/graph.txt", "--mu", "3"]) == 1
    assert "io error" in capsys.readouterr().err


def test_oracle_stream_needs_alpha(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    gpath.write_text("n 2\n0 1\n")
    assert main(["oracle", str(gpath), "--mu", "3", "--stream", str(tmp_path / "absent.txt")]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --alpha is required when --stream is given\n"
    assert captured.out == ""


@pytest.mark.parametrize("alpha", ["nan", "-1"])
def test_oracle_rejects_bad_alpha(tmp_path, capsys, alpha):
    gpath = tmp_path / "g.txt"
    spath = tmp_path / "s.txt"
    gpath.write_text("n 5\n0 1\n1 2\n2 3\n3 4\n")
    spath.write_text("n 5\n+ 0 1\n+ 1 2\n+ 2 3\n+ 3 4\n")
    code = main(["oracle", str(gpath), "--mu", "3", "--stream", str(spath), "--alpha", alpha])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "alpha must be >= 1" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("stream_text", [
    "n 6\n+ 0 1\n+ 1 2\n+ 2 3\n+ 3 4\n",  # another n
    "n 5\n+ 0 1\n+ 1 2\n+ 2 3\n+ 2 4\n",  # one edge swapped
    "n 5\n+ 0 1\n+ 1 2\n+ 2 3\n",  # one edge missing
    "n 5\n+ 0 1\n+ 0 4\n+ 1 2\n- 0 4\n+ 2 3\n+ 3 4\n",  # live edges match, events do not
], ids=["other-n", "edge-swapped", "edge-missing", "churn"])
def test_oracle_rejects_a_stream_of_another_graph(tmp_path, capsys, stream_text):
    gpath = tmp_path / "g.txt"
    spath = tmp_path / "s.txt"
    gpath.write_text("n 5\n0 1\n1 2\n2 3\n3 4\n")
    spath.write_text(stream_text)
    code = main(["oracle", str(gpath), "--mu", "3", "--stream", str(spath), "--alpha", "2"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "not a stream of the graph" in captured.err
    assert captured.out == ""


# Each command in turn, in one directory, with the sha256 of what it writes (the
# file after -o, else stdout). big.txt and its order are static-validate's inputs,
# and its matcher needs the blossom phase; a tree's seed matching is maximum
# without it; at odd n the counting bound, (n - isolated) // 2, ends the matcher.
PINNED = (
    ("generate --kind union-of-forests --n 4000 --c 2 --seed 7 -o big.txt",
     "08f487dd5aa5f21779485c895e5ff909a4204b04689136024c4c56cadfad6706"),
    ("order big.txt --seed 8 -o big-s.txt",
     "d4cc3432e8d05d50ac05e0cfffd1205b26e43938918baca18ef1cd08d76ccd10"),
    ("oracle big.txt --mu 5 --c 2 --stream big-s.txt --alpha 2",
     "4337d9cb89c878f073cdf286b43e2800e0fb3410b981211ecd0f05b1743edb50"),
    ("generate --kind random-tree --n 5000 --seed 3 -o tree.txt", None),
    ("order tree.txt --seed 4 -o tree-s.txt", None),
    ("oracle tree.txt --mu 3 --c 1 --stream tree-s.txt --alpha 1",
     "a0e251b01e3e1812344ac8a7f7b27fa15fc9cdfeef403c9a0b6fe5da2ab94c35"),
    ("generate --kind union-of-forests --n 4001 --c 2 --seed 9 -o odd.txt",
     "7a32da77664fa82189a9ae81ad02802035b8dd4cc65de0c5c18aca7b5c54c71f"),
    ("oracle odd.txt --mu 5 --c 2",
     "0bb12ed9761633ad56c647b8f11c29b05dda45710fc95b11da573a0f2273acfa"),
    ("generate --kind union-of-forests --n 200 --c 2 --seed 1 -o g.txt", None),
    ("check-lemmas g.txt --c 2 --mu 5 --orderings 3",
     "88e5035f46eec325074b635dd51f3dccd8caf50cb7eadcaf1dee8b9b98b34fcd"),
)


def test_cli_outputs_match_pinned_digests(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for command, digest in PINNED:
        argv = command.split()
        assert main(argv) == 0, command
        out = capsys.readouterr().out
        written = (tmp_path / argv[-1]).read_bytes() if argv[-2] == "-o" else out.encode()
        assert digest in (None, hashlib.sha256(written).hexdigest()), command


@pytest.mark.parametrize("generate, order, c, alpha", [
    ("--kind union-of-forests --n 200 --c 2 --seed 1", "--seed 2", "2", "1"),
    ("--kind union-of-forests --n 200 --c 2 --seed 1", "--seed 2", "2", "2.5"),
    ("--kind union-of-forests --n 200 --c 2 --seed 1", "--seed 2", "2", "12"),
    # a leaf sees no later edge, so every test that fails, fails at its centre
    ("--kind star-forest --k 20 --s 8", "--policy centers-first", "1", "1"),
], ids=["forests-alpha-1", "forests-alpha-2.5", "forests-alpha-12", "stars-centers-first"])
def test_alg4_at_level_zero_reports_the_oracles_e_alpha(tmp_path, capsys, monkeypatch,
                                                         generate, order, c, alpha):
    # at these sizes level 0 survives, so alg4's estimate is the exact count
    monkeypatch.chdir(tmp_path)
    main(["generate", *generate.split(), "-o", "g.txt"])
    main(["order", "g.txt", *order.split(), "-o", "s.txt"])
    capsys.readouterr()
    assert main(["estimate", "s.txt", "--algorithm", "alg4", "--c", c, "--alpha", alpha]) == 0
    value = capsys.readouterr().out.split()[1]
    assert main(["oracle", "g.txt", "--mu", "5", "--c", c, "--stream", "s.txt", "--alpha", alpha]) == 0
    assert value == f"value={json.loads(capsys.readouterr().out)['e_alpha']}"


@pytest.mark.parametrize("command", [
    "order g.txt --c 1 -o low.txt", "oracle g.txt --mu 5 --c 1", "check-lemmas g.txt --c 1 --mu 3",
], ids=["order", "oracle", "check-lemmas"])
def test_a_declared_bound_below_the_graphs_is_a_usage_error(tmp_path, capsys, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    main("generate --kind union-of-forests --n 200 --c 2 --seed 1 -o g.txt".split())
    assert main(command.split()) == 2
    captured = capsys.readouterr()
    assert "degeneracy 3 exceeds 2*c_declared = 2" in captured.err and captured.out == ""
    assert not (tmp_path / "low.txt").exists()


# each estimator with one parameter out of range, and the words its error names
BAD_PARAMETERS = {
    "alg1": ("--c 1 --mu 3 --p 0", "needs p in"),
    "alg2": ("--c 1 --mu 2", "needs mu > 2c"),
    "alg4": ("--c 1 --alpha 0.5", "alpha must be >= 1"),
    "logspace": ("--c 1 --epsilon 1", "epsilon must be in"),
    "dynamic": ("--c 0 --mu 3", "c must be >= 1"),
}


@pytest.mark.parametrize("algorithm", BAD_PARAMETERS)
def test_a_bad_parameter_is_reported_before_the_stream_is_read(tmp_path, capsys, algorithm):
    params, names = BAD_PARAMETERS[algorithm]
    missing = tmp_path / "missing.txt"
    assert main(["estimate", str(missing), "--algorithm", algorithm, *params.split()]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and names in err and "io error" not in err
