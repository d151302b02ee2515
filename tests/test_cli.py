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
    code = main([
        "estimate", str(spath), "--algorithm", "logspace", "--c", "1",
        "--epsilon", "0.5", "--seed", "3",
    ])
    assert code == 0
    out = capsys.readouterr().out.strip()
    assert out.startswith("algorithm=logspace value=") and "fail=0" in out


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
    assert main(["estimate", str(spath), "--algorithm", "logspace", "--c", "1"]) == 2
    captured = capsys.readouterr()
    assert "delete events" in captured.err and captured.out == ""


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
