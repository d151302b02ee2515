import csv
import gc
import math
import re
from types import SimpleNamespace

import pytest

import arbormatch.harness as harness
from arbormatch import (
    ConfigError,
    ExperimentConfig,
    build_graph,
    check_lemmas,
    emit_csv,
    generate_random_tree,
    generate_star_forest,
    generate_union_of_forests,
    maximum_matching_size,
    parse_config,
    run_experiment,
    summarize_ratios,
)
from arbormatch.harness import (
    ESTIMATORS,
    LemmaCheck,
    LemmaReport,
    TrialRecord,
    alpha_good_checks,
    degree_threshold_checks,
    forest_window_checks,
    lemma_alpha_threshold,
    triple_alpha_checks,
    validate_config,
)
from arbormatch.streams import EdgeStream, delete_event, insert_event


# ---------------------------------------------------------------------------
# config parsing and validation
# ---------------------------------------------------------------------------

GOOD_CONFIG = """
# small smoke experiment
generator = union-of-forests
n = 60
c = 2
ordering = uniform-random
estimator = alg2
mu = 5
epsilon = 0.5
trials = 5
seed0 = 3
"""


def test_parse_config_round_trip():
    config = parse_config(GOOD_CONFIG)
    assert config.generator == "union-of-forests"
    assert config.trials == 5
    assert config.mu == 5


def test_parse_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("generator = union-of-forests\nbogus = 1\n")
    with pytest.raises(ConfigError, match="bad value"):
        parse_config("trials = many\n")


def _override(lines: str) -> str:
    """GOOD_CONFIG with ``lines`` at its end, and the earlier lines for the keys
    they set taken out, since a config sets each key once."""
    keys = {line.partition("=")[0].strip() for line in lines.splitlines()}
    kept = [
        line for line in GOOD_CONFIG.splitlines() if line.partition("=")[0].strip() not in keys
    ]
    return "\n".join(kept + lines.splitlines()) + "\n"


# (lines that override GOOD_CONFIG, the whole ConfigError message)
BAD_CONFIGS = [
    ("generator = bogus", "unknown generator 'bogus'"),
    ("estimator = bogus", "unknown estimator 'bogus'"),
    ("ordering = bogus", "unknown ordering 'bogus'"),
    ("trials = 0", "trials must be >= 1, got 0"),
    ("generator = star-forest\nk = 0", "star-forest needs k >= 1 and s >= 1"),
    ("generator = star-forest\ns = 0", "star-forest needs k >= 1 and s >= 1"),
    ("n = 1", "n must be >= 2, got 1"),
    ("estimator = dynamic\ndelete-fraction = -0.5", "delete-fraction must be in [0, 1], got -0.5"),
    ("estimator = dynamic\ndelete-fraction = 1.5", "delete-fraction must be in [0, 1], got 1.5"),
    ("trials 5", f"line {len(GOOD_CONFIG.splitlines()) + 1}: expected 'key = value'"),
    ("trials = 2\ntrials = 9", f"line {len(GOOD_CONFIG.splitlines()) + 1}: duplicate key 'trials'"),
]


@pytest.mark.parametrize(
    "lines, message", BAD_CONFIGS, ids=[lines.splitlines()[-1] for lines, _ in BAD_CONFIGS]
)
def test_parse_config_rejects_bad_settings(lines, message):
    parse_config(GOOD_CONFIG)
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_config(_override(lines))


def test_validate_rejects_mu_at_twice_c():
    config = parse_config(GOOD_CONFIG)
    config.mu = 4  # equals 2c
    with pytest.raises(ConfigError, match="mu"):
        validate_config(config)


def test_validate_rejects_incomplete_estimators():
    with pytest.raises(ConfigError, match="needs mu"):
        validate_config(ExperimentConfig(estimator="alg2"))
    with pytest.raises(ConfigError, match="p in"):
        validate_config(ExperimentConfig(estimator="alg1", mu=3))
    with pytest.raises(ConfigError, match="alpha"):
        validate_config(ExperimentConfig(estimator="alg4"))
    with pytest.raises(ConfigError, match="delete-fraction"):
        validate_config(
            ExperimentConfig(estimator="alg2", mu=3, delete_fraction=0.5)
        )


def test_parse_config_rejects_nan_alpha(tmp_path):
    out = tmp_path / "out.csv"
    with pytest.raises(ConfigError, match="alpha must be >= 1"):
        parse_config(f"estimator = alg4\nalpha = nan\noutput = {out}\n")
    assert not out.exists()


@pytest.mark.parametrize("generator", ["random-tree", "star-forest"])
@pytest.mark.parametrize("estimator", ["logspace", "alg2", "alg4"])
def test_parse_config_rejects_c_below_one(generator, estimator):
    text = f"generator = {generator}\nc = 0\nestimator = {estimator}\nmu = 3\n"
    if estimator == "alg4":
        text += "alpha = 2\n"
    with pytest.raises(ConfigError, match="c must be >= 1"):
        parse_config(text)


VALID_SETTING = {"c": 1, "epsilon": 0.5, "mu": 3, "p": 0.5, "alpha": 6.0}
# (estimators that read it, parameter, bad value, what the ConfigError says)
BAD_PARAMETERS = [
    (tuple(ESTIMATORS), "c", 0, "c must be >= 1"),
    (tuple(ESTIMATORS), "epsilon", 1.0, "epsilon must be in"),
    (("alg1", "alg2", "dynamic"), "mu", 2, "needs mu > 2c"),
    (("alg1",), "p", 0.0, "needs p in"),
    (("alg1",), "p", None, "needs p in"),
    (("alg4",), "alpha", 0.5, "alpha must be >= 1"),
    (("alg4",), "alpha", math.nan, "alpha must be >= 1"),
]


@pytest.mark.parametrize(
    "name, key, value, message",
    [
        pytest.param(name, key, value, message, id=f"{name}-{key}={value}")
        for names, key, value, message in BAD_PARAMETERS
        for name in names
    ],
)
def test_a_run_on_the_empty_stream_checks_parameters(name, key, value, message):
    run = ESTIMATORS[name]
    assert run(SimpleNamespace(**VALID_SETTING), EdgeStream(0, ()), 0).value == 0
    params = SimpleNamespace(**{**VALID_SETTING, key: value})
    ends_with_delete = EdgeStream(2, (insert_event(0, 1), delete_event(0, 1)))
    for stream in (EdgeStream(0, ()), ends_with_delete):
        with pytest.raises(ConfigError, match=message):
            run(params, stream, 0)


# estimator -> (one bad setting, the ConfigError it raises)
BAD_SETTINGS = {
    "alg1": ({"mu": 3, "p": 0.0}, "the degree sampler needs p in (0, 1], got 0.0"),
    "alg2": ({"mu": 2}, "the degree threshold needs mu > 2c = 2, got 2"),
    "alg4": ({"alpha": 0.5}, "alpha must be >= 1, got 0.5"),
    "logspace": ({"c": 0}, "c must be >= 1, got 0"),
    "dynamic": ({"mu": 3, "epsilon": 1.0}, "epsilon must be in (0, 1), got 1.0"),
}


def test_run_experiment_checks_parameters_before_writing_csv(tmp_path, monkeypatch):
    def no_graph(*args):
        raise AssertionError("a graph was generated before the parameter check")

    monkeypatch.setattr(harness, "generate_union_of_forests", no_graph)
    out = tmp_path / "out.csv"
    for estimator, (setting, message) in BAD_SETTINGS.items():
        lines = [f"estimator = {estimator}", f"output = {out}"]
        lines += [f"{key} = {value}" for key, value in setting.items()]
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config("\n".join(lines))
        config = ExperimentConfig(estimator=estimator, output=str(out), **setting)
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            run_experiment(config)
        assert not out.exists()


# ---------------------------------------------------------------------------
# experiments and CSV
# ---------------------------------------------------------------------------


def test_run_experiment_smoke():
    config = parse_config(GOOD_CONFIG)
    records = run_experiment(config)
    assert len(records) == 5
    for i, rec in enumerate(records):
        assert rec.seed == 3 + i
        assert not rec.failed
        assert rec.m_star > 0
        assert rec.ratio == pytest.approx(rec.value / rec.m_star)
        assert rec.space_peak > 0


def test_run_experiment_is_deterministic_modulo_walltime(tmp_path):
    config = parse_config(GOOD_CONFIG)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    config.output = str(p1)
    run_experiment(config)
    config.output = str(p2)
    run_experiment(config)

    def strip_ms(path):
        return [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]

    assert strip_ms(p1) == strip_ms(p2)


def test_each_trial_builds_its_own_graph():
    # trial i's m_star is the exact matching of the generator's graph at seed0+i
    config = ExperimentConfig(n=60, c=1, estimator="alg2", mu=3, trials=5, seed0=3)
    records = run_experiment(config)
    expected = [
        maximum_matching_size(generate_union_of_forests(60, 1, seed=3 + i)) for i in range(5)
    ]
    assert [rec.m_star for rec in records] == expected
    assert len(set(expected)) > 1  # so one graph for every trial would not match


def test_emit_csv_row_format(tmp_path):
    rec = TrialRecord(seed=1, value=3, m_star=1, ratio=3.0, space_peak=7, failed=False, ms=0.5)
    whole = TrialRecord(seed=2, value=4.0, m_star=2, ratio=2.0, space_peak=7, failed=False, ms=0.5)
    half = TrialRecord(seed=3, value=2.5, m_star=2, ratio=1.25, space_peak=7, failed=False, ms=0.5)
    path = tmp_path / "one.csv"
    emit_csv([rec, whole, half], str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "seed,value,m_star,ratio,space_peak,fail,ms"
    assert lines[1] == "1,3,1,3.0,7,0,0.500"
    assert lines[2] == "2,4,2,2.0,7,0,0.500"  # an integral float value prints as an integer
    assert lines[3] == "3,2.5,2,1.25,7,0,0.500"


def test_emit_csv_absent_ratio_and_value(tmp_path):
    recs = [
        TrialRecord(seed=0, value=0, m_star=0, ratio=None, space_peak=1, failed=False, ms=1.0),
        TrialRecord(seed=1, value=None, m_star=4, ratio=None, space_peak=9, failed=True, ms=1.0),
    ]
    path = tmp_path / "two.csv"
    emit_csv(recs, str(path))
    rows = list(csv.reader(path.read_text().splitlines()))
    assert rows[1][3] == "" and rows[1][1] == "0"
    assert rows[2][1] == "" and rows[2][5] == "1"


def test_emit_csv_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv([], str(path))
    assert path.read_text().splitlines() == ["seed,value,m_star,ratio,space_peak,fail,ms"]


def test_emit_csv_numeric_round_trip(tmp_path):
    config = parse_config(GOOD_CONFIG)
    records = run_experiment(config)
    path = tmp_path / "rt.csv"
    emit_csv(records, str(path))
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    for rec, row in zip(records, rows):
        assert int(row["seed"]) == rec.seed
        assert float(row["value"]) == pytest.approx(float(rec.value))
        assert int(row["m_star"]) == rec.m_star
        assert float(row["ratio"]) == pytest.approx(rec.ratio)
        assert int(row["space_peak"]) == rec.space_peak


def test_summarize_ratios_windows():
    recs = [
        TrialRecord(seed=i, value=v, m_star=1, ratio=float(v), space_peak=1, failed=False, ms=0)
        for i, v in enumerate([1, 2, 3, 40])
    ]
    summary = summarize_ratios(recs)
    assert summary == {
        "trials": 4, "fails": 0, "ratio_min": 1.0, "ratio_median": 2.5, "ratio_max": 40.0,
    }
    failed = TrialRecord(seed=0, value=None, m_star=1, ratio=None, space_peak=1, failed=True, ms=0)
    assert summarize_ratios([failed]) == {"trials": 1, "fails": 1}


def test_logspace_experiment_on_star_forest():
    # every record's ratio sits inside the guaranteed window; star-forest
    # ignores the seed, so every trial has the same graph
    config = ExperimentConfig(
        generator="star-forest", k=1000, s=5, estimator="logspace",
        epsilon=0.1, trials=20, seed0=0, ordering="uniform-random",
    )
    records = run_experiment(config)
    assert all(rec.m_star == 1000 for rec in records)
    assert not any(rec.failed for rec in records)
    inside = sum(1 for rec in records if 1.0 <= rec.ratio <= 28.5 * 1.3)
    assert inside / len(records) >= 0.9


def test_dynamic_experiment_smoke():
    config = ExperimentConfig(
        generator="union-of-forests", n=40, c=1, estimator="dynamic",
        mu=3, epsilon=0.5, delete_fraction=0.4, trials=3, seed0=0,
    )
    records = run_experiment(config)
    assert all(not rec.failed for rec in records)
    assert all(rec.value >= rec.m_star for rec in records)


def test_dynamic_trial_computes_degeneracy_once(monkeypatch):
    # Graph checks the generated graph and generate_dynamic_stream needs
    # the same value; count calls wherever a module binds the function
    from arbormatch import graphs, harness, streams

    calls = []
    original = graphs.degeneracy

    def counting(g):
        calls.append(g)
        return original(g)

    for module in (graphs, streams, harness):
        if hasattr(module, "degeneracy"):
            monkeypatch.setattr(module, "degeneracy", counting)
    config = ExperimentConfig(
        generator="union-of-forests", n=200, c=1, estimator="dynamic",
        mu=3, epsilon=0.5, delete_fraction=0.5, trials=1, seed0=0,
    )
    run_experiment(config)
    assert len(calls) == 1


def test_trials_start_no_collector_pass():
    # each trial allocates thousands of tracked containers with the collector
    # paused and frees them on return, so resuming finds no pass due
    config = ExperimentConfig(n=300, c=2, estimator="alg2", mu=7, trials=3)
    passes = []

    def count(phase, info):
        if phase == "start":
            passes.append(info["generation"])

    was_enabled = gc.isenabled()
    gc.callbacks.append(count)
    try:
        gc.enable()
        gc.collect()
        passes.clear()
        records = run_experiment(config)
        assert passes == []
    finally:
        gc.callbacks.remove(count)
        (gc.enable if was_enabled else gc.disable)()
    assert [rec.seed for rec in records] == [0, 1, 2]


def test_a_trial_leaves_the_collector_as_found(monkeypatch):
    # also when the estimator raises mid-trial; the empty-stream parameter
    # check still runs the estimator, so the stand-in raises only on events
    config = ExperimentConfig(n=300, c=2, estimator="alg2", mu=7, trials=2)
    original = ESTIMATORS["alg2"]
    seen = []

    def failing(a, stream, seed):
        if stream.events:
            seen.append(gc.isenabled())
            raise RuntimeError("estimator failed mid-trial")
        return original(a, stream, seed)

    was_enabled = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            run_experiment(config)
            assert gc.isenabled() is enabled
            with monkeypatch.context() as patch:
                patch.setitem(ESTIMATORS, "alg2", failing)
                with pytest.raises(RuntimeError, match="^estimator failed mid-trial$"):
                    run_experiment(config)
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert seen == [False, False]  # paused inside the trial either way


# ---------------------------------------------------------------------------
# inequality checks
# ---------------------------------------------------------------------------


def test_check_lemmas_on_random_tree():
    g = generate_random_tree(50, seed=5)
    report = check_lemmas(g, orderings=20, mu=3, seed=1)
    assert report.passed, report.format()
    names = [c.name for c in report.checks]
    assert any(n.startswith("forest-window") for n in names)


def test_check_lemmas_on_forest_union():
    g = generate_union_of_forests(100, 3, seed=2)
    report = check_lemmas(g, orderings=10, mu=7, seed=0)
    assert report.passed, report.format()
    assert report.mu == 7
    # non-forest inputs skip the forest window
    if any(c.name.startswith("forest-window") for c in report.checks):
        from arbormatch import degeneracy

        assert degeneracy(g) <= 1


def test_check_lemmas_on_star():
    g = build_graph(6, [(0, i) for i in range(1, 6)], c_declared=1)
    report = check_lemmas(g, orderings=8, mu=3, seed=4)
    assert report.passed, report.format()
    assert report.alpha == lemma_alpha_threshold(1, 3) == 8.0


def test_check_lemmas_requires_declared_bound():
    g = build_graph(3, [(0, 1)])
    with pytest.raises(ConfigError):
        check_lemmas(g, orderings=1, mu=3, seed=0)
    g2 = build_graph(3, [(0, 1)], c_declared=1)
    with pytest.raises(ConfigError):
        check_lemmas(g2, orderings=1, mu=2, seed=0)


def test_check_lemmas_needs_an_ordering():
    g = build_graph(3, [(0, 1)], c_declared=1)
    with pytest.raises(ConfigError, match="^orderings must be >= 1, got 0$"):
        check_lemmas(g, orderings=0, mu=3, seed=0)


def test_violations_are_reported_with_witnesses():
    # fabricated numbers: a high-degree count far above what any graph allows
    checks = degree_threshold_checks(c=1, mu=3, m_star=1, h_mu=50, m_mu=0)
    assert not checks[0].holds
    assert "h_mu=50" in checks[0].witness
    checks = alpha_good_checks(
        c=1, mu=3, alpha=8.0, m_star=100, h_mu=0, s_mu=0, e_alpha=1, label="fab"
    )
    assert not checks[0].holds  # lower window broken
    checks = triple_alpha_checks(c=1, m_star=10, e_6c=1, label="fab")
    assert not checks[0].holds
    checks = forest_window_checks(m_star=5, e_1=100, label="fab")
    assert not checks[1].holds


def _witness_sides(witness: str) -> tuple[float, float]:
    """The two numbers of a witness ``L=a <= R=b``."""
    left, right = witness.split(" <= ")
    return float(left.rsplit("=", 1)[1]), float(right.rsplit("=", 1)[1])


def test_every_witness_states_the_comparison_it_reports():
    checks = []
    for g in (
        generate_random_tree(60, seed=1),
        generate_union_of_forests(60, 2, seed=2),
        generate_union_of_forests(60, 3, seed=3),
        generate_star_forest(5, 3),
    ):
        c = g.c_declared
        checks += check_lemmas(g, orderings=3, mu=2 * c + 1, seed=4).checks
    # the fabricated numbers of test_violations_are_reported_with_witnesses
    checks += degree_threshold_checks(c=1, mu=3, m_star=1, h_mu=50, m_mu=0)
    checks += alpha_good_checks(
        c=1, mu=3, alpha=8.0, m_star=100, h_mu=0, s_mu=0, e_alpha=1, label="fab"
    )
    checks += triple_alpha_checks(c=1, m_star=10, e_6c=1, label="fab")
    checks += forest_window_checks(m_star=5, e_1=100, label="fab")
    assert {check.holds for check in checks} == {True, False}
    for check in checks:
        a, b = _witness_sides(check.witness)
        if abs(a - b) >= 1e-4:  # the witness rounds floats to 4 places
            assert check.holds == (a <= b), check


def test_report_formatting_flags_violations():
    report = LemmaReport(
        graph_label="fabricated",
        mu=3,
        alpha=8.0,
        checks=(
            LemmaCheck(name="ok-check", holds=True, witness="1 <= 2"),
            LemmaCheck(name="broken-check", holds=False, witness="3 <= 2"),
        ),
    )
    assert not report.passed
    text = report.format()
    assert "VIOLATION broken-check" in text and "violations found" in text
