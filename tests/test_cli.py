import io
import json
import math
from contextlib import redirect_stderr

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from uniswarm import ModelParams, RunConfig
from uniswarm import cli, harness
from uniswarm.cli import EXIT_AUDIT_FAIL, EXIT_CONFIG, EXIT_ERROR, EXIT_OK, _parse_seeds, main


@pytest.fixture
def config_path(tmp_path):
    params = ModelParams(n=8, r_n=0.5, v_n=0.05, tau_n=0.01)
    cfg = RunConfig(params=params, steps=10, seed=0)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    return path


def test_parse_seeds_forms():
    assert _parse_seeds("3") == [0, 1, 2]
    assert _parse_seeds("2..4") == [2, 3, 4]
    assert _parse_seeds("7,1,3") == [7, 1, 3]
    # the spec is parsed as written; campaign() rejects negative seeds
    assert _parse_seeds("-3..-1") == [-3, -2, -1]
    assert _parse_seeds("4,-1") == [4, -1]


def test_run_subcommand(tmp_path, config_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == EXIT_OK
    for name in ("trajectory.csv", "metrics.csv", "audits.json", "run_meta.json"):
        assert (out / name).exists()
    assert "run complete" in capsys.readouterr().out


def test_run_seed_override(tmp_path, config_path):
    out = tmp_path / "o"
    main(["run", "--config", str(config_path), "--seed", "9", "--out", str(out)])
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["seed"] == 9


def test_campaign_subcommand(tmp_path, config_path, capsys):
    out = tmp_path / "camp"
    code = main(["campaign", "--config", str(config_path), "--seeds", "0..2",
                 "--out", str(out)])
    assert code == EXIT_OK
    data = json.loads((out / "campaign_summary.json").read_text())
    assert len(data["per_run"]) == 3
    assert "campaign: 3 runs" in capsys.readouterr().out


@pytest.mark.parametrize("spec", ["-3..-1", "4,-1"])
def test_campaign_with_negative_seeds_exits_2(tmp_path, config_path, capsys, spec):
    out = tmp_path / "camp"
    assert main(["campaign", "--config", str(config_path), f"--seeds={spec}",
                 "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: seed must be a non-negative integer")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("spec", ["5..3", "0", "-1"])
def test_campaign_with_a_seed_spec_that_names_no_seeds_exits_2(tmp_path, config_path, capsys,
                                                               spec):
    out = tmp_path / "camp"
    assert main(["campaign", "--config", str(config_path), f"--seeds={spec}",
                 "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"config error: seed spec {spec!r} names no seeds\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["run", "--seed", "-1"], "seed must be a non-negative integer, got -1"),
    (["scenario", "fig3", "--seed", "-2"], "seed must be a non-negative integer, got -2"),
    (["scenario", "fig3", "--steps", "0"], "steps must be >= 1"),
])
def test_command_line_override_is_checked_as_a_config_field(tmp_path, config_path, capsys,
                                                            argv, message):
    if argv[0] == "run":
        argv = [*argv, "--config", str(config_path)]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_campaign_with_a_run_that_raised_exits_3(tmp_path, config_path, capsys, monkeypatch):
    run = harness.run

    def fail_seed_1(config):
        if config.seed == 1:
            raise RuntimeError("run failed")
        return run(config)

    monkeypatch.setattr(harness, "run", fail_seed_1)
    out = tmp_path / "camp"
    assert main(["campaign", "--config", str(config_path), "--seeds", "0..2",
                 "--out", str(out)]) == EXIT_ERROR
    data = json.loads((out / "campaign_summary.json").read_text())
    assert data["errors"] == [{"seed": 1, "error": "run failed"}]
    assert [r["seed"] for r in data["per_run"]] == [0, 2]
    assert "1 runs errored" in capsys.readouterr().err


def test_check_subcommand(config_path, capsys):
    assert main(["check", "--config", str(config_path)]) == EXIT_OK
    reports = json.loads(capsys.readouterr().out)
    names = [r["name"] for r in reports]
    assert "theorem1_leaderless_sync" in names
    assert "corollary1_dwell_time" in names
    for r in reports:
        assert r["satisfied"] == (r["lhs"] <= r["rhs"])


def test_check_with_zero_eta_exits_2(tmp_path, capsys):
    # branch 1 of theorems 2 and 3 divides by eta
    config = {"params": {"n": 100, "alpha_n": 0.3, "r_n": 0.3, "v_n": 10.0, "tau_n": 0.2,
                         "eta": 0}, "steps": 3, "mode": "leader_constant"}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["check", "--config", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: eta must be positive") and err.count("\n") == 1


@pytest.mark.parametrize("field, value", [("c", -1.0), ("c", 0.0), ("c_prime", -1.0),
                                          ("c_prime", 0.0), ("eta_n", -0.1), ("eta_n", 0.0)])
@pytest.mark.parametrize("command", [["run"], ["check"], ["campaign", "--seeds", "0..1"]])
def test_constant_not_positive_exits_2(tmp_path, capsys, field, value, command):
    # theorem 1's right side and the drift budget would be <= 0
    config = {"params": {"n": 8, "r_n": 0.5, "v_n": 0.05, "tau_n": 0.01, field: value},
              "steps": 3}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out = [] if command == ["check"] else ["--out", str(tmp_path / "out")]
    assert main([command[0], "--config", str(path), *command[1:], *out]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == f"config error: {field} must be positive, got {value}\n"
    assert captured.out == "" and not (tmp_path / "out").exists()


def test_check_includes_leader_conditions(tmp_path, capsys):
    params = ModelParams(n=8, r_n=0.5, v_n=0.05, tau_n=0.01, alpha_n=0.25)
    cfg = RunConfig(params=params, steps=5, seed=0, mode="leader_constant",
                    schedule=None, reference_heading=0.3)
    path = tmp_path / "leader.json"
    path.write_text(json.dumps(cfg.to_dict()))
    assert main(["check", "--config", str(path)]) == EXIT_OK
    names = [r["name"] for r in json.loads(capsys.readouterr().out)]
    assert "theorem2_leader_ratio" in names


def test_scenario_unknown_name(capsys):
    assert main(["scenario", "warp"]) == EXIT_CONFIG
    assert "unknown scenario" in capsys.readouterr().err


def test_malformed_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"steps": 5}))
    assert main(["run", "--config", str(bad)]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


# params that a case of the test below sets besides its field
_SET_ALONGSIDE = {("tau_n", 1e100): {"v_n": 1e300}}


@pytest.mark.parametrize("field, value", [
    ("n", 10.5), ("n", True), ("n", "ten"), ("v_n", float("inf")), ("r_n", float("-inf")),
    ("tau_n", float("nan")), ("eta_n", float("nan")), ("c", float("nan")),
    ("c_prime", float("inf")), ("epsilon", "0.05"), ("reference_heading", float("nan")),
    ("steps", 10.5), ("steps", True), ("steps", "3"), ("seed", 1.7), ("seed", False),
    ("substeps", 2.5), ("substeps", None), ("self_inclusive", "no"), ("self_inclusive", 1),
    ("r_n", True), ("vartheta", False), ("tau_n", 1e308), ("reference_heading", True),
    ("reference_heading", "0.5"), ("tau_n", 1e154), ("tau_n", 1e100), ("eta", 0.0),
    ("seed", -1)])
@pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning would be a second stderr line
def test_config_field_of_wrong_type_or_not_finite_exits_2(tmp_path, capsys, field, value):
    # json.dumps writes nan and inf as NaN and Infinity, which json.load reads back
    config = {"params": {"n": 8, "r_n": 0.5, "v_n": 0.05, "tau_n": 0.01}, "steps": 3}
    top_level = field in ("reference_heading", "steps", "seed", "substeps")
    (config if top_level else config["params"])[field] = value
    config["params"].update(_SET_ALONGSIDE.get((field, value), {}))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field} must be ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("obstacle, field", [
    ({"center": [1], "semi_axes": [0.4, 0.25]}, "center"),
    ({"center": [1.5, 0.5, 0.0], "semi_axes": [0.4, 0.25]}, "center"),
    ({"center": 1.5, "semi_axes": [0.4, 0.25]}, "center"),
    ({"center": [1.5, float("nan")], "semi_axes": [0.4, 0.25]}, "center"),
    ({"center": ["1.5", 0.5], "semi_axes": [0.4, 0.25]}, "center"),
    ({"center": [1.5, 0.5], "semi_axes": [0, 0]}, "semi_axes"),
    ({"center": [1.5, 0.5], "semi_axes": [0.4, -0.25]}, "semi_axes"),
    ({"center": [1.5, 0.5], "semi_axes": [0.4, float("inf")]}, "semi_axes"),
    ({"center": [1.5, 0.5], "semi_axes": [0.4]}, "semi_axes"),
    (5, None),  # the section itself
    ({"semi_axes": [0.4, 0.25]}, "center")])
def test_malformed_obstacle_exits_2(tmp_path, capsys, obstacle, field):
    config = {"params": {"n": 8, "r_n": 0.5, "v_n": 0.05, "tau_n": 0.01}, "steps": 3,
              "obstacle": obstacle}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    name = "obstacle" if field is None else f"obstacle {field}"
    assert err.startswith(f"config error: {name} must be ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def _leader_dynamic_config() -> dict:
    return {"params": {"n": 8, "alpha_n": 0.25, "r_n": 0.5, "v_n": 0.05, "tau_n": 0.01},
            "steps": 3, "mode": "leader_dynamic",
            "schedule": {"headings": [0.0, 0.5], "epsilon": 0.05, "restrict_to_followers": False},
            "obstacle": {"center": [1.5, 0.5], "semi_axes": [0.4, 0.25]}}


@pytest.mark.parametrize("field, value, name", [
    ("headings", [True], "headings[0]"), ("headings", [0.0, "0.5"], "headings[1]"),
    ("headings", 0.5, "headings"), ("epsilon", "0.1", "epsilon"),
    ("restrict_to_followers", "no", "restrict_to_followers")])
def test_schedule_field_of_wrong_type_exits_2(tmp_path, capsys, field, value, name):
    config = _leader_dynamic_config()
    config["schedule"][field] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: schedule {name} must be ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("mode", ["leaderless", "leader_constant"])
@pytest.mark.parametrize("command", [["run"], ["check"], ["campaign", "--seeds", "0..1"]])
def test_schedule_outside_leader_dynamic_exits_2(tmp_path, capsys, mode, command):
    # a schedule that the run would not follow is an error, not silently ignored
    config = {**_leader_dynamic_config(), "mode": mode,
              "schedule": {"headings": [1.0, 2.0], "epsilon": 10}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out = [] if command == ["check"] else ["--out", str(tmp_path / "out")]
    assert main([command[0], "--config", str(path), *command[1:], *out]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == (f"config error: schedule is read only in mode 'leader_dynamic', "
                            f"got mode {mode!r}\n")
    assert captured.out == "" and not (tmp_path / "out").exists()


# every field of a config: each parameter, each field of the schedule and the
# obstacle, and each top-level field
_FIELDS = ([("params", name) for name in _leader_dynamic_config()["params"]]
           + [("params", name) for name in ("vartheta", "eta", "eta_n", "c", "c_prime",
                                             "epsilon", "self_inclusive")]
           + [("schedule", name) for name in _leader_dynamic_config()["schedule"]]
           + [("obstacle", "center"), ("obstacle", "semi_axes")]
           + [(name,) for name in ("params", "steps", "seed", "mode", "schedule",
                                   "reference_heading", "outputs", "audit_level", "substeps",
                                   "obstacle")])
# the replacements that are valid for a field, with which the run would go ahead
_VALID_REPLACEMENTS = {("params", "eta_n"): [None], ("params", "self_inclusive"): [True, False],
                       ("schedule", "restrict_to_followers"): [True, False],
                       ("schedule", "headings"): [[0.5]], ("obstacle",): [None],
                       ("outputs",): [None, "0.5"]}


@given(field=st.sampled_from(_FIELDS),
       value=st.sampled_from([True, False, "0.5", math.nan, math.inf, -math.inf, None, [],
                              [0.5], [0.5, "x"], {}, {"x": 0.5}]))
@settings(max_examples=150, deadline=None)
def test_any_config_field_of_wrong_type_exits_2(tmp_path_factory, field, value):
    assume(value not in _VALID_REPLACEMENTS.get(field, []))
    config = _leader_dynamic_config()
    *sections, name = field
    target = config[sections[0]] if sections else config
    target[name] = value
    tmp = tmp_path_factory.mktemp("cfg")
    path = tmp / "cfg.json"
    path.write_text(json.dumps(config))
    with redirect_stderr(io.StringIO()) as stderr:
        assert main(["run", "--config", str(path), "--out", str(tmp / "out")]) == EXIT_CONFIG
    err = stderr.getvalue()
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert name in err and "Traceback" not in err
    assert not (tmp / "out").exists()


@pytest.mark.parametrize("error", [MemoryError("Unable to allocate 7.28 TiB for an array"),
                                   TypeError("unsupported operand\ntype(s)")])
def test_unexpected_error_exits_3_with_one_line(config_path, tmp_path, capsys, monkeypatch,
                                                error):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "run", fail)
    assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "o")]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith(f"error: {type(error).__name__}: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_audit_of_tampered_run_exits_1(tmp_path, config_path, capsys):
    out = tmp_path / "r"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == EXIT_OK
    # teleport agent 0 at k = 5 in the CSV, which the audit then reads,
    # since the file no longer hashes to the digest in run_meta.json
    path = out / "trajectory.csv"
    rows = path.read_text().splitlines(keepends=True)
    index = next(i for i, row in enumerate(rows) if row.startswith("5,") and
                 row.split(",")[2] == "0")
    cells = rows[index].split(",")
    cells[4] = repr(float(cells[4]) + 0.5)
    rows[index] = ",".join(cells)
    path.write_text("".join(rows))
    capsys.readouterr()
    assert main(["audit", "--traj", str(out)]) == EXIT_AUDIT_FAIL
    assert json.loads(capsys.readouterr().out)["recursion_fail_count"] == 2


@pytest.mark.parametrize("section, field, value, message", [
    ("params", "tau_n", -0.01, "tau_n must be positive"),
    ("params", "tau_n", "0.01", "tau_n must be a finite number"),
    ("params", "r_n", -1, "r_n must be positive"),
    ("params", "v_n", None, "v_n must be a finite number"),
    (None, "steps", 2.5, "steps must be an integer"),
    (None, "mode", "foo", "unknown mode 'foo'"),
    (None, "switch_log", "abc", "switch_log must be a list"),
    (None, "switch_log", {"a": 1}, "switch_log must be a list"),
    (None, "switch_log", None, "switch_log must be a list"),
    (None, "switch_log", [1.5], "switch_log[0] must be an integer"),
    (None, "switch_log", [True], "switch_log[0] must be an integer"),
    (None, "switch_log", [-5], "switch_log must hold instants in 0..9"),
    (None, "switch_log", [1000000000], "switch_log must hold instants in 0..9"),
    (None, "switch_log", [5, 3], "switch_log must be strictly increasing"),
    (None, "switch_log", [4, 4], "switch_log must be strictly increasing"),
    (None, "switch_log", [5], "switch_log must be empty in mode 'leaderless'")])
def test_audit_of_run_with_invalid_stored_field_exits_2(tmp_path, config_path, capsys,
                                                        section, field, value, message):
    out = tmp_path / "r"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == EXIT_OK
    path = out / "run_meta.json"
    meta = json.loads(path.read_text())
    (meta[section] if section else meta)[field] = value
    path.write_text(json.dumps(meta, indent=1))
    capsys.readouterr()
    assert main(["audit", "--traj", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"run_meta.json: {message}" in err
    assert err.count("\n") == 1


def test_missing_config_exits_2(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG


def test_audit_reproduces_run_verdicts(tmp_path, config_path, capsys):
    out = tmp_path / "r"
    main(["run", "--config", str(config_path), "--out", str(out)])
    capsys.readouterr()
    assert main(["audit", "--traj", str(out)]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    stored = json.loads((out / "audits.json").read_text())
    assert report["recursion_fail_count"] == stored["recursion"]["fail_count"]
    assert report["envelope_verdict"] == stored["envelope"]["verdict"]


def test_audit_truncated_trajectory_exits_2(tmp_path, config_path, capsys):
    out = tmp_path / "r"
    main(["run", "--config", str(config_path), "--out", str(out)])
    path = out / "trajectory.csv"
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-5]))
    capsys.readouterr()
    assert main(["audit", "--traj", str(out)]) == EXIT_CONFIG
    assert "trajectory.csv" in capsys.readouterr().err


def test_audit_zero_substeps_exits_2(tmp_path, config_path, capsys):
    out = tmp_path / "r"
    main(["run", "--config", str(config_path), "--out", str(out)])
    capsys.readouterr()
    assert main(["audit", "--traj", str(out), "--substeps", "0"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "--substeps" in err and err.count("\n") == 1


def test_audit_checks_substeps_before_loading_the_run(tmp_path, config_path, capsys,
                                                      monkeypatch):
    out = tmp_path / "r"
    main(["run", "--config", str(config_path), "--out", str(out)])
    loads = []

    def counted(path):
        loads.append(path)
        return harness.load_trajectory(path)

    monkeypatch.setattr(cli, "load_trajectory", counted)
    for substeps in ("0", "-1"):
        assert main(["audit", "--traj", str(out), "--substeps", substeps]) == EXIT_CONFIG
    assert loads == []
    assert main(["audit", "--traj", str(out), "--substeps", "1"]) == EXIT_OK
    assert len(loads) == 1


def test_out_dir_env_override(tmp_path, config_path, monkeypatch):
    env_out = tmp_path / "env_out"
    monkeypatch.setenv("UNISWARM_OUT", str(env_out))
    assert main(["run", "--config", str(config_path)]) == EXIT_OK
    assert (env_out / "trajectory.csv").exists()


def test_run_writes_to_out_then_env_then_config_outputs(tmp_path, config_path, monkeypatch):
    config = json.loads(config_path.read_text())
    config["outputs"] = "wanted_here"
    config_path.write_text(json.dumps(config))
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("UNISWARM_OUT", raising=False)
    assert main(["run", "--config", str(config_path)]) == EXIT_OK
    assert (tmp_path / "wanted_here" / "trajectory.csv").exists()
    monkeypatch.setenv("UNISWARM_OUT", "from_env")
    assert main(["run", "--config", str(config_path)]) == EXIT_OK
    assert (tmp_path / "from_env" / "trajectory.csv").exists()
    assert main(["run", "--config", str(config_path), "--out", "from_flag"]) == EXIT_OK
    assert (tmp_path / "from_flag" / "trajectory.csv").exists()
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("params, steps, audit_level", [
    ({"n": 10, "r_n": 0.3, "v_n": 1.0, "tau_n": 1e6}, 1000, "sampled"),
    ({"n": 10, "r_n": 0.3, "v_n": 0.05, "tau_n": 2e6}, 400, "full")])
def test_run_far_from_the_origin_passes_the_integration_check(tmp_path, params, steps,
                                                              audit_level):
    # positions grow to about 1e9, where their running sum rounds by about
    # 1e-7, more than the check's absolute 1e-9
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"params": params, "steps": steps, "seed": 0,
                                "audit_level": audit_level}))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_OK
