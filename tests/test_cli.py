import json

import pytest

from uniswarm import ModelParams, RunConfig
from uniswarm import cli
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


def test_check_subcommand(config_path, capsys):
    assert main(["check", "--config", str(config_path)]) == EXIT_OK
    reports = json.loads(capsys.readouterr().out)
    names = [r["name"] for r in reports]
    assert "theorem1_leaderless_sync" in names
    assert "corollary1_dwell_time" in names
    for r in reports:
        assert r["satisfied"] == (r["lhs"] <= r["rhs"])


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


@pytest.mark.parametrize("field, value", [
    ("n", 10.5), ("n", True), ("n", "ten"), ("v_n", float("inf")), ("r_n", float("-inf")),
    ("tau_n", float("nan")), ("eta_n", float("nan")), ("c", float("nan")),
    ("c_prime", float("inf")), ("epsilon", "0.05"), ("reference_heading", float("nan")),
    ("steps", 10.5), ("steps", True), ("steps", "3"), ("seed", 1.7), ("seed", False),
    ("substeps", 2.5), ("substeps", None), ("self_inclusive", "no"), ("self_inclusive", 1)])
def test_config_field_of_wrong_type_or_not_finite_exits_2(tmp_path, capsys, field, value):
    # json.dumps writes nan and inf as NaN and Infinity, which json.load reads back
    config = {"params": {"n": 8, "r_n": 0.5, "v_n": 0.05, "tau_n": 0.01}, "steps": 3}
    top_level = field in ("reference_heading", "steps", "seed", "substeps")
    (config if top_level else config["params"])[field] = value
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
    ({"center": [1.5, 0.5], "semi_axes": [0.4]}, "semi_axes")])
def test_malformed_obstacle_exits_2(tmp_path, capsys, obstacle, field):
    config = {"params": {"n": 8, "r_n": 0.5, "v_n": 0.05, "tau_n": 0.01}, "steps": 3,
              "obstacle": obstacle}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: obstacle {field} must be ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


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
    assert "substep_count" in capsys.readouterr().err


def test_out_dir_env_override(tmp_path, config_path, monkeypatch):
    env_out = tmp_path / "env_out"
    monkeypatch.setenv("UNISWARM_OUT", str(env_out))
    assert main(["run", "--config", str(config_path)]) == EXIT_OK
    assert (env_out / "trajectory.csv").exists()
