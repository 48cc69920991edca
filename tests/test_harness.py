import builtins
import dataclasses
import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from uniswarm import (ConfigError, ModelParams, Obstacle, ReferenceSchedule, RunConfig,
                      build_graph, campaign, geometric_envelope_audit, graphs, harness,
                      load_trajectory, metrics, recursion_audit, run, scenario_fig3)
from uniswarm.cli import EXIT_CONFIG, main
from uniswarm.dynamics import LEADER_CONSTANT, LEADER_DYNAMIC, LEADERLESS, Trajectory
from uniswarm.harness import write_trajectory_csv

from conftest import trajectory_csv_oracle


def _leaderless_config(steps=20, seed=0, **kw):
    params = ModelParams(n=10, r_n=0.5, v_n=0.05, tau_n=0.01)
    return RunConfig(params=params, steps=steps, seed=seed, **kw)


def test_config_validation():
    cfg = _leaderless_config()
    cfg.mode = "warp"
    with pytest.raises(ValueError, match="unknown mode"):
        cfg.validate()
    cfg = _leaderless_config()
    cfg.mode = LEADER_DYNAMIC
    with pytest.raises(ValueError, match="schedule"):
        cfg.validate()
    cfg = _leaderless_config()
    cfg.mode = LEADER_CONSTANT
    with pytest.raises(ValueError, match="alpha_n"):
        cfg.validate()
    for mode in (LEADERLESS, LEADER_CONSTANT):
        cfg = _leaderless_config()
        cfg.params.alpha_n, cfg.mode = 0.3, mode
        cfg.schedule = ReferenceSchedule(headings=[1.0, 2.0], epsilon=10)
        with pytest.raises(ValueError, match=f"schedule .* got mode '{mode}'"):
            cfg.validate()
    cfg = _leaderless_config()
    cfg.audit_level = "loud"
    with pytest.raises(ValueError, match="audit_level"):
        cfg.validate()
    cfg = _leaderless_config(substeps=0)
    with pytest.raises(ValueError, match="substeps"):
        cfg.validate()
    for name in ("eta", "eta_n", "c", "c_prime"):
        for value in (0.0, -1.0):
            cfg = _leaderless_config()
            setattr(cfg.params, name, value)
            with pytest.raises(ValueError, match=f"^{name} must be positive, got {value}$"):
                cfg.validate()


def test_config_json_roundtrip(tmp_path):
    params = ModelParams(n=8, r_n=0.4, v_n=0.1, tau_n=0.01, alpha_n=0.25, vartheta=0.7)
    sched = ReferenceSchedule(headings=[0.0, 0.5], epsilon=0.02)
    cfg = RunConfig(params=params, steps=15, seed=9, mode=LEADER_DYNAMIC,
                    schedule=sched, obstacle=Obstacle(center=(1.0, 0.2)))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    loaded = RunConfig.from_json(path)
    assert loaded.params == params
    assert loaded.schedule.headings == [0.0, 0.5]
    assert loaded.schedule.epsilon == 0.02
    assert loaded.obstacle.center == (1.0, 0.2)
    assert loaded.seed == 9 and loaded.mode == LEADER_DYNAMIC


def test_config_from_json_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        RunConfig.from_json(bad)
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"steps": 5}))
    with pytest.raises(ConfigError, match="params"):
        RunConfig.from_json(missing)
    inconsistent = tmp_path / "inc.json"
    inconsistent.write_text(json.dumps({
        "params": {"n": 5, "r_n": 0.3, "v_n": 0.1, "tau_n": 0.01},
        "steps": 5, "mode": "leader_dynamic"}))
    with pytest.raises(ConfigError, match="schedule"):
        RunConfig.from_json(inconsistent)
    zero_substeps = tmp_path / "zero_substeps.json"
    zero_substeps.write_text(json.dumps({**_leaderless_config().to_dict(), "substeps": 0}))
    with pytest.raises(ConfigError, match="substeps"):
        RunConfig.from_json(zero_substeps)


def test_run_writes_all_outputs(tmp_path):
    result = run(_leaderless_config(), out_dir=tmp_path)
    for name in ("trajectory.csv", "metrics.csv", "audits.json", "run_meta.json"):
        assert (tmp_path / name).exists()
    meta = json.loads((tmp_path / "run_meta.json").read_text())
    assert meta["schema_version"] == 1 and meta["seed"] == 0
    audits = json.loads((tmp_path / "audits.json").read_text())
    assert "recursion" in audits and "envelope" in audits


def test_run_deterministic_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run(_leaderless_config(seed=4), out_dir=a)
    run(_leaderless_config(seed=4), out_dir=b)
    for name in ("metrics.csv", "trajectory.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_run_two_agent_sync_at_step_one():
    params = ModelParams(n=2, r_n=0.9, v_n=0.01, tau_n=0.01)
    cfg = RunConfig(params=params, steps=5, seed=2, audit_level="off")
    result = run(cfg)
    if result.metrics[0].connected:
        assert result.sync_index == 1


class _FakeLibc:
    def __init__(self, calls):
        self.calls = calls

    def mallopt(self, param, value):
        self.calls.append((param, value))
        return 1


def test_runs_raise_heap_thresholds_only_when_the_swarm_needs_more(monkeypatch):
    import ctypes

    calls = []
    monkeypatch.setattr(ctypes, "CDLL", lambda name: _FakeLibc(calls))
    monkeypatch.setattr(harness, "_mmap_threshold", 0)
    first = run(_leaderless_config(steps=3))
    second = run(_leaderless_config(steps=3))
    # M_MMAP_THRESHOLD = -3 at 4 MiB, M_TRIM_THRESHOLD = -1 at twice that
    assert calls == [(-3, 4 << 20), (-1, 8 << 20)]
    expected = repr(run(_leaderless_config(steps=3)).metrics)  # nan rows compare by repr
    assert repr(first.metrics) == repr(second.metrics) == expected
    # 16 m^2 bytes from m = 513 on, capped at 32 MiB; never lowered
    for agents in (600, 100, 1448, 1449, 5000):
        harness._raise_heap_thresholds(agents)
    assert calls[2:] == [(-3, 5_760_000), (-1, 11_520_000), (-3, 33_547_264),
                         (-1, 67_094_528), (-3, 32 << 20), (-1, 64 << 20)]


@pytest.mark.parametrize("error", [AttributeError, OSError, TypeError])
def test_run_without_mallopt_runs_unchanged(monkeypatch, error):
    import ctypes

    def no_mallopt(name):
        if error is AttributeError:
            return object()  # a C library without mallopt
        raise error("no C library to load")

    monkeypatch.setattr(ctypes, "CDLL", no_mallopt)
    monkeypatch.setattr(harness, "_mmap_threshold", 0)
    result = run(_leaderless_config(steps=3))
    assert repr(result.metrics) == repr(run(_leaderless_config(steps=3)).metrics)


def test_load_trajectory_roundtrip(tmp_path):
    # the second config's agents drift out of the unit square
    fast = RunConfig(params=ModelParams(n=10, r_n=0.5, v_n=1.0, tau_n=0.1), steps=50, seed=0)
    for i, (cfg, left) in enumerate([(_leaderless_config(seed=7), False), (fast, True)]):
        result = run(cfg, out_dir=tmp_path / str(i))
        loaded = load_trajectory(tmp_path / str(i))
        np.testing.assert_array_equal(loaded.positions, result.trajectory.positions)
        np.testing.assert_array_equal(loaded.headings, result.trajectory.headings)
        np.testing.assert_array_equal(loaded.speeds, result.trajectory.speeds)
        np.testing.assert_array_equal(loaded.leader_mask, result.trajectory.leader_mask)
        assert loaded.left_unit_square is result.trajectory.left_unit_square is left
        assert result.meta["left_unit_square"] is left


def _stored_rows(tmp_path):
    """A stored run's trajectory.csv, as a header line and a list of row lines."""
    run(_leaderless_config(steps=6), out_dir=tmp_path)
    header, *rows = (tmp_path / "trajectory.csv").read_text().splitlines(keepends=True)
    return header, rows


def test_load_trajectory_leader_roles_and_any_row_order(tmp_path):
    params = ModelParams(n=6, alpha_n=0.5, r_n=0.5, v_n=0.05, tau_n=0.01)
    result = run(RunConfig(params=params, steps=6, seed=3, mode=LEADER_CONSTANT),
                 out_dir=tmp_path)
    path = tmp_path / "trajectory.csv"
    header, *rows = path.read_text().splitlines(keepends=True)
    path.write_text(header + "".join(rows[::-1]))
    loaded = load_trajectory(tmp_path)
    assert loaded.leader_mask.sum() == 3
    np.testing.assert_array_equal(loaded.leader_mask, result.trajectory.leader_mask)
    np.testing.assert_array_equal(loaded.positions, result.trajectory.positions)
    np.testing.assert_array_equal(loaded.speeds, result.trajectory.speeds)


@pytest.mark.parametrize("damage", ["truncated", "duplicate_appended", "duplicate_replaces",
                                    "missing_instant", "agent_out_of_grid", "bad_role"])
def test_load_trajectory_rejects_incomplete_grid(tmp_path, damage):
    header, rows = _stored_rows(tmp_path)
    if damage == "truncated":
        rows = rows[:-5]
    elif damage == "duplicate_appended":
        rows = rows + [rows[3]]
    elif damage == "duplicate_replaces":
        rows = rows[:-1] + [rows[3]]
    elif damage == "missing_instant":
        rows = rows[:-10]  # every row of the last instant: steps says 6
    elif damage == "agent_out_of_grid":
        rows[7] = rows[7].replace(",7,", ",70,", 1)
    else:
        rows[0] = rows[0].replace("follower", "captain")
    (tmp_path / "trajectory.csv").write_text(header + "".join(rows))
    with pytest.raises(ValueError, match="trajectory.csv"):
        load_trajectory(tmp_path)


@pytest.mark.parametrize("params", [{"n": 4}, {"alpha_n": 0.5}])
def test_load_trajectory_rejects_csv_of_other_agent_counts_than_params(tmp_path, params):
    run(_leaderless_config(steps=6), out_dir=tmp_path)
    (tmp_path / "trajectory.npy").unlink()
    meta_path = tmp_path / "run_meta.json"
    meta = json.loads(meta_path.read_text())
    meta["params"].update(params)
    meta_path.write_text(json.dumps(meta, indent=1))
    with pytest.raises(ValueError, match="trajectory.csv: 10 agents, 0 of them leaders"):
        load_trajectory(tmp_path)


def test_load_trajectory_rejects_reordered_header(tmp_path):
    header, rows = _stored_rows(tmp_path)
    assert header == "k,t,agent,role,x,y,theta,v\n"
    (tmp_path / "trajectory.csv").write_text("k,t,agent,role,y,x,theta,v\n" + "".join(rows))
    with pytest.raises(ValueError, match="header"):
        load_trajectory(tmp_path)
    (tmp_path / "trajectory.csv").write_text(header)
    with pytest.raises(ValueError, match="no rows"):
        load_trajectory(tmp_path)


def test_campaign_single_seed_matches_run():
    cfg = _leaderless_config()
    summary = campaign(cfg, [5])
    single = run(RunConfig(params=cfg.params, steps=cfg.steps, seed=5,
                           audit_level=cfg.audit_level))
    assert len(summary.per_run) == 1
    rec = summary.per_run[0]
    assert rec["seed"] == 5
    assert rec["final_delta_theta"] == single.metrics[-1].delta_theta
    assert rec["sync_index"] == single.sync_index


def test_campaign_permutation_invariant():
    cfg = _leaderless_config()
    a = campaign(cfg, [0, 1, 2, 3])
    b = campaign(cfg, [3, 1, 0, 2])
    assert a.to_dict() == b.to_dict()


def test_campaign_disjoint_seed_lists():
    cfg = _leaderless_config()
    a = campaign(cfg, [0, 1])
    b = campaign(cfg, [2, 3])
    assert {r["seed"] for r in a.per_run}.isdisjoint(r["seed"] for r in b.per_run)


def test_campaign_needs_seeds():
    with pytest.raises(ValueError, match="at least one seed"):
        campaign(_leaderless_config(), [])


@pytest.mark.parametrize("seeds", [[-3, -2, -1], [4, -1], [0, 1.5], [True]])
def test_campaign_checks_every_seed_before_any_run(monkeypatch, seeds):
    ran = []
    monkeypatch.setattr(harness, "run", lambda config: ran.append(config.seed))
    with pytest.raises(ValueError, match="seed must be a"):
        campaign(_leaderless_config(), seeds)
    assert ran == []


def test_campaign_writes_summary(tmp_path):
    campaign(_leaderless_config(), [0, 1], out_dir=tmp_path)
    data = json.loads((tmp_path / "campaign_summary.json").read_text())
    assert data["schema_version"] == 1
    assert len(data["per_run"]) == 2


def test_scenario_fig3_parameters():
    cfg = scenario_fig3()
    assert cfg.params.n == 20
    assert cfg.params.leader_count == 3
    assert cfg.params.v_n == 0.3 and cfg.params.r_n == 0.3 and cfg.params.tau_n == 0.01
    assert cfg.mode == LEADER_DYNAMIC
    np.testing.assert_allclose(cfg.schedule.headings,
                               [0.0, np.pi / 2, 0.0, -np.pi / 2, 0.0])
    assert cfg.schedule.total_variation() == pytest.approx(2 * np.pi)
    assert cfg.params.vartheta == 0.5 and cfg.schedule.epsilon == 0.05
    assert cfg.obstacle == Obstacle(center=(1.5, 0.5), semi_axes=(0.4, 0.25))


def test_obstacle_containment():
    obs = Obstacle(center=(1.0, 0.5), semi_axes=(0.2, 0.1))
    inside = obs.contains(np.array([[1.0, 0.5], [1.1, 0.5]]))
    outside = obs.contains(np.array([[1.25, 0.5], [1.0, 0.7]]))
    assert inside.all() and not outside.any()


def test_run_records_obstacle_diagnostic(tmp_path):
    cfg = _leaderless_config()
    cfg.obstacle = Obstacle(center=(0.5, 0.5), semi_axes=(10.0, 10.0))
    result = run(cfg)
    assert result.meta["obstacle"]["hit_fraction"] == 1.0


def _breadth_first_connected(adjacency) -> bool:
    """Whether agent 0 reaches every agent, one neighbor at a time."""
    seen, frontier = {0}, [0]
    while frontier:
        for j in np.flatnonzero(adjacency[frontier.pop()]).tolist():
            if j not in seen:
                seen.add(j)
                frontier.append(j)
    return len(seen) == len(adjacency)


def test_run_meta_records_run_health(tmp_path):
    # fig3 seed 6 starts connected and loses connectivity at step 125
    cfg = scenario_fig3(seed=6, steps=200)
    cfg.audit_level = "off"
    result = run(cfg, out_dir=tmp_path)
    meta = json.loads((tmp_path / "run_meta.json").read_text())
    adjacency = [build_graph(x, cfg.params.r_n).adjacency for x in result.trajectory.positions]
    connected = [m.connected for m in result.metrics]
    assert connected == [_breadth_first_connected(a) for a in adjacency]
    assert meta["first_disconnected_step"] == 125
    assert all(connected[:125]) and not connected[125]
    assert meta["connected_fraction"] == float(np.mean(connected)) < 1.0
    changes = sum(not np.array_equal(a, b) for a, b in zip(adjacency[1:], adjacency[:-1]))
    assert meta["graph_changes"] == changes > 0


def test_run_meta_health_of_a_connected_run(tmp_path):
    params = ModelParams(n=10, r_n=2.0, v_n=0.05, tau_n=0.01)
    run(RunConfig(params=params, steps=20, seed=0), out_dir=tmp_path)
    meta = json.loads((tmp_path / "run_meta.json").read_text())
    assert meta["first_disconnected_step"] is None
    assert (meta["connected_fraction"], meta["graph_changes"]) == (1.0, 0)


def _oracle_trajectory_csv(traj, path):
    """write_trajectory_csv with numpy scalar indexing, one write per row."""
    roles = ["leader" if x else "follower" for x in traj.leader_mask]
    with open(path, "w", newline="") as fh:
        fh.write("k,t,agent,role,x,y,theta,v\n")
        for k in range(traj.n_steps + 1):
            t = traj.times[k]
            for i in range(len(roles)):
                fh.write(f"{k},{t:.17g},{i},{roles[i]},{traj.positions[k, i, 0]:.17g},"
                         f"{traj.positions[k, i, 1]:.17g},{traj.headings[k, i]:.17g},"
                         f"{traj.speeds[k, i]:.17g}\n")


def test_write_trajectory_csv_matches_per_element_oracle(tmp_path):
    params = ModelParams(n=9, alpha_n=0.3, r_n=0.4, v_n=0.2, tau_n=0.01)
    traj = run(RunConfig(params=params, steps=30, seed=8, mode=LEADER_CONSTANT,
                         reference_heading=-0.4)).trajectory
    write_trajectory_csv(traj, tmp_path / "got.csv")
    _oracle_trajectory_csv(traj, tmp_path / "want.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


EDGE_FLOATS = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e300, np.nan,
                                         np.inf, 0.1]),
                        st.floats(-10.0, 10.0), st.floats())


@st.composite
def _trajectories(draw):
    instants, m = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    params = ModelParams(n=m, r_n=0.5, v_n=0.1, tau_n=0.01)
    return Trajectory(
        times=draw(hnp.arrays(float, instants, elements=EDGE_FLOATS)),
        positions=draw(hnp.arrays(float, (instants, m, 2), elements=EDGE_FLOATS)),
        headings=draw(hnp.arrays(float, (instants, m), elements=EDGE_FLOATS)),
        speeds=draw(hnp.arrays(float, (instants, m), elements=EDGE_FLOATS)),
        leader_mask=draw(hnp.arrays(bool, m)), params=params, controller=LEADER_CONSTANT,
        reference_headings=np.zeros(instants - 1))


def _one_agent(leader):
    values = np.array([[-0.0], [5e-324], [1e300]])
    return Trajectory(times=np.array([0.0, 0.01, 0.02]), positions=np.stack([values, -values], 2),
                      headings=values, speeds=-values, leader_mask=np.array([leader]),
                      params=ModelParams(n=1, r_n=0.5, v_n=0.1, tau_n=0.01),
                      controller=LEADER_CONSTANT, reference_headings=np.zeros(2))


@given(_trajectories())
@example(_one_agent(False))
@example(_one_agent(True))
@settings(max_examples=150, deadline=None)
def test_write_trajectory_csv_matches_per_row_oracle(tmp_path_factory, traj):
    out = tmp_path_factory.mktemp("csv")
    write_trajectory_csv(traj, out / "got.csv")
    trajectory_csv_oracle(traj, out / "want.csv")
    assert (out / "got.csv").read_bytes() == (out / "want.csv").read_bytes()


@pytest.mark.parametrize("params, steps", [
    # the pdist kernel; a chunk holds one instant, so no block discards one
    (ModelParams(n=500, r_n=0.15, v_n=0.05, tau_n=0.01), 100),
    # the numpy kernel; one graph throughout, so no block ends early
    (ModelParams(n=12, r_n=2.0, v_n=0.3, tau_n=0.01), 300),
])
def test_run_computes_each_instants_distances_once(monkeypatch, params, steps):
    # instant 0's distances and graph serve the metrics baseline and the simulation
    chunks = graphs._distance_chunks
    instants = []

    def counting(positions):
        for chunk in chunks(positions):
            instants.append(len(chunk))
            yield chunk

    monkeypatch.setattr(graphs, "_distance_chunks", counting)
    run(RunConfig(params=params, steps=steps, seed=3))
    assert sum(instants) == steps + 1


def test_run_searches_connectivity_once_per_graph(monkeypatch):
    # fig3 seed 6 changes its graph and loses connectivity within 200 steps
    connectivity = metrics.connectivity
    graphs_searched = []

    def counting(graph):
        graphs_searched.append(graph)
        return connectivity(graph)

    monkeypatch.setattr(metrics, "connectivity", counting)
    result = run(scenario_fig3(seed=6, steps=200))
    assert len(graphs_searched) == result.meta["graph_changes"] + 1 > 1


# --- trajectory.npy, the cache of trajectory.csv's parse --------------------

TRAJECTORY_FIELDS = tuple(f.name for f in dataclasses.fields(Trajectory))


@st.composite
def _stored_configs(draw):
    mode = draw(st.sampled_from([LEADERLESS, LEADER_CONSTANT, LEADER_DYNAMIC]))
    n = draw(st.integers(2, 9))
    alpha_n = 0.0 if mode == LEADERLESS else draw(st.sampled_from([0.2, 0.5]))
    params = ModelParams(n=n, alpha_n=alpha_n, r_n=draw(st.sampled_from([0.2, 0.5, 2.0])),
                         v_n=0.1, tau_n=0.02, vartheta=0.5)
    schedule = (ReferenceSchedule(headings=[0.0, 1.0, -0.5], epsilon=0.2)
                if mode == LEADER_DYNAMIC else None)
    return RunConfig(params=params, steps=draw(st.integers(1, 25)),
                     seed=draw(st.integers(0, 2 ** 16)), mode=mode, schedule=schedule,
                     reference_heading=draw(st.sampled_from([0.0, 0.7])))


def _spy_csv_parse(monkeypatch):
    """Records each parse of trajectory.csv by load_trajectory."""
    parsed = []
    parse = harness._parse_trajectory_csv

    def spy(run_dir, meta):
        parsed.append(run_dir)
        return parse(run_dir, meta)

    monkeypatch.setattr(harness, "_parse_trajectory_csv", spy)
    return parsed


def _assert_same_trajectory(got, want):
    """Every field of Trajectory and the reference speed are equal, arrays
    in dtype and value, nan equal to nan."""
    for name in TRAJECTORY_FIELDS + ("reference_speed",):
        a, b = getattr(got, name), getattr(want, name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=a.dtype.kind == "f"), name
        elif isinstance(b, float):
            assert np.array_equal(a, b, equal_nan=True), name
        else:
            assert a == b, name


@given(_stored_configs())
@settings(max_examples=25, deadline=None)
def test_cached_load_equals_csv_load(tmp_path_factory, config):
    out = tmp_path_factory.mktemp("run")
    result = run(config, out_dir=out)
    cached = load_trajectory(out)
    assert all(value.flags.c_contiguous for value in vars(cached).values()
               if isinstance(value, np.ndarray))
    (out / "trajectory.npy").unlink()
    parsed = load_trajectory(out)
    _assert_same_trajectory(cached, parsed)
    # the stored run restores the trajectory it wrote, but for the reference
    # headings of a leader_dynamic run, which no stored file records yet
    # (ROADMAP item 3)
    written = result.trajectory
    if config.mode == LEADER_DYNAMIC:
        assert np.isnan(cached.reference_headings).all()
        written = dataclasses.replace(written, reference_headings=cached.reference_headings)
    _assert_same_trajectory(cached, written)
    got, want = recursion_audit(cached), recursion_audit(parsed)
    assert np.array_equal(got.slacks, want.slacks) and got.verdicts == want.verdicts
    assert geometric_envelope_audit(cached).to_dict() == geometric_envelope_audit(parsed).to_dict()


def test_run_meta_records_both_trajectory_digests(tmp_path, monkeypatch):
    result = run(_leaderless_config(), out_dir=tmp_path)
    meta = json.loads((tmp_path / "run_meta.json").read_text())
    digests = meta.pop("trajectory_sha256")
    assert meta == json.loads(json.dumps(result.meta))  # result.meta itself gains no key
    assert "trajectory_sha256" not in result.meta
    assert digests == {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                       for name in ("trajectory.csv", "trajectory.npy")}
    values = np.load(tmp_path / "trajectory.npy")
    traj = result.trajectory
    assert values.dtype == np.float64 and values.flags.c_contiguous
    assert np.array_equal(values, np.concatenate(
        [traj.positions, traj.headings[..., None], traj.speeds[..., None]], axis=2))
    parsed = _spy_csv_parse(monkeypatch)
    load_trajectory(tmp_path)
    assert parsed == []


def test_written_npy_is_np_save_bytes_hashed_as_written(tmp_path):
    result = run(_leaderless_config(), out_dir=tmp_path)
    traj, saved = result.trajectory, io.BytesIO()
    np.save(saved, np.concatenate([traj.positions, traj.headings[..., None],
                                   traj.speeds[..., None]], axis=2))
    data = (tmp_path / "trajectory.npy").read_bytes()
    assert data == saved.getvalue()
    meta = json.loads((tmp_path / "run_meta.json").read_text())
    assert meta["trajectory_sha256"]["trajectory.npy"] == hashlib.sha256(data).hexdigest()


def test_cached_load_opens_the_npy_once(tmp_path, monkeypatch):
    # the array is parsed from the bytes that were hashed, so the file that
    # is read cannot differ from the one that matched the digest
    result = run(_leaderless_config(), out_dir=tmp_path)
    opened, open_file = [], builtins.open

    def counting(file, *args, **kwargs):
        opened.append(Path(file).name if isinstance(file, (str, Path)) else file)
        return open_file(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting)
    monkeypatch.setattr(io, "open", counting)
    parsed = _spy_csv_parse(monkeypatch)
    loaded = load_trajectory(tmp_path)
    assert parsed == [] and opened.count("trajectory.npy") == 1
    _assert_same_trajectory(loaded, result.trajectory)
    assert all(value.flags.writeable for value in vars(loaded).values()
               if isinstance(value, np.ndarray))


def test_npy_with_a_flipped_data_byte_falls_back_to_the_csv(tmp_path, monkeypatch):
    result = run(_leaderless_config(), out_dir=tmp_path)
    path = tmp_path / "trajectory.npy"
    data = bytearray(path.read_bytes())
    data[-3] ^= 0x10  # a high mantissa byte of the last speed
    path.write_bytes(bytes(data))
    parsed = _spy_csv_parse(monkeypatch)
    loaded = load_trajectory(tmp_path)
    assert parsed == [tmp_path]
    _assert_same_trajectory(loaded, result.trajectory)


def test_edited_csv_is_loaded_though_the_npy_is_present(tmp_path, monkeypatch):
    result = run(_leaderless_config(), out_dir=tmp_path)
    path = tmp_path / "trajectory.csv"
    header, *rows = path.read_text().splitlines(keepends=True)
    k, t, agent, role, x, *rest = rows[13].split(",")
    digit = next(i for i, c in enumerate(x) if c in "123456789" and i > 2)
    edited_x = x[:digit] + str(int(x[digit]) % 9 + 1) + x[digit + 1:]
    rows[13] = ",".join([k, t, agent, role, edited_x, *rest])
    path.write_text(header + "".join(rows))
    parsed = _spy_csv_parse(monkeypatch)
    loaded = load_trajectory(tmp_path)
    assert parsed == [tmp_path]
    want = result.trajectory.positions.copy()
    want[int(k), int(agent), 0] = float(edited_x)
    assert float(edited_x) != float(x) and np.array_equal(loaded.positions, want)


def test_edited_npy_alone_falls_back_to_the_csv(tmp_path, monkeypatch):
    result = run(_leaderless_config(), out_dir=tmp_path)
    path = tmp_path / "trajectory.npy"
    values = np.load(path)
    values[3, 2, 0] += 0.25
    np.save(path, values)
    parsed = _spy_csv_parse(monkeypatch)
    loaded = load_trajectory(tmp_path)
    assert parsed == [tmp_path]
    assert np.array_equal(loaded.positions, result.trajectory.positions)


def test_run_dir_without_digests_loads_through_the_csv(tmp_path, monkeypatch):
    result = run(_leaderless_config(), out_dir=tmp_path)
    meta_path = tmp_path / "run_meta.json"
    meta = json.loads(meta_path.read_text())
    del meta["trajectory_sha256"]
    meta_path.write_text(json.dumps(meta, indent=1))
    parsed = _spy_csv_parse(monkeypatch)
    loaded = load_trajectory(tmp_path)
    assert parsed == [tmp_path]
    assert np.array_equal(loaded.speeds, result.trajectory.speeds)
    (tmp_path / "trajectory.npy").unlink()
    load_trajectory(tmp_path)
    assert parsed == [tmp_path] * 2


@pytest.mark.parametrize("values", [np.zeros((21, 10, 3)), np.zeros((20, 10, 4)),
                                    np.zeros((21, 10, 4), dtype=np.float32),
                                    np.zeros((21, 10, 4), dtype=np.int64)])
def test_digest_matching_npy_of_the_wrong_shape_or_dtype_is_an_error(tmp_path, capsys, values):
    run(_leaderless_config(steps=20), out_dir=tmp_path)
    path = tmp_path / "trajectory.npy"
    np.save(path, values)
    meta_path = tmp_path / "run_meta.json"
    meta = json.loads(meta_path.read_text())
    meta["trajectory_sha256"]["trajectory.npy"] = hashlib.sha256(path.read_bytes()).hexdigest()
    meta_path.write_text(json.dumps(meta, indent=1))
    with pytest.raises(ValueError, match="trajectory.npy"):
        load_trajectory(tmp_path)
    assert main(["audit", "--traj", str(tmp_path)]) == EXIT_CONFIG
    assert "trajectory.npy" in capsys.readouterr().err
