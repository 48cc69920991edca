import numpy as np
import pytest

from uniswarm import ModelParams, SwarmState


def make_state(m: int, seed: int, leader_count: int = 0, spread: float = 1.0,
               v_max: float = 0.3) -> SwarmState:
    """Random swarm state on [0, spread]^2 for unit tests."""
    rng = np.random.default_rng(seed)
    leader_mask = np.zeros(m, dtype=bool)
    if leader_count:
        leader_mask[-leader_count:] = True
    return SwarmState(positions=rng.random((m, 2)) * spread,
                      headings=rng.uniform(-np.pi, np.pi, m),
                      speeds=rng.uniform(0.0, v_max, m),
                      leader_mask=leader_mask)


def matrix_deviation(p_now: np.ndarray, p_initial: np.ndarray) -> float:
    """Spectral norm ||P(t_k) - P(0)||: the dense oracle of step_metrics' p_deviation."""
    p_now = np.asarray(p_now, dtype=float)
    p_initial = np.asarray(p_initial, dtype=float)
    if p_now.shape != p_initial.shape:
        raise ValueError(f"dimension mismatch: {p_now.shape} vs {p_initial.shape}")
    return float(np.linalg.norm(p_now - p_initial, 2))


def held_average_oracle(values: np.ndarray, adjacency: np.ndarray) -> np.ndarray:
    """Each agent's neighbor mean, one row of the bool ``adjacency`` at a
    time: the row's neighbors in index order, added by a reduceat over that
    row alone, as graphs.neighbor_sums adds them (a BLAS product adds them in
    an order of its own, which changes the last bits).  An agent without
    neighbors holds its value."""
    out = np.array(values, dtype=float)
    for i, row in enumerate(adjacency):
        neighbors = np.flatnonzero(row)
        if len(neighbors):
            out[i] = np.add.reduceat(values[neighbors], [0])[0] / len(neighbors)
    return out


def envelope_integral_oracle(values_k: np.ndarray, values_k1: np.ndarray, tau: float,
                             substeps: int) -> np.ndarray:
    """metrics._envelope_integral as one (B, S+1, m) array: the oracle of the
    substep loop, with the same arithmetic per element."""
    s = np.linspace(0.0, 1.0, substeps + 1)[:, None]
    interp = (1.0 - s) * values_k[:, None, :]  # (B, S+1, m)
    interp += s * values_k1[:, None, :]
    envelope = interp.max(axis=2) - interp.min(axis=2)
    return np.trapezoid(envelope, dx=1.0 / substeps, axis=1) * tau


def trajectory_csv_oracle(traj, path) -> None:
    """harness.write_trajectory_csv with one f-string per row and a join per
    instant: the oracle of the per-agent row templates."""
    agents = [f"{i},{('follower', 'leader')[int(x)]}," for i, x in enumerate(traj.leader_mask)]
    with open(path, "w", newline="") as fh:
        fh.write("k,t,agent,role,x,y,theta,v\n")
        for k, t in enumerate(traj.times.tolist()):
            prefix = f"{k},{t:.17g},"
            fh.write("".join(
                f"{prefix}{agent}{x:.17g},{y:.17g},{theta:.17g},{v:.17g}\n"
                for agent, (x, y), theta, v in zip(agents, traj.positions[k].tolist(),
                                                   traj.headings[k].tolist(),
                                                   traj.speeds[k].tolist())))


@pytest.fixture
def small_params():
    return ModelParams(n=10, r_n=0.5, v_n=0.1, tau_n=0.01)
