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


@pytest.fixture
def small_params():
    return ModelParams(n=10, r_n=0.5, v_n=0.1, tau_n=0.01)
