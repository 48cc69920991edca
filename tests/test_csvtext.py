"""The numpy '%.17g' formatter of the CSV writers, against Python's own."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from uniswarm import ModelParams, _csvtext
from uniswarm.dynamics import LEADER_CONSTANT, Trajectory
from uniswarm.harness import write_trajectory_csv
from uniswarm.metrics import StepMetrics, write_metrics_csv

from conftest import trajectory_csv_oracle


def _g17(values) -> list[str]:
    """Each value's text from g17_fields, NULs dropped."""
    values = np.asarray(values, dtype=float)
    out = np.zeros(values.shape + (_csvtext.FIELD,), dtype=np.uint8)
    _csvtext.g17_fields(values, out)
    return [bytes(field).replace(b"\0", b"").decode() for field in out.reshape(-1, _csvtext.FIELD)]


def _assert_matches_python(values) -> None:
    values = np.asarray(values, dtype=float)
    assert _g17(values) == ["%.17g" % x for x in values.tolist()]


def _bits(x: float) -> int:
    return int(np.float64(x).view(np.int64))


# 10**k and both neighbours, the values whose log10 can be one decade off
_DECADES = [y for k in range(-6, 18) for x in [float(f"1e{k}")]
            for y in (x, math.nextafter(x, 0.0), math.nextafter(x, math.inf))]
# 16-digit numbers whose 17th digit is an exact tie: the digit before the
# tie is even, so it rounds down after .25 and up after .75
_TIES = [i + f for i in (10 ** 15, 1234567890123456, 2 ** 51 - 1) for f in (0.25, 0.75)]
# the first row lies off numpy's range 1e-4 <= |x| < 1e16: Python formats it
_FIXED = ([0.0, math.nan, math.inf, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
           9.9999999999999999e-5] + _DECADES + _TIES)


@pytest.mark.parametrize("x", _FIXED + [-x for x in _FIXED], ids=repr)
def test_fixed_values_match_python(x):
    _assert_matches_python([x])


@given(hnp.arrays(np.float64, st.integers(1, 64), elements=st.floats()))
@settings(max_examples=200, deadline=None)
def test_floats_match_python(values):
    _assert_matches_python(values)


@given(hnp.arrays(np.int64, st.integers(1, 64)))
@settings(max_examples=200, deadline=None)
def test_any_bit_pattern_matches_python(bits):
    _assert_matches_python(bits.view(np.float64))


@given(hnp.arrays(np.int64, st.integers(1, 64),
                  elements=st.integers(_bits(1e-4), _bits(1e16) - 1)),
       hnp.arrays(bool, 64))
@example(np.array([_bits(x) for x in _DECADES if 1e-4 <= x < 1e16]), np.zeros(64, dtype=bool))
@settings(max_examples=300, deadline=None)
def test_bit_patterns_of_the_numpy_range_match_python(bits, negative):
    values = bits.view(np.float64)
    values[negative[:len(values)]] *= -1
    _assert_matches_python(values)


@given(st.lists(st.integers(10 ** 15, 2 ** 51 - 1), min_size=1, max_size=32),
       st.sampled_from([0.25, 0.75]))
@settings(max_examples=100, deadline=None)
def test_ties_match_python(integers, fraction):
    _assert_matches_python([i + fraction for i in integers])


def _random_trajectory(instants: int, m: int, seed: int) -> Trajectory:
    """Values on and off the numpy range, headings partly converged to 0."""
    rng = np.random.default_rng(seed)
    scales = 10.0 ** rng.integers(-12, 3, (instants, m, 4))
    values = rng.standard_normal((instants, m, 4)) * scales
    values[rng.random((instants, m, 4)) < 0.01] = 0.0
    return Trajectory(times=np.arange(instants) * 0.01, positions=values[..., :2].copy(),
                      headings=values[..., 2].copy(), speeds=values[..., 3].copy(),
                      leader_mask=rng.random(m) < 0.3,
                      params=ModelParams(n=m, r_n=0.5, v_n=0.1, tau_n=0.01),
                      controller=LEADER_CONSTANT, reference_headings=np.zeros(instants - 1),
                      reference_speed=0.1, connected=np.ones(instants, dtype=bool))


@pytest.mark.parametrize("instants, m", [
    # two full blocks of instants and one partial block
    (2 * (_csvtext._BLOCK_VALUES // (23 * 4)) + 5, 23),
    # more agents than one block holds: one instant per block
    (3, _csvtext._BLOCK_VALUES // 4 + 7)])
def test_write_trajectory_csv_across_blocks(tmp_path, instants, m):
    traj = _random_trajectory(instants, m, seed=instants)
    write_trajectory_csv(traj, tmp_path / "got.csv")
    trajectory_csv_oracle(traj, tmp_path / "want.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def _metrics_csv_oracle(rows, path) -> None:
    """write_metrics_csv as one f-string per row."""
    with open(path, "w", newline="") as fh:
        fh.write("k,delta_theta,delta_v,tracking_theta,tracking_v,drift,p_dev,alpha_drift,"
                 "connected\n")
        for r in rows:
            fh.write(f"{r.k},{r.delta_theta:.17g},{r.delta_v:.17g},{r.tracking_theta:.17g},"
                     f"{r.tracking_v:.17g},{r.max_distance_drift:.17g},{r.p_deviation:.17g},"
                     f"{r.alpha_drift:.17g},{int(r.connected)}\n")


@pytest.mark.parametrize("count", [0, 1, 2 * (_csvtext._BLOCK_VALUES // 9) + 3])
def test_write_metrics_csv_matches_per_row_oracle(tmp_path, count):
    rng = np.random.default_rng(count)
    values = rng.standard_normal((count, 7)) * 10.0 ** rng.integers(-8, 3, (count, 7))
    values[:, 2:4] = np.nan  # tracking errors without a reference
    values[rng.random((count, 7)) < 0.05] = 0.0
    rows = [StepMetrics(k, *map(float, row), bool(rng.random() < 0.9))
            for k, row in enumerate(values)]
    write_metrics_csv(rows, tmp_path / "got.csv")
    _metrics_csv_oracle(rows, tmp_path / "want.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
