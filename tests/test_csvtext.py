"""The numpy '%.17g' formatter of the CSV writers, against Python's own."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from uniswarm import ModelParams, _csvtext, run
from uniswarm.dynamics import LEADER_CONSTANT, Trajectory
from uniswarm.harness import scenario_fig3, write_trajectory_csv
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


def _neighbours(x: float) -> list[float]:
    return [math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)]


def test_every_decade_matches_python():
    # 10**k and both neighbours for every k a double reaches: log10 can be
    # one decade off there, and X can round up to 1e16 or 1e17
    values = [y for k in range(-323, 309) for y in _neighbours(float(f"1e{k}"))]
    _assert_matches_python(values + [-x for x in values])


# where the notation switches: subnormals, exponent notation below 1e-4,
# fixed notation from 1e-4 to below 1e17, exponent notation from 1e17 on
_SWITCHES = ([0.0, 5e-324, 2.0 ** -1022, math.nextafter(2.0 ** -1022, 0.0), 1e-4, 1e16, 1e17,
              1.7976931348623157e308] + _neighbours(2.0 ** -1022) + _neighbours(1e-4)
             + _neighbours(1e16) + _neighbours(1e17)
             + [1e16 + 2.0 * i for i in range(1, 6)] + [1e17 - 16.0 * i for i in range(1, 6)])


def test_notation_switches_match_python():
    _assert_matches_python(_SWITCHES + [-x for x in _SWITCHES])
    assert _g17([1e16, 9.9999999999999984e16, 1e17]) == [
        "10000000000000000", "99999999999999984", "1e+17"]


def test_signed_zeros_and_nan_match_python():
    negative_nan = np.copysign(math.nan, -1.0)
    assert np.signbit(negative_nan)
    _assert_matches_python([0.0, -0.0, math.nan, negative_nan, math.inf, -math.inf])
    assert _g17([-0.0, negative_nan, -math.inf]) == ["-0", "nan", "-inf"]


def _exponent(x: float) -> int:
    """The decimal exponent that '%.17g' prints for x, with 17 digits."""
    return int(("%.16e" % x).split("e")[1])


def _exact_ties() -> list[float]:
    """Every positive double x whose X = x * 10**(16 - e) is a half-integer
    while 10**q, q = 16 - e, is not an exact double.  For q > 22, X is then
    m * 5**q / 2 for an odd m < 2**53, which needs 5**q < 2e17: q <= 24.
    For q < 0, x = 2X * 10**-q / 2 would need the odd factor 2X * 5**-q,
    at least 1e17, below 2**53: there are none."""
    ties = []
    for q in range(23, 30):
        for m in range(1, 2 ** 53, 2):
            x = float(Fraction(m, 2 ** (q + 1)))
            if m * 5 ** q >= 2 * 10 ** 17:
                break
            if m * 5 ** q >= 2 * 10 ** 16:
                ties.append(x)
    for x in ties:
        X = Fraction(x) * 10 ** (16 - _exponent(x))
        assert X.denominator == 2 and 10 ** 16 <= X < 10 ** 17
    return ties


_EXACT_TIES = _exact_ties()


def _near_ties() -> list[float]:
    """Doubles x = m / 2**(s + q) with X = m * 5**q / 2**s within 1 or 2
    units of 2**-s of a half-integer, for 23 <= q <= 46 and s <= 53, found
    by solving m * 5**q = 2**(s - 1) + d (mod 2**s) for m."""
    values = []
    for q in range(23, 47):
        for s in range(40, 54):
            inverse = pow(5 ** q, -1, 2 ** s)
            least = -(-10 ** 16 * 2 ** s // 5 ** q)
            most = min(10 ** 17 * 2 ** s // 5 ** q, 2 ** 53 - 1)
            for d in (-2, -1, 1, 2):
                m = (2 ** (s - 1) + d) * inverse % 2 ** s
                m += max(0, -(-(least - m) // 2 ** s)) * 2 ** s
                if m <= most:
                    values.append(float(Fraction(m, 2 ** (s + q))))
    return values


_NEAR_TIES = _near_ties()


def test_exact_ties_match_python():
    # 5 * 2**-24 = 2.98023223876953125e-07 rounds to even, ...312
    assert 5 * 2.0 ** -24 in _EXACT_TIES and len(_EXACT_TIES) == 9
    assert _g17([5 * 2.0 ** -24]) == ["2.9802322387695312e-07"]
    _assert_matches_python(_EXACT_TIES + [-x for x in _EXACT_TIES])


def test_near_ties_match_python():
    assert len(_NEAR_TIES) > 100
    _assert_matches_python(_NEAR_TIES + [-x for x in _NEAR_TIES])


def _tie_distance(x: float) -> Fraction:
    """|frac(X) - 1/2| for X = |x| * 10**(16 - e), exactly."""
    X = abs(Fraction(x)) * Fraction(10) ** (16 - _exponent(x))
    return abs(X - X.numerator // X.denominator - Fraction(1, 2))


def _python_values(monkeypatch) -> list[float]:
    """The values that g17_fields hands to Python's '%', from now on."""
    handed = []
    python_words = _csvtext._python_words

    def recording(values):
        handed.extend(values.tolist())
        return python_words(values)

    monkeypatch.setattr(_csvtext, "_python_words", recording)
    return handed


def test_python_formats_the_exact_ties_and_only_near_ties(monkeypatch):
    handed = _python_values(monkeypatch)
    _g17(_EXACT_TIES + _NEAR_TIES + _SWITCHES)
    assert set(_EXACT_TIES) <= set(handed)
    assert all(_tie_distance(x) <= 2 ** -47 for x in handed)


def test_writing_fig3_hands_python_only_near_ties(tmp_path, monkeypatch):
    # about 21% of the scenario's values are headings below 1e-4
    traj = run(scenario_fig3(seed=1)).trajectory
    assert (np.abs(traj.headings) < 1e-4).mean() > 0.2
    handed = _python_values(monkeypatch)
    write_trajectory_csv(traj, tmp_path / "trajectory.csv")
    assert all(_tie_distance(x) <= 2 ** -47 for x in handed)
    assert len(handed) == 0


@given(hnp.arrays(np.int64, 64))
@example(np.array([_bits(x) for x in _EXACT_TIES + _NEAR_TIES[:55]]))
@settings(max_examples=50, deadline=None)
def test_remainder_is_within_the_tie_band_bound(bits):
    # p + lo, returned as n17 + remainder, differs from X = a * 10**q by at
    # most the three roundings of 2**-49 each that _TIE allows for
    a = np.abs(bits.view(np.float64))
    a = a[(a > 0) & (a < np.inf)]
    q = np.array([16 - _exponent(x) for x in a.tolist()], dtype=np.int64)
    n17, remainder = _csvtext._digits17(a, q)
    for x, k, n, r in zip(a.tolist(), q.tolist(), n17.tolist(), remainder.tolist()):
        X = Fraction(x) * Fraction(10) ** k
        assert abs(n + Fraction(r) - X) <= 3 * Fraction(2) ** -49


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
                      controller=LEADER_CONSTANT, reference_headings=np.zeros(instants - 1))


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
