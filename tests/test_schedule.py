"""Schedule quantities, with the eigenvalue-power expansion, the swap-count
assumption and the quadratic eigenfunction's decay checked numerically."""

import math

import numpy as np
import pytest

from blmix import ChainParams, Eigenfunction, eigen_eval, floor_k, make_schedule
from blmix.errors import ParameterError


def lemma2_expansion(s, which, t):
    """``(exact, leading, corrected)``: the eigenvalue power beta^t, its
    limit-rate value beta(lam)^t, and that value with the first-order
    deviation correction."""
    lam = s.lam
    base, delta = {
        Eigenfunction.F1: (1.0 - 2.0 * lam, s.delta_n),
        Eigenfunction.F2: ((1.0 - 2.0 * lam) ** 2, s.delta_prime),
        Eigenfunction.F3: (1.0 - 2.0 * lam + 2.0 * lam * lam, s.delta_dprime),
    }[which]
    leading = base ** t
    return (eigen_eval(ChainParams(s.n, s.k), which, s.k) ** t, leading,
            leading * (1.0 - 2.0 * t * delta / (1.0 - 2.0 * lam)))


def assumption(n, k, lam, delta):
    """Whether k/n lies in the band (0, delta), and delta_n log n, which
    should trend to 0 for a valid family k(n)."""
    return 0 < k / n < delta, (k / n - lam) * math.log(n)


def f2_near_half(n, zeta):
    """The quadratic eigenfunction at n/2 + zeta."""
    return eigen_eval(ChainParams(n, 0), Eigenfunction.F2, n / 2 + zeta)


def test_make_schedule_frozen_values():
    s = make_schedule(10_000, 2500, 0.25)
    assert s.t_n == pytest.approx(math.log(10_000) / (2 * math.log(2)), rel=1e-12)
    assert s.t_n == pytest.approx(6.6439, abs=5e-5)
    assert s.s_n == pytest.approx(4 * math.log(math.log(10_000)), rel=1e-12)
    assert s.s_n == pytest.approx(8.8813, abs=5e-5)
    assert s.p_lambda == pytest.approx(8 * math.log(0.5), rel=1e-12)
    assert s.delta_n == 0.0
    assert s.delta_dprime == pytest.approx(0.0, abs=1e-15)


def test_make_schedule_validation():
    with pytest.raises(ParameterError):
        make_schedule(2, 1, 0.25)
    with pytest.raises(ParameterError):
        make_schedule(100, 25, 0.5)
    with pytest.raises(ParameterError):
        make_schedule(100, 25, 0.0)
    with pytest.raises(ParameterError):
        make_schedule(100, 120, 0.25)


def test_floor_k():
    assert floor_k(1000, 0.25) == 250
    assert floor_k(1001, 0.25) == 250
    assert make_schedule(1000, floor_k(1000, 0.25), 0.25).delta_n == 0.0
    assert floor_k(np.int64(1000), 0.25) == 250
    assert (floor_k(7, 0.0), floor_k(7, 1.0)) == (0, 7)


@pytest.mark.parametrize("n,lam", [
    (100, math.nan), (100, math.inf), (100, -math.inf), (100, -0.1),
    (100, 1.5), (2.5, 0.25), (True, 0.25), (100.0, 0.25), (0, 0.25)])
def test_floor_k_refuses_bad_inputs(n, lam):
    """A non-finite or out-of-range lam and an n that is not a positive
    integer are refused, not rounded or left to escape as another error."""
    with pytest.raises(ParameterError):
        floor_k(n, lam)


@pytest.mark.parametrize("lam", [0.1, 0.25, 0.4])
def test_deviation_inequalities(lam):
    """|delta'| <= 2|delta| + 5/n and |delta''| <= |delta| across a grid."""
    for n in (50, 137, 1000, 4096):
        for dk in (-3, 0, 2):
            k = min(n, max(0, floor_k(n, lam) + dk))
            s = make_schedule(n, k, lam)
            assert abs(s.delta_prime) <= 2 * abs(s.delta_n) + 5.0 / n
            assert abs(s.delta_dprime) <= abs(s.delta_n) + 1e-15


def test_schedule_growth_and_r_n_identity():
    schedules = [make_schedule(n, floor_k(n, 0.3), 0.3)
                 for n in (10, 100, 1000, 10_000, 100_000)]
    t_ns = [s.t_n for s in schedules]
    s_ns = [s.s_n for s in schedules]
    assert np.all(np.diff(t_ns) > 0) and np.all(np.diff(s_ns) > 0)
    for s in schedules:
        assert s.r_n / math.sqrt(s.n) == pytest.approx(
            math.log(s.n) ** (abs(s.p_lambda) / 2), rel=1e-12)


# ---------------------------------------------------------------- expansions

def test_expansion_frozen_examples():
    s = make_schedule(1000, 250, 0.25)  # lam*n integer: zero deviation
    exact, _, corrected = lemma2_expansion(s, Eigenfunction.F1, 6)
    assert exact == corrected
    assert lemma2_expansion(s, Eigenfunction.F3, 0) == (1.0, 1.0, 1.0)
    s = make_schedule(1000, 251, 0.25)
    exact, _, corrected = lemma2_expansion(s, Eigenfunction.F1, 5)
    assert abs(exact - corrected) <= 10 * (5 * s.delta_n) ** 2 * 0.5**5


def test_expansion_hypothesis_flag():
    """The expansion holds for t <= t_n: t = 4 lies inside, t = 40 not."""
    s = make_schedule(1000, 251, 0.25)
    assert 4 <= s.t_n < 40


def test_expansion_exact_matches_eigenvalue_power():
    s = make_schedule(640, 176, 0.3)
    for which in Eigenfunction:
        exact, _, _ = lemma2_expansion(s, which, 7)
        assert exact == pytest.approx(
            eigen_eval(ChainParams(640, 176), which, 176) ** 7, rel=1e-12)


def test_expansion_residual_second_order_rate():
    """The residual after the first-order correction scales like the squared
    deviation term: fitted log-log slope against (t*delta_n)^2 near 1."""
    lam = 0.25
    xs, ys = [], []
    for n in (101, 203, 407, 811, 1601, 3203):
        s = make_schedule(n, floor_k(n, lam), lam)
        if s.delta_n == 0.0:
            continue
        for t in (2, 3, 5):
            exact, _, corrected = lemma2_expansion(s, Eigenfunction.F1, t)
            xs.append(math.log((t * s.delta_n) ** 2))
            ys.append(math.log(abs(exact - corrected) / (1 - 2 * lam) ** t))
    slope = np.polyfit(xs, ys, 1)[0]
    assert 0.8 <= slope <= 1.2


# ------------------------------------------------------- assumption reporting

def test_assumption_report_floor_rule_vanishes():
    ns = [101, 1001, 10_001, 100_001]  # floor rule leaves a nonzero remainder
    rows = [assumption(n, floor_k(n, 0.25), 0.25, 0.3) for n in ns]
    diag = [abs(d) for _, d in rows]
    assert all(in_band for in_band, _ in rows)
    assert all(d <= math.log(n) / n for d, n in zip(diag, ns))
    assert diag[-1] < diag[0]


def test_assumption_report_slow_family_flagged():
    for n in [100, 1000, 10_000, 100_000]:
        k = math.floor(0.25 * n + n / math.log(n))
        assert 0.8 <= assumption(n, k, 0.25, 0.45)[1] <= 1.05


def test_assumption_report_band_violation_and_mapping():
    assert not assumption(10, 5, 0.25, 0.3)[0]  # k/n = 1/2 >= delta
    assert assumption(20, 4, 0.25, 0.3)[0]


# --------------------------------------------------------- quadratic decay

def test_f2_asymptotic_examples():
    # dead center (even n): the exact floor value -1/(2n-2)
    for n in (10, 100, 1000):
        assert f2_near_half(n, 0) == pytest.approx(-1 / (2 * n - 2), rel=1e-9)
        assert abs(f2_near_half(n, 0)) * n <= 1.0
    # sqrt(n) offsets: n * f2 stays bounded
    scaled = [abs(f2_near_half(n, math.sqrt(n))) * n
              for n in (100, 10_000, 1_000_000)]
    assert max(scaled) / min(scaled) < 10
    # starting exactly at 0 the eigenfunction equals 1
    assert f2_near_half(50, -25.0) == 1.0
