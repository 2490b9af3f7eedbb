"""Schedule quantities and eigenvalue-power expansion checks."""

import math

import numpy as np
import pytest

from blmix import (ChainParams, Eigenfunction, ExpansionReport, assumption_report,
                   eigen_eval, f2_asymptotic_check, floor_k, lemma2_expansion,
                   make_schedule)
from blmix.errors import ParameterError


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
    rep = lemma2_expansion(s, Eigenfunction.F1, 6)
    assert rep.exact == rep.corrected
    rep0 = lemma2_expansion(s, Eigenfunction.F3, 0)
    assert rep0.exact == rep0.leading == rep0.corrected == 1.0
    s = make_schedule(1000, 251, 0.25)
    rep = lemma2_expansion(s, Eigenfunction.F1, 5)
    assert abs(rep.residual) <= 10 * (5 * s.delta_n) ** 2 * 0.5**5


def test_expansion_hypothesis_flag():
    s = make_schedule(1000, 251, 0.25)
    assert not lemma2_expansion(s, Eigenfunction.F1, 4).outside_hypothesis
    assert lemma2_expansion(s, Eigenfunction.F1, 40).outside_hypothesis
    for t in (-1, math.nan, 2.5, True):
        with pytest.raises(ParameterError):
            lemma2_expansion(s, Eigenfunction.F1, t)


def test_expansion_exact_matches_eigenvalue_power():
    s = make_schedule(640, 176, 0.3)
    for which in Eigenfunction:
        rep = lemma2_expansion(s, which, 7)
        assert rep.exact == pytest.approx(
            eigen_eval(ChainParams(640, 176), which, 176) ** 7, rel=1e-12)
        assert rep.residual == rep.exact - rep.corrected


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
            rep = lemma2_expansion(s, Eigenfunction.F1, t)
            xs.append(math.log((t * s.delta_n) ** 2))
            ys.append(math.log(abs(rep.residual) / (1 - 2 * lam) ** t))
    slope = np.polyfit(xs, ys, 1)[0]
    assert 0.8 <= slope <= 1.2


# ------------------------------------------------------- assumption reporting

def test_assumption_report_floor_rule_vanishes():
    ns = [101, 1001, 10_001, 100_001]  # floor rule leaves a nonzero remainder
    rows = assumption_report(ns, lambda n: floor_k(n, 0.25), 0.25, 0.3)
    diag = [abs(r.delta_n_log_n) for r in rows]
    assert all(r.ratio_in_band for r in rows)
    assert all(d <= math.log(r.n) / r.n for d, r in zip(diag, rows))
    assert diag[-1] < diag[0]


def test_assumption_report_slow_family_flagged():
    ns = [100, 1000, 10_000, 100_000]
    rows = assumption_report(
        ns, lambda n: math.floor(0.25 * n + n / math.log(n)), 0.25, 0.45)
    for r in rows:
        assert 0.8 <= r.delta_n_log_n <= 1.05


def test_assumption_report_band_violation_and_mapping():
    rows = assumption_report([10, 20], {10: 5, 20: 4}, 0.25, 0.3)
    assert not rows[0].ratio_in_band  # k/n = 1/2 >= delta
    assert rows[1].ratio_in_band
    with pytest.raises(ParameterError):
        assumption_report([20, 10], {10: 2, 20: 4}, 0.25, 0.3)


# --------------------------------------------------------- quadratic decay

def test_f2_asymptotic_examples():
    # dead center (even n): the exact floor value -1/(2n-2)
    for n in (10, 100, 1000):
        rows = f2_asymptotic_check([n], 0.0, lambda m: 0)
        assert rows[0]["value"] == pytest.approx(-1 / (2 * n - 2), rel=1e-9)
        assert abs(rows[0]["value"]) * n <= 1.0
    # sqrt(n) offsets: n * f2 stays bounded
    rows = f2_asymptotic_check([100, 10_000, 1_000_000], 0.0,
                               lambda n: math.sqrt(n))
    scaled = [abs(r["value"]) * r["n"] for r in rows]
    assert max(scaled) / min(scaled) < 10
    # starting exactly at 0 the eigenfunction equals 1
    rows = f2_asymptotic_check([50], 0.0, lambda n: -n / 2)
    assert rows[0]["value"] == 1.0
