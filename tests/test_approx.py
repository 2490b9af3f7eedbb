"""Discrete-normal surrogate quality and the one-step TV decomposition,
with the central-window and shift-split steps of the one-step bound's proof
checked numerically."""

import math

import numpy as np
import pytest

from blmix import (ApproxParams, ChainParams, FourChainSetup,
                   discrete_normal_pmf, hyper_vs_dnormal_tv, hypergeom_pmf,
                   normalization_constant, one_step_tv, tv_distance)
from blmix.pmf import discrete_normal_norm_const
from blmix.errors import LAW_GUARD, InfeasibleSizeError, ParameterError


def window_constants(ap):
    """The central window's constants ``(f_bar, a, delta_win, left,
    right)``: [left, right] are the first and last support points j with
    |j - kp| <= delta_win sigma^2 on their side of kp."""
    f_bar = min(ap.f, 1.0 - ap.f)
    a = (f_bar + 4.0) / (4.0 * (1.0 - f_bar))
    delta_win = 1.0 / (10.0 * max(a, 2.0))
    z = (np.arange(ap.k + 1) - ap.k * ap.p) / ap.sigma
    return (f_bar, a, delta_win, np.nonzero(z >= -delta_win * ap.sigma)[0][0],
            np.nonzero(z <= delta_win * ap.sigma)[0][-1])


def central_region_check(ap, x_grid):
    """Per x of the grid: ``(j_upper, partial, constant)``, the sum
    ``partial`` of |hypergeometric - discrete normal| over the window's
    left end to j_upper = floor(kp - x sigma), and its ratio to the shape
    (1 + x^2) exp(-0.07 x^2) / (sigma (1 - f))."""
    left = window_constants(ap)[3]
    gap = np.abs(hypergeom_pmf(ap.hyper_params()).dense_on(0, ap.k)
                 - discrete_normal_pmf(ap.dnormal_params()).dense_on(0, ap.k))
    rows = []
    for x in x_grid:
        j_upper = math.floor(ap.k * ap.p - x * ap.sigma)
        partial = gap[left:j_upper + 1].sum()
        shape = (1.0 + x * x) * math.exp(-0.07 * x * x) / (ap.sigma
                                                          * (1.0 - ap.f))
        rows.append((j_upper, partial, partial / shape))
    return rows


def shift_split_terms(setup):
    """The four parts of 2 TV(law 1 shifted by eta, law 3): |difference|
    on the common support inside and outside k/2 +- 3 sqrt(n), and the mass
    of law 3 and of the shifted law 1 off the common support."""
    eta, k = setup.eta, setup.k
    p1 = discrete_normal_pmf(setup.approx(1).dnormal_params()).shifted(eta)
    p3 = discrete_normal_pmf(setup.approx(3).dnormal_params())
    lo, hi = min(p1.lo, p3.lo), max(p1.hi, p3.hi)
    a, b, j = p1.dense_on(lo, hi), p3.dense_on(lo, hi), np.arange(lo, hi + 1)
    common = (max(0, eta) <= j) & (j <= min(k, k + eta))
    inside = np.abs(j - k / 2.0) <= 3.0 * math.sqrt(setup.n)
    diff = np.abs(a - b)
    return (diff[common & inside].sum(), diff[common & ~inside].sum(),
            b[~common].sum(), a[~common].sum())


def test_approx_params_validation_and_fields():
    with pytest.raises(ParameterError):
        ApproxParams(100, 0, 50)
    with pytest.raises(ParameterError):
        ApproxParams(100, 25, 100)
    for bad in ((100, 25, 2.5), (100.0, 25, 50), (100, True, 50)):
        with pytest.raises(ParameterError, match="must be an integer"):
            ApproxParams(*bad)
    with pytest.raises(ParameterError, match="must be an integer"):
        FourChainSetup(100, 25, 2.5, 50)
    assert ApproxParams(np.int64(100), 25, 50) == ApproxParams(100, 25, 50)
    ap = ApproxParams(100, 25, 50)
    assert (ap.p, ap.q, ap.f) == (0.5, 0.5, 0.25)
    assert ap.sigma == pytest.approx(math.sqrt(25 * 0.25 * 0.75), rel=1e-12)


def test_approx_params_refuse_n_above_the_guard():
    """Above LAW_GUARD the untrimmed laws grow too large to build, so
    the parameters, and with them every approximation, refuse the size."""
    n = LAW_GUARD
    assert ApproxParams(n, n // 4, n // 2).n == n
    with pytest.raises(InfeasibleSizeError):
        ApproxParams(n + 1, n // 4, n // 2)
    with pytest.raises(InfeasibleSizeError):
        hyper_vs_dnormal_tv(n + 1, n // 4, n // 2)


# -------------------------------------------------------------- normalization

def test_normalization_constant_bracket():
    ap = ApproxParams(100, 25, 50)
    value = normalization_constant(ap)
    slack = 1.0 / math.sqrt(2 * math.pi * ap.sigma**2)
    assert 1.0 - slack - 0.02 <= value <= 1.0 + slack


@pytest.mark.parametrize("n", [100, 1000, 10_000])
def test_normalization_constant_near_one(n):
    value = normalization_constant(ApproxParams(n, n // 4, n // 2))
    assert abs(value - 1.0) * math.sqrt(n) < 5.0


def test_normalization_consistent_with_pmf_normalizer():
    """The directly summed normalizer and the pmf's internal renormalization
    describe the same measure."""
    ap = ApproxParams(400, 100, 200)
    params = ap.dnormal_params()
    const = discrete_normal_norm_const(params)
    pmf = discrete_normal_pmf(params)
    for j in range(0, ap.k + 1, 7):
        z = (j - params.center) / params.scale
        direct = math.exp(-0.5 * z * z) / (params.scale * math.sqrt(2 * math.pi))
        assert pmf.prob(j) == pytest.approx(direct / const, rel=1e-12)


# ------------------------------------------------------------------- windows

def test_window_constants_examples():
    f_bar, a, delta_win, _, _ = window_constants(ApproxParams(100, 50, 30))
    assert f_bar == 0.5  # f = 1/2
    assert a == pytest.approx(2.25)
    assert delta_win == pytest.approx(1 / 22.5)
    _, a, delta_win, _, _ = window_constants(ApproxParams(1000, 1, 500))
    assert a == pytest.approx(1.0, abs=2e-3)
    assert delta_win == pytest.approx(1 / 20)


def test_window_brackets_the_mode():
    # the window spans at least one lattice step exactly when delta*sigma^2 >= 1
    for n, k, ell in [(1000, 250, 500), (5000, 500, 2500), (20_000, 5000, 10_000)]:
        ap = ApproxParams(n, k, ell)
        _, _, delta_win, left, right = window_constants(ap)
        assert delta_win * ap.sigma**2 >= 1.0
        assert left <= math.floor(ap.k * ap.p) <= right


# ------------------------------------------------------------- TV to surrogate

def test_hyper_vs_dnormal_tv_examples():
    value = hyper_vs_dnormal_tv(100, 25, 50)
    assert 0.0 < value <= 0.2
    for n in (100, 400, 1600):
        tv = hyper_vs_dnormal_tv(n, n // 4, n // 2)
        assert 0.0 <= tv <= 1.0
        assert tv * math.sqrt(n) < 1.0  # bounded on the test grid


# ------------------------------------------------------------- central region

def _window_grid(ap):
    """Five points spanning [-delta_win sigma, 0]."""
    return np.linspace(-window_constants(ap)[2] * ap.sigma, 0.0, 5)


def test_central_region_report():
    ap = ApproxParams(2000, 500, 1000)
    assert 6.0 * min(ap.k * ap.p, ap.k * ap.q) >= 1.0  # the hypothesis
    tv = hyper_vs_dnormal_tv(2000, 500, 1000)
    for j_upper, partial, _ in central_region_check(ap, _window_grid(ap)):
        assert partial >= 0.0
        assert partial <= 2 * tv + 1e-15
        assert j_upper >= math.floor(ap.k * ap.p)


def test_central_region_constant_uniformly_bounded():
    maxes = []
    for n in (1000, 10_000, 100_000):
        ap = ApproxParams(n, n // 4, n // 2)
        maxes.append(max(c for *_, c in central_region_check(
            ap, _window_grid(ap))))
    assert max(maxes) / min(maxes) < 10.0


# --------------------------------------------------------- one-step TV bound

def test_one_step_tv_identical_starts():
    dec = one_step_tv(ChainParams(200, 50), 100, 100)
    assert dec.exact_tv == 0.0
    assert dec.shift_term == 0.0
    assert dec.center_term == 0.0


def test_one_step_tv_frozen_example():
    dec = one_step_tv(ChainParams(400, 100), 200, 201)
    assert dec.exact_tv is not None
    assert dec.exact_tv <= dec.total_bound + 1e-9
    assert dec.total_bound < 0.5
    assert dec.total_bound == pytest.approx(
        sum(dec.hyper_dn_terms) + dec.shift_term + dec.center_term)


def test_four_chain_setup_fields():
    setup = FourChainSetup(400, 100, 210, 190)
    assert setup.eta == 20
    assert setup.ells == (210, 190, 190, 210)
    assert setup.approx(0).sigma == setup.approx(3).sigma
    with pytest.raises(ParameterError):
        FourChainSetup(400, 100, 0, 200)


@pytest.mark.parametrize("n,k,x0,y0", [
    (400, 100, 200, 201), (1000, 250, 500, 505), (1000, 100, 480, 520),
])
def test_shift_split_partitions_twice_the_tv(n, k, x0, y0):
    setup = FourChainSetup(n, k, x0, y0)
    t1, t2, t3, t4 = shift_split_terms(setup)
    assert min(t1, t2, t3, t4) >= 0.0
    p1 = discrete_normal_pmf(setup.approx(1).dnormal_params()).shifted(setup.eta)
    p3 = discrete_normal_pmf(setup.approx(3).dnormal_params())
    assert t1 + t2 + t3 + t4 == pytest.approx(2 * tv_distance(p1, p3), abs=1e-9)
