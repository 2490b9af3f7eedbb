"""Discrete-normal surrogate quality and the one-step TV decomposition."""

import math

import numpy as np
import pytest

from blmix import (ApproxParams, ChainParams, FourChainSetup,
                   central_region_check, discrete_normal_pmf,
                   hyper_vs_dnormal_tv, normalization_constant, one_step_tv,
                   shift_split_terms, tv_distance, window_constants)
from blmix.approx import APPROX_GUARD
from blmix.pmf import discrete_normal_norm_const
from blmix.errors import InfeasibleSizeError, ParameterError


def test_approx_params_validation_and_fields():
    with pytest.raises(ParameterError):
        ApproxParams(100, 0, 50)
    with pytest.raises(ParameterError):
        ApproxParams(100, 25, 100)
    ap = ApproxParams(100, 25, 50)
    assert (ap.p, ap.q, ap.f) == (0.5, 0.5, 0.25)
    assert ap.sigma == pytest.approx(math.sqrt(25 * 0.25 * 0.75), rel=1e-12)


def test_approx_params_refuse_n_above_the_guard():
    """Above APPROX_GUARD the untrimmed laws grow too large to build, so
    the parameters, and with them every approximation, refuse the size."""
    n = APPROX_GUARD
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
    wc = window_constants(ApproxParams(100, 50, 30))  # f = 1/2
    assert wc.f_bar == 0.5
    assert wc.a == pytest.approx(2.25)
    assert wc.delta_win == pytest.approx(1 / 22.5)
    small_f = window_constants(ApproxParams(1000, 1, 500))
    assert small_f.a == pytest.approx(1.0, abs=2e-3)
    assert small_f.delta_win == pytest.approx(1 / 20)


def test_window_brackets_the_mode():
    # the window spans at least one lattice step exactly when delta*sigma^2 >= 1
    for n, k, ell in [(1000, 250, 500), (5000, 500, 2500), (20_000, 5000, 10_000)]:
        ap = ApproxParams(n, k, ell)
        wc = window_constants(ap)
        assert wc.delta_win * ap.sigma**2 >= 1.0
        assert wc.left <= math.floor(ap.k * ap.p) <= wc.right


# ------------------------------------------------------------- TV to surrogate

def test_hyper_vs_dnormal_tv_examples():
    value = hyper_vs_dnormal_tv(100, 25, 50)
    assert 0.0 < value <= 0.2
    for n in (100, 400, 1600):
        tv = hyper_vs_dnormal_tv(n, n // 4, n // 2)
        assert 0.0 <= tv <= 1.0
        assert tv * math.sqrt(n) < 1.0  # bounded on the test grid


# ------------------------------------------------------------- central region

def test_central_region_report():
    ap = ApproxParams(2000, 500, 1000)
    wc = window_constants(ap)
    grid = np.linspace(-wc.delta_win * ap.sigma, 0.0, 5)
    report = central_region_check(ap, grid)
    assert report["hypothesis_ok"]
    tv = hyper_vs_dnormal_tv(2000, 500, 1000)
    for row in report["rows"]:
        assert row.partial_sum >= 0.0
        assert row.partial_sum <= 2 * tv + 1e-15
        assert row.j_upper >= math.floor(ap.k * ap.p)
    assert report["max_constant"] == pytest.approx(
        max(r.constant for r in report["rows"]))


def test_central_region_rejects_out_of_window_grid():
    ap = ApproxParams(2000, 500, 1000)
    with pytest.raises(ParameterError):
        central_region_check(ap, [1.0])


def test_central_region_constant_uniformly_bounded():
    maxes = []
    for n in (1000, 10_000, 100_000):
        ap = ApproxParams(n, n // 4, n // 2)
        wc = window_constants(ap)
        grid = np.linspace(-wc.delta_win * ap.sigma, 0.0, 5)
        maxes.append(central_region_check(ap, grid)["max_constant"])
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
