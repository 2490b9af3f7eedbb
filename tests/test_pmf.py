"""Distribution algebra: pmfs, TV distance, convolution, and the seeded
hypergeometric draws the coupling takes."""

import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from blmix import (DiscreteNormalParams, FinitePmf, HypergeomParams, RngStream,
                   discrete_normal_pmf, hypergeom_pmf, point_mass, tv_distance)
from blmix.errors import LAW_GUARD, InfeasibleSizeError, ParameterError
from blmix.pmf import TRIM_REL, discrete_normal_norm_const, from_weights
from oracles import difference_law, enum_hypergeom, truncated


def as_dict(pmf: FinitePmf) -> dict:
    return {int(j): pmf.prob(j) for j in pmf.support}


# ---------------------------------------------------------------- FinitePmf

def test_finite_pmf_validation():
    with pytest.raises(ParameterError):
        FinitePmf(0, np.array([0.5, -0.1, 0.6]))
    with pytest.raises(ParameterError):
        FinitePmf(0, np.array([0.0, 1.0]))  # untrimmed leading zero
    with pytest.raises(ParameterError):
        FinitePmf(0, np.array([0.3, 0.3]))  # does not sum to 1
    for bad in (lambda: FinitePmf(0, np.array([np.nan])),
                lambda: FinitePmf(0, np.array([1.0]), np.nan),
                lambda: from_weights(0, [0.5, np.nan, 0.5])):
        with pytest.raises(ParameterError):
            bad()
    p = FinitePmf(2, np.array([0.25, 0.5, 0.25]))
    assert (p.lo, p.hi) == (2, 4)
    assert p.prob(3) == 0.5 and p.prob(99) == 0.0
    assert p.mean() == pytest.approx(3.0)


@pytest.mark.parametrize("offset", [math.nan, 2.5, np.float64(2.0), True,
                                    np.True_, None, "2"])
def test_finite_pmf_refuses_a_non_integer_offset(offset):
    """A NaN or 2.5 offset would put the weights off the integers, and True
    would read as 1: each is refused as every other index is.  A numpy
    integer is stored as the int it holds."""
    with pytest.raises(ParameterError, match="must be an integer"):
        FinitePmf(offset, np.ones(1))
    assert type(FinitePmf(np.int64(2), np.ones(1)).offset) is int


@pytest.mark.parametrize("call", [
    lambda p: p.shifted(2.5), lambda p: p.shifted(True),
    lambda p: p.dense_on(0.0, 3.0), lambda p: p.dense_on(0, "3"),
    lambda p: FinitePmf(0, "abc"), lambda p: FinitePmf(0, [1.0, None]),
], ids=["shift-2.5", "shift-True", "dense-floats", "dense-str", "weights-str",
        "weights-None"])
def test_finite_pmf_refuses_hostile_arguments(call):
    """A shift or window bound that is not an integer (2.5 would shift by
    2, True by 1) and weights that are not numbers each raise
    ParameterError, not a numpy error or a silent result."""
    with pytest.raises(ParameterError):
        call(FinitePmf(0, np.array([0.5, 0.5])))


@pytest.mark.parametrize("j", [0.5, True, np.True_, "a", None, math.nan])
def test_prob_refuses_a_non_integer_j(j):
    """prob(0.5) raised numpy's IndexError and prob(True) returned prob(1):
    every j that is not an integer is refused.  numpy integers keep their
    values."""
    p = FinitePmf(2, np.array([0.25, 0.5, 0.25]))
    with pytest.raises(ParameterError, match="must be an integer"):
        p.prob(j)
    assert p.prob(np.int64(3)) == p.prob(3) == 0.5
    assert p.prob(np.uint8(1)) == 0.0


@pytest.mark.parametrize("offset, weights, normalize", [
    (2.5, [1.0], False), (True, [1.0], False), ("0", [1.0], False),
    (0, [np.nan, 1.0], False), (0, [1.0, np.nan], True),
    (0, [np.inf], True), (0, [0.5, np.inf, 0.5], False),
    (0, [-np.inf, 1.0], False)],
    ids=["offset-2.5", "offset-True", "offset-str", "nan-tail", "nan-norm",
         "inf-norm", "inf-inside", "neg-inf-tail"])
def test_from_weights_refuses_what_it_swapped_in(offset, weights, normalize):
    """A 2.5 offset was floored to 2 and a NaN tail weight trimmed off as a
    zero tail, and an infinite weight under ``normalize`` warned and then
    reported all weights zero: each raises ParameterError, and no
    RuntimeWarning (an error under the suite's filter)."""
    with pytest.raises(ParameterError):
        from_weights(offset, weights, normalize=normalize)


@pytest.mark.parametrize("call", [
    lambda: FinitePmf(0, [1.0], "0"), lambda: FinitePmf(0, [1.0], None),
    lambda: FinitePmf(0, [0.5], 0.5 + 0j), lambda: FinitePmf(0, [1.0], True),
    lambda: FinitePmf(0, [1.0], -1e-300), lambda: FinitePmf(0, [1.0], 2.0),
    lambda: from_weights(0, [1.0], lost_mass="x"),
    lambda: from_weights(0, [1.0], lost_mass=math.inf, normalize=True),
    lambda: from_weights(0, ["a"]), lambda: from_weights(0, [1j]),
    lambda: from_weights(0, [2.0], normalize="no"),
    lambda: from_weights(0, [1.0], normalize=1),
    lambda: from_weights(0, [1.0], normalize=np.True_),
], ids=["lost-str", "lost-None", "lost-complex", "lost-True", "lost-neg",
        "lost-2", "fw-lost-str", "fw-lost-inf", "fw-weight-str",
        "fw-weight-complex", "fw-normalize-str", "fw-normalize-1",
        "fw-normalize-np-bool"])
def test_pmf_constructors_refuse_what_is_not_a_law(call):
    """A lost mass that is not a real number in [0, 1], a weight that is not
    a number and a ``normalize`` that is not a bool raise ParameterError:
    a string lost mass raised TypeError, a string weight numpy's
    ValueError, and normalize="no" normalized."""
    with pytest.raises(ParameterError):
        call()


@pytest.mark.parametrize("call", [
    lambda: FinitePmf(0, [1e308, 1e308]),
    lambda: from_weights(0, [1e308, 1e308]),
    lambda: from_weights(0, [1e308, 1e308], normalize=True),
    lambda: from_weights(0, [5e-324], normalize=True),
    lambda: from_weights(0, [1e-310, 0.0, 1e-310], normalize=True),
], ids=["pmf-overflow", "fw-overflow", "fw-norm-overflow", "fw-norm-subnormal",
        "fw-norm-subnormal-sum"])
def test_weight_sums_past_the_double_range_are_refused(call):
    """Finite weights whose sum overflows, or whose sum is too small for
    its reciprocal to be finite, raise ParameterError, not numpy's
    RuntimeWarning (an error under the suite's filter)."""
    with pytest.raises(ParameterError):
        call()


def test_from_weights_normalizes_subnormal_weights_with_a_normal_sum():
    """The refusal above is of the sum: subnormal weights whose sum is a
    normal double still normalize."""
    p = from_weights(3, [2.0**-1023, 2.0**-1023], normalize=True)
    assert (p.lo, p.weights.tolist()) == (3, [0.5, 0.5])


def test_shift_and_truncate_bookkeeping():
    p = FinitePmf(0, np.array([0.5, 0.5 - 1e-20, 1e-20]))
    assert p.shifted(7).lo == 7
    t = truncated(p, rel_eps=1e-12)
    assert t.hi == 1 and t.lost_mass == pytest.approx(1e-20)
    assert truncated(t) is t  # nothing left to drop


# ------------------------------------------------------------ hypergeometric

def test_hypergeom_frozen_examples():
    assert as_dict(hypergeom_pmf(HypergeomParams(4, 2, 2))) == pytest.approx(
        {0: 1 / 6, 1: 4 / 6, 2: 1 / 6})
    assert as_dict(hypergeom_pmf(HypergeomParams(10, 0, 3))) == {0: 1.0}
    assert as_dict(hypergeom_pmf(HypergeomParams(9, 4, 9))) == {4: 1.0}


def test_hypergeom_invalid_params():
    with pytest.raises(ParameterError):
        HypergeomParams(0, 0, 0)
    with pytest.raises(ParameterError):
        HypergeomParams(5, 6, 2)
    with pytest.raises(ParameterError):
        HypergeomParams(5, 2, 6)


@pytest.mark.parametrize("args", [(10.5, 3, 2), (10, 3.5, 2), (10, 3, 2.0),
                                  (True, 1, 1), (10, "3", 2)])
def test_hypergeom_params_refuse_non_integers(args):
    """A float, a bool or a string is refused, not truncated (10.5) or left
    to fail inside the recurrence (3.5)."""
    with pytest.raises(ParameterError, match="must be an integer"):
        HypergeomParams(*args)


def test_hypergeom_params_accept_numpy_integers():
    params = HypergeomParams(np.int64(10), np.int32(3), np.uint8(2))
    assert params == HypergeomParams(10, 3, 2)
    assert type(params.population) is int
    assert (hypergeom_pmf(params).weights.tobytes()
            == hypergeom_pmf(HypergeomParams(10, 3, 2)).weights.tobytes())


def test_point_mass_refuses_non_integers():
    with pytest.raises(ParameterError, match="must be an integer"):
        point_mass(2.7)
    with pytest.raises(ParameterError, match="must be an integer"):
        point_mass(np.True_)
    assert point_mass(np.int64(2)).lo == 2


@pytest.mark.parametrize("population", range(1, 13))
def test_hypergeom_matches_enumeration(population):
    """Every parameter choice with population <= 12 against the subset
    enumeration oracle."""
    for successes in range(population + 1):
        for draws in range(population + 1):
            oracle = enum_hypergeom(population, successes, draws)
            pmf = hypergeom_pmf(HypergeomParams(population, successes, draws))
            assert set(oracle) == set(int(j) for j in pmf.support)
            for j, w in oracle.items():
                assert pmf.prob(j) == pytest.approx(float(w), abs=1e-12)


@st.composite
def hypergeom_params(draw):
    population = draw(st.integers(1, 3000))
    successes = draw(st.integers(0, population))
    draws = draw(st.integers(0, population))
    return HypergeomParams(population, successes, draws)


@settings(max_examples=300, deadline=None)
@given(hypergeom_params())
def test_windowed_hypergeom_matches_full(params):
    """The Serfling-window pmf agrees with the full pmf on its window, and
    its lost mass bounds the mass it leaves out."""
    full = hypergeom_pmf(params)
    win = hypergeom_pmf(params, trim=True)
    m, s, pop = params.draws, params.successes, params.population
    mean = m * s / pop
    a = min(m, pop - m, s, pop - s)
    dev = math.sqrt(a * (pop + 1 - a) / pop * (math.log(2 / TRIM_REL) / 2))
    covers = (math.floor(mean - dev) <= params.support_lo
              and math.ceil(mean + dev) >= params.support_hi)
    assert (win.lost_mass == 0.0) == covers
    if covers:
        assert (win.lo, win.hi) == (full.lo, full.hi)
        assert np.array_equal(win.weights, full.weights)
        return
    assert win.lost_mass <= TRIM_REL * (1 + 1e-12)
    assert full.lo <= win.lo and win.hi <= full.hi
    on_window = full.weights[win.lo - full.lo:win.hi - full.lo + 1]
    # relative agreement; subnormal weights carry no relative precision
    scale = np.maximum(on_window, np.finfo(np.float64).tiny)
    assert np.all(np.abs(win.weights - on_window) <= 1e-15 * scale)
    dropped = (full.weights[:win.lo - full.lo].sum()
               + full.weights[win.hi - full.lo + 1:].sum())
    assert win.lost_mass >= dropped


@pytest.mark.parametrize("pop", [150, 201, 399, 400])
def test_serfling_window_is_exact(pop):
    """Over a grid of laws Hyp(N, s, m) with N <= 400, in exact fractions:
    wherever Serfling's window cuts the support, the mass it leaves out is
    at most its lost_mass, which is at most TRIM_REL, and it is never wider
    than Hoeffding's window; and the window of Hyp(N, N - s, m) is m minus
    that of Hyp(N, s, m), the reflection ``chain._rows`` takes for a row's
    incoming reds."""
    grid = sorted({0, 1, 2, pop // 4, pop // 3, pop // 2, (pop + 1) // 2,
                   pop - 2, pop - 1, pop} | set(range(0, pop + 1, 17)))
    cut = narrower = 0
    for s in grid:
        for m in grid:
            params = HypergeomParams(pop, s, m)
            win = hypergeom_pmf(params, trim=True)
            swapped = hypergeom_pmf(HypergeomParams(pop, pop - s, m), trim=True)
            assert (swapped.lo, swapped.hi) == (m - win.hi, m - win.lo)
            assert swapped.lost_mass == win.lost_mass
            support = range(params.support_lo, params.support_hi + 1)
            if win.lost_mass == 0.0:
                assert (win.lo, win.hi) == (support[0], support[-1])
                continue
            cut += 1
            outside = sum(math.comb(s, j) * math.comb(pop - s, m - j)
                          for j in support if not win.lo <= j <= win.hi)
            assert (0 < Fraction(outside, math.comb(pop, m))
                    <= Fraction(win.lost_mass) <= Fraction(TRIM_REL))
            mean, dev = m * s / pop, math.sqrt(m * math.log(2 / TRIM_REL) / 2)
            hoeffding = (max(support[0], math.floor(mean - dev)),
                         min(support[-1], math.ceil(mean + dev)))
            assert hoeffding[0] <= win.lo and win.hi <= hoeffding[1]
            narrower += hoeffding != (win.lo, win.hi)
    assert cut >= 20 and narrower >= cut // 2


def _exact_hypergeom(pop, s, m, j):
    """P(X = j) for X ~ Hyp(pop, s, m) as a Fraction, taken through the
    fewest draws: Hyp(pop, s, m) is Hyp(pop, m, s), and s - X is
    Hyp(pop, s, pop - m)."""
    if min(s, pop - s) < min(m, pop - m):
        s, m = m, s
    if 2 * m > pop:
        return _exact_hypergeom(pop, s, pop - m, s - j)
    if not 0 <= j <= m:
        return Fraction(0)
    return Fraction(math.comb(s, j) * math.comb(pop - s, m - j),
                    math.comb(pop, m))


@pytest.mark.parametrize("pop,s,m", [
    (2**60, 2**59, 2**60 - 1), (2**60, 2**59, 2**60 - 200),
    (2**60, 2**59, 200), (2**60, 2**60 - 200, 2**59 + 1),
    (2**61 + 1, 2**60, 7), (2**53 + 1, 2**52, 2**53 - 150),
    (2**60, 3, 2**60 - 5), (2**64 + 5, 3, 2), (2**70, 2**69, 2**70 - 300)])
def test_serfling_window_is_exact_above_2_53(pop, s, m):
    """For populations where doubles round pop - s and the mean, the window
    still drops at most its lost_mass, in exact fractions, and the kept
    weights are the exact law's.  Hyp(2^60, 2^59, 2^60 - 1) puts 1/2 on
    each of 2^59 - 1 and 2^59; a window set around the mean rounded to a
    double, 2^59, kept one of them.  The weights of Hyp(2^60, 2^59,
    2^60 - 200) were 4,900 times off where the ratio recurrence took its
    draws j as doubles, and a population of 2^63 or more was refused by
    numpy's int64."""
    p = hypergeom_pmf(HypergeomParams(pop, s, m), trim=True)
    exact = [_exact_hypergeom(pop, s, m, j) for j in range(p.lo, p.hi + 1)]
    assert 1 - sum(exact) <= Fraction(p.lost_mass) <= Fraction(TRIM_REL)
    assert np.allclose(p.weights, [float(x) for x in exact], rtol=1e-9, atol=0)
    if (pop, s, m) == (2**60, 2**59, 2**60 - 1):
        assert (p.lo, p.hi, p.lost_mass) == (2**59 - 1, 2**59, 0.0)


def test_windowed_hypergeom_examples():
    cut = hypergeom_pmf(HypergeomParams(20_000, 9000, 5000), trim=True)
    assert cut.lost_mass == pytest.approx(TRIM_REL, rel=1e-9)
    assert cut.hi - cut.lo + 1 < 700  # the full pmf has 2309 positive points
    small = HypergeomParams(10, 5, 5)
    covered = hypergeom_pmf(small, trim=True)
    assert covered.lo == 0 and covered.lost_mass == 0.0
    assert np.array_equal(covered.weights, hypergeom_pmf(small).weights)


def test_hypergeom_large_n_no_overflow():
    pmf = hypergeom_pmf(HypergeomParams(2_000_000, 1_000_000, 500_000))
    assert np.all(np.isfinite(pmf.weights))
    assert pmf.mean() == pytest.approx(250_000, rel=1e-9)


# ------------------------------------------------------------ discrete normal

def test_discrete_normal_examples():
    assert as_dict(discrete_normal_pmf(DiscreteNormalParams(0, 1, 0, 0))) == {0: 1.0}
    sym = discrete_normal_pmf(DiscreteNormalParams(5, 2, 0, 10))
    for j in range(6):
        assert sym.prob(5 - j) == pytest.approx(sym.prob(5 + j), rel=1e-12)
    centered = discrete_normal_pmf(DiscreteNormalParams(12.5, 2.165, 0, 25))
    assert centered.mean() == pytest.approx(12.5, abs=1e-9)


def test_discrete_normal_invalid():
    """A bound that is not an integer (0.5 would shift the support by a
    half, True would read as 1) or lies past 2^53, where doubles skip
    integers, and a center or scale that is not a finite number (an
    infinite scale would give a uniform law, True would read as 1, and a
    string or None would escape as TypeError) are refused."""
    for args in ((0, 0.0, 0, 5), (0, 1.0, 3, 2), (0, 1, 0.5, 3.5),
                 (0, 1, 0, 3.5), (0, 1, True, 3), (0, 1, 0, True),
                 (0, math.inf, 0, 5), (0, math.nan, 0, 5),
                 (math.nan, 1, 0, 5), (-math.inf, 1, 0, 5),
                 (True, 1.0, 0, 5), (0.0, True, 0, 5), (0.0, np.True_, 0, 5),
                 ("0", 1.0, 0, 5), (0.0, None, 0, 5), (0, 1, 0, 2**53 + 1),
                 (0, 1, -2**60, 0)):
        with pytest.raises(ParameterError):
            DiscreteNormalParams(*args)
    params = DiscreteNormalParams(0.5, 1.0, np.int64(0), np.int64(3))
    assert type(params.lo) is int and type(params.hi) is int
    # LAW_GUARD + 1 points is the widest support the size guard lets through
    assert DiscreteNormalParams(0.0, 1.0, 0, LAW_GUARD).hi == LAW_GUARD


def test_discrete_normal_far_from_its_scale():
    """Support points more than 2^500 scales from the center are capped
    there, so z * z never overflows (the suite turns RuntimeWarning into an
    error). A scale of 1e-300 about 0 gives the point mass at 0 and the
    density at the center; a center 1e300 scales from every support point
    leaves the pmf out of reach (refused) and the normalizer below the
    double range (0); a normalizer or divisor past the range is refused."""
    narrow = DiscreteNormalParams(0.0, 1e-300, -5, 5)
    assert as_dict(discrete_normal_pmf(narrow)) == {0: 1.0}
    assert discrete_normal_norm_const(narrow) == 1 / (1e-300 * math.sqrt(2 * math.pi))
    far = DiscreteNormalParams(1e300, 1.0, -5, 5)
    with pytest.raises(ParameterError, match="2\\^10 scales"):
        discrete_normal_pmf(far)
    assert discrete_normal_norm_const(far) == 0.0
    for scale in (1e-320, np.float64(1.7e308)):
        with pytest.raises(ParameterError, match="double range"):
            discrete_normal_norm_const(DiscreteNormalParams(0.0, scale, -5, 5))
    wide = discrete_normal_pmf(DiscreteNormalParams(0.0, np.float64(1.7e308), -5, 5))
    assert np.all(wide.weights == wide.weights[0])


def _exact_log_ratios(center, scale, lo, hi) -> dict:
    """-((j - c)^2 - (m - c)^2) / (2 s^2) for each j, m the support point
    nearest c: the exact log of weight j over weight m, in rationals."""
    c, s = Fraction(center), Fraction(scale)
    near = min(range(lo, hi + 1), key=lambda j: abs(j - c))
    return {j: -((j - c) ** 2 - (near - c) ** 2) / (2 * s * s)
            for j in range(lo, hi + 1)}


_SEEDED = np.random.default_rng(8).uniform(size=(40, 3))


@pytest.mark.parametrize("center,scale,lo,hi", [
    (12.5, 2.165, 0, 25), (5.0, 2.0, 0, 10), (0.0, 1e-300, -5, 5),
    (1e300, 1e299, -5, 5), (0.5 + 2**-30, 1e-3, 0, 1),
    (-1e6, 1000.0, 0, 10), (1e6 + 25.0, 999.5, 0, 30),
    (-2**10 * 2**20, 2**20, 0, 40),
] + [(lo - z * 2.0**(20 * u) + 5, 2.0**(20 * u), 0, 10)
     for (z, u, lo) in _SEEDED * (2**10, 1.0, 20.0)])
def test_discrete_normal_matches_the_exact_quadratic(center, scale, lo, hi):
    """Within 2^10 scales of the center, each normal weight's ratio to the
    largest is within a relative 2^-29 of the exact law's, and a weight
    that underflows is one the exact law puts below 2^-1000 of it."""
    pmf = discrete_normal_pmf(DiscreteNormalParams(center, scale, lo, hi))
    exact = _exact_log_ratios(center, scale, lo, hi)
    peak = pmf.prob(max(exact, key=exact.get))
    assert peak == pmf.weights.max()
    for j, log_ratio in exact.items():
        ratio, want = pmf.prob(j) / peak, math.exp(float(max(log_ratio, -10**4)))
        if pmf.prob(j) >= np.finfo(np.float64).tiny:
            assert abs(ratio / want - 1) <= 2**-29
        else:
            assert want <= 2**-1000


def test_discrete_normal_refuses_a_center_too_far_to_resolve():
    """At center 1e20 and scale 1e10, j - center rounded to one value at
    each j of [-5, 5], and the pmf came out uniform, where the exact law's
    neighbours differ by a factor e; it is refused, as is every center
    more than 2^10 scales from the support."""
    exact = _exact_log_ratios(1e20, 1e10, -5, 5)
    assert float(exact[4] - exact[5]) == pytest.approx(-1.0, abs=1e-9)
    for params in [(1e20, 1e10, -5, 5), (-2**10 * 2**20 - 1.0, 2**20, 0, 40),
                   (0.5 + 2**-30, 1e-5, 0, 1)]:
        with pytest.raises(ParameterError, match="2\\^10 scales"):
            discrete_normal_pmf(DiscreteNormalParams(*params))


@pytest.mark.parametrize("center,scale,lo,hi", [
    (12.5, 2.165, 0, 25), (0.0, 3.0, -7, 9), (4.2, 0.8, 0, 10),
    (50.0, 10.0, 0, 100),
])
def test_discrete_normal_positive_and_log_concave(center, scale, lo, hi):
    pmf = discrete_normal_pmf(DiscreteNormalParams(center, scale, lo, hi))
    w = pmf.weights
    assert np.all(w > 0)
    ratios = w[1:] / w[:-1]
    assert np.all(np.diff(ratios) < 0)


# ---------------------------------------------------------------- tv distance

def test_tv_frozen_examples():
    assert tv_distance(point_mass(0), point_mass(1)) == 1.0
    u = FinitePmf(0, np.array([0.5, 0.5]))
    assert tv_distance(u, u) == 0.0
    assert tv_distance(u, point_mass(0)) == pytest.approx(0.5)


small_pmfs = st.builds(
    lambda offset, raw: FinitePmf(offset, np.asarray(raw) / sum(raw)),
    st.integers(-5, 5),
    st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=8),
)


@settings(max_examples=200, deadline=None)
@given(small_pmfs, small_pmfs, small_pmfs)
def test_tv_is_a_metric(p, q, r):
    assert 0.0 <= tv_distance(p, q) <= 1.0 + 1e-12
    assert tv_distance(p, q) == pytest.approx(tv_distance(q, p), abs=1e-15)
    assert tv_distance(p, p) <= 1e-15
    assert tv_distance(p, r) <= tv_distance(p, q) + tv_distance(q, r) + 1e-12


# ------------------------------------------------------------- difference law

def test_difference_law_examples():
    assert as_dict(difference_law(point_mass(3), point_mass(1))) == {2: 1.0}
    p = hypergeom_pmf(HypergeomParams(6, 3, 2))
    assert tv_distance(difference_law(p, point_mass(0)), p) <= 1e-15
    h = hypergeom_pmf(HypergeomParams(2, 1, 1))
    assert as_dict(difference_law(h, h)) == pytest.approx(
        {-1: 0.25, 0: 0.5, 1: 0.25})
    # lost masses far below the double spacing at 1 still add up
    tiny = FinitePmf(0, np.ones(1), lost_mass=1e-17)
    assert difference_law(tiny, tiny).lost_mass == pytest.approx(2e-17)


@settings(max_examples=200, deadline=None)
@given(small_pmfs, small_pmfs)
def test_difference_law_moments(p, q):
    d = difference_law(p, q)
    assert d.mean() == pytest.approx(p.mean() - q.mean(), rel=1e-9, abs=1e-9)
    assert d.variance() == pytest.approx(p.variance() + q.variance(),
                                         rel=1e-9, abs=1e-9)


# --------------------------------------------------------------- size guard

@pytest.mark.parametrize("call", [
    lambda: hypergeom_pmf(HypergeomParams(2**60, 2**59, 2**59)),
    lambda: hypergeom_pmf(HypergeomParams(2**60, 2**59, 2**59), trim=True),
    lambda: discrete_normal_pmf(DiscreteNormalParams(0.0, 1.0, -2**53, 2**53)),
    lambda: discrete_normal_norm_const(
        DiscreteNormalParams(0.0, 1.0, -2**53, 2**53)),
    lambda: tv_distance(point_mass(0), point_mass(2**60)),
    lambda: FinitePmf(2**62, [1.0]).dense_on(0, 2**62),
    lambda: DiscreteNormalParams(0.0, 1.0, 0, LAW_GUARD + 1),
    lambda: point_mass(0).dense_on(0, LAW_GUARD + 1),
], ids=["hypergeom", "hypergeom-trim", "dnormal", "dnormal-const", "tv",
        "dense_on", "dnormal-edge", "dense_on-edge"])
def test_oversized_laws_are_refused_before_allocating(call):
    """A law or dense vector of more than LAW_GUARD + 1 points is refused
    before any array of its size is allocated: the traced peak stays
    below 64 KiB.  Unrefused, the first six would end in numpy's
    MemoryError (EiB to GiB) or ValueError ("array is too big")."""
    tracemalloc.start()
    try:
        with pytest.raises(InfeasibleSizeError, match="LAW_GUARD"):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


# ----------------------------------------------------------------- sampling

def sample_hypergeom(params: HypergeomParams, rng: RngStream, size: int):
    """Hypergeometric draws from the stream's generator, as the coupling's
    step takes them."""
    return rng.chunk(0).hypergeometric(params.successes,
                                  params.population - params.successes,
                                  params.draws, size)


def test_sampling_determinism():
    params = HypergeomParams(100, 50, 25)
    a = sample_hypergeom(params, RngStream(7, 3), size=100)
    b = sample_hypergeom(params, RngStream(7, 3), size=100)
    assert np.array_equal(a, b)
    c = sample_hypergeom(params, RngStream(7, 4), size=100)
    assert not np.array_equal(a, c)


def test_chunk_streams_start_at_the_stream_and_differ():
    """Chunk 0 is the stream itself, each call from its start; the chunks
    jumped apart draw pairwise different sequences, each reproducible."""
    rng = RngStream(7, 1)
    draws = [rng.chunk(c).integers(0, 2**63, size=16) for c in range(8)]
    assert np.array_equal(draws[0], rng.chunk(0).integers(0, 2**63, size=16))
    assert np.array_equal(draws[5], RngStream(7, 1).chunk(5)
                          .integers(0, 2**63, size=16))
    assert len({d.tobytes() for d in draws}) == len(draws)


def test_rng_stream_is_its_key_alone():
    """A stream holds its (master_seed, stream_id) and no generator, so
    drawing leaves it as it was and equal keys are equal streams."""
    rng = RngStream(7, 1)
    assert [f.name for f in dataclasses.fields(rng)] == ["master_seed",
                                                         "stream_id"]
    rng.chunk(0).integers(0, 2**63, size=16)
    assert rng == RngStream(7, 1) and hash(rng) == hash(RngStream(7, 1))
    with pytest.raises(dataclasses.FrozenInstanceError):
        rng.stream_id = 2


@pytest.mark.parametrize("args", [(True, 2), (7, False), (np.True_, 2),
                                  (7.0, 2), (np.int64(7), 2), (2**64, 0)])
def test_rng_stream_refuses_a_seed_that_is_not_an_int(args):
    """A bool seed or stream id is not read as 0 or 1, and a float, a numpy
    integer or a value past 64 bits is refused as before."""
    with pytest.raises(ParameterError, match="must be a 64-bit integer"):
        RngStream(*args)


def test_sampling_forced_draw():
    draws = sample_hypergeom(HypergeomParams(8, 5, 8), RngStream(1, 0), size=50)
    assert np.all(draws == 5)


def test_sampling_mean_million_draws():
    params = HypergeomParams(100, 50, 25)
    pmf = hypergeom_pmf(params)
    draws = sample_hypergeom(params, RngStream(2024, 0), size=1_000_000)
    se = math.sqrt(pmf.variance() / draws.size)
    assert abs(draws.mean() - pmf.mean()) <= 4 * se


def _chi_square_pvalue(params: HypergeomParams, seed: int, n_draws: int) -> float:
    pmf = hypergeom_pmf(params)
    draws = sample_hypergeom(params, RngStream(seed, 0), size=n_draws)
    observed = np.bincount(draws - pmf.lo, minlength=len(pmf.weights)).astype(float)
    expected = pmf.weights * n_draws
    # merge sparse cells so every expected count is at least 5
    keep = expected >= 5.0
    if not np.all(keep):
        observed = np.append(observed[keep], observed[~keep].sum())
        expected = np.append(expected[keep], expected[~keep].sum())
    expected *= observed.sum() / expected.sum()
    return stats.chisquare(observed, expected).pvalue


@pytest.mark.parametrize("params,seed", [
    (HypergeomParams(100, 50, 25), 11),
    (HypergeomParams(50, 10, 20), 12),
    (HypergeomParams(500, 250, 100), 13),
    (HypergeomParams(30, 15, 15), 14),
])
def test_sampling_goodness_of_fit(params, seed):
    assert _chi_square_pvalue(params, seed, 1_000_000) > 1e-4
