"""Discrete-normal approximation of the one-step increment distributions.

Compares hypergeometric increment laws against renormalized normal densities
on the same integer support, checks the normalization constant, the central
region bound shape, and assembles the six-term triangle-inequality bound on
the one-step total variation between two nearby starting states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import ChainParams, transition_row
from .errors import InfeasibleSizeError, ParameterError
from .pmf import (DiscreteNormalParams, FinitePmf, HypergeomParams,
                  discrete_normal_norm_const, discrete_normal_pmf,
                  hypergeom_pmf, tv_distance)

EXACT_TV_GUARD = 10_000  # compute the exact one-step TV only up to this n
APPROX_GUARD = 10**7  # the largest n: each law holds k + 1 points, untrimmed


@dataclass(frozen=True)
class ApproxParams:
    n: int
    k: int
    ell: int

    def __post_init__(self):
        if self.n > APPROX_GUARD:
            raise InfeasibleSizeError(
                f"n={self.n} is above APPROX_GUARD={APPROX_GUARD:,}")
        if not 0 < self.k < self.n:
            raise ParameterError("k must lie strictly between 0 and n")
        if not 0 < self.ell < self.n:
            raise ParameterError("ell must lie strictly between 0 and n")

    @property
    def p(self) -> float:
        return self.ell / self.n

    @property
    def q(self) -> float:
        return 1.0 - self.p

    @property
    def f(self) -> float:
        return self.k / self.n

    @property
    def sigma(self) -> float:
        return math.sqrt(self.k * self.p * self.q * (1.0 - self.f))

    def dnormal_params(self) -> DiscreteNormalParams:
        return DiscreteNormalParams(self.k * self.p, self.sigma, 0, self.k)

    def hyper_params(self) -> HypergeomParams:
        return HypergeomParams(self.n, self.ell, self.k)


@dataclass(frozen=True)
class WindowConstants:
    f_bar: float
    a: float
    delta_win: float
    left: int
    right: int


def normalization_constant(ap: ApproxParams) -> float:
    """Direct sum of the sampled normal density over {0..k}; close to 1 when
    the density's effective width sits inside the support."""
    return discrete_normal_norm_const(ap.dnormal_params())


def window_constants(ap: ApproxParams) -> WindowConstants:
    f_bar = min(ap.f, 1.0 - ap.f)
    a = (f_bar + 4.0) / (4.0 * (1.0 - f_bar))
    delta_win = 1.0 / (10.0 * max(a, 2.0))
    sigma, kp = ap.sigma, ap.k * ap.p
    j = np.arange(ap.k + 1)
    z = (j - kp) / sigma
    inside_left = np.nonzero(z >= -delta_win * sigma)[0]
    inside_right = np.nonzero(z <= delta_win * sigma)[0]
    if inside_left.size == 0 or inside_right.size == 0:
        raise ParameterError("window does not intersect the support")
    return WindowConstants(f_bar, a, delta_win,
                           int(inside_left[0]), int(inside_right[-1]))


def hyper_vs_dnormal_tv(n: int, k: int, ell: int) -> float:
    """Exact TV between the hypergeometric law and its discrete-normal
    surrogate on {0..k}.

    The distance is O(1/sigma) in general.  It is O(1/sigma^2) when
    ell = n/2 or k = n/2, because the leading Edgeworth (skewness) term is
    proportional to (1-2p)(1-2f)/sigma and vanishes there.  Acceptance
    criterion 08 checks both rates: n^(-1/2) at ell = n/4 and n^(-1) at
    ell = n/2, each with k = n/4."""
    ap = ApproxParams(n, k, ell)
    return tv_distance(hypergeom_pmf(ap.hyper_params()),
                       discrete_normal_pmf(ap.dnormal_params()))


@dataclass(frozen=True)
class CentralRegionRow:
    x: float
    j_upper: int
    partial_sum: float
    shape: float
    constant: float  # partial_sum / shape


def central_region_check(ap: ApproxParams, x_grid) -> dict:
    """Partial absolute-difference sums over the central window against the
    (1+x^2) exp(-0.07 x^2) shape, returning the implied constants."""
    wc = window_constants(ap)
    sigma, kp, f = ap.sigma, ap.k * ap.p, ap.f
    hyper = hypergeom_pmf(ap.hyper_params())
    dn = discrete_normal_pmf(ap.dnormal_params())
    hypothesis_ok = 6.0 * min(ap.k * ap.p, ap.k * ap.q) >= 1.0
    rows = []
    for x in np.asarray(x_grid, dtype=np.float64):
        if not -wc.delta_win * sigma - 1e-12 <= x <= 1e-12:
            raise ParameterError("grid points must lie in [-delta_win*sigma, 0]")
        j_upper = math.floor(kp - x * sigma)
        js = np.arange(wc.left, min(j_upper, ap.k) + 1)
        partial = float(np.abs([hyper.prob(j) - dn.prob(j) for j in js]).sum())
        shape = (1.0 + x * x) * math.exp(-0.07 * x * x) / (sigma * (1.0 - f))
        rows.append(CentralRegionRow(float(x), j_upper, partial, shape,
                                     partial / shape))
    return {"hypothesis_ok": hypothesis_ok, "window": wc, "rows": rows,
            "max_constant": max(r.constant for r in rows)}


@dataclass(frozen=True)
class FourChainSetup:
    n: int
    k: int
    x0: int
    y0: int

    def __post_init__(self):
        if not (0 < self.x0 < self.n and 0 < self.y0 < self.n):
            raise ParameterError("starting states must be interior")

    @property
    def eta(self) -> int:
        return self.x0 - self.y0

    @property
    def ells(self) -> tuple[int, int, int, int]:
        return (self.x0, self.n - self.x0, self.y0, self.n - self.y0)

    def approx(self, i: int) -> ApproxParams:
        return ApproxParams(self.n, self.k, self.ells[i])


@dataclass(frozen=True)
class TvDecomposition:
    hyper_dn_terms: tuple[float, float, float, float]
    shift_term: float
    center_term: float
    exact_tv: float | None

    @property
    def total_bound(self) -> float:
        return sum(self.hyper_dn_terms) + self.shift_term + self.center_term


def one_step_tv(params: ChainParams, x0: int, y0: int) -> TvDecomposition:
    """Six-term bound on the TV between the one-step laws from x0 and y0:
    four hypergeometric-vs-discrete-normal gaps, a shifted-normal comparison
    and a center comparison.  The exact one-step TV is attached when the
    instance is small enough to compute both rows."""
    setup = FourChainSetup(params.n, params.k, x0, y0)
    hypers = [hypergeom_pmf(setup.approx(i).hyper_params()) for i in range(4)]
    dns = [discrete_normal_pmf(setup.approx(i).dnormal_params()) for i in range(4)]
    terms = tuple(tv_distance(hypers[i], dns[i]) for i in range(4))
    shift = tv_distance(dns[1].shifted(setup.eta), dns[3])
    center = tv_distance(dns[0], dns[2])
    exact = None
    if params.n <= EXACT_TV_GUARD:
        exact = tv_distance(transition_row(params, x0), transition_row(params, y0))
    dec = TvDecomposition(terms, shift, center, exact)
    if exact is not None and exact > dec.total_bound + 1e-9:
        raise AssertionError("exact one-step TV exceeds the six-term bound")
    return dec


def shift_split_terms(setup: FourChainSetup, window: float = 3.0
                      ) -> tuple[float, float, float, float]:
    """Exact four-way split of the shifted-normal comparison: central window
    and window complement over the common support, plus the two support
    mismatch tails.  The four terms sum to twice the TV."""
    eta = setup.eta
    k, n = setup.k, setup.n
    p1 = discrete_normal_pmf(setup.approx(1).dnormal_params()).shifted(eta)
    p3 = discrete_normal_pmf(setup.approx(3).dnormal_params())
    common_lo, common_hi = max(0, eta), min(k, k + eta)
    j_lo, j_hi = k / 2.0 - window * math.sqrt(n), k / 2.0 + window * math.sqrt(n)
    t1 = t2 = t3 = t4 = 0.0
    for j in range(min(p1.lo, p3.lo), max(p1.hi, p3.hi) + 1):
        if common_lo <= j <= common_hi:
            diff = abs(p1.prob(j) - p3.prob(j))
            if j_lo <= j <= j_hi:
                t1 += diff
            else:
                t2 += diff
        elif 0 <= j <= k:          # only the unshifted law can sit here
            t3 += p3.prob(j)
        else:                      # only the shifted law can sit here
            t4 += p1.prob(j)
    return t1, t2, t3, t4
