"""Discrete-normal approximation of the one-step increment distributions.

Compares hypergeometric increment laws against renormalized normal densities
on the same integer support, checks the normalization constant, and
assembles the six-term triangle-inequality bound on the one-step total
variation between two nearby starting states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .chain import ChainParams, transition_row
from .errors import EXACT_TV_GUARD, ParameterError, check_size
from .pmf import (DiscreteNormalParams, HypergeomParams, as_index,
                  discrete_normal_norm_const, discrete_normal_pmf,
                  hypergeom_pmf, tv_distance)


@dataclass(frozen=True)
class ApproxParams:
    n: int
    k: int
    ell: int

    def __post_init__(self):
        for name in ("n", "k", "ell"):
            object.__setattr__(self, name, as_index(getattr(self, name), name))
        check_size("LAW_GUARD", self.n)  # its laws have k + 1 points
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


def normalization_constant(ap: ApproxParams) -> float:
    """Direct sum of the sampled normal density over {0..k}; close to 1 when
    the density's effective width sits inside the support."""
    return discrete_normal_norm_const(ap.dnormal_params())


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
class FourChainSetup:
    n: int
    k: int
    x0: int
    y0: int

    def __post_init__(self):
        for name in ("n", "k", "x0", "y0"):
            object.__setattr__(self, name, as_index(getattr(self, name), name))
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

