"""Finite-distribution algebra on contiguous integer supports.

Hypergeometric and discrete-normal pmfs, total-variation distance, the
convolution giving the law of a difference of independent variables, a
Hoeffding tail bound, and seeded sampling.  All pmfs are immutable and all
operations are pure functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .rng import RngStream

SUM_TOL = 1e-12
TRIM_REL = 1e-17  # tail weights below this fraction of the peak may be dropped
_DIRECT_CONV_LIMIT = 4_000_000  # use exact direct convolution below this cost


@dataclass(frozen=True)
class FinitePmf:
    """A pmf on consecutive integers ``offset, offset+1, ...``.

    ``lost_mass`` records probability dropped by tail truncation; the stored
    weights plus the lost mass account for 1 within ``SUM_TOL``.  Stored
    weights are trimmed: the first and last entries are positive.
    """

    offset: int
    weights: np.ndarray
    lost_mass: float = 0.0

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        object.__setattr__(self, "weights", w)
        if w.ndim != 1 or w.size == 0:
            raise ParameterError("weights must be a non-empty 1-d array")
        if np.any(w < 0):
            raise ParameterError("weights must be nonnegative")
        if w[0] == 0 or w[-1] == 0:
            raise ParameterError("weights must be trimmed (positive endpoints)")
        if self.lost_mass < 0:
            raise ParameterError("lost_mass must be nonnegative")
        total = float(w.sum()) + self.lost_mass
        if abs(total - 1.0) > SUM_TOL:
            raise ParameterError(f"weights + lost_mass sum to {total}, not 1")
        w.setflags(write=False)

    @property
    def lo(self) -> int:
        return self.offset

    @property
    def hi(self) -> int:
        return self.offset + len(self.weights) - 1

    @property
    def support(self) -> np.ndarray:
        return np.arange(self.lo, self.hi + 1)

    def prob(self, j: int) -> float:
        if self.lo <= j <= self.hi:
            return float(self.weights[j - self.offset])
        return 0.0

    def mean(self) -> float:
        return float(np.dot(self.support, self.weights))

    def variance(self) -> float:
        m = self.mean()
        return float(np.dot((self.support - m) ** 2, self.weights))

    def shifted(self, d: int) -> "FinitePmf":
        """Law of X + d."""
        return FinitePmf(self.offset + int(d), self.weights, self.lost_mass)

    def truncated(self, rel_eps: float = TRIM_REL) -> "FinitePmf":
        """Drop tail weights below ``rel_eps`` times the peak, recording the
        dropped probability in ``lost_mass`` (no renormalization)."""
        w = self.weights
        thresh = rel_eps * w.max()
        keep = np.nonzero(w >= thresh)[0]
        lo, hi = keep[0], keep[-1]
        if lo == 0 and hi == w.size - 1:
            return self
        dropped = float(w[:lo].sum() + w[hi + 1:].sum())
        return FinitePmf(self.offset + int(lo), w[lo:hi + 1].copy(),
                         self.lost_mass + dropped)

    def dense_on(self, lo: int, hi: int) -> np.ndarray:
        """Weights as a dense vector over [lo, hi]; support must fit inside."""
        if self.lo < lo or self.hi > hi:
            raise ParameterError("support exceeds requested window")
        out = np.zeros(hi - lo + 1)
        out[self.lo - lo:self.hi - lo + 1] = self.weights
        return out


def point_mass(j: int) -> FinitePmf:
    return FinitePmf(int(j), np.ones(1))


def from_weights(offset: int, weights, lost_mass: float = 0.0,
                 normalize: bool = False) -> FinitePmf:
    """Build a pmf from raw weights, trimming zero tails.

    With ``normalize`` the weights are rescaled to sum to ``1 - lost_mass``.
    """
    w = np.asarray(weights, dtype=np.float64)
    if normalize:
        s = w.sum()
        if s <= 0:
            raise ParameterError("cannot normalize nonpositive weights")
        w = w * ((1.0 - lost_mass) / s)
    nz = np.nonzero(w > 0)[0]
    if nz.size == 0:
        raise ParameterError("all weights are zero")
    lo, hi = nz[0], nz[-1]
    return FinitePmf(int(offset + lo), w[lo:hi + 1].copy(), lost_mass)


@dataclass(frozen=True)
class HypergeomParams:
    population: int
    successes: int
    draws: int

    def __post_init__(self):
        if self.population < 1:
            raise ParameterError("population must be positive")
        if not 0 <= self.successes <= self.population:
            raise ParameterError("successes must lie in [0, population]")
        if not 0 <= self.draws <= self.population:
            raise ParameterError("draws must lie in [0, population]")

    @property
    def support_lo(self) -> int:
        return max(0, self.draws - (self.population - self.successes))

    @property
    def support_hi(self) -> int:
        return min(self.draws, self.successes)


def hypergeom_pmf(params: HypergeomParams, trim: bool = False) -> FinitePmf:
    """Exact hypergeometric pmf, computed in log space by the weight-ratio
    recurrence spreading outward from the mode.

    With ``trim`` the recurrence runs only on the window of draws within
    ``dev = sqrt(draws * ln(2/TRIM_REL) / 2)`` of the mean; when the window
    cuts the support, the Hoeffding bound on the dropped two-sided tail
    (at most ``TRIM_REL``) is recorded as ``lost_mass``.
    """
    pop, succ, m = params.population, params.successes, params.draws
    lo, hi = params.support_lo, params.support_hi
    lost = 0.0
    if trim:
        mean = m * succ / pop
        dev = math.sqrt(m * math.log(2.0 / TRIM_REL) / 2.0)
        # round outward so every dropped point lies strictly beyond mean +- dev
        win_lo = max(lo, math.floor(mean - dev))
        win_hi = min(hi, math.ceil(mean + dev))
        if (win_lo, win_hi) != (lo, hi):
            lo, hi = win_lo, win_hi
            lost = hoeffding_tail(params, dev / m)
    width = hi - lo + 1
    if width == 1:
        return point_mass(lo)
    # ratio p(j+1)/p(j) = (succ-j)(m-j) / ((j+1)(pop-succ-m+j+1))
    j = np.arange(lo, hi, dtype=np.float64)
    logratio = (np.log(succ - j) + np.log(m - j)
                - np.log(j + 1.0) - np.log(pop - succ - m + j + 1.0))
    mode = min(hi, max(lo, (m + 1) * (succ + 1) // (pop + 2)))
    i = mode - lo  # index of the mode within the support
    logw = np.zeros(width)
    if i < width - 1:
        logw[i + 1:] = np.cumsum(logratio[i:])
    if i > 0:
        logw[:i] = -np.cumsum(logratio[:i][::-1])[::-1]
    w = np.exp(logw - logw.max())
    return from_weights(lo, w, lost_mass=lost, normalize=True)


@dataclass(frozen=True)
class DiscreteNormalParams:
    center: float
    scale: float
    lo: int
    hi: int

    def __post_init__(self):
        if not self.scale > 0:
            raise ParameterError("scale must be positive")
        if self.lo > self.hi:
            raise ParameterError("empty support interval")


def discrete_normal_norm_const(params: DiscreteNormalParams) -> float:
    """The normalizer: sum over the support of phi((j - center)/scale)/scale."""
    z = (np.arange(params.lo, params.hi + 1) - params.center) / params.scale
    return float(np.sum(np.exp(-0.5 * z * z)) / (params.scale * math.sqrt(2 * math.pi)))


def discrete_normal_pmf(params: DiscreteNormalParams) -> FinitePmf:
    """Normal density sampled on an integer interval and renormalized.

    Weights that underflow double precision are trimmed off the stored
    support (they carry no representable mass).
    """
    z = (np.arange(params.lo, params.hi + 1) - params.center) / params.scale
    w = np.exp(-0.5 * (z * z - (z * z).min()))
    return from_weights(params.lo, w, normalize=True)


def tv_distance(p: FinitePmf, q: FinitePmf) -> float:
    """Half the L1 distance over the union of supports (absent points count
    as zero weight)."""
    lo = min(p.lo, q.lo)
    hi = max(p.hi, q.hi)
    return float(0.5 * np.abs(p.dense_on(lo, hi) - q.dense_on(lo, hi)).sum())


def _fast_len(size: int) -> int:
    """The smallest 2^a 3^b 5^c at least ``size``, a length pocketfft
    transforms fast; ``scipy.fft.next_fast_len(size, True)`` is the same."""
    best = 1 << (size - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the least p35 * 2^a >= size
            best = min(best, p35 << ((size - 1) // p35).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def difference_law(p_a: FinitePmf, p_b: FinitePmf) -> FinitePmf:
    """Exact law of A - B for independent A ~ p_a, B ~ p_b."""
    wa, wb = p_a.weights, p_b.weights[::-1]
    if wa.size * wb.size <= _DIRECT_CONV_LIMIT:
        w = np.convolve(wa, wb)
    else:
        size = wa.size + wb.size - 1
        fft_len = _fast_len(size)
        w = np.fft.irfft(np.fft.rfft(wa, fft_len) * np.fft.rfft(wb, fft_len),
                         fft_len)[:size]
        np.maximum(w, 0.0, out=w)
    # written without 1 - (1 - a)(1 - b), which rounds masses below 1e-16 to 0
    la, lb = p_a.lost_mass, p_b.lost_mass
    lost = la + lb - la * lb
    return from_weights(p_a.lo - p_b.hi, w, lost_mass=lost, normalize=True)


def hoeffding_tail(params: HypergeomParams, deviation: float) -> float:
    """Two-sided exponential tail bound 2*exp(-2*draws*deviation^2) for the
    draw fraction deviating by more than ``deviation``.  May exceed 1."""
    if deviation < 0:
        raise ParameterError("deviation must be nonnegative")
    return 2.0 * math.exp(-2.0 * params.draws * deviation * deviation)


def _inverse_transform(pmf: FinitePmf, u: np.ndarray) -> np.ndarray:
    cdf = np.cumsum(pmf.weights)
    idx = np.searchsorted(cdf, u * cdf[-1], side="right")
    return pmf.offset + np.minimum(idx, len(pmf.weights) - 1)


def sample(pmf: FinitePmf, rng: RngStream, size: int | None = None):
    """Inverse-transform draw(s) from ``pmf``; scalar when size is None."""
    u = rng.gen.random(1 if size is None else size)
    out = _inverse_transform(pmf, u)
    return int(out[0]) if size is None else out


def sample_hypergeom(params: HypergeomParams, rng: RngStream,
                     size: int | None = None):
    """Exact hypergeometric draw(s) by inverse transform against the
    mode-outward pmf."""
    return sample(hypergeom_pmf(params), rng, size)
