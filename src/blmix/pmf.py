"""Finite-distribution algebra on contiguous integer supports.

Hypergeometric and discrete-normal pmfs, total-variation distance and tail
cuts.  All pmfs are immutable and all operations are pure functions.  Kernel
rows convolve these laws directly, never by FFT.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, check_size

SUM_TOL = 1e-12
TRIM_REL = 1e-17  # tail weights below this fraction of the peak may be dropped
_Z_CAP = 2.0**500  # discrete-normal |z| is capped here, so z * z is finite
_Z_NEAR = 2.0**10  # most scales from a discrete-normal center to its support


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
        w = _real_array(self.weights)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "offset", as_index(self.offset, "offset"))
        check_mass(self.lost_mass, "lost_mass")
        if w.ndim != 1 or w.size == 0:
            raise ParameterError("weights must be a non-empty 1-d array")
        if not np.all(w >= 0):
            raise ParameterError("weights must be nonnegative")
        if w[0] == 0 or w[-1] == 0:
            raise ParameterError("weights must be trimmed (positive endpoints)")
        with np.errstate(over="ignore"):  # an overflowing sum is refused below
            total = float(w.sum()) + self.lost_mass
        if not abs(total - 1.0) <= SUM_TOL:
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
        j = as_index(j, "j")
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
        return FinitePmf(self.offset + as_index(d, "d"), self.weights,
                         self.lost_mass)

    def dense_on(self, lo: int, hi: int) -> np.ndarray:
        """Weights as a dense vector over [lo, hi]; support must fit inside."""
        lo, hi = as_index(lo, "lo"), as_index(hi, "hi")
        if self.lo < lo or self.hi > hi:
            raise ParameterError("support exceeds requested window")
        check_size("LAW_GUARD", hi - lo, "hi - lo")
        out = np.zeros(hi - lo + 1)
        out[self.lo - lo:self.hi - lo + 1] = self.weights
        return out


def first_last(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first and last True lane of each row of ``mask``."""
    return mask.argmax(axis=1), mask.shape[1] - 1 - mask[:, ::-1].argmax(axis=1)


def tail_cut(w: np.ndarray, first, last, rel_eps: float = TRIM_REL):
    """For each row of ``w``, whose positive weights lie in lanes
    ``first .. last``, the first and last lane of weight at least
    ``rel_eps`` times the row's peak, and the weight outside them."""
    lo, hi = first_last(w >= rel_eps * w.max(axis=1, keepdims=True))
    dropped = np.zeros(len(w))
    for r in np.nonzero((lo != first) | (hi != last))[0]:
        dropped[r] = w[r, first[r]:lo[r]].sum() + w[r, hi[r] + 1:last[r] + 1].sum()
    return lo, hi, dropped


def as_index(value, name: str) -> int:
    """``value`` as an int.  Ints and numpy integers pass; a bool, a float or
    anything else that is not an integer raises ParameterError."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ParameterError(f"{name} must be an integer, not {value!r}")


def check_real(value, name: str) -> None:
    """Raise ParameterError for a bool or a value that is not a real number
    (NaN passes, for the caller's range check)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ParameterError(f"{name} must be a real number, not {value!r}")


def check_mass(value, name: str) -> None:
    """Raise ParameterError for a ``value`` that is not a real number in
    [0, 1]."""
    check_real(value, name)
    if not 0 <= value <= 1:
        raise ParameterError(f"{name} must lie in [0, 1], not {value}")


def check_bool(value, name: str) -> None:
    """Raise ParameterError for a ``value`` that is not a bool, rather than
    read it as true or false."""
    if not isinstance(value, bool):
        raise ParameterError(f"{name} must be a bool, not {value!r}")


def check_type(value, kind: type, name: str) -> None:
    """Raise ParameterError for a ``value`` that is not a ``kind``."""
    if not isinstance(value, kind):
        raise ParameterError(f"{name} must be a {kind.__name__}, not {value!r}")


def _real_array(weights) -> np.ndarray:
    try:
        return np.asarray(weights, dtype=np.float64)
    except (TypeError, ValueError):
        raise ParameterError(
            f"weights must be real numbers, not {weights!r}") from None


def point_mass(j: int) -> FinitePmf:
    return FinitePmf(as_index(j, "j"), np.ones(1))


def from_weights(offset: int, weights, lost_mass: float = 0.0,
                 normalize: bool = False) -> FinitePmf:
    """Build a pmf from raw weights, trimming zero tails.

    With ``normalize`` the weights are rescaled to sum to ``1 - lost_mass``;
    their sum must then be a normal double, so that the scale is finite.
    A NaN or infinite weight is refused, not trimmed away as a zero tail.
    """
    offset = as_index(offset, "offset")
    check_mass(lost_mass, "lost_mass")
    check_bool(normalize, "normalize")
    w = _real_array(weights)
    with np.errstate(over="ignore"):
        s = w.sum()  # one pass: NaN or infinite if any weight or the sum is
    if not math.isfinite(s):
        raise ParameterError(f"weights must be finite numbers with a finite "
                             f"sum; they sum to {s}")
    if normalize:
        if not s >= 2.0**-1022:  # the least normal double, so 1/s is finite
            raise ParameterError(f"cannot normalize weights that sum to {s}")
        w = w * ((1.0 - lost_mass) / s)
    nz = np.nonzero(w > 0)[0]
    if nz.size == 0:
        raise ParameterError("all weights are zero")
    lo, hi = nz[0], nz[-1]
    return FinitePmf(offset + int(lo), w[lo:hi + 1].copy(), lost_mass)


@dataclass(frozen=True)
class HypergeomParams:
    population: int
    successes: int
    draws: int

    def __post_init__(self):
        for name in ("population", "successes", "draws"):
            object.__setattr__(self, name, as_index(getattr(self, name), name))
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
    recurrence spreading outward from the mode (``hypergeom_laws``).

    With ``trim`` the recurrence runs only on Serfling's window: the draws
    within sqrt(v ln(2/TRIM_REL)/2) of the mean, v = a(N+1-a)/N for a the
    least of draws, successes and their complements in N.  When it cuts the
    support, its bound on the two tails dropped, TRIM_REL, is ``lost_mass``.
    """
    check_type(params, HypergeomParams, "params")
    check_bool(trim, "trim")
    lo, w, width, lost = hypergeom_laws(params.population, [params.successes],
                                        params.draws, trim)
    return from_weights(int(lo[0]), w[0, :width[0]], lost_mass=float(lost[0]))


def hypergeom_laws(pop: int, successes, draws: int, trim: bool = False):
    """Hyp(pop, s, draws) for each s of ``successes``, all at once; see
    ``hypergeom_pmf``.  Returns ``(lo, w, width, lost)``: row r of ``w`` holds
    law r's normalised weights on ``lo[r] .. lo[r] + width[r] - 1`` and zeros
    after them, and ``lost[r]`` is its lost mass.  A law's bits do not depend
    on the others: its masked lanes add exact zeros to its partial sums, and
    it is normalised by the pairwise sum of its own weights."""
    m, laws = draws, []
    for succ in map(int, successes):
        lo, hi, lost = max(0, m - (pop - succ)), min(m, succ), 0.0
        if trim:
            # Serfling (1974): a law lies beyond mean +- dev with probability
            # at most 2 exp(-2 dev^2 / v), v = a (pop + 1 - a) / pop for a =
            # min(m, pop - m), or min(succ, pop - succ), as the law is
            # symmetric in draws and successes; dev spends TRIM_REL.  In
            # Python ints, as doubles round pop - succ and the mean above 2^53
            a = min(m, pop - m, succ, pop - succ)
            dev = math.sqrt(a * (pop + 1 - a) / pop * (math.log(2 / TRIM_REL) / 2))
            # the mean is q + r/pop exactly; round outward so every dropped
            # point lies strictly beyond mean +- dev
            q, r = divmod(m * succ, pop)
            window = (max(lo, q + math.floor(r / pop - dev)),
                      min(hi, q + math.ceil(r / pop + dev)))
            if window != (lo, hi):
                (lo, hi), lost = window, TRIM_REL
        check_size("LAW_GUARD", hi - lo, "hi - lo")
        mode = min(hi, max(lo, (m + 1) * (succ + 1) // (pop + 2)))
        laws.append((lo, hi - lo + 1, mode - lo, lost, *map(float, (
            succ - lo, m - lo, lo + 1, pop - succ - m + lo + 1))))
    lo, width, i, lost, *at_lo = (np.array(v)[:, None] for v in zip(*laws))
    # ratio p(j+1)/p(j) = (succ-j)(m-j) / ((j+1)(pop-succ-m+j+1)), one law
    # a row; its factors at j = lo are taken in ints, then to doubles, and
    # each moves by one a lane, as doubles would round j above 2^53; lanes
    # past a law's support take arguments of at least 1, so that their logs
    # are finite, and are masked out of the sums below
    lane = np.arange(width.max() - 1)
    logs = np.empty((4, len(laws), lane.size))
    for out, factor, step in zip(logs, at_lo, (-lane, -lane, lane, lane)):
        np.add(factor, step, out=out)
    np.log(np.maximum(logs, 1.0, out=logs), out=logs)
    logratio = logs[0]  # logs[0] + logs[1] - logs[2] - logs[3], in place
    logratio += logs[1]
    logratio -= logs[2]
    logratio -= logs[3]
    # cumulative sums outward from the mode i, up and down; the masked lanes
    # are zeros, which leave every partial sum exact
    below = lane < i
    up = np.where(~below & (lane < width - 1), logratio, 0.0)
    logw = np.zeros((len(laws), lane.size + 1))
    logw[:, 1:] = np.cumsum(up, axis=1)
    logw[:, :-1] -= np.cumsum(np.where(below, logratio, 0.0)[:, ::-1],
                              axis=1)[:, ::-1]
    w = np.exp(logw - logw.max(axis=1, keepdims=True))
    w[np.arange(lane.size + 1) >= width] = 0.0
    total = np.array([row[:size].sum() for row, size in zip(w, width.flat)])
    w *= (1.0 - lost) / total[:, None]
    return lo.ravel(), w, width.ravel(), lost.ravel()


@dataclass(frozen=True)
class DiscreteNormalParams:
    center: float
    scale: float
    lo: int
    hi: int

    def __post_init__(self):
        for name in ("lo", "hi"):
            object.__setattr__(self, name, as_index(getattr(self, name), name))
        for name in ("center", "scale"):
            check_real(getattr(self, name), name)
        if not (math.isfinite(self.center) and math.isfinite(self.scale)):
            raise ParameterError("center and scale must be finite numbers")
        if not self.scale > 0:
            raise ParameterError("scale must be positive")
        if not -2**53 <= self.lo <= self.hi <= 2**53:  # exact in doubles
            raise ParameterError("the support must be a non-empty interval "
                                 "within [-2^53, 2^53]")
        check_size("LAW_GUARD", self.hi - self.lo, "hi - lo")


def _normal_z(params: DiscreteNormalParams) -> np.ndarray:
    """(j - center)/scale over the support, capped at _Z_CAP in magnitude
    (a quotient past the double range is capped too).  A point beyond the
    cap has weight exp(-z^2/2) = 0, next to any point within half of it."""
    with np.errstate(over="ignore"):
        z = (np.arange(params.lo, params.hi + 1) - params.center) / params.scale
    return np.clip(z, -_Z_CAP, _Z_CAP, out=z)


def discrete_normal_norm_const(params: DiscreteNormalParams) -> float:
    """The normalizer: sum over the support of phi((j - center)/scale)/scale."""
    z = _normal_z(params)
    with np.errstate(over="ignore"):
        width = params.scale * math.sqrt(2 * math.pi)
        const = np.sum(np.exp(-0.5 * z * z)) / width
    if not (math.isfinite(width) and const < math.inf):
        raise ParameterError(f"scale {params.scale} takes the normalizer or "
                             "its divisor past the double range")
    return float(const)


def discrete_normal_pmf(params: DiscreteNormalParams) -> FinitePmf:
    """Normal density sampled on an integer interval and renormalized.

    Weights that underflow double precision are trimmed off the stored
    support (they carry no representable mass).  With z = (j - center)/scale
    and m the support point nearest the center, each weight kept has
    z_j^2 - z_m^2 < 1491, so its log relative to the largest weight,
    -(z_j^2 - z_m^2)/2, rounds by at most 2^-53 (10 z_m^2 + 8946).  Refused
    when |z_m| exceeds _Z_NEAR = 2^10, where that bound passes 2^-30: below
    it each normal (not subnormal) weight's ratio to the largest is within
    a relative 2^-29 of the exact law's.  (At center 1e20 and scale 1e10,
    say, z * z takes one value at every point of [-5, 5], where the exact
    law's neighbours differ by a factor e.)
    """
    z = _normal_z(params)
    zz = z * z
    if not zz.min() <= _Z_NEAR**2:
        raise ParameterError("the center lies more than 2^10 scales from "
                             "every point of the support")
    w = np.exp(-0.5 * (zz - zz.min()))
    return from_weights(params.lo, w, normalize=True)


def tv_distance(p: FinitePmf, q: FinitePmf) -> float:
    """Half the L1 distance over the union of supports (absent points count
    as zero weight)."""
    check_type(p, FinitePmf, "p")
    check_type(q, FinitePmf, "q")
    lo, hi = min(p.lo, q.lo), max(p.hi, q.hi)
    return float(0.5 * np.abs(p.dense_on(lo, hi) - q.dense_on(lo, hi)).sum())


def lost_either(la, lb):
    """The mass lost by A - B when A and B have lost ``la`` and ``lb``."""
    # written without 1 - (1 - a)(1 - b), which rounds masses below 1e-16 to 0
    return la + lb - la * lb
