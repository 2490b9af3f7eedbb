"""Exact transition kernel of the two-urn ball-swap chain.

Single-step rows, the stationary law, distance-to-stationarity profiles and
mixing-time extraction, the polynomial eigenfunctions with their closed-form
moment identities, and the moment-based lower-bound certificate.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import pmf as _pmf
from .errors import HorizonExceededError, InfeasibleSizeError, ParameterError
from .pmf import FinitePmf, HypergeomParams, difference_law, hypergeom_pmf, point_mass, tv_distance

MATRIX_GUARD = 4096      # refuse full (n+1)^2 kernel materialization above this
VECTOR_GUARD = 100_000   # refuse single-start evolution above this
MONOTONE_TOL = 1e-12
# all-states entries below this are zeroed: a product of two entries at or
# above it is a normal double, so the dense matmul never meets a subnormal
UNDERFLOW_FLOOR = 2.0**-510


@dataclass(frozen=True)
class ChainParams:
    n: int
    k: int

    def __post_init__(self):
        if self.n < 1:
            raise ParameterError("n must be positive")
        if not 0 <= self.k <= self.n:
            raise ParameterError("k must lie in [0, n]")

    def assumption_ok(self, delta: float) -> bool:
        """Whether k/n lies in the open band (0, delta), delta in (0, 1/2)."""
        if not 0 < delta < 0.5:
            raise ParameterError("delta must lie in (0, 1/2)")
        return 0 < self.k / self.n < delta


class StartPolicy(enum.Enum):
    ALL_STATES = "all_states"
    STATE_ZERO = "state_zero"


class Eigenfunction(enum.Enum):
    F1 = "f1"
    F2 = "f2"
    F3 = "f3"


@dataclass(frozen=True)
class MixingProfile:
    params: ChainParams
    start_policy: StartPolicy
    d_values: np.ndarray
    lost_mass: float = 0.0

    def __post_init__(self):
        d = np.asarray(self.d_values, dtype=np.float64)
        object.__setattr__(self, "d_values", d)
        if np.any(d < -MONOTONE_TOL) or np.any(d > 1 + MONOTONE_TOL):
            raise ParameterError("distance values must lie in [0, 1]")
        if np.any(np.diff(d) > MONOTONE_TOL):
            raise ParameterError("distance profile must be non-increasing")
        d.setflags(write=False)


@dataclass(frozen=True)
class MomentReport:
    t: int
    lhs: float
    rhs: float

    @property
    def abs_err(self) -> float:
        return abs(self.lhs - self.rhs)

    @property
    def rel_err(self) -> float:
        scale = max(abs(self.lhs), abs(self.rhs))
        return self.abs_err / scale if scale > 0 else 0.0


def _row(n: int, k: int, x: int, trim: bool) -> FinitePmf:
    removed = hypergeom_pmf(HypergeomParams(n, x, k), trim)
    # the other urn holds x whites, so the reds drawn from it, Hyp(n, n - x,
    # k), are k minus a Hyp(n, x, k): ``removed`` reflected about k/2, with
    # its Hoeffding window and lost mass.  At x = n/2 that reflection is the
    # law itself, kept as is so that the row is a palindrome bit for bit
    added = removed if 2 * x == n else FinitePmf(
        k - removed.hi, removed.weights[::-1], removed.lost_mass)
    row = difference_law(added, removed).shifted(x)
    if row.lo < 0 or row.hi > n:
        raise AssertionError("transition row escaped the state space")
    return row.truncated() if trim else row


def transition_row(params: ChainParams, x: int, trim: bool = False) -> FinitePmf:
    """Law of the next state from ``x``: x plus incoming-red minus
    outgoing-red counts, both hypergeometric over the k swapped balls.
    The other urn holds x whites, so one hypergeometric law, Hyp(n, x, k),
    gives both counts: outgoing reds are Hyp(n, x, k) and incoming reds are
    k minus an independent copy.

    With ``trim`` the hypergeometric law is computed on its Hoeffding
    window and the row's negligible tails are cut; ``lost_mass`` bounds the
    probability dropped."""
    if not 0 <= x <= params.n:
        raise ParameterError(f"state {x} outside [0, {params.n}]")
    return _row(params.n, params.k, int(x), trim)


def stationary(params: ChainParams) -> FinitePmf:
    """The unique invariant law: hypergeometric counts of red balls when the
    2n balls are split evenly at random."""
    n = params.n
    return hypergeom_pmf(HypergeomParams(2 * n, n, n))


class _SparseKernel:
    """The kernel rows of the states c <= n/2 reached so far, each built
    once, on first use, and stored as one CSR matrix in state order, so a
    step is one sparse product that sums the rows in the order of a loop
    over states.  Swapping the colours maps the chain to itself, so the row
    of x > n/2 is the row of n - x reversed: a step sends the mass of each
    such x through the row of n - x and reverses that part of the result.
    """

    def __init__(self, params: ChainParams, trim: bool):
        self.params = params
        self.trim = trim
        self._built = np.zeros(params.n // 2 + 1, dtype=bool)
        self._lost = np.zeros(params.n // 2 + 1)  # lost mass of each built row
        self._states = np.empty(0, dtype=np.intp)  # sorted; one per stored row
        self._indptr = np.zeros(1, dtype=np.intp)
        # int32 column indices are what scipy keeps, so it stores no copy
        self._cols = np.empty(0, dtype=np.int32)
        self._data = np.empty(0)
        self._matrix_t = None  # transpose of the CSR matrix

    def _add_rows(self, new: np.ndarray) -> None:
        """Build the rows of the (sorted) states ``new`` <= n/2 and splice
        them into the stored rows, in one copy of the stored entries."""
        n, k = self.params.n, self.params.k
        rows = [_row(n, k, int(c), self.trim) for c in new]
        at = np.searchsorted(self._states, new)  # stored rows before each new one
        data, cols, done = [], [], 0
        for a, row in zip(at, rows):
            span = slice(self._indptr[done], self._indptr[a])
            data += [self._data[span], row.weights]
            cols += [self._cols[span], row.support.astype(np.int32)]
            done = a
        data.append(self._data[self._indptr[done]:])
        cols.append(self._cols[self._indptr[done]:])
        self._data = np.concatenate(data)
        self._cols = np.concatenate(cols)
        lengths = np.insert(np.diff(self._indptr), at,
                            [row.weights.size for row in rows])
        self._indptr = np.concatenate([[0], np.cumsum(lengths)])
        self._states = np.insert(self._states, at, new)
        self._lost[new] = [row.lost_mass for row in rows]
        self._built[new] = True
        # imported here, not with the module: scipy takes longer to load
        # than the rest of the package, and only this kernel needs it
        from scipy import sparse as _sparse

        self._matrix_t = _sparse.csr_matrix(
            (self._data, self._cols, self._indptr),
            shape=(self._states.size, n + 1)).T

    def step(self, mu: FinitePmf) -> FinitePmf:
        """The law one step after ``mu``, with the rows' lost mass added."""
        n = self.params.n
        half = n // 2
        x = mu.dense_on(0, n)
        # column 0 holds the mass of each state c <= n/2, column 1 that of
        # its colour swap n - c (none at the middle state of an even n)
        both = np.zeros((half + 1, 2))
        both[:, 0] = x[:half + 1]
        both[:n - half, 1] = x[:half:-1]
        new = np.nonzero(both.any(axis=1) & ~self._built)[0]
        if new.size:
            self._add_rows(new)
        # elementwise, not BLAS: a threaded dot would leave spinning threads
        lost = mu.lost_mass + float((both * self._lost[:, None]).sum())
        out = self._matrix_t @ both[self._states]
        return _pmf.from_weights(0, out[:, 0] + out[::-1, 1],
                                 lost_mass=min(lost, 1.0))


@functools.lru_cache(maxsize=1)
def _kernel(params: ChainParams, trim: bool) -> _SparseKernel:
    """The kernel of the latest ``(params, trim)``, kept so that repeated
    one-step calls build each row once.  Its results do not depend on which
    rows it already holds: rows of states without mass add exact zeros."""
    return _SparseKernel(params, trim)


def evolve(params: ChainParams, mu: FinitePmf, steps: int,
           trim: bool = False) -> FinitePmf:
    """Push ``mu`` through the kernel ``steps`` times, accumulating any
    truncation losses from the rows used."""
    if mu.lo < 0 or mu.hi > params.n:
        raise ParameterError("distribution leaves the state space")
    if steps < 0:
        raise ParameterError("steps must be nonnegative")
    kernel = _kernel(params, trim)
    out = mu
    for _ in range(steps):
        out = kernel.step(out)
    return out


def _kernel_matrix(params: ChainParams) -> np.ndarray:
    n = params.n
    if n > MATRIX_GUARD:
        raise InfeasibleSizeError(
            f"full kernel materialization refused for n={n} > {MATRIX_GUARD}; "
            "the state-zero start policy scales further")
    P = np.zeros((n + 1, n + 1))
    for x in range(n // 2 + 1):
        row = transition_row(params, x)
        P[x, row.lo:row.hi + 1] = row.weights
    # swapping the colours maps the chain to itself (each colour has n balls
    # in all), so row n - x is row x reversed
    P[n // 2 + 1:] = P[n - n // 2 - 1::-1, ::-1]
    return P


def _flush(A: np.ndarray, small: np.ndarray | None = None) -> float:
    """Zero the entries of ``A`` below UNDERFLOW_FLOOR in place and return
    the largest row sum zeroed.  ``small``, a boolean array of A's shape,
    is used for the mask in place of a new one."""
    small = np.less(A, UNDERFLOW_FLOOR, out=small)
    lost = float(A.sum(axis=1, where=small).max())
    np.copyto(A, 0.0, where=small)
    return lost


def distance_profile(params: ChainParams, t_max: int,
                     start_policy: StartPolicy = StartPolicy.ALL_STATES) -> MixingProfile:
    """Worst-case (or from-zero) total variation to stationarity for
    t = 0..t_max.  ``lost_mass`` bounds the mass the kernel rows (trimmed, or
    zeroed below UNDERFLOW_FLOOR) dropped, and each d(t) includes it."""
    if t_max < 0:
        raise ParameterError("t_max must be nonnegative")
    n = params.n
    d = np.empty(t_max + 1)
    lost = 0.0
    # each branch refuses an oversized n before it builds anything of size n
    if start_policy is StartPolicy.ALL_STATES:
        P = _kernel_matrix(params)
        # a row of D's error stays at most ``lost``: P is stochastic and all
        # terms are nonnegative, so a step keeps the error and adds at most
        # the largest row sums zeroed from P and from D
        lost_p = _flush(P)
        pi_dense = stationary(params).dense_on(0, n)
        # P and pi are mirror images of themselves, so row n - x of D is
        # row x reversed and rows 0..n//2 hold every distance; the loop
        # reuses its buffers, since fresh ones would be page-faulted each step
        D = np.eye(n // 2 + 1, n + 1)
        D_next, gap = np.empty_like(D), np.empty_like(D)
        small = np.empty(D.shape, dtype=bool)
        for t in range(t_max + 1):
            np.abs(np.subtract(D, pi_dense, out=gap), out=gap)
            d[t] = min(1.0, 0.5 * gap.sum(axis=1).max() + lost)
            if t < t_max:
                D, D_next = np.matmul(D, P, out=D_next), D
                lost += lost_p + _flush(D, small)
    else:
        if n > VECTOR_GUARD:
            raise InfeasibleSizeError(
                f"single-start evolution refused for n={n} > {VECTOR_GUARD}; "
                "use the coupling simulation or the lower-bound certificate")
        pi = stationary(params)
        kernel = _kernel(params, n > MATRIX_GUARD)
        mu = point_mass(0)
        for t in range(t_max + 1):
            d[t] = min(1.0, tv_distance(mu, pi) + mu.lost_mass)
            if t < t_max:
                mu = kernel.step(mu)
        lost = mu.lost_mass
    if np.any(np.diff(d) > MONOTONE_TOL):
        raise AssertionError("distance profile increased beyond tolerance")
    np.minimum.accumulate(d, out=d)  # clean sub-tolerance rounding jitter
    return MixingProfile(params, start_policy, d, lost)


def t_mix(profile: MixingProfile, epsilon: float) -> int:
    """Smallest t in the profile with d(t) <= epsilon."""
    if not 0 < epsilon:
        raise ParameterError("epsilon must be positive")
    if epsilon >= 1:
        return 0
    hits = np.nonzero(profile.d_values <= epsilon)[0]
    if hits.size == 0:
        raise HorizonExceededError(epsilon, float(profile.d_values[-1]),
                                   len(profile.d_values) - 1)
    return int(hits[0])


def eigen_eval(params: ChainParams, kind: Eigenfunction, x: float) -> float:
    n = params.n
    if not 0 <= x <= n:
        raise ParameterError(f"argument {x} outside [0, {n}]")
    if kind is Eigenfunction.F1:
        return 1.0 - 2.0 * x / n
    if kind is Eigenfunction.F2:
        if n < 2:
            raise ParameterError("the quadratic eigenfunction requires n >= 2")
        return (1.0 - 2.0 * (2 * n - 1) * x / n**2
                + 2.0 * (2 * n - 1) * x * (x - 1) / (n**2 * (n - 1)))
    if kind is Eigenfunction.F3:
        return 1.0 - 2.0 * x * (n - x) / n**2
    raise ParameterError(f"unknown eigenfunction kind {kind!r}")


def verify_moment_identities(params: ChainParams, x0: int, t: int
                             ) -> tuple[MomentReport, MomentReport]:
    """Compare exact-evolution first and second moments of the linear
    eigenfunction against their closed forms."""
    n, k = params.n, params.k
    mu_t = evolve(params, point_mass(x0), t)
    f1_vals = 1.0 - 2.0 * mu_t.support / n
    lhs1 = float(np.dot(mu_t.weights, f1_vals))
    lhs2 = float(np.dot(mu_t.weights, f1_vals**2))
    f1k = eigen_eval(params, Eigenfunction.F1, k)
    rhs1 = f1k**t * eigen_eval(params, Eigenfunction.F1, x0)
    f2k = eigen_eval(params, Eigenfunction.F2, k)
    rhs2 = (1.0 / (2 * n - 1)
            + (2 * n - 2) / (2 * n - 1) * f2k**t
            * eigen_eval(params, Eigenfunction.F2, x0))
    return MomentReport(t, lhs1, rhs1), MomentReport(t, lhs2, rhs2)


def lower_bound_certificate(params: ChainParams, t: int) -> float:
    """Certified lower bound on the TV distance from state 0 at time t.

    Uses the exact closed-form moments of f = sqrt(n-1) * (linear
    eigenfunction): the stationary law concentrates f near 0 while the
    from-zero law concentrates it near its (large) mean, and Chebyshev on
    both sides certifies 1 - var_pi/alpha^2 - 1/r^2 whenever the two
    concentration sets are disjoint (|mean| - r*sd > alpha).
    """
    if t < 0:
        raise ParameterError("t must be nonnegative")
    n, k = params.n, params.k
    if n < 2:
        return 0.0
    f1k = eigen_eval(params, Eigenfunction.F1, k)
    f2k = eigen_eval(params, Eigenfunction.F2, k)
    scale = math.sqrt(n - 1)
    m = abs(scale * f1k**t)  # f evaluates to sqrt(n-1) at state 0
    second = (n - 1) * (1.0 / (2 * n - 1) + (2 * n - 2) / (2 * n - 1) * f2k**t)
    v0 = max(second - (scale * f1k**t) ** 2, 0.0)
    v_pi = (n - 1) / (2 * n - 1)
    best = 0.0
    sd = math.sqrt(v0)
    # the sets stay disjoint for ever fewer r as alpha or r grows, and the
    # bound grows with r, so each r-loop can stop at its first overlap
    for ja in range(21):
        alpha = float(1 << ja)
        for jr in range(21):
            r = float(1 << jr)
            if not m - r * sd > alpha:
                break
            best = max(best, 1.0 - v_pi / alpha**2 - 1.0 / r**2)
    return min(max(best, 0.0), 1.0)
