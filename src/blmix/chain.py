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
from .pmf import (SUM_TOL, FinitePmf, HypergeomParams, as_index,
                  hypergeom_pmf, point_mass, tv_distance)

MATRIX_GUARD = 4096      # refuse the all-states profile above this
VECTOR_GUARD = 100_000   # refuse single-start evolution above this
MONOTONE_TOL = 1e-12
# all-states entries below this are zeroed: a product of two entries at or
# above it is a normal double, so the dense matmul never meets a subnormal
UNDERFLOW_FLOOR = 2.0**-510
TILE = 32  # consecutive states whose rows are built and stored as one block


@dataclass(frozen=True)
class ChainParams:
    n: int
    k: int

    def __post_init__(self):
        for name in ("n", "k"):
            object.__setattr__(self, name, as_index(getattr(self, name), name))
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


def _rows(n: int, k: int, states: np.ndarray, trim: bool):
    """The kernel rows of ``states`` as one dense block, ``(c0, block,
    lost)``: row r of ``block`` holds the row of ``states[r]`` on columns
    c0, c0 + 1, ..., with zeros off its support, and ``lost[r]`` is its
    lost mass.  A row's bits do not depend on the other states it is built
    with."""
    lo, laws, _, lost = _pmf.hypergeom_laws(n, states, k, trim)
    first, last = _pmf.first_last(laws > 0)
    convs = []
    for x, law, a, b in zip(states.tolist(), laws, first, last):
        removed = law[a:b + 1]  # the reds drawn from the urn of x reds
        # the other urn holds x whites, so the reds drawn from it, Hyp(n,
        # n - x, k), are k minus a Hyp(n, x, k): ``removed`` reflected about
        # k/2.  At x = n/2 that reflection is the law itself, kept as is so
        # that the row is a palindrome bit for bit
        added = removed if 2 * x == n else removed[::-1]
        convs.append(_pmf.convolve(added, removed[::-1]))
    removed_lo, removed_hi = lo + first, lo + last
    added_lo = np.where(2 * states == n, removed_lo, k - removed_hi)
    start = added_lo - removed_hi + states  # each row's first lane's state
    # the rows' weights, normalised as ``difference_law`` does each one
    rows = np.zeros((len(convs), max(c.size for c in convs)))
    for row, c in zip(rows, convs):
        row[:c.size] = c
    lost = _pmf.lost_either(lost, lost)
    rows *= ((1.0 - lost) / np.array([c.sum() for c in convs]))[:, None]
    first, last = _pmf.first_last(rows > 0)
    if (start + first).min() < 0 or (start + last).max() > n:
        raise AssertionError("transition row escaped the state space")
    if trim:
        first, last, dropped = _pmf.tail_cut(rows, first, last)
        lost += dropped
    c0 = int((start + first).min())
    left, right = start + first - c0, start + last - c0  # each row's span
    block = np.zeros((len(states), int(right.max()) + 1))
    for row, w, a, b, col in zip(block, rows, first, last, left):
        row[col:col + b - a + 1] = w[a:b + 1]
    at = np.arange(len(states))
    if not (block.min() >= 0 and block[at, left].min() > 0
            and block[at, right].min() > 0
            and np.abs(block.sum(axis=1) + lost - 1.0).max() <= SUM_TOL):
        raise AssertionError("transition row is not a trimmed pmf")
    return c0, block, lost


def transition_row(params: ChainParams, x: int, trim: bool = False) -> FinitePmf:
    """Law of the next state from ``x``: x plus incoming-red minus
    outgoing-red counts, both hypergeometric over the k swapped balls.
    The other urn holds x whites, so one hypergeometric law, Hyp(n, x, k),
    gives both counts: outgoing reds are Hyp(n, x, k) and incoming reds are
    k minus an independent copy.

    With ``trim`` the hypergeometric law is computed on its Hoeffding
    window and the row's negligible tails are cut; ``lost_mass`` bounds the
    probability dropped."""
    x = as_index(x, "state")
    if not 0 <= x <= params.n:
        raise ParameterError(f"state {x} outside [0, {params.n}]")
    c0, block, lost = _rows(params.n, params.k, np.array([x]), trim)
    return FinitePmf(c0, block[0], float(lost[0]))


def stationary(params: ChainParams) -> FinitePmf:
    """The unique invariant law: hypergeometric counts of red balls when the
    2n balls are split evenly at random."""
    n = params.n
    return hypergeom_pmf(HypergeomParams(2 * n, n, n))


class _SparseKernel:
    """The kernel rows of the states c <= n/2 reached so far, held in dense
    blocks of TILE consecutive states.  A tile is built whole, by one
    ``_rows`` call, the first time any of its states carries mass, and
    spans the union of its rows' columns, so its bits do not depend on the
    order states were reached in.  Swapping the colours maps the chain to
    itself, so the row of x > n/2 is the row of n - x reversed: a step sends
    the mass of each such x through the row of n - x and reverses that part
    of the result.  A step is one (2 x TILE) by (TILE x width) product per
    built tile from the first to the last tile with mass (the last tile
    holds fewer states when TILE does not divide n // 2 + 1), added in tile
    order; the tiles outside that range would add exact zeros, so the result
    is the same bits as over every built tile.
    """

    def __init__(self, params: ChainParams, trim: bool):
        self.params = params
        self.trim = trim
        self._lost = np.zeros(params.n // 2 + 1)  # lost mass of each built row
        # the first column and the (TILE, width) block of each built tile
        self._tiles = [None] * (params.n // 2 // TILE + 1)

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
        carried = np.nonzero(both.any(axis=1))[0]
        # each product is below OpenBLAS's threshold for threading
        out = np.zeros((2, n + 1))
        for tile in range(carried[0] // TILE, carried[-1] // TILE + 1):
            part = both[tile * TILE:(tile + 1) * TILE]
            if self._tiles[tile] is None:
                if not part.any():
                    continue
                states = np.arange(tile * TILE, tile * TILE + len(part))
                c0, block, self._lost[states] = _rows(
                    n, self.params.k, states, self.trim)
                self._tiles[tile] = c0, block
            c0, block = self._tiles[tile]
            out[:, c0:c0 + block.shape[1]] += part.T @ block
        # elementwise, not BLAS: a threaded dot would leave spinning threads
        lost = mu.lost_mass + float((both * self._lost[:, None]).sum())
        return _pmf.from_weights(0, out[0] + out[1, ::-1],
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
    if as_index(steps, "steps") < 0:
        raise ParameterError("steps must be nonnegative")
    kernel = _kernel(params, trim)
    out = mu
    for _ in range(steps):
        out = kernel.step(out)
    return out


def _flush(A: np.ndarray, mag: np.ndarray) -> np.ndarray:
    """Zero the entries of ``A`` whose magnitude ``mag`` is below
    UNDERFLOW_FLOOR, in A and in ``mag``, and return each row's sum of the
    magnitudes zeroed.  For A >= 0, ``mag`` is A itself."""
    small = mag < UNDERFLOW_FLOOR
    zeroed = mag.sum(axis=1, where=small)
    np.copyto(A, 0.0, where=small)
    if mag is not A:
        np.copyto(mag, 0.0, where=small)
    return zeroed


def _folded_kernels(params: ChainParams) -> tuple[np.ndarray, np.ndarray, float]:
    """The kernel folded by the colour swap J into its even and odd halves,
    ``(K_plus, K_minus, lost)``: with h = n // 2, a = (n + 1) // 2 and y, z
    < n/2, K_plus[y, z] = P(y, z) + P(n - y, z) for z <= h, plus the middle
    row P(h, .) at even n, and K_minus[y, z] = P(y, z) - P(n - y, z).  The
    rows y <= h of P are built untrimmed by ``_rows``, TILE states at a
    time, and row n - y is row y reversed.  P's and K_minus's entries below
    UNDERFLOW_FLOOR in magnitude are zeroed; ``lost`` bounds what that adds
    to the error of a step (see ``distance_profile``)."""
    n = params.n
    h, a = n // 2, (n + 1) // 2
    rows = np.zeros((h + 1, n + 1))
    for at in range(0, h + 1, TILE):
        c0, block, _ = _rows(n, params.k, np.arange(at, min(at + TILE, h + 1)),
                             False)
        rows[at:at + len(block), c0:c0 + block.shape[1]] = block
    zeroed = _flush(rows, rows)  # no entry of P is negative
    mirrored = rows[:a, ::-1]  # rows n - y of the states y < n/2
    k_plus = np.empty((h + 1, h + 1))
    np.add(rows[:a, :h + 1], mirrored[:, :h + 1], out=k_plus[:a])
    k_plus[a:] = rows[h, :h + 1]  # no row at odd n
    k_minus = np.subtract(rows[:a, :a], mirrored[:, :a])
    del rows, mirrored  # not held through K_minus's flush
    zeroed_minus = _flush(k_minus, np.abs(k_minus))
    return k_plus, k_minus, float(zeroed.max()
                                  + (zeroed[:a] + zeroed_minus).max())


def distance_profile(params: ChainParams, t_max: int,
                     start_policy: StartPolicy = StartPolicy.ALL_STATES) -> MixingProfile:
    """Worst-case (or from-zero) total variation to stationarity for
    t = 0..t_max.  ``lost_mass`` bounds the L1 error that the kernel rows'
    trimming, or the zeroing below UNDERFLOW_FLOOR, put into the law of any
    start, and each d(t) includes it.

    All states: swapping the colours, J: x -> n - x, maps the chain to
    itself, so row n - x of D_t = P^t is row x reversed and the rows x <= h
    = n // 2 hold every distance.  They are evolved as their even and odd
    parts, S_t = D_t (I + J) on the columns z <= h (the middle column of an
    even n is 2 D_t(x, h)) and V_t = D_t (I - J) on the a = (n + 1) // 2
    columns z < n/2.  Both evolve by P, since PJ = JP, so a step is
    S <- S K_plus and V <- V K_minus (``_folded_kernels``): 2(h+1)^3 +
    2(h+1)a^2 flops, about half the 2(h+1)(n+1)^2 of D <- D P.  As pi is
    even, |u+v| + |u-v| = 2 max(|u|, |v|) gives
    d_x(t) = 1/2 [sum_{z<n/2} max(|S(x,z) - 2 pi(z)|, |V(x,z)|)
                  + 1/2 |S(x,h) - 2 pi(h)| (even n only)].

    Entries of S and V below UNDERFLOW_FLOOR in magnitude are zeroed after
    each step, so the products never meet a subnormal.  Measure a row of S
    by |s|_+ = sum_{z<n/2} |s_z| + 1/2 |s_h| (even n) and a row of V by
    |v|_- = sum |v_z|: half the L1 norms of the even and odd rows over all
    n + 1 columns.  The exact K_plus and K_minus do not raise them, |S_t(x)|_+
    = 1 and |V_t(x)|_- <= 1, and D_t(x) is off in L1 by at most |e_S|_+ +
    |e_V|_-, with e_S and e_V the errors of S_t(x) and V_t(x).  A step adds
    to that at most: the largest row sum zeroed from P, for K_plus (the
    zeroed part of its row y has |.|_+ equal to row y's zeroed sum, or half
    of it at the middle row, which |.|_+ weighs by 1/2); that sum plus the
    magnitudes zeroed from row y of K_minus, largest over y, for K_minus;
    and the magnitudes zeroed from the row of S and of V.
    """
    if as_index(t_max, "t_max") < 0:
        raise ParameterError("t_max must be nonnegative")
    n = params.n
    d = np.empty(t_max + 1)
    lost = 0.0
    # each branch refuses an oversized n before it builds anything of size n
    if start_policy is StartPolicy.ALL_STATES:
        if n > MATRIX_GUARD:
            raise InfeasibleSizeError(
                f"all-states profile refused for n={n} > {MATRIX_GUARD}; "
                "the state-zero start policy scales further")
        h, a = n // 2, (n + 1) // 2
        k_plus, k_minus, lost_k = _folded_kernels(params)
        two_pi = 2.0 * stationary(params).dense_on(0, n)[:h + 1]
        S, V = np.eye(h + 1), np.eye(h + 1, a)
        if a == h:
            S[h, h] = 2.0  # the middle column of an even n holds 2 D_t(x, h)
        # between steps S_next and V_next are free, so the loop uses them as
        # its scratch: V_next holds |V| with the floored entries at 0, left
        # there by the flush (S >= 0, as S_0 = I and K_plus >= 0)
        S_next, V_next = np.empty_like(S), np.abs(V)
        for t in range(t_max + 1):
            gap = np.abs(np.subtract(S, two_pi, out=S_next), out=S_next)
            np.maximum(gap[:, :a], V_next, out=V_next)
            # gap[:, a:] is the middle column of an even n (none at odd n)
            row = V_next.sum(axis=1) + 0.5 * gap[:, a:].sum(axis=1)
            d[t] = min(1.0, 0.5 * row.max() + lost)
            if t < t_max:
                S, S_next = np.matmul(S, k_plus, out=S_next), S
                V, V_next = np.matmul(V, k_minus, out=V_next), V
                zeroed = _flush(S, S) + _flush(V, np.abs(V, out=V_next))
                lost += lost_k + float(zeroed.max())
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
    x0, t = as_index(x0, "x0"), as_index(t, "t")
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
    if as_index(t, "t") < 0:
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
