"""Exact transition kernel of the two-urn ball-swap chain.

Single-step rows, the stationary law, distance-to-stationarity profiles and
mixing-time extraction, the polynomial eigenfunctions, and the moment-based
lower-bound certificate.
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
_MODES = 64  # Hahn modes the all-states row bound sums one by one
_U = 2.0**-53  # unit roundoff of a double
_TINY = 2.0**-1022  # the smallest normal double


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
        if not np.all((d >= -MONOTONE_TOL) & (d <= 1 + MONOTONE_TOL)):
            raise ParameterError("distance values must lie in [0, 1]")
        if np.any(np.diff(d) > MONOTONE_TOL):
            raise ParameterError("distance profile must be non-increasing")
        d.setflags(write=False)


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


def _check_trim(trim) -> None:
    if not isinstance(trim, bool):
        raise ParameterError(f"trim must be a bool, not {trim!r}")


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
    _check_trim(trim)
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
    _check_trim(trim)
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


def _folded_distances(k_plus: np.ndarray, k_minus: np.ndarray,
                      two_pi: np.ndarray, lost_k: float, rows: np.ndarray):
    """Evolve the starts x < rows[t] through ``_folded_kernels``' halves at
    t = 0, 1, ..., len(rows) - 1, where ``rows`` never grows: ``(dist,
    lost)``, with dist[t] the largest distance of those starts at step t and
    lost[t] the bound so far on what the floor put into it (see
    ``distance_profile``), not included in dist[t]."""
    h, a = len(k_plus) - 1, len(k_minus)
    S, V = np.eye(rows[0], h + 1), np.eye(rows[0], a)
    if a == h and rows[0] > h:
        S[h, h] = 2.0  # the middle column of an even n holds 2 D_t(x, h)
    # between steps S_next and V_next are free, so the loop uses them as
    # its scratch: V_next holds |V| with the floored entries at 0, left
    # there by the flush (S >= 0, as S_0 = I and K_plus >= 0).  A step
    # writes the products of the rows it keeps into leading-row views
    S_next, V_next = np.empty_like(S), np.abs(V)
    dist, lost = np.empty(len(rows)), np.zeros(len(rows))
    for t, r in enumerate(rows):
        gap = np.abs(np.subtract(S[:r], two_pi, out=S_next[:r]), out=S_next[:r])
        mag = np.maximum(gap[:, :a], V_next[:r], out=V_next[:r])
        # gap[:, a:] is the middle column of an even n (none at odd n)
        dist[t] = 0.5 * (mag.sum(axis=1) + 0.5 * gap[:, a:].sum(axis=1)).max()
        if t + 1 < len(rows):
            r = rows[t + 1]
            S, S_next = np.matmul(S[:r], k_plus, out=S_next[:r]), S
            V, V_next = np.matmul(V[:r], k_minus, out=V_next[:r]), V
            zeroed = _flush(S, S) + _flush(V, np.abs(V, out=V_next[:r]))
            lost[t + 1] = lost[t] + (lost_k + float(zeroed.max()))
    return dist, lost


def _gamma(m: int) -> float:
    """m u / (1 - m u): the relative rounding error of a sum of m products
    of doubles, in any order."""
    return m * _U / (1.0 - m * _U)


def _hahn(n: int, x: np.ndarray, top: int) -> tuple[np.ndarray, np.ndarray]:
    """Q_i(x) for i = 0..top (top <= n), each with a bound on its rounding
    error: ``(q, err)``, of shape (top + 1,) + x.shape.

    Q_i(x) = 3F2(-i, i-2n-1, -x; -n, -n; 1) is the Hahn polynomial of the
    Johnson scheme J(2n, n), which this chain lumps: the chain's eigenvalues
    are beta_i = Q_i(k), with eigenvector Q_i(.), and d_i = C(2n, i) -
    C(2n, i-1) is the multiplicity of beta_i in the scheme.  From Q_0 = 1
    the three-term recurrence
        A_i Q_{i+1} = (n/2 - x) Q_i - C_i Q_{i-1},
    A_i = (2n+1-i)(n-i) / (2(2n+1-2i)), C_i = i(n+1-i) / (2(2n+1-2i)),
    runs vectorised over x.  n/2 - x is exact; a step rounds A_i, C_i, the
    products a = (n/2 - x) Q_i and b = C_i Q_{i-1}, their difference and
    the quotient, so it adds at most 5u (|a| + |b|) / A_i to the errors it
    carries, to first order (6u here, which covers the higher orders).
    Q_i is a spherical function, |Q_i(x)| <= 1 at every state, so the error
    is also at most |q| + 1: that cap keeps the bound finite where the
    recurrence is unstable (k near 0 or n and large i)."""
    q = np.zeros((top + 1,) + x.shape)  # q[-1] = 0 stands for Q_{-1}
    err = np.zeros_like(q)
    q[0] = 1.0
    shift = n / 2 - x
    for i in range(top):
        den = 2.0 * (2 * n + 1 - 2 * i)
        c, big_a = i * (n + 1 - i) / den, (2 * n + 1 - i) * (n - i) / den
        a, b = shift * q[i], c * q[i - 1]
        q[i + 1] = (a - b) / big_a
        err[i + 1] = np.minimum(
            (abs(shift) * err[i] + c * err[i - 1] + 6 * _U * (abs(a) + abs(b)))
            / big_a, abs(q[i + 1]) + 1.0)
    return q, err


def _log_binomials(m: int, top: int) -> np.ndarray:
    """log C(m, j) for j = 0..top, as cumulative sums of log((m-j+1)/j)."""
    j = np.arange(1.0, top + 1)
    return np.concatenate(([0.0], np.cumsum(np.log((m - j + 1) / j))))


def _row_bounds(params: ChainParams, t_max: int) -> np.ndarray:
    """log B_x(t) for t = 0..t_max (rows) and the starts x <= n/2
    (columns), where B_x(t) bounds the distance d_x(t) from start x.

    The chi-square distance of P^t(x, .) from pi is sum_{i>=1} d_i
    beta_i^(2t) Q_i(x)^2 (see ``_hahn``), and d_x(t) is at most half its
    square root.  The modes i <= I = min(_MODES, n) are summed one by one,
    with |Q_i(x)| and |beta_i| each raised by its rounding bound (but not
    above 1).  By completeness, sum_{i>=0} d_i Q_i(x)^2 = 1/pi(x), so the
    modes i > I add at most beta*^(2t) (1/pi(x) - 1), with beta* the
    largest raised |beta_i| over i > I.  That holds however inaccurate the
    Q_i(x) of high degree are, as none of them is used.  log d_i and
    log 1/pi(x) = log C(2n, n) - 2 log C(n, x) are cumulative sums of log
    ratios, and the modes are summed in log scale, each row's exponents
    shifted by their largest."""
    n, k, h = params.n, params.k, params.n // 2
    top = min(_MODES, n)
    beta, err = _hahn(n, np.float64(k), n)
    beta = np.clip(np.abs(beta) + err, _TINY, 1.0)
    # the raised |Q_i(x)| squared, in place: these tables are the largest
    # arrays here, and copies of them raise the profile's peak RSS
    q, err = _hahn(n, np.arange(h + 1.0), top)
    q = np.abs(q[1:], out=q[1:])
    q += err[1:]
    del err
    np.minimum(q, 1.0, out=q)
    q *= q
    log_c = _log_binomials(2 * n, n)
    i = np.arange(1.0, top + 1)
    log_d = log_c[1:top + 1] + np.log1p(-i / (2 * n - i + 1))
    log_tail = log_c[n] - 2.0 * _log_binomials(n, h)  # log 1/pi(x)
    log_tail += np.log1p(-np.exp(-log_tail))  # log (1/pi(x) - 1)
    t = np.arange(t_max + 1.0)[:, None]
    w = log_d + 2.0 * t * np.log(beta[1:top + 1])
    w_top = w.max(axis=1, keepdims=True)
    log_b = np.log(np.maximum(np.exp(w - w_top) @ q, _TINY))  # the head
    log_b += w_top
    np.logaddexp(log_b, log_tail + 2.0 * t * np.log(
        beta[top + 1:].max(initial=_TINY)), out=log_b)
    log_b *= 0.5
    log_b += math.log(0.5)
    return log_b


def _rows_kept(params: ChainParams, d0: np.ndarray,
               lost0: np.ndarray) -> np.ndarray:
    """The number of leading starts the all-states loop keeps at each step
    t = 0..len(d0) - 1, given ``_folded_distances`` of start 0 alone.

    Start x leaves from step t on once B_x(t')(1 + rho) < d0(t') - sigma(t')
    for every t' >= t (``_row_bounds``).  sigma(t) bounds how far d0(t)
    lies above the exact distance from 0, so the exact d_x(t') then lies
    below the exact d_0(t') <= d(t') at every later step: dropping x leaves
    the maximum as it is.  With gamma = _gamma(h + 2), sigma(t) is
    - lost0(t), for the floor;
    - gamma sum_{t'<t} (1/2 + d0(t')), for the products: entrywise a
      product errs by at most gamma |S| |K|, K_plus and |K_minus| do not
      raise the row norms of ``distance_profile``, and |s|_+ = 1 and
      |v|_- <= 2 d_0, so a step adds at most gamma (1/2 + d_0) to the
      distance;
    - gamma d0(t), for the distance pass, a sum of at most h + 1 terms;
    - gamma, for the rounding of pi itself (whose L1 error a test checks).
    rho bounds the relative rounding error of B: each exponent summed in
    ``_row_bounds`` gathers at most 6n + 12 rounded terms and partial sums,
    all at most M = 2n log 2 + 2(t_max + 2) 745.2 in magnitude (log C(2n, n)
    <= 2n log 2, and no positive double has a log beyond 745.2), and the
    modes are summed by a product of _MODES + 1 terms at most."""
    n, h, t_max = params.n, params.n // 2, len(d0) - 1
    gamma = _gamma(h + 2)
    spent = np.concatenate(([0.0], np.cumsum(0.5 + d0[:-1])))
    floor = d0 - lost0 - gamma * (1.0 + d0 + spent)
    log_floor = np.log(floor, out=np.full_like(floor, -np.inf),
                       where=floor > 0)
    big = 2 * n * math.log(2) + 2 * (t_max + 2) * 745.2
    rho = (6 * n + 12) * _U * (big + 1) + _gamma(_MODES + 4)
    stay = _row_bounds(params, t_max) + math.log1p(rho) >= log_floor[:, None]
    stay[:, 0] = True  # row 0 is never dropped, so rows never reaches 0
    stay = np.logical_or.accumulate(stay[::-1])[::-1]
    return h + 1 - stay[:, ::-1].argmax(axis=1)


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

    Only the starts near 0 can attain the maximum once the chain has moved,
    so a first pass evolves row 0 alone, and ``_rows_kept`` then certifies,
    from the chain's spectrum, which starts stay below it from each step
    on.  Step t multiplies only the leading r_t rows of S and V, r_t never
    growing, and ``lost_mass`` is taken over those rows.
    """
    if as_index(t_max, "t_max") < 0:
        raise ParameterError("t_max must be nonnegative")
    if not isinstance(start_policy, StartPolicy):
        raise ParameterError(
            f"start_policy must be a StartPolicy, not {start_policy!r}")
    n = params.n
    d = np.empty(t_max + 1)
    # each branch refuses an oversized n before it builds anything of size n
    if start_policy is StartPolicy.ALL_STATES:
        if n > MATRIX_GUARD:
            raise InfeasibleSizeError(
                f"all-states profile refused for n={n} > {MATRIX_GUARD}; "
                "the state-zero start policy scales further")
        k_plus, k_minus, lost_k = _folded_kernels(params)
        two_pi = 2.0 * stationary(params).dense_on(0, n)[:n // 2 + 1]
        walk = functools.partial(_folded_distances, k_plus, k_minus, two_pi,
                                 lost_k)
        # start 0 alone first: its distances decide which starts can leave
        dist, lost_t = walk(_rows_kept(params, *walk(np.ones(t_max + 1, int))))
        np.minimum(1.0, dist + lost_t, out=d)
        lost = float(lost_t[-1])
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
