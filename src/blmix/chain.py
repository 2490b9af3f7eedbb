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
from typing import Callable

import numpy as np

from . import pmf as _pmf
from .errors import (MATRIX_GUARD, HorizonExceededError, ParameterError,
                     check_size)
from .pmf import (SUM_TOL, FinitePmf, HypergeomParams, as_index, check_bool,
                  check_mass, check_real, check_type, hypergeom_pmf,
                  point_mass, tv_distance)

MONOTONE_TOL = 1e-12
# all-states entries below this are zeroed: a product of two entries at or
# above it is a normal double, so the dense matmul never meets a subnormal
UNDERFLOW_FLOOR = 2.0**-510
TILE = 32  # consecutive states whose rows are built and stored as one block
_MODES = 64  # Hahn modes the all-states row bound sums one by one
_BLOCK = 1 << 16  # table entries of the row certificates built at a time
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
        check_type(self.params, ChainParams, "params")
        check_type(self.start_policy, StartPolicy, "start_policy")
        check_mass(self.lost_mass, "lost_mass")
        try:
            d = np.asarray(self.d_values, dtype=np.float64)
        except (TypeError, ValueError):
            raise ParameterError(f"distance values must be real numbers, not "
                                 f"{self.d_values!r}") from None
        object.__setattr__(self, "d_values", d)
        if d.ndim != 1 or d.size == 0:
            raise ParameterError("distance values must be a non-empty 1-d array")
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
    with.  Each row is one direct convolution.  Rows for k > n/2 are the
    rows of n - k reversed (P_k(x, y) = P_{n-k}(x, n - y): swap all n
    balls), so trimmed rows take their Serfling window on n - k draws."""
    if 2 * k > n:
        c0, block, lost = _rows(n, n - k, states, trim)
        return n + 1 - c0 - block.shape[1], block[:, ::-1].copy(), lost
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
        convs.append(np.convolve(added, removed[::-1]))
    removed_lo, removed_hi = lo + first, lo + last
    added_lo = np.where(2 * states == n, removed_lo, k - removed_hi)
    start = added_lo - removed_hi + states  # each row's first lane's state
    # the rows' weights, each normalised to one less its lost mass
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

    With ``trim`` the hypergeometric law is computed on its Serfling
    window and the row's negligible tails are cut; ``lost_mass`` bounds the
    probability dropped.  Refused above LAW_GUARD.  Untrimmed at x = k =
    n/2, a row takes about 0.2 s at n = 10^6 and 1.6 s at 10^7 (2 vCPUs)."""
    check_type(params, ChainParams, "params")
    x = as_index(x, "state")
    if not 0 <= x <= params.n:
        raise ParameterError(f"state {x} outside [0, {params.n}]")
    check_bool(trim, "trim")
    check_size("LAW_GUARD", params.n)
    c0, block, lost = _rows(params.n, params.k, np.array([x]), trim)
    return FinitePmf(c0, block[0], float(lost[0]))


def stationary(params: ChainParams) -> FinitePmf:
    """The unique invariant law: hypergeometric counts of red balls when the
    2n balls are split evenly at random.  Refused above LAW_GUARD."""
    check_type(params, ChainParams, "params")
    n = params.n
    check_size("LAW_GUARD", n)
    return hypergeom_pmf(HypergeomParams(2 * n, n, n))


class _SparseKernel:
    """The kernel rows of the states c <= n/2 that carry mass, or whose colour
    swaps n - c do, in the law the latest step stepped from, held in dense
    blocks of TILE consecutive states.  A tile is built whole, by one
    ``_rows`` call, when its states first carry mass, and spans the union of
    its rows' columns, so its bits do not depend on the order states were
    reached in.  It is dropped at the first step where none of them does,
    and built again, the same bits, if they carry mass later: the chain
    pulls the law toward n/2 by |1 - 2k/n| a step, so the tiles it leaves
    behind are rarely stepped again.  Swapping the colours maps the chain to
    itself, so the row of x > n/2 is the row of n - x reversed: a step sends
    the mass of each such x through the row of n - x and reverses that part
    of the result.  A step is one (2 x TILE) by (TILE x width) product per
    tile with mass (the last tile holds fewer states when TILE does not
    divide n // 2 + 1), added in tile order; the tiles without mass would
    add exact zeros, so the result is the same bits as over every tile.
    A kernel lives for one ``evolve`` or state-zero ``distance_profile``
    call and is dropped on its return.
    """

    def __init__(self, params: ChainParams, trim: bool):
        self.params = params
        self.trim = trim
        # lost mass of each row built so far: a dropped tile's entries stay,
        # and weigh only states without mass
        self._lost = np.zeros(params.n // 2 + 1)
        # the first column and the (TILE, width) block of each tile held
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
        # the states c carrying mass are min(y, n - y) over mu's support lo
        # <= y <= hi: c runs from min(lo, n - hi) to min(half, hi, n - lo)
        first = min(mu.lo, n - mu.hi) // TILE
        last = min(half, mu.hi, n - mu.lo) // TILE + 1
        tiles = self._tiles
        tiles[:first] = [None] * first
        tiles[last:] = [None] * (len(tiles) - last)
        # each product is below OpenBLAS's threshold for threading
        out = np.zeros((2, n + 1))
        for tile in range(first, last):
            part = both[tile * TILE:(tile + 1) * TILE]
            if not part.any():
                tiles[tile] = None
                continue
            if tiles[tile] is None:
                states = np.arange(tile * TILE, tile * TILE + len(part))
                c0, block, self._lost[states] = _rows(
                    n, self.params.k, states, self.trim)
                tiles[tile] = c0, block
            c0, block = tiles[tile]
            out[:, c0:c0 + block.shape[1]] += part.T @ block
        # elementwise, not BLAS: a threaded dot would wake OpenBLAS's worker
        lost = mu.lost_mass + float((both * self._lost[:, None]).sum())
        return _pmf.from_weights(0, out[0] + out[1, ::-1],
                                 lost_mass=min(lost, 1.0))


def evolve(params: ChainParams, mu: FinitePmf, steps: int,
           trim: bool = False) -> FinitePmf:
    """Push ``mu`` through the kernel ``steps`` times, accumulating any
    truncation losses from the rows used.  The kernel lives for this call
    alone, so a law stepped many times is passed with ``steps``, not
    stepped call by call.  Refused above VECTOR_GUARD, before the kernel or
    any row is built: a step holds dense laws of n + 1 points."""
    check_type(params, ChainParams, "params")
    check_type(mu, FinitePmf, "mu")
    if mu.lo < 0 or mu.hi > params.n:
        raise ParameterError("distribution leaves the state space")
    if as_index(steps, "steps") < 0:
        raise ParameterError("steps must be nonnegative")
    check_bool(trim, "trim")
    check_size("VECTOR_GUARD", params.n)
    kernel = _SparseKernel(params, trim)
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
    rows y <= h of P are built untrimmed by ``_rows`` and folded in, TILE
    states at a time (row n - y is row y reversed).  P's and K_minus's
    entries below UNDERFLOW_FLOOR in magnitude are zeroed; ``lost`` bounds
    what that adds to the error of a step (see ``distance_profile``)."""
    n = params.n
    h, a = n // 2, (n + 1) // 2
    k_plus, k_minus = np.empty((h + 1, h + 1)), np.empty((a, a))
    zeroed, zeroed_minus = np.empty(h + 1), np.empty(a)
    for at in range(0, h + 1, TILE):
        states = np.arange(at, min(at + TILE, h + 1))
        c0, block, _ = _rows(n, params.k, states, False)
        rows = np.zeros((len(states), n + 1))
        rows[:, c0:c0 + block.shape[1]] = block
        zeroed[states] = _flush(rows, rows)  # no entry of P is negative
        y = slice(at, min(at + TILE, a))  # the tile's states y < n/2
        m = y.stop - at
        mirrored = rows[:m, ::-1]  # their rows n - y
        np.add(rows[:m, :h + 1], mirrored[:, :h + 1], out=k_plus[y])
        k_plus[y.stop:at + len(states)] = rows[m:, :h + 1]  # P(h, .), even n
        minus = np.subtract(rows[:m, :a], mirrored[:, :a], out=k_minus[y])
        zeroed_minus[y] = _flush(minus, np.abs(minus))
    return k_plus, k_minus, float(zeroed.max()
                                  + (zeroed[:a] + zeroed_minus).max())


def _reach(K: np.ndarray) -> np.ndarray:
    """reach[c], c = 0..len(K): the first column where a row y >= c of K
    holds a nonzero (K.shape[1] past the last row; an all-zero row counts
    as column 0, which only widens a window).  Scanned TILE rows at a time,
    so no mask the size of K is made."""
    first = np.empty(len(K) + 1, int)
    first[-1] = K.shape[1]
    for at in range(0, len(K), TILE):
        tile = K[at:at + TILE]
        first[at:at + len(tile)] = (tile != 0).argmax(axis=1)
    return np.minimum.accumulate(first[::-1])[::-1]


def _window_matmul(A: np.ndarray, K: np.ndarray, reach: np.ndarray, c: int,
                   out: np.ndarray) -> np.ndarray:
    """A @ K into ``out``, given that A is zero before column c: the rows
    y >= c of K are zero before column reach[c], so only A[:, c:] times
    K[c:, reach[c]:] is multiplied, and out is zero before reach[c].  The
    terms left out are exact zeros."""
    w = reach[c]
    out[:, :w] = 0.0
    np.matmul(A[:, c:], K[c:, w:], out=out[:, w:])
    return out


def _folded_distances(k_plus: np.ndarray, k_minus: np.ndarray,
                      reach_plus: np.ndarray, reach_minus: np.ndarray,
                      two_pi: np.ndarray, lost_k: float, rows: np.ndarray):
    """Evolve the starts x < rows[t] through ``_folded_kernels``' halves at
    t = 0, 1, ..., len(rows) - 1, where ``rows`` never grows: ``(dist,
    lost)``, with dist[t] the largest distance of those starts at step t and
    lost[t] the bound so far on what the floor put into it (see
    ``distance_profile``), not included in dist[t].  The starts are split
    once (``_row_blocks``), and each block is evolved alone, from S_0 = V_0
    = I until a step keeps none of its rows: a step multiplies its kept rows
    into the scratch over the columns from the first they hold a nonzero in
    (``_reach``; the first step copies the halves' rows), copies them back,
    floors and measures them.  dist[t] and the mass floored at step t are
    maxima over the blocks."""
    h, a = len(k_plus) - 1, len(k_minus)
    # only one block of S and V is held, of at most an eighth of the starts,
    # and a scratch per array that holds a step's product, then |S - 2 pi|
    # and |V| with the floored entries at 0 (S >= 0, as S_0 = I, K_plus >= 0)
    blocks = _row_blocks(rows[0], max(3, -(-(h + 1) // 8)))
    longest = max(block.stop - block.start for block in blocks)
    S, S_tmp = np.empty((longest, h + 1)), np.empty((longest, h + 1))
    V, V_tmp = np.empty((longest, a)), np.empty((longest, a))
    dist, zeroed = np.zeros(len(rows)), np.zeros(len(rows))
    for block in blocks:
        x0 = block.start
        for t, r in enumerate(rows):
            m = min(r, block.stop) - x0  # the block's starts kept at step t
            if m <= 0:
                break
            s, v, s_tmp, v_tmp = S[:m], V[:m], S_tmp[:m], V_tmp[:m]
            if t == 0:  # V's row h, at even n, is 0
                s[:], v[:] = 0.0, 0.0
                np.fill_diagonal(s[:, x0:], 1.0)
                np.fill_diagonal(v[:, x0:], 1.0)
            elif t == 1:  # I times a half is its rows, bit for bit
                s[:], v[:a - x0] = k_plus[x0:x0 + m], k_minus[x0:x0 + m]
            else:
                live = s.any(axis=0)
                live[:a] |= v.any(axis=0)
                c = int(live.argmax())
                s[:] = _window_matmul(s, k_plus, reach_plus, c, s_tmp)
                v[:] = _window_matmul(v, k_minus, reach_minus, c, v_tmp)
            if t < 2 and a == h and x0 + m > h:
                s[-1] *= 2.0  # the middle column of an even n is 2 D_t(x, h)
            np.abs(v, out=v_tmp)
            if t:
                zeroed[t] = max(zeroed[t], (_flush(s, s)
                                            + _flush(v, v_tmp)).max())
            gap = np.abs(np.subtract(s, two_pi, out=s_tmp), out=s_tmp)
            mag = np.maximum(gap[:, :a], v_tmp, out=v_tmp)
            # gap[:, a:] is the middle column of an even n (none at odd n)
            dist[t] = max(dist[t], 0.5 * (mag.sum(axis=1)
                                          + 0.5 * gap[:, a:].sum(axis=1)).max())
    zeroed[1:] += lost_k
    return dist, np.cumsum(zeroed)  # a sum in step order


def _row_blocks(r: int, size: int) -> list[slice]:
    """Rows 0..r-1 split into ceil(r / size) blocks of near-equal length,
    none longer than ``size``.  With size >= 3, no block is of one row
    unless r = 1: ceil(r/3) <= r // 2 for r >= 2, and OpenBLAS rounds a
    product of one row on another path than one of several.  (A step of
    the all-states loop can still cut a block down to one row.)"""
    m = -(-r // size)
    return [slice(r * i // m, r * (i + 1) // m) for i in range(m)]


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


def _log_mode_sum(w: np.ndarray, q: np.ndarray) -> np.ndarray:
    """log sum_i exp(w[:, i]) q[i], for q >= 0, in log scale: each row's
    exponents are shifted by their largest (-inf for no modes)."""
    w_top = w.max(axis=1, keepdims=True, initial=-np.inf)
    return np.log(np.maximum(np.exp(w - w_top) @ q, _TINY)) + w_top


def _row_bounds(params: ChainParams) -> Callable[
        [np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """The certificates R_c of the starts x <= n/2 at c = 0 and c = Q_1(x),
    as a function of an array of steps t that returns their logs, each of
    shape (len(t), n // 2 + 1), a row per step and a column per start.

    With e_x = P^t(x, .) - pi, e_x(y) / pi(y) = sum_{i>=1} d_i beta_i^t
    Q_i(x) Q_i(y) (see ``_hahn``) and Q_i(0) = 1, so e_x - c e_0 has the
    chi-square norm sum_{i>=1} d_i beta_i^(2t) (Q_i(x) - c)^2, and by
    Cauchy-Schwarz d_x(t) <= c d_0(t) + R_c(t), R_c half its root: at c = 0
    a bound on d_x alone, at c = Q_1(x) = 1 - 2x/n one without mode 1, the
    slowest.  The modes i <= I = min(_MODES, n) are summed one by one, with
    |Q_i(x) - c| raised by the rounding bounds of Q_i(x) and of c (not above
    1 + c) and |beta_i| by its own (not above 1).  By completeness, sum_{i>=0}
    d_i Q_i(x) Q_i(y) = delta_xy / pi(x), so sum_{i>=1} d_i Q_i(x)^2 =
    1/pi(x) - 1, sum_{i>=1} d_i = C(2n, n) - 1 and, for x >= 1, sum_{i>=1}
    d_i Q_i(x) = -1: the modes i > I add at most beta*^(2t) (1/pi(x) - 1 +
    2c + c^2 (C(2n, n) - 1)) (at x = 0 the sum is (1 - c)^2 (C(2n, n) -
    1)), with beta* the largest raised |beta_i| over i > I, and use no
    Q_i(x) of high degree, which the float recurrence gets wrong.

    log d_i, log 1/pi(x) = log C(2n, n) - 2 log C(n, x) and log C(2n, n)
    are cumulative sums of log ratios, and the modes are summed in log
    scale (``_log_mode_sum``), so no term overflows at any n or t."""
    n, k, h = params.n, params.k, params.n // 2
    top = min(_MODES, n)
    beta, err = _hahn(n, np.float64(k), n)
    beta = np.clip(np.abs(beta) + err, _TINY, 1.0)
    log_beta = np.log(beta[1:top + 1])
    log_beta_tail = np.log(beta[top + 1:].max(initial=_TINY))
    log_binom = _log_binomials(2 * n, n)
    i = np.arange(1.0, top + 1)
    log_d = log_binom[1:top + 1] + np.log1p(-i / (2 * n - i + 1))
    log_total = log_binom[n] + np.log1p(-np.exp(-log_binom[n]))
    log_tail = log_binom[n] - 2.0 * _log_binomials(n, h)  # log 1/pi(x)
    log_tail += np.log1p(-np.exp(-log_tail))  # log (1/pi(x) - 1)
    q, err = _hahn(n, np.arange(h + 1.0), top)
    q1 = q[1].copy()  # Q_1(x) = (n - 2x)/n bit for bit; its table overwrites q
    # each c's table and tail; the tables are the largest arrays here, and
    # copies of them raise the profile's peak RSS, so c = Q_1's is built in q
    certs = []
    for c, err_c, out in ((0.0, 0.0, np.empty_like(q[1:])),
                          (q1, err[1], q[1:])):
        table = np.abs(np.subtract(q[1:], c, out=out), out=out)
        table += err[1:]
        table += err_c
        np.minimum(table, 1.0 + c, out=table)
        table *= table
        log_c = np.log(c, out=np.full(h + 1, -np.inf), where=c > 0)
        certs.append((table, np.logaddexp(log_tail, np.logaddexp(
            math.log(2.0) + log_c, 2.0 * log_c + log_total))))

    def at(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        t = t[:, None]
        w = log_d + 2.0 * t * log_beta
        return tuple(0.5 * np.logaddexp(_log_mode_sum(w, table), log_tail_c
                                        + 2.0 * t * log_beta_tail)
                     + math.log(0.5) for table, log_tail_c in certs)
    return at


def _rows_kept(params: ChainParams, d0: np.ndarray,
               lost0: np.ndarray) -> np.ndarray:
    """The number of leading starts the all-states loop keeps at each step
    t = 0..len(d0) - 1, given ``_folded_distances`` of start 0 alone.

    Start x leaves from step t on once, at every t' >= t, R_c(t')(1 + rho)
    < (1 - c)(d0(t') - sigma(t')) for c = 0 or c = Q_1(x) = 1 - 2x/n
    (``_row_bounds``).  sigma(t) bounds how far d0(t) lies above the exact
    distance from 0, so the exact d_x(t') <= c d_0(t') + R_c then lies
    below the exact d_0(t') <= d(t') at every later step: dropping x leaves
    the maximum as it is.  With gamma = _gamma(h + 2), sigma(t) is
    - lost0(t), for the floor;
    - gamma sum_{t'<t} (1/2 + d0(t')), for the products: entrywise a
      product errs by at most gamma |S| |K|, K_plus and |K_minus| do not
      raise the row norms of ``distance_profile``, and |s|_+ = 1 and
      |v|_- <= 2 d_0, so a step adds at most gamma (1/2 + d_0) to the
      distance.  A windowed product (``_window_matmul``) sums fewer terms
      than the h + 1 of the whole one, so gamma covers it too;
    - gamma d0(t), for the distance pass, a sum of at most h + 1 terms;
    - gamma, for the rounding of pi itself (whose L1 error a test checks).
    rho bounds the relative rounding error of R_c and of 1 - c.  Each
    exponent summed in ``_row_bounds`` gathers at most 4.5n + 20 <= 6n + 16
    rounded terms and partial sums (n >= 3; below, the two-row floor keeps
    every row): 3j for log C(m, j), so 4.5n + 4 for log (1/pi(x) - 1), and
    at most 3 more for each product by t, shift, sum and logaddexp.  All
    are at most M = 2n log 2 + 2(t_max + 2) 745.2 in magnitude (log C(2n,
    n) <= 2n log 2, and no positive double has a log beyond 745.2), which
    gives (6n + 16) u (M + 1).  The modes are summed by a product of
    _MODES terms at most, over tables that round a few times each, and
    log(2x/n) rounds twice: as R_c is a root, gamma(_MODES + 6) covers
    those.

    The rows 0 and 1 are always kept: OpenBLAS rounds a product of one row
    on another path than one of several, so a loop down to row 0 alone
    would move d(t) by an ulp against the loop over every row.  The
    certificates are built _BLOCK entries at a time, from the last steps
    back, so their memory does not grow with len(d0) times n.  A step keeps
    the rows up to the last start kept there or later (a running maximum):
    once that is h, the earlier steps keep every row, and no more blocks
    are built."""
    n, h, t_max = params.n, params.n // 2, len(d0) - 1
    gamma = _gamma(h + 2)
    spent = np.concatenate(([0.0], np.cumsum(0.5 + d0[:-1])))
    floor = d0 - lost0 - gamma * (1.0 + d0 + spent)
    log_floor = np.log(floor, out=np.full_like(floor, -np.inf),
                       where=floor > 0)[:, None]
    big = 2 * n * math.log(2) + 2 * (t_max + 2) * 745.2
    slack = math.log1p((6 * n + 16) * _U * (big + 1) + _gamma(_MODES + 6))
    lead = 2 * np.arange(h + 1) / n  # 1 - Q_1(x)
    log_leads = 0.0, np.log(lead, out=np.full(h + 1, -np.inf), where=lead > 0)
    bounds = _row_bounds(params)
    rows = np.full(t_max + 1, h + 1)  # 1 + the last start kept at each step
    block = max(1, _BLOCK // max(h + 1, _MODES))
    for end in range(t_max + 1, 0, -block):
        start = max(end - block, 0)
        low = log_floor[start:end]  # log (d0 - sigma) at these steps
        stay = np.ones((end - start, h + 1), bool)
        for log_bound, log_lead in zip(
                bounds(np.arange(start, end, dtype=float)), log_leads):
            stay &= log_bound + slack >= low + log_lead
        stay[:, :2] = True  # the two-row floor
        rows[start:end] = h + 1 - stay[:, ::-1].argmax(axis=1)
        if rows[start:end].max() == h + 1:  # every row, here and before
            break
    return np.maximum.accumulate(rows[::-1])[::-1]


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
    S <- S K_plus and V <- V K_minus (``_folded_kernels``).  Once the
    chain has moved, S and V are exact zeros on the columns z < c where
    pi(z) is below UNDERFLOW_FLOOR, and the rows y >= c of K_plus and
    K_minus are zero before the columns w_+ = reach_+[c] and w_- =
    reach_-[c] (``_reach``), so a step over r rows multiplies only those
    windows: 2r(h+1-c)(h+1-w_+) + 2r(a-c)(a-w_-) flops, at most the
    2r(h+1)^2 + 2ra^2 of the whole halves, which are about half the
    2r(n+1)^2 of D <- D P.  As pi is even, |u+v| + |u-v| = 2 max(|u|, |v|)
    gives
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
    on, by one inequality: d_x <= c d_0 + R_c, where R_c bounds P^t(x, .)
    - pi - c (P^t(0, .) - pi) through its modes (``_row_bounds``), at c = 0
    (the chi-square bound) and at c = Q_1(x) = 1 - 2x/n, which removes the
    slowest mode and certifies past the cutoff.  Start x stays below d_0
    where R_c < (1 - c)(d_0 - sigma) for either c, with d_0 - sigma the
    lower bound on the exact d_0 that the first pass gives, and a relative
    allowance rho for R_c's own rounding (``_rows_kept`` derives sigma and
    rho).  Step t multiplies only the leading r_t >= min(2, h + 1) rows of
    S and V, r_t never growing, a block of them through every step at a
    time, and ``lost_mass`` is taken over those rows.
    """
    check_type(params, ChainParams, "params")
    if as_index(t_max, "t_max") < 0:
        raise ParameterError("t_max must be nonnegative")
    check_type(start_policy, StartPolicy, "start_policy")
    check_size("MAX_HORIZON", t_max, "t_max")
    n = params.n
    # each branch refuses an oversized n before it builds anything of size n
    if start_policy is StartPolicy.ALL_STATES:
        check_size("MATRIX_GUARD", n, advice="the state-zero start policy "
                   "scales further")
        k_plus, k_minus, lost_k = _folded_kernels(params)
        two_pi = 2.0 * stationary(params).dense_on(0, n)[:n // 2 + 1]
        walk = functools.partial(_folded_distances, k_plus, k_minus,
                                 _reach(k_plus), _reach(k_minus), two_pi,
                                 lost_k)
        # start 0 alone first: its distances decide which starts can leave
        dist, lost_t = walk(_rows_kept(params, *walk(np.ones(t_max + 1, int))))
        d = np.minimum(1.0, dist + lost_t)
        lost = float(lost_t[-1])
    else:
        check_size("VECTOR_GUARD", n, advice="use the coupling simulation or "
                   "the lower-bound certificate")
        d = np.empty(t_max + 1)
        pi = stationary(params)
        kernel = _SparseKernel(params, n > MATRIX_GUARD)
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
    check_type(profile, MixingProfile, "profile")
    check_real(epsilon, "epsilon")
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
    """F1 and F2 are the chain's eigenfunctions of degree 1 and 2, the Hahn
    polynomials Q_1 and Q_2 of ``_hahn``, with eigenvalues F1(k) and F2(k).
    F3(x) = 1/2 + 2(x - n/2)^2/n^2 is a constant plus a multiple of Q_2, so
    it has no eigenvalue; F3(k) = 1 - 2k(n - k)/n^2 is the contraction rate
    of the path-coupling bound."""
    n = params.n
    check_size("MAX_N", n)
    check_real(x, "argument")
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
