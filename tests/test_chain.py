"""Exact kernel, stationarity, mixing profiles, moment identities."""

import collections
import functools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy import special, stats

from blmix import (ChainParams, Eigenfunction, HypergeomParams, MixingProfile,
                   StartPolicy, distance_profile, eigen_eval, evolve,
                   hypergeom_pmf, lower_bound_certificate, make_schedule,
                   point_mass, stationary, t_mix, transition_row, tv_distance)
from blmix import chain, pmf
from blmix.chain import TILE, UNDERFLOW_FLOOR
from blmix.errors import (LAW_GUARD, MATRIX_GUARD, VECTOR_GUARD,
                          HorizonExceededError, InfeasibleSizeError,
                          ParameterError)
from blmix.pmf import FinitePmf, first_last, from_weights
from oracles import (dense_kernel, difference_law, enum_transition_row,
                     exact_worst_start_profile, hahn_exact,
                     hahn_recurrence_exact, kernel_counts, truncated,
                     unblocked_folded_distances, verify_moment_identities)


# ------------------------------------------------------------ transition row

def test_transition_row_frozen_examples():
    row = transition_row(ChainParams(2, 1), 1)
    assert [row.prob(j) for j in (0, 1, 2)] == pytest.approx([0.25, 0.5, 0.25])
    assert transition_row(ChainParams(2, 1), 0).prob(1) == 1.0
    full_swap = transition_row(ChainParams(7, 7), 2)
    assert full_swap.prob(5) == 1.0


def test_transition_row_domain_checks():
    with pytest.raises(ParameterError):
        transition_row(ChainParams(5, 2), 6)
    with pytest.raises(ParameterError):
        ChainParams(5, 6)
    with pytest.raises(ParameterError):
        ChainParams(0, 0)


@pytest.mark.parametrize("args", [(10.5, 3), (10, 3.0), (True, 1), (10, None)])
def test_chain_params_refuse_non_integers(args):
    with pytest.raises(ParameterError, match="must be an integer"):
        ChainParams(*args)


def test_chain_params_accept_numpy_integers():
    params = ChainParams(np.int64(10), np.int32(3))
    assert params == ChainParams(10, 3)
    assert (type(params.n), type(params.k)) == (int, int)


def test_transition_row_refuses_a_non_integer_state():
    """State 2.5 is refused, not rounded to the row of state 2."""
    with pytest.raises(ParameterError, match="must be an integer"):
        transition_row(ChainParams(10, 3), 2.5)
    with pytest.raises(ParameterError, match="must be an integer"):
        transition_row(ChainParams(10, 3), False)
    row = transition_row(ChainParams(10, 3), np.int64(2))
    assert row.weights.tobytes() == transition_row(
        ChainParams(10, 3), 2).weights.tobytes()


@pytest.mark.parametrize("n", range(1, 7))
def test_transition_row_matches_enumeration(n):
    """Brute-force selection-pair oracle for small n (the acceptance suite
    extends this to n = 8)."""
    for k in range(n + 1):
        for x in range(n + 1):
            oracle = enum_transition_row(n, k, x)
            row = transition_row(ChainParams(n, k), x)
            assert set(oracle) == set(int(j) for j in row.support)
            for y, w in oracle.items():
                assert row.prob(y) == pytest.approx(float(w), abs=1e-12)


def _log_row(n, k, x, ys):
    """log P(x, y) for each y of ``ys``, from scipy's log-pmfs of the reds
    leaving the urn of x reds, a ~ Hyp(n, x, k), and of those coming from
    the other urn, b ~ Hyp(n, n - x, k): the log-sum-exp over the pairs
    with y = x - a + b, taken 256 ys at a time."""
    a = np.arange(max(0, k - (n - x)), min(k, x) + 1)
    log_a = stats.hypergeom.logpmf(a, n, x, k)
    b_lo, b_hi = max(0, k - x), min(k, n - x)
    log_b = stats.hypergeom.logpmf(np.arange(b_lo, b_hi + 1), n, n - x, k)
    out = []
    for block in np.array_split(ys, max(1, ys.size // 256)):
        b = block[:, None] - x + a
        terms = log_a + log_b[np.clip(b - b_lo, 0, b_hi - b_lo)]
        terms[(b < b_lo) | (b > b_hi)] = -np.inf
        out.append(special.logsumexp(terms, axis=1))
    return np.concatenate(out)


def test_row_tails_are_exact():
    """Every weight of at least 1e-300 in an untrimmed row is within a
    relative 1e-9 of the log-space reference, far into the tails: each row
    is a direct convolution of nonnegative weights.  At n = 1.2 * 10^4,
    k = x = n/2 the laws are wide enough that an FFT convolution's rounding
    swamps most such lanes (log gaps up to 1.4e3)."""
    n = 12_000
    row = transition_row(ChainParams(n, n // 2), n // 2)
    keep = row.weights >= 1e-300
    ref = _log_row(n, n // 2, n // 2, row.support[keep])
    assert keep.sum() > 2000
    # a log gap of at most 1e-9 is a relative error of at most 1.0000000005e-9
    assert np.abs(np.log(row.weights[keep]) - ref).max() <= 1e-9


# -------------------------------------------------------------- stationarity

def test_stationary_examples():
    pi = stationary(ChainParams(2, 1))
    assert [pi.prob(j) for j in (0, 1, 2)] == pytest.approx([1 / 6, 4 / 6, 1 / 6])
    pi = stationary(ChainParams(9, 3))
    assert pi.mean() == pytest.approx(4.5)
    for x in range(10):
        assert pi.prob(x) == pytest.approx(pi.prob(9 - x), rel=1e-12)


@pytest.mark.parametrize("n", [10, 100, 1000])
def test_stationarity_and_reversibility(n):
    params = ChainParams(n, n // 4)
    P = dense_kernel(params)
    pi = stationary(params).dense_on(0, n)
    assert 0.5 * np.abs(pi @ P - pi).sum() <= 1e-10
    flux = pi[:, None] * P
    denom = np.maximum(np.maximum(np.abs(flux), np.abs(flux.T)), 1e-280)
    assert (np.abs(flux - flux.T) / denom).max() <= 1e-10


@pytest.mark.parametrize("n,k", [(3, 1), (8, 3), (40, 11)])
def test_color_swap_symmetry(n, k):
    """p_t(x, y) = p_t(n-x, n-y): relabeling the colors flips the chain."""
    params = ChainParams(n, k)
    P = dense_kernel(params)
    for t in range(1, 4):
        Pt = np.linalg.matrix_power(P, t)
        assert np.abs(Pt - Pt[::-1, ::-1]).max() <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 8, 40, 41, 301])
def test_kernel_matrix_is_mirrored(n):
    """The dense kernel takes rows 0..n//2 from ``transition_row`` and
    mirrors the rest: it equals its colour-swapped image bit for bit (the
    middle row of an even n is a palindrome), and every row still matches
    its transition row."""
    for k in sorted({1, n // 4, n // 2, n}):
        params = ChainParams(n, k)
        P = dense_kernel(params)
        assert np.array_equal(P, P[::-1, ::-1])
        for x in range(n + 1):
            row = transition_row(params, x).dense_on(0, n)
            assert np.abs(P[x] - row).max() <= 1e-15


def _two_law_row(n, k, x, trim):
    """A row built from two hypergeometric laws: the reds drawn from the
    other urn, Hyp(n, n - x, k), and from the urn holding x reds,
    Hyp(n, x, k).  Trimmed rows for k > n/2 are the rows of n - k reversed,
    whose Hoeffding windows are on n - k draws."""
    if trim and 2 * k > n:
        ref = _two_law_row(n, n - k, x, trim)
        return FinitePmf(n - ref.hi, ref.weights[::-1], ref.lost_mass)
    added = hypergeom_pmf(HypergeomParams(n, n - x, k), trim)
    removed = hypergeom_pmf(HypergeomParams(n, x, k), trim)
    row = difference_law(added, removed).shifted(x)
    return truncated(row) if trim else row


@pytest.mark.parametrize("n,trim", [(40, False), (41, False), (300, False),
                                    (1024, False), (5000, True), (20000, True)])
def test_one_law_rows_match_two_law_rows(n, trim):
    """Each row takes its incoming reds as the reflection k - Hyp(n, x, k)
    of its outgoing reds' law, and rows for k > n/2 are those of n - k
    reversed.  It has the support of the row built from two laws (for a
    trimmed k > n/2, of n - k, reversed), its lost mass up to the rounding
    of the trimmed tails' sum, and weights within 1e-15."""
    xs = sorted({0, 1, 2, n // 4, n // 2 - 1, n // 2, n // 2 + 1,
                 n - n // 4, n - 2, n - 1, n, *range(0, n + 1, n // 17)})
    ks = {1, n // 4, n // 2, n - 1, n} | (set() if trim else {3 * n // 4})
    for k in sorted(ks):
        for x in xs:
            row = transition_row(ChainParams(n, k), x, trim=trim)
            ref = _two_law_row(n, k, x, trim)
            assert (row.lo, row.hi) == (ref.lo, ref.hi)
            assert row.lost_mass == pytest.approx(ref.lost_mass, rel=1e-13,
                                                  abs=0)
            assert np.abs(row.weights - ref.weights).max() <= 1e-15


@pytest.mark.parametrize("n,k", [(10, 3), (64, 16), (200, 50)])
def test_eigenvalue_property(n, k):
    params = ChainParams(n, k)
    P = dense_kernel(params)
    states = np.arange(n + 1, dtype=np.float64)
    for kind in (Eigenfunction.F1, Eigenfunction.F2):
        f = np.array([eigen_eval(params, kind, x) for x in states])
        ev = eigen_eval(params, kind, k)
        assert np.abs(P @ f - ev * f).max() <= 1e-10


# -------------------------------------------------------------------- evolve

def test_evolve_examples():
    params = ChainParams(2, 1)
    mu = point_mass(0)
    assert evolve(params, mu, 0) is mu
    assert evolve(params, mu, 1).prob(1) == 1.0
    pi = stationary(ChainParams(30, 7))
    assert tv_distance(evolve(ChainParams(30, 7), pi, 1), pi) <= 1e-10


def test_evolve_domain_checks():
    with pytest.raises(ParameterError):
        evolve(ChainParams(3, 1), point_mass(5), 1)
    with pytest.raises(ParameterError):
        evolve(ChainParams(3, 1), point_mass(1), -1)
    # a trim that is not a bool is refused, not read as true or false
    for trim in ("yes", 1, 0, None, np.True_):
        with pytest.raises(ParameterError, match="trim must be a bool"):
            evolve(ChainParams(30, 7), point_mass(3), 1, trim=trim)
        with pytest.raises(ParameterError, match="trim must be a bool"):
            transition_row(ChainParams(30, 7), 3, trim=trim)
        with pytest.raises(ParameterError, match="trim must be a bool"):
            hypergeom_pmf(HypergeomParams(30, 7, 3), trim=trim)


# --------------------------------------------------------- profiles and t_mix

def test_profile_frozen_examples():
    profile = distance_profile(ChainParams(2, 1), 3)
    assert profile.d_values[0] == pytest.approx(5 / 6)
    assert profile.d_values[1] == pytest.approx(1 / 3)
    assert t_mix(profile, 0.9) == 0
    assert t_mix(profile, 0.5) == 1
    assert t_mix(profile, 1.5) == 0


def test_t_mix_horizon_exceeded():
    profile = distance_profile(ChainParams(50, 12), 1)
    with pytest.raises(HorizonExceededError) as err:
        t_mix(profile, 0.01)
    assert err.value.t_max == 1
    assert 0 < err.value.d_last <= 1


def test_mixing_profile_validation():
    """A distance outside [0, 1], NaN included, or a rising profile is
    refused."""
    for d in ([1.5], [0.5, -0.1], [1.0, np.nan], [np.nan], [0.5, 0.9]):
        with pytest.raises(ParameterError):
            MixingProfile(ChainParams(4, 1), StartPolicy.ALL_STATES,
                          np.array(d))


@pytest.mark.parametrize("field, value", [
    ("params", (4, 1)), ("start_policy", "x"), ("start_policy", "all_states"),
    ("lost_mass", -1.0), ("lost_mass", np.nan), ("lost_mass", "0"),
    ("lost_mass", True), ("lost_mass", 1.5), ("d_values", [[1.0, 0.5]]),
    ("d_values", []), ("d_values", ["a"])])
def test_mixing_profile_validates_every_field(field, value):
    """A profile whose policy is not a StartPolicy, whose lost mass is not a
    probability, or whose distances are not a non-empty 1-d array is
    refused; each was accepted, and a 2-d or empty profile then failed in
    t_mix."""
    fields = {"params": ChainParams(4, 1),
              "start_policy": StartPolicy.ALL_STATES,
              "d_values": np.array([1.0, 0.5]), "lost_mass": 0.0}
    with pytest.raises(ParameterError):
        MixingProfile(**{**fields, field: value})
    assert MixingProfile(**fields).lost_mass == 0.0


def test_profile_monotone_and_bounded():
    for n, k in [(6, 2), (25, 6), (120, 30)]:
        d = distance_profile(ChainParams(n, k), 12).d_values
        assert np.all(np.diff(d) <= 1e-12)
        assert np.all((0 <= d) & (d <= 1))


# the sizes whose n // 2 + 1 canonical states fill TILE - 1, TILE, TILE + 1
# or 2 TILE states, the last tile's edge cases
_TILE_EDGES = {2 * m - 2 + r for m in (TILE - 1, TILE, TILE + 1, 2 * TILE)
               for r in (0, 1)}


@pytest.mark.parametrize("n,k", [
    pytest.param(n, k, id=str(n) if k == n // 4 else f"{n}-{k}")
    for n in sorted({16, 17, 64, 65, 256, 301, 512} | _TILE_EDGES)
    for k in sorted({n // 4} | ({1, n // 2, n} if n in _TILE_EDGES else set()))])
def test_state_zero_matches_all_states(n, k):
    """The from-zero shortcut reproduces the worst-case profile exactly on
    the sizes where both are computable."""
    params = ChainParams(n, k)
    t_max = 20
    d_all = distance_profile(params, t_max, StartPolicy.ALL_STATES).d_values
    d_zero = distance_profile(params, t_max, StartPolicy.STATE_ZERO).d_values
    assert np.abs(d_all - d_zero).max() <= 1e-10


def _default_horizon(n, k):
    sched = make_schedule(n, k, 0.25)
    return math.ceil(sched.t_n + 3 * sched.s_n + 10)  # the CLI's default


def _kept_rows(monkeypatch) -> list:
    """The row counts ``chain._rows_kept`` returns to the next all-states
    profiles, in order."""
    seen = []
    rows_kept = chain._rows_kept
    monkeypatch.setattr(chain, "_rows_kept",
                        lambda *args: seen.append(rows_kept(*args)) or seen[-1])
    return seen


def _unpruned(monkeypatch):
    """Make the row certificates of both c certify nothing, so that every
    row is kept."""
    monkeypatch.setattr(chain, "_row_bounds", lambda params: lambda t: (
        np.full((len(t), params.n // 2 + 1), np.inf),) * 2)


def test_all_states_underflow_floor(monkeypatch):
    """The all-states profile zeroes the entries of P, of its folded odd
    half K_minus and of S and V below UNDERFLOW_FLOOR in magnitude, so its
    matmuls never meet a subnormal. Its d(t) is bit for bit that of the
    unfloored split loop, S <- S K_plus and V <- V K_minus, over the same
    leading rows in the same row blocks, each evolved through every step
    and cut at the rows a step keeps (OpenBLAS's bits for a row can depend
    on how many rows the product has), and lost_mass bounds the error the
    floor put in: the floored S lies below the exact one, so the floor
    dropped at least S's entries below it, weighed as the profile's bound
    weighs them (1/2 on the middle column)."""
    n, k = 300, 75
    h, a = n // 2, (n + 1) // 2
    t_max = _default_horizon(n, k)
    params = ChainParams(n, k)
    kept = _kept_rows(monkeypatch)
    sizes, row_blocks = set(), chain._row_blocks
    monkeypatch.setattr(chain, "_row_blocks", lambda r, size: sizes.add(
        size) or row_blocks(r, size))
    profile = distance_profile(params, t_max, StartPolicy.ALL_STATES)
    (size,) = sizes
    rows = kept[0]
    P = dense_kernel(params)
    k_plus = np.vstack([P[:a, :h + 1] + P[n:h:-1, :h + 1], P[a:h + 1, :h + 1]])
    k_minus = P[:a, :a] - P[n:h:-1, :a]
    two_pi = 2 * stationary(params).dense_on(0, n)[:h + 1]
    blocks = row_blocks(rows[0], size)
    d, last = np.zeros(t_max + 1), []
    for block in blocks:
        S, V = np.eye(h + 1)[block], np.eye(h + 1, a)[block]
        if block.stop > h:
            S[-1, h] = 2.0  # even n: the middle column holds 2 D_t(x, h)
        for t in range(t_max + 1):
            m = min(rows[t], block.stop) - block.start  # its rows kept
            if m <= 0:
                break
            if t:
                S, V = S[:m] @ k_plus, V[:m] @ k_minus
            gap = np.maximum(np.abs(S[:, :a] - two_pi[:a]), np.abs(V))
            row = (gap.sum(axis=1)
                   + 0.5 * np.abs(S[:, a:] - two_pi[a:]).sum(axis=1))
            d[t] = max(d[t], 0.5 * row.max())
        else:
            last.append(S)  # the block's rows kept at the last step
    np.minimum.accumulate(d, out=d)
    S = np.vstack(last)
    assert rows[-1] < h + 1  # the profile dropped rows
    assert len(blocks) > 1
    # a step cut a block to one row
    assert any(m == 1 for block in blocks for m in rows - block.start)
    assert profile.d_values.tobytes() == d.tobytes()
    assert 0 < profile.lost_mass <= t_max * (n + 2) * UNDERFLOW_FLOOR
    weight = np.ones(h + 1)
    weight[h] = 0.5
    below = (S * weight).sum(axis=1, where=S < UNDERFLOW_FLOOR).max()
    assert profile.lost_mass >= below > 0
    small = distance_profile(ChainParams(40, 10), t_max, StartPolicy.ALL_STATES)
    assert small.lost_mass == 0.0


@pytest.mark.parametrize("n,k", [
    (n, k) for n in (1, 2, 3, 40, 41, 62, 63, 64, 65, 126, 127, 300, 301)
    for k in sorted({1, n // 4, n // 2, n})])
def test_folded_kernels_match_the_dense_fold(n, k):
    """K_plus, K_minus and their lost mass, folded from the kernel's tiles,
    are bit for bit the fold of the dense kernel floored below
    UNDERFLOW_FLOOR, at the sizes where the n // 2 + 1 rows end at or next
    to a tile's edge."""
    h, a = n // 2, (n + 1) // 2
    params = ChainParams(n, k)
    P = dense_kernel(params)
    small = P < UNDERFLOW_FLOOR
    zeroed_p = P.sum(axis=1, where=small)
    P[small] = 0.0
    k_plus = np.vstack([P[:a, :h + 1] + P[n:h:-1, :h + 1], P[a:h + 1, :h + 1]])
    k_minus = P[:a, :a] - P[n:h:-1, :a]
    small = np.abs(k_minus) < UNDERFLOW_FLOOR
    zeroed_minus = np.abs(k_minus).sum(axis=1, where=small)
    k_minus[small] = 0.0
    lost = zeroed_p.max() + (zeroed_p[:a] + zeroed_minus).max()
    got_plus, got_minus, got_lost = chain._folded_kernels(params)
    assert got_plus.tobytes() == k_plus.tobytes()
    assert got_minus.tobytes() == k_minus.tobytes()
    assert got_lost == lost


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 40, 41, 64, 101])
def test_all_states_first_step_copies_the_folded_rows(n, monkeypatch):
    """The all-states loop's first step copies the folded halves' leading
    rows (K_plus's middle row doubled at even n) in place of multiplying
    them by S_0 = V_0 = I: S_1, V_1, d(1) and its lost mass are the bits of
    the product, at every number of rows kept. The loop floors S and V a
    row block at a time, S's block then V's, so each array's flushed
    blocks, joined in row order, are S_1 and V_1."""
    h, a = n // 2, (n + 1) // 2
    flushed, flush = [], chain._flush

    def kept(A, mag):
        zeroed = flush(A, mag)
        flushed.append(A.tobytes())
        return zeroed

    monkeypatch.setattr(chain, "_flush", kept)
    for k in sorted({0, 1, n // 4, n // 3, n // 2, n}):
        params = ChainParams(n, k)
        k_plus, k_minus, lost_k = chain._folded_kernels(params)
        two_pi = 2.0 * stationary(params).dense_on(0, n)[:h + 1]
        for r in sorted({min(m, h + 1) for m in (1, 2, h, h + 1)} - {0}):
            S, V = np.eye(r, h + 1), np.eye(r, a)
            if a == h and r > h:
                S[h, h] = 2.0
            S, V = S @ k_plus, V @ k_minus
            zeroed = flush(S, S) + flush(V, np.abs(V))
            gap = np.abs(S - two_pi)
            d1 = 0.5 * (np.maximum(gap[:, :a], np.abs(V)).sum(axis=1)
                        + 0.5 * gap[:, a:].sum(axis=1)).max()
            flushed.clear()
            dist, lost = chain._folded_distances(
                k_plus, k_minus, chain._reach(k_plus), chain._reach(k_minus),
                two_pi, lost_k, np.array([h + 1, r]))
            assert b"".join(flushed[0::2]) == S.tobytes()
            assert b"".join(flushed[1::2]) == V.tobytes()
            assert dist[1] == d1
            assert lost[1] == lost_k + zeroed.max()


def test_row_blocks_cover_the_kept_rows(monkeypatch):
    """The loop's row blocks cover rows 0..r-1 in order, in near-equal
    blocks no longer than the scratch, and none is of one row unless r = 1:
    OpenBLAS rounds a product of one row on another path. The loop splits
    n // 2 + 1 rows into at most 8 blocks, with a scratch of at least 3."""
    for size in range(3, 40):
        for r in [*range(1, 200), 1025, 2049]:
            blocks = chain._row_blocks(r, size)
            lengths = [b.stop - b.start for b in blocks]
            assert blocks[0].start == 0 and blocks[-1].stop == r
            assert all(b.stop == c.start for b, c in zip(blocks, blocks[1:]))
            assert max(lengths) <= size and max(lengths) - min(lengths) <= 1
            assert r == 1 or min(lengths) >= 2
    sizes, row_blocks = set(), chain._row_blocks
    monkeypatch.setattr(chain, "_row_blocks", lambda r, size: sizes.add(
        size) or row_blocks(r, size))
    for n in (1, 4, 5, 6, 40, 1024, 1025):
        sizes.clear()
        distance_profile(ChainParams(n, max(1, n // 4)), 3)
        (size,) = sizes
        assert size == max(3, -(-(n // 2 + 1) // 8))
        assert len(row_blocks(n // 2 + 1, size)) <= 8


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 40, 41, 200, 300, 301, 512,
                               1024, 1025, 2048])
def test_row_block_loop_matches_the_whole_array_loop(n, monkeypatch):
    """The all-states d(t), whose loop updates S and V in place a row block
    at a time, is within 1e-14 of the loop that multiplies, floors and
    measures all the kept rows at once into a second pair of arrays
    (k = 1, n/4, n/3 and n/2, default horizon; 1.3e-16 observed), and bit
    for bit the same wherever every step is one block: a block's product
    can take another OpenBLAS path than the whole array's."""
    row_blocks, most = chain._row_blocks, []
    monkeypatch.setattr(chain, "_row_blocks", lambda r, size: most.append(
        len(row_blocks(r, size))) or row_blocks(r, size))
    for k in sorted({max(1, k) for k in (1, n // 4, n // 3, n // 2)}):
        params = ChainParams(n, k)
        t_max = _default_horizon(n, k) if n >= 3 else 20
        most.clear()
        blocked = distance_profile(params, t_max).d_values
        with monkeypatch.context() as whole:
            whole.setattr(chain, "_folded_distances",
                          unblocked_folded_distances)
            d = distance_profile(params, t_max).d_values
        assert np.abs(blocked - d).max() <= 1e-14
        if max(most) == 1:
            assert blocked.tobytes() == d.tobytes()


def test_all_states_peak_holds_no_second_copy_of_s_and_v():
    """The all-states loop holds K_plus and K_minus, each of about
    (n // 2 + 1)^2 doubles, and one row block of S and V with one scratch
    per array, each block at most an eighth of the starts; the fold builds
    the halves a tile of kernel rows at a time. So the traced peak of a
    profile at k = n/4 and the default horizon is at most 3 (n // 2 + 1)^2
    doubles (2.65 observed at 1024, 2.52 at 2048; 4.3 when S and V held
    every start and the fold every row of P, 6.1 with a second S and V to
    write the products into)."""
    distance_profile(ChainParams(40, 10), 5)  # numpy's lazy set-up
    for n in (1024, 2048):
        k = n // 4
        tracemalloc.start()
        try:
            distance_profile(ChainParams(n, k), _default_horizon(n, k))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 8 * (n // 2 + 1) ** 2, n


@pytest.mark.parametrize("n,k", [
    pytest.param(n, k, id=str(n) if k == n // 4 else f"{n}-{k}")
    for n in (40, 41, 300, 301, 1024)
    for k in sorted({n // 4} | ({n // 3} if n in (301, 1024) else set()))])
def test_all_states_half_rows_match_every_row(n, k):
    """The all-states profile evolves only the starts x <= n/2, whose colour
    swaps are the other starts, and multiplies only the columns from the
    first that S or V holds a nonzero in. Its d(t) is the maximum over every
    start of a loop over all n + 1 rows and columns (floored like the
    profile, so that it runs without subnormals) within 1e-14."""
    t_max = _default_horizon(n, k)
    params = ChainParams(n, k)
    profile = distance_profile(params, t_max, StartPolicy.ALL_STATES)
    P = dense_kernel(params)
    P[P < UNDERFLOW_FLOOR] = 0.0
    pi = stationary(params).dense_on(0, n)
    D = np.eye(n + 1)
    d = np.empty(t_max + 1)
    for t in range(t_max + 1):
        d[t] = 0.5 * np.abs(D - pi).sum(axis=1).max()
        if t < t_max:
            D = D @ P
            D[D < UNDERFLOW_FLOOR] = 0.0
    np.minimum.accumulate(d, out=d)
    assert np.abs(profile.d_values - d).max() <= 1e-14


@pytest.mark.parametrize("n", [40, 41])
def test_all_states_matches_exact_rationals(n):
    """The all-states d(t) against integer powers of the kernel and the TV
    in Fractions (k = n/4, t <= 30). Pinned at the observed errors plus a
    small margin (1.98e-16 and 1.70e-16 absolute; 8.3e-9 and 1.7e-14
    relative, largest at t = 30, where d(t) is 3.3e-9 and 7.0e-9). The
    relative pin holds because V carries the slow odd mode itself, not as
    a difference D_t - pi: the D P product over rows x <= n/2 was off by
    2.8e-8 at n = 40."""
    exact = exact_worst_start_profile(n, n // 4, 30)
    d = distance_profile(ChainParams(n, n // 4), 30, StartPolicy.ALL_STATES)
    err = [abs(Fraction(float(x)) - e) for x, e in zip(d.d_values, exact)]
    assert max(err) <= Fraction(2.5e-16)
    assert max(e / x for e, x in zip(err, exact)) <= Fraction(1e-8)


# ------------------------------------ Hahn spectrum and the all-states pruning

@pytest.mark.parametrize("n", [1, 2, 3, 7, 20, 21, 60])
def test_hahn_matches_the_exact_hypergeometric_sum(n):
    """Every float Q_i(x), x and i up to n, lies within its stated rounding
    bound of the exact 3F2 sum, and every exact |Q_i(x)| is at most 1 (the
    cap the bound relies on)."""
    q, err = chain._hahn(n, np.arange(n + 1.0), n)
    for i in range(n + 1):
        for x in range(n + 1):
            exact = hahn_exact(n, i, x)
            assert abs(exact) <= 1
            assert abs(Fraction(float(q[i, x])) - exact) <= Fraction(err[i, x])
    for k in sorted({0, 1, n // 4, n // 3, n // 2, n}):
        beta, beta_err = chain._hahn(n, np.float64(k), n)
        assert np.array_equal(beta, q[:, k]) and np.array_equal(beta_err,
                                                                 err[:, k])


@pytest.mark.parametrize("n", [1, 2, 5, 6, 11, 12, 20])
def test_hahn_completeness_in_rationals(n):
    """sum_i d_i Q_i(x) Q_i(y) = delta_xy / pi(x), d_i = C(2n, i) -
    C(2n, i-1), exactly, and the two sums the row certificates' tail rests
    on: for x >= 1, sum_{i>=1} d_i Q_i(x) = -1 and sum_{i>=1} d_i (Q_i(x) -
    Q_1(x))^2 = 1/pi(x) - 1 + 2 Q_1(x) + Q_1(x)^2 (C(2n, n) - 1)."""
    Q = [[hahn_exact(n, i, x) for x in range(n + 1)] for i in range(n + 1)]
    d = [math.comb(2 * n, i) - (math.comb(2 * n, i - 1) if i else 0)
         for i in range(n + 1)]
    total = math.comb(2 * n, n)
    for x in range(n + 1):
        for y in range(n + 1):
            assert sum(di * Qi[x] * Qi[y] for di, Qi in zip(d, Q)) == (
                Fraction(total, math.comb(n, x) ** 2) if x == y else 0)
    for x in range(1, n + 1):
        q1 = Q[1][x]
        assert q1 == 1 - Fraction(2 * x, n)
        assert sum(di * Qi[x] for di, Qi in zip(d[1:], Q[1:])) == -1
        assert (sum(di * (Qi[x] - q1) ** 2 for di, Qi in zip(d[1:], Q[1:]))
                == Fraction(total, math.comb(n, x) ** 2) - 1 + 2 * q1
                + q1 ** 2 * (total - 1))


@pytest.mark.parametrize("n,k", [(3, 1), (8, 2), (8, 4), (9, 3), (12, 5)])
def test_hahn_eigenpairs_of_the_kernel(n, k):
    """P Q_i = beta_i Q_i with beta_i = Q_i(k), in rationals over the
    integer kernel."""
    M = kernel_counts(n, k)
    for i in range(n + 1):
        Q = [hahn_exact(n, i, y) for y in range(n + 1)]
        for x in range(n + 1):
            assert (sum(m * qy for m, qy in zip(M[x], Q))
                    == math.comb(n, k) ** 2 * hahn_exact(n, i, k) * Q[x])


def test_hahn_rounding_bounds_at_1024():
    """At n = 1024 the float Q_i(x) of the row bound's head (i <= 64, x <=
    n/2) and every float beta_i at k = n/4 and n/3 lie within their stated
    rounding bounds of the recurrence run in integers; the head's bounds
    are at most 1e-12 (1.8e-13 observed, 1.3e-15 the largest error)."""
    n = 1024
    q, err = chain._hahn(n, np.arange(n // 2 + 1.0), chain._MODES)
    assert err.max() <= 1e-12
    for x in range(n // 2 + 1):
        exact = hahn_recurrence_exact(n, x, chain._MODES)
        assert all(abs(Fraction(float(v)) - e) <= Fraction(b)
                   for v, b, e in zip(q[:, x], err[:, x], exact))
    for k in (n // 4, n // 3):
        beta, beta_err = chain._hahn(n, np.float64(k), n)
        exact = hahn_recurrence_exact(n, k, n)
        assert all(abs(Fraction(float(v)) - e) <= Fraction(b)
                   for v, b, e in zip(beta, beta_err, exact))


@pytest.mark.parametrize("k", [1, MATRIX_GUARD - 1])
def test_hahn_bound_stays_finite_where_the_recurrence_is_unstable(k):
    """At k near 0 or n the error bound of beta_i grows over large i; its
    cap, |q| + 1, keeps it finite (uncapped it overflows at n = 4096)."""
    beta, err = chain._hahn(MATRIX_GUARD, np.float64(k), MATRIX_GUARD)
    assert np.all(np.isfinite(beta)) and np.all(err <= np.abs(beta) + 1.0)
    assert np.any(err == np.abs(beta) + 1.0)  # the cap is reached


@pytest.mark.parametrize("n", [40, 41, 300, 1024, MATRIX_GUARD])
def test_stationary_rounding_within_the_row_rule_allowance(n):
    """The row rule allows gamma_(n//2 + 2) for the rounding of pi: half
    its L1 distance from the exact law is within that."""
    pi = stationary(ChainParams(n, 1)).dense_on(0, n)
    total, scale = math.comb(2 * n, n), 1 << 1074  # 2^-1074 divides a double
    l1 = 0  # in units of 1 / (scale total)
    for z, p in enumerate(pi.tolist()):
        num, den = p.as_integer_ratio()
        l1 += abs(num * (scale // den) * total - math.comb(n, z) ** 2 * scale)
    assert Fraction(l1, 2 * scale * total) <= chain._gamma(n // 2 + 2)


@functools.lru_cache(maxsize=None)
def _dense_distances(n, k):
    """d_x(t) of every start x <= n/2 (columns) at every step t of the
    default horizon (rows), from a loop over the rows of the dense kernel."""
    t_max = _default_horizon(n, k)
    P = dense_kernel(ChainParams(n, k))
    pi = stationary(ChainParams(n, k)).dense_on(0, n)
    D = np.eye(n // 2 + 1, n + 1)
    d = np.empty((t_max + 1, n // 2 + 1))
    for t in range(t_max + 1):
        d[t] = 0.5 * np.abs(D - pi).sum(axis=1)
        D = D @ P
    return d


@pytest.mark.parametrize("n", [40, 41, 64, 65, 126, 127, 300, 301, 512, 1024])
@pytest.mark.parametrize("frac", [4, 3])
def test_row_bound_holds_for_every_start(n, frac):
    """R_0(t), the row certificate at c = 0, is at least the distance
    d_x(t) of every start x <= n/2 at every t of the default horizon, from
    a loop over the rows of the dense kernel, up to that loop's own
    rounding, (t + 2) gamma_(n+2); and at t = 0 it is at least half the
    root of the exact chi-square distance."""
    k = n // frac
    t_max = _default_horizon(n, k)
    params = ChainParams(n, k)
    log_bound, _ = chain._row_bounds(params)(np.arange(t_max + 1.0))
    # at t = 0 the chi-square distance is 1/pi(x) - 1 exactly, most of it in
    # the modes past the first 64 when n > 64: the completeness tail's share
    total = math.comb(2 * n, n)
    log_chi2 = [math.log(total - math.comb(n, x) ** 2)
                - 2 * math.log(math.comb(n, x)) for x in range(n // 2 + 1)]
    assert np.all(log_bound[0] >= np.array(log_chi2) / 2 + math.log(0.5)
                  - 1e-9)  # the log sums' rounding, far inside rho
    bound = np.exp(np.minimum(log_bound, 1.0))
    d = _dense_distances(n, k)
    for t in range(t_max + 1):
        assert np.all(d[t] <= bound[t] + (t + 2) * chain._gamma(n + 2))


@pytest.mark.parametrize("n", [40, 41, 64, 65, 126, 127, 300, 301, 512, 1024])
@pytest.mark.parametrize("frac", [4, 3])
def test_mode_one_bound_holds_for_every_start(n, frac):
    """d_x(t) <= c d_0(t) + R_c(t) at c = Q_1(x) = 1 - 2x/n for every start
    x <= n/2 and every t of the default horizon, from the dense kernel's
    loop, with the allowance of ``test_row_bound_holds_for_every_start``;
    and at t = 0, for x >= 1, R_c is at least half the root of the exact
    sum_{i>=1} d_i (Q_i(x) - Q_1(x))^2
    (``test_hahn_completeness_in_rationals``)."""
    k = n // frac
    t_max = _default_horizon(n, k)
    _, log_r = chain._row_bounds(ChainParams(n, k))(np.arange(t_max + 1.0))
    total = math.comb(2 * n, n)
    for x in range(1, n // 2 + 1):
        q1 = 1 - Fraction(2 * x, n)
        exact = (Fraction(total, math.comb(n, x) ** 2) - 1 + 2 * q1
                 + q1 ** 2 * (total - 1))
        log_exact = math.log(exact.numerator) - math.log(exact.denominator)
        assert log_r[0, x] >= log_exact / 2 + math.log(0.5) - 1e-9
    r = np.exp(np.minimum(log_r, 1.0))
    d = _dense_distances(n, k)
    q1 = 1 - 2 * np.arange(n // 2 + 1) / n
    for t in range(t_max + 1):
        assert np.all(d[t] <= q1 * d[t, 0] + r[t]
                      + (t + 2) * chain._gamma(n + 2))


@pytest.mark.parametrize("n", [40, 41, 62, 63, 64, 65, 126, 127, 300, 301,
                               512, 513, 1024, 1025])
@pytest.mark.parametrize("frac", [4, 3])
def test_pruned_profile_matches_every_row(n, frac, monkeypatch):
    """The profile over the rows ``_rows_kept`` keeps is within 1e-14 of the
    loop over every row x <= n/2, and its lost_mass is no larger."""
    params = ChainParams(n, n // frac)
    t_max = _default_horizon(n, n // frac)
    kept = _kept_rows(monkeypatch)
    pruned = distance_profile(params, t_max)
    _unpruned(monkeypatch)
    full = distance_profile(params, t_max)
    assert np.all(kept[1] == n // 2 + 1)
    assert np.all(np.diff(kept[0]) <= 0) and kept[0][-1] >= 1
    assert np.abs(pruned.d_values - full.d_values).max() <= 1e-14
    assert pruned.lost_mass <= full.lost_mass


def test_products_skip_the_dead_columns_at_1024(monkeypatch):
    """At n = 1024, k = n/4 and the default horizon, pi(z) is below
    UNDERFLOW_FLOOR for z below about 0.22 n, so S and V are exact zeros
    there once the chain has moved: the products of the loop over every row
    make at most 50% of the multiply-adds of full-width products over the
    same steps (41.6% observed, each row block's window found from its own
    rows; 42.0% from every kept row). Measured over every row, as the pruning
    drops the late steps, whose windows are the narrowest."""
    n, k = 1024, 256
    h, a = n // 2, (n + 1) // 2
    t_max = _default_horizon(n, k)
    _unpruned(monkeypatch)
    made, matmul = [], np.matmul
    monkeypatch.setattr(np, "matmul", lambda A, B, **kw: made.append(
        (A.shape[0], A.shape[0] * A.shape[1] * B.shape[1])) or matmul(A, B, **kw))
    distance_profile(ChainParams(n, k), t_max)
    # row 0 alone, then each row block in turn: through every step after
    # the first, which copies the halves' rows, a block multiplies its rows
    # of S, then the same rows of V, and at each step the blocks cover the
    # kept rows exactly (every row, unpruned)
    steps = t_max - 1
    assert len(made) % 2 == 0
    pairs = list(zip(made[0::2], made[1::2]))
    assert all(s_rows == v_rows for (s_rows, _), (v_rows, _) in pairs)
    walks = np.array([s_rows for (s_rows, _), _ in pairs]).reshape(-1, steps)
    assert np.all(walks[0] == 1)
    assert np.all(walks[1:] == walks[1:, :1])  # a block keeps every row
    assert np.all(walks[1:].sum(axis=0) == h + 1)
    full = (steps + steps * (h + 1)) * ((h + 1) ** 2 + a ** 2)
    assert sum(flops for _, flops in made) <= 0.5 * full


def _row_steps_kept(n, monkeypatch):
    """The rows ``_rows_kept`` keeps at each step at k = n/4 and the
    default horizon."""
    k = n // 4
    kept = _kept_rows(monkeypatch)
    distance_profile(ChainParams(n, k), _default_horizon(n, k))
    return kept[0]


def test_rows_kept_at_1024(monkeypatch):
    """At n = 1024, k = n/4 and the default horizon the profile multiplies
    at most 18% of the rows the unpruned loop does (16.6% observed), and
    the two-row floor at the last step."""
    rows = _row_steps_kept(1024, monkeypatch)
    assert rows[0] == 513 and rows[-1] == 2
    assert rows.sum() <= 0.18 * rows[0] * len(rows)


def test_rows_kept_at_512(monkeypatch):
    """At n = 512 the profile keeps at most 1,450 row-steps (1,314
    observed; 2,823 under the chi-square certificate alone)."""
    rows = _row_steps_kept(512, monkeypatch)
    assert rows[0] == 257 and rows[-1] == 2
    assert rows.sum() <= 1450


def test_rows_kept_memory_does_not_grow_with_the_horizon(monkeypatch):
    """The certificates are built a block of steps at a time: over 2 * 10^4
    steps of a geometric d0 at n = 300 the row rule's traced peak stays
    below 8 MB (3.9 MB observed; the whole tables took 60 MB), and its
    rows are those of the rule over one block of every step, and over
    blocks of one step."""
    params = ChainParams(300, 75)
    t_max = 20_000
    d0 = 0.9995 ** np.arange(t_max + 1.0)
    lost0 = np.zeros(t_max + 1)
    tracemalloc.start()
    try:
        rows = chain._rows_kept(params, d0, lost0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8e6
    assert rows[0] == 151 and rows[-1] == 2 and np.all(np.diff(rows) <= 0)
    for block in (10**9, 1):
        monkeypatch.setattr(chain, "_BLOCK", block)
        assert np.array_equal(chain._rows_kept(params, d0, lost0), rows)


@pytest.mark.parametrize("n,k,t_max", [
    (300, 75, 0), (1024, 256, 0), (1024, 341, None), (1024, 511, 10),
    (1024, 512, 10), (1025, 512, 10)])
def test_every_row_kept_where_nothing_is_certified(n, k, t_max, monkeypatch):
    """Where the bound certifies no start at every later step (t_max = 0,
    k = n/3 at the default horizon, where d(t_max) is about 1e-14, k near
    n/2, where d(t) collapses within a few steps), every row is kept. Past
    t = 0 that is because d0(t_max) lies below sigma, so nothing is
    certified at the last step: with blocks of one step, the rule builds
    the last block alone and keeps the same rows."""
    t_max = _default_horizon(n, k) if t_max is None else t_max
    params = ChainParams(n, k)
    kept = _kept_rows(monkeypatch)
    distance_profile(params, t_max)
    assert np.all(kept[0] == n // 2 + 1)
    blocks, row_bounds = [], chain._row_bounds

    def counted(params):
        at = row_bounds(params)
        return lambda t: blocks.append(t) or at(t)
    monkeypatch.setattr(chain, "_BLOCK", 1)
    monkeypatch.setattr(chain, "_row_bounds", counted)
    distance_profile(params, t_max)
    assert [t.tolist() for t in blocks] == [[t_max]]
    assert np.array_equal(kept[1], kept[0])


def test_trimmed_evolution_above_matrix_guard():
    """Above MATRIX_GUARD the from-zero profile evolves with trimmed rows:
    they must track the exact rows, certify a negligible lost mass, and stay
    within the span of their two Serfling-window inputs."""
    params = ChainParams(5000, 1250)
    assert params.n > MATRIX_GUARD
    laws = {}
    for trim in (False, True):
        kernel = chain._SparseKernel(params, trim)
        mu, laws[trim] = point_mass(0), []
        for _ in range(10):
            mu = kernel.step(mu)
            laws[trim].append(mu)
    reached = set()
    for exact, trimmed in zip(laws[False], laws[True]):
        assert tv_distance(exact, trimmed) <= 1e-14
        reached.update(int(x) for x in trimmed.support)
    assert 0 < laws[True][-1].lost_mass <= 1e-14
    n, k = params.n, params.k
    for x in reached:
        row = transition_row(params, x, trim=True)
        windows = (hypergeom_pmf(HypergeomParams(n, n - x, k), trim=True),
                   hypergeom_pmf(HypergeomParams(n, x, k), trim=True))
        assert row.hi - row.lo <= sum(w.hi - w.lo for w in windows)


@pytest.mark.parametrize("n", [40, 41, 300, 301])
def test_sparse_kernel_step_matches_kernel_matrix(n):
    """The sparse kernel stores only the rows x <= n/2, and steps the mass
    above n/2 through their colour swaps: one step of a law with mass on
    every state is the law times the full kernel matrix within 1e-15."""
    params = ChainParams(n, n // 4)
    mu = from_weights(0, np.random.default_rng(n).random(n + 1), normalize=True)
    out = chain._SparseKernel(params, False).step(mu)
    ref = mu.dense_on(0, n) @ dense_kernel(params)
    assert np.abs(out.dense_on(0, n) - ref).max() <= 1e-15
    assert out.lost_mass == 0.0


@pytest.mark.parametrize("n,trim", [(40, False), (41, False), (300, False),
                                    (301, False), (5000, True), (5001, True)])
def test_sparse_kernel_step_commutes_with_colour_swap(n, trim):
    """The step of a law's colour swap is the colour swap of its step: bit
    for bit at odd n, where no state is its own swap, and within 1e-16 at
    even n, whose middle state is."""
    kernel = chain._SparseKernel(ChainParams(n, n // 4), trim)
    w = np.random.default_rng(n).random(n + 1)
    w /= w.sum()
    out = kernel.step(FinitePmf(0, w))
    swapped = kernel.step(FinitePmf(0, w[::-1]))
    if n % 2:
        assert (swapped.dense_on(0, n).tobytes()
                == out.dense_on(0, n)[::-1].tobytes())
    else:
        assert np.abs(swapped.dense_on(0, n)
                      - out.dense_on(0, n)[::-1]).max() <= 1e-16
    assert swapped.lost_mass == pytest.approx(out.lost_mass, rel=1e-12)


def _row_spans(n, k, batches, trim):
    """Each state's first column, weights on its support and lost mass, as
    bytes, read from the blocks ``_rows`` builds over ``batches``."""
    spans = []
    for batch in batches:
        c0, block, lost = chain._rows(n, k, batch, trim)
        assert block.dtype == lost.dtype == np.float64
        first, last = first_last(block > 0)
        for r, (row, a, b) in enumerate(zip(block, first, last)):
            spans.append((c0 + int(a), row[a:b + 1].tobytes(),
                          lost[r:r + 1].tobytes()))
    return spans


def _assert_rows_do_not_depend_on_the_batch(n, k, trim, states):
    """``states``' rows are the same bits built a tile at a time, one state
    at a time, or in a random split into batches of at most 256 states."""
    sizes = np.random.default_rng(n).integers(1, min(256, states.size) + 1,
                                              size=states.size)
    cuts = np.cumsum(sizes)
    tiles = np.split(states, np.arange(TILE, states.size, TILE))
    want = _row_spans(n, k, tiles, trim)
    for batches in (np.split(states, np.arange(1, states.size)),
                    np.split(states, cuts[cuts < states.size])):
        assert _row_spans(n, k, batches, trim) == want


@pytest.mark.parametrize("n,k,trim", [(5000, 1250, True), (5001, 1250, True),
                                      (20000, 5000, True), (40, 10, False),
                                      (41, 10, False), (300, 75, False),
                                      (4096, 2048, False)])
def test_row_bytes_do_not_depend_on_the_batch(n, k, trim):
    """The rows of the states c <= n/2 do not depend on the batch they are
    built in.  Their underflowed tails are cut before the convolution, so
    even at n = 4096, k = 2048 every row is convolved directly."""
    _assert_rows_do_not_depend_on_the_batch(n, k, trim, np.arange(n // 2 + 1))


@pytest.mark.parametrize("n,k,trim,states", [
    pytest.param(n, k, trim, states, id=f"{n}-{k}") for n, k, trim, states in
    [(100_000, 60_000, True, np.arange(50_000 - 255, 50_001))]
    + [(n, n - n // 4, False, np.arange(n // 2 + 1)) for n in sorted(_TILE_EDGES)]])
def test_rows_above_half_are_reflected(n, k, trim, states):
    """For k > n/2 each row is the row of n - k swaps reversed, bit for
    bit, with the same lost mass, and does not depend on the batch it is
    built in: at n = 10^5, k = 6 * 10^4 (trimmed) the top 256 states, and
    every state c <= n/2 at the tile-edge sizes with k = n - n // 4."""
    for tile in np.split(states, np.arange(TILE, states.size, TILE)):
        c0, block, lost = chain._rows(n, k, tile, trim)
        c0_swap, block_swap, lost_swap = chain._rows(n, n - k, tile, trim)
        assert c0 == n + 1 - c0_swap - block.shape[1]
        assert block.tobytes() == block_swap[:, ::-1].tobytes()
        assert lost.tobytes() == lost_swap.tobytes()
    _assert_rows_do_not_depend_on_the_batch(n, k, trim, states)


@pytest.mark.parametrize("n,k,trim", [
    (n, k, False) for n in sorted(_TILE_EDGES) for k in (1, n // 4, n)
] + [(5000, 1250, True), (5001, 1250, True)])
def test_rows_block_holds_each_transition_row(n, k, trim):
    """``_rows`` over a tile returns one dense block, the last tile's short
    when TILE does not divide n // 2 + 1.  Row r is the transition row of
    the tile's state r on its support and zero elsewhere, c0 is the least
    first column of the rows, and the block's last column holds a positive
    weight."""
    params = ChainParams(n, k)
    for at in range(0, n // 2 + 1, TILE):
        states = np.arange(at, min(at + TILE, n // 2 + 1))
        c0, block, lost = chain._rows(n, k, states, trim)
        assert block.shape[0] == states.size
        firsts = []
        for r, (x, row) in enumerate(zip(states.tolist(), block)):
            ref = transition_row(params, x, trim=trim)
            assert ref.lo >= c0 and ref.hi < c0 + block.shape[1]
            want = np.zeros(block.shape[1])
            want[ref.lo - c0:ref.hi - c0 + 1] = ref.weights
            assert row.tobytes() == want.tobytes()
            assert lost[r] == ref.lost_mass
            firsts.append(ref.lo)
        assert c0 == min(firsts)
        assert block[:, -1].max() > 0


@pytest.mark.parametrize("n,trim", [(300, False), (301, False),
                                    (5000, True), (5001, True)])
def test_sparse_kernel_step_over_rows_with_mass_is_the_full_product(n, trim):
    """A step multiplies only the tiles from the first to the last with
    mass; a loop over every built tile is the same bits."""
    params = ChainParams(n, n // 4)
    kernel = chain._SparseKernel(params, trim)
    kernel.step(from_weights(0, np.ones(n + 1), normalize=True))
    assert None not in kernel._tiles  # every tile is built
    tiles = list(kernel._tiles)  # the step drops the tiles without mass
    mu = transition_row(params, 2 * n // 5, trim=trim)
    assert TILE <= mu.lo and mu.hi <= n - TILE  # state 0's tile has no mass
    out = kernel.step(mu)

    half = n // 2
    x = mu.dense_on(0, n)
    both = np.zeros((half + 1, 2))
    both[:, 0] = x[:half + 1]
    both[:n - half, 1] = x[:half:-1]
    prod = np.zeros((2, n + 1))
    for tile, (c0, block) in enumerate(tiles):
        part = both[tile * TILE:(tile + 1) * TILE]
        # the last tile holds the n // 2 + 1 - tile * TILE states left
        assert block.shape[0] == len(part) and block.flags.c_contiguous
        prod[:, c0:c0 + block.shape[1]] += part.T @ block
    ref = from_weights(0, prod[0] + prod[1, ::-1])
    assert out.dense_on(0, n).tobytes() == ref.dense_on(0, n).tobytes()


@pytest.mark.parametrize("n", [126, 300, 5000])
def test_state_zero_profile_ignores_build_history(n, row_builds, monkeypatch):
    """A kernel's rows do not depend on the order states were reached in:
    a kernel that built tile 0 stepping from state n, which starts above
    n/2, steps the state-zero laws byte-equal to the ones the profile's own
    fresh kernel stepped, with the same lost mass."""
    params = ChainParams(n, n // 4)
    step, laws = chain._SparseKernel.step, []

    def recorded(kernel, mu):
        laws.append(step(kernel, mu))
        return laws[-1]

    monkeypatch.setattr(chain._SparseKernel, "step", recorded)
    fresh = distance_profile(params, _default_horizon(n, n // 4),
                             StartPolicy.STATE_ZERO)
    fresh_builds = row_builds[0]  # an untrimmed law can come back to tile 0
    kernel = chain._SparseKernel(params, n > MATRIX_GUARD)
    step(kernel, point_mass(n))
    # state n is stepped through the row of its colour swap 0
    assert kernel._tiles[0] is not None
    row_builds.clear()
    mu = point_mass(0)
    for law in laws:
        mu = step(kernel, mu)
        assert mu.dense_on(0, n).tobytes() == law.dense_on(0, n).tobytes()
        assert mu.lost_mass == law.lost_mass
    assert row_builds[0] == fresh_builds - 1  # step 0 used the tile held
    assert mu.lost_mass == fresh.lost_mass


@pytest.fixture
def row_builds(monkeypatch):
    """A counter of the kernel rows built, by state."""
    built = collections.Counter()
    rows = chain._rows

    def counted(n_, k_, states, trim):
        built.update(states.tolist())
        return rows(n_, k_, states, trim)

    monkeypatch.setattr(chain, "_rows", counted)
    return built


def test_state_zero_profile_builds_each_colour_swap_pair_once(row_builds):
    """A trimmed state-zero profile (n = 10^4, k = n/4, and n = 5001, k
    from n/10 to n/2) builds the row of each state x <= n/2 at most once,
    though it drops the tiles the law leaves, and steps its colour swap
    n - x through it.  The rows it builds are the whole tiles of the states
    it steps from."""
    built = row_builds
    for n, k in ((10_000, 2500), (5001, 500), (5001, 1667), (5001, 2500)):
        params = ChainParams(n, k)
        built.clear()
        t_max = _default_horizon(n, k)
        profile = distance_profile(params, t_max, StartPolicy.STATE_ZERO)
        assert max(built.values()) == 1
        assert max(built) <= n // 2
        # the states with mass at t < t_max, through one kernel
        kernel = chain._SparseKernel(params, True)
        reached, mu = set(), point_mass(0)
        for _ in range(t_max):
            reached.update(mu.support[mu.weights > 0].tolist())
            mu = kernel.step(mu)
        # the upper half was reached too, and no row was stored for it
        assert max(reached) > n // 2
        tiles = {min(x, n - x) // TILE for x in reached}
        assert sorted(built) == [c for c in range(n // 2 + 1)
                                 if c // TILE in tiles]
        assert profile.d_values[-1] < 0.25


@pytest.mark.parametrize("n", [700, 5001, 20_000])
def test_sparse_kernel_holds_the_tiles_with_mass(n, monkeypatch):
    """After each step of a state-zero profile the kernel holds exactly the
    tiles of the states c <= n/2 that carry the mass, or their colour swaps
    do, of the law it stepped, and the step is byte-equal to the same step
    on a fresh kernel (every third step, to keep the test short)."""
    params = ChainParams(n, n // 4)
    t_max = _default_horizon(n, n // 4)
    trim = n > MATRIX_GUARD
    step = chain._SparseKernel.step
    steps = []

    def checked(kernel, mu):
        out = step(kernel, mu)
        x = mu.support[mu.weights > 0]
        held = [t for t, tile in enumerate(kernel._tiles) if tile is not None]
        assert held == sorted(set((np.minimum(x, n - x) // TILE).tolist()))
        steps.append((mu, out))
        return out

    monkeypatch.setattr(chain._SparseKernel, "step", checked)
    distance_profile(params, t_max, StartPolicy.STATE_ZERO)
    assert len(steps) == t_max
    for mu, out in steps[::3]:
        fresh = step(chain._SparseKernel(params, trim), mu)
        assert fresh.dense_on(0, n).tobytes() == out.dense_on(0, n).tobytes()
        assert fresh.lost_mass == out.lost_mass


@pytest.mark.parametrize("n", [64, 65, 127, 128])
def test_sparse_kernel_tile_range_is_the_scan_of_every_state(n):
    """A step takes its tiles, from the first to the last that carry mass,
    from mu's support alone, as the states c <= n/2 with mass are min(y,
    n - y) over lo <= y <= hi.  For laws with mass on every point of
    [lo, hi], below, across and above n/2, touching 0, n or neither, the
    range is the one a scan of every state finds: from a kernel holding
    every tile, the step keeps exactly those tiles, and the step is the
    law times the full kernel matrix within 1e-15."""
    params = ChainParams(n, n // 4)
    kernel = chain._SparseKernel(params, False)
    everywhere = from_weights(0, np.ones(n + 1), normalize=True)
    matrix = dense_kernel(params)
    h = n // 2
    ends = sorted({0, 1, TILE - 1, TILE, h - 1, h, h + 1, n - TILE - 1,
                   n - TILE, n - 1, n})
    for lo in ends:
        for hi in [e for e in ends if e >= lo]:
            mu = from_weights(lo, np.ones(hi - lo + 1), normalize=True)
            x = mu.dense_on(0, n)
            both = np.zeros((h + 1, 2))  # the reference: scan every state
            both[:, 0] = x[:h + 1]
            both[:n - h, 1] = x[:h:-1]
            carried = np.nonzero(both.any(axis=1))[0]
            tiles = range(carried[0] // TILE, carried[-1] // TILE + 1)
            kernel.step(everywhere)
            assert None not in kernel._tiles
            out = kernel.step(mu)
            held = [t for t, tile in enumerate(kernel._tiles) if tile is not None]
            assert held == list(tiles)
            assert np.abs(out.dense_on(0, n) - x @ matrix).max() <= 1e-15


def test_state_zero_profile_peak_is_below_the_tiles_built(monkeypatch):
    """The kernel holds only the tiles the current law steps from, so the
    traced peak of a trimmed profile (n = 2 * 10^4, k = n/4, the default
    horizon) stays below 0.75 times the bytes of every tile it builds
    (0.64 observed; 1.13 when every tile built was kept)."""
    n, k = 20_000, 5000
    built = []
    rows = chain._rows

    def counted(*args):
        c0, block, lost = rows(*args)
        built.append(block.nbytes)
        return c0, block, lost

    monkeypatch.setattr(chain, "_rows", counted)
    tracemalloc.start()
    try:
        distance_profile(ChainParams(n, k), _default_horizon(n, k),
                         StartPolicy.STATE_ZERO)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.75 * sum(built)


def test_no_kernel_outlives_its_call():
    """A state-zero profile and an evolution each drop their kernel on
    return: at n = 2 * 10^4, k = n/4, the traced bytes still held after
    either stay below 1 MiB, a fraction of the tiles either steps through."""
    n, k = 20_000, 5000
    params = ChainParams(n, k)
    tracemalloc.start()
    try:
        distance_profile(params, _default_horizon(n, k),
                         StartPolicy.STATE_ZERO)
        after_profile = tracemalloc.get_traced_memory()[0]
        evolve(params, point_mass(0), 20, trim=True)
        after_evolve = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert max(after_profile, after_evolve) < 1 << 20


def test_evolve_from_the_top_builds_each_canonical_row_once(row_builds):
    """An evolution from state n reaches states above n/2 before their
    colour swaps; the row built to mirror one is kept, so each canonical
    state min(x, n - x) is built exactly once."""
    n, k = 5000, 1250
    params = ChainParams(n, k)
    # the states with mass at t < 40
    kernel = chain._SparseKernel(params, True)
    reached, mu = set(), point_mass(n)
    for _ in range(40):
        reached.update(mu.support[mu.weights > 0].tolist())
        mu = kernel.step(mu)
    row_builds.clear()
    evolve(params, point_mass(n), 40, trim=True)
    tiles = {min(x, n - x) // TILE for x in reached}
    canonical = [c for c in range(n // 2 + 1) if c // TILE in tiles]
    assert sorted(row_builds) == canonical
    assert sum(row_builds.values()) == len(canonical)


def _refuse_building(monkeypatch):
    """Make building a kernel, a kernel row or a hypergeometric law fail."""
    def refused(*args):
        raise AssertionError("a kernel, row or law was built")

    for name in ("_rows", "_SparseKernel"):
        monkeypatch.setattr(chain, name, refused)
    monkeypatch.setattr(pmf, "hypergeom_laws", refused)


def test_matrix_guard(monkeypatch):
    """Above MATRIX_GUARD the all-states profile is refused before any
    kernel row is built."""
    _refuse_building(monkeypatch)
    with pytest.raises(InfeasibleSizeError):
        distance_profile(ChainParams(5000, 1250), 2, StartPolicy.ALL_STATES)


def test_vector_guard(monkeypatch):
    """Above VECTOR_GUARD the state-zero profile and ``evolve`` are refused
    before the kernel, a row or the stationary law is built."""
    _refuse_building(monkeypatch)
    params = ChainParams(VECTOR_GUARD + 1, 25_000)
    with pytest.raises(InfeasibleSizeError):
        distance_profile(params, 2, StartPolicy.STATE_ZERO)
    for trim in (False, True):
        with pytest.raises(InfeasibleSizeError):
            evolve(params, point_mass(0), 1, trim=trim)


def test_law_guard(monkeypatch):
    """Above LAW_GUARD, the bound on laws that ``pmf`` and ``approx`` refuse
    too, a transition row and the stationary law are refused before any law
    is built."""
    _refuse_building(monkeypatch)
    params = ChainParams(LAW_GUARD + 1, 1000)
    for trim in (False, True):
        with pytest.raises(InfeasibleSizeError):
            transition_row(params, 0, trim=trim)
    with pytest.raises(InfeasibleSizeError):
        stationary(params)


# ------------------------------------------------------------ eigenfunctions

def test_eigen_eval_examples():
    assert eigen_eval(ChainParams(10, 0), Eigenfunction.F1, 5) == 0.0
    assert eigen_eval(ChainParams(10, 0), Eigenfunction.F2, 0) == 1.0
    assert eigen_eval(ChainParams(2, 1), Eigenfunction.F2, 1) == pytest.approx(-0.5)
    assert eigen_eval(ChainParams(4, 0), Eigenfunction.F3, 2) == pytest.approx(0.5)
    with pytest.raises(ParameterError):
        eigen_eval(ChainParams(1, 0), Eigenfunction.F2, 0)


@pytest.mark.parametrize("bad", [True, np.True_, "0.5", None, 0.5j, math.nan])
def test_t_mix_and_eigen_eval_refuse_non_real_arguments(bad):
    """A bool, a non-real or a NaN epsilon or eigenfunction argument is
    refused, not read as 1 (a bool) or left to escape as a TypeError."""
    profile = distance_profile(ChainParams(2, 1), 3)
    with pytest.raises(ParameterError):
        t_mix(profile, bad)
    for kind in Eigenfunction:
        with pytest.raises(ParameterError):
            eigen_eval(ChainParams(10, 2), kind, bad)


# ---------------------------------------------------------- moment identities

def test_moment_identities_frozen_examples():
    (lhs, rhs), _ = verify_moment_identities(ChainParams(2, 1), 0, 1)[1]
    assert lhs == pytest.approx(0.0, abs=1e-15)
    assert rhs == pytest.approx(0.0, abs=1e-15)
    (moments,) = verify_moment_identities(ChainParams(6, 2), 4, 0)
    for lhs, rhs in moments:
        assert abs(lhs - rhs) <= 1e-15
    (lhs, _), _ = verify_moment_identities(ChainParams(4, 1), 0, 2)[2]
    assert lhs == pytest.approx(0.25, abs=1e-12)


def test_moment_walk_matches_evolve():
    """The moments of the one walk are those of the law ``evolve`` takes
    from x0 to each t, bit for bit."""
    params, x0 = ChainParams(60, 15), 7
    walk = verify_moment_identities(params, x0, 6)
    for t, ((first, _), (second, _)) in enumerate(walk):
        mu = evolve(params, point_mass(x0), t)
        f1 = 1.0 - 2.0 * mu.support / params.n
        assert first == float(np.dot(mu.weights, f1))
        assert second == float(np.dot(mu.weights, f1**2))


@pytest.mark.parametrize("n,k", [(10, 2), (60, 15), (151, 37)])
def test_moment_identities_grid(n, k):
    for x0 in (0, n // 3, n // 2):
        walk = verify_moment_identities(ChainParams(n, k), x0, 7)
        for t in (1, 3, 7):
            for lhs, rhs in walk[t]:
                if abs(rhs) < 1e-6:
                    assert abs(lhs - rhs) <= 1e-12
                else:
                    assert abs(lhs - rhs) / max(abs(lhs), abs(rhs)) <= 1e-9


@pytest.mark.parametrize("t", [2.5, True, np.float64(3.0)])
@pytest.mark.parametrize("call", [
    lower_bound_certificate, distance_profile,
    lambda params, t: distance_profile(params, t, StartPolicy.STATE_ZERO)],
    ids=["certificate", "all_states", "state_zero"])
def test_times_refuse_non_integers(call, t):
    """A time of 2.5 or True is refused, not truncated to 0 or read as 1."""
    with pytest.raises(ParameterError, match="must be an integer"):
        call(ChainParams(100, 25), t)


@pytest.mark.parametrize("policy", ["all_states", "state_zero", None])
def test_profile_refuses_a_start_policy_that_is_not_a_member(policy):
    """A string or None is refused, not run as the state-zero profile under
    the label it came with; at n = 5000 that would also skip the all-states
    profile's MATRIX_GUARD refusal."""
    for n in (300, 5000):
        with pytest.raises(ParameterError, match="must be a StartPolicy"):
            distance_profile(ChainParams(n, n // 4), 5, policy)


# ----------------------------------------------------- lower-bound certificate

def test_certificate_examples():
    # closed-form moments make the million-ball case instant
    assert lower_bound_certificate(ChainParams(10**6, 250_000), 1) >= 0.9
    # deep into mixing there is no separation left to certify
    assert lower_bound_certificate(ChainParams(100, 25), 500) == 0.0
    assert 0.0 <= lower_bound_certificate(ChainParams(50, 12), 3) <= 1.0


def _certificate_every_pair(params, t):
    """The certificate by the full 21 x 21 search over alpha, r = 2^j."""
    n, k = params.n, params.k
    f1k = eigen_eval(params, Eigenfunction.F1, k)
    f2k = eigen_eval(params, Eigenfunction.F2, k)
    scale = math.sqrt(n - 1)
    m = abs(scale * f1k**t)
    second = (n - 1) * (1.0 / (2 * n - 1) + (2 * n - 2) / (2 * n - 1) * f2k**t)
    sd = math.sqrt(max(second - (scale * f1k**t) ** 2, 0.0))
    v_pi = (n - 1) / (2 * n - 1)
    best = 0.0
    for ja in range(21):
        for jr in range(21):
            alpha, r = float(1 << ja), float(1 << jr)
            if m - r * sd > alpha:
                best = max(best, 1.0 - v_pi / alpha**2 - 1.0 / r**2)
    return min(max(best, 0.0), 1.0)


@pytest.mark.parametrize("n", [2, 3, 10, 101, 1000, 10**4, 10**6, 10**9])
def test_certificate_matches_full_search(n):
    """Stopping each r-loop at its first overlap returns the same float."""
    for k in sorted({1, max(1, n // 10), max(1, n // 4), n // 2, n - 1, n}):
        if k == 0:
            continue
        params = ChainParams(n, k)
        for t in range(0, 120, 3):
            assert (lower_bound_certificate(params, t)
                    == _certificate_every_pair(params, t)), (n, k, t)


def test_certificate_sound_against_exact_tv():
    params = ChainParams(300, 75)
    pi = stationary(params)
    mu = point_mass(0)
    for t in range(12):
        assert lower_bound_certificate(params, t) <= tv_distance(mu, pi) + 1e-12
        mu = evolve(params, mu, 1)
