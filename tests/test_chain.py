"""Exact kernel, stationarity, mixing profiles, moment identities."""

import collections
import math
from fractions import Fraction

import numpy as np
import pytest

from blmix import (ChainParams, Eigenfunction, HypergeomParams, MixingProfile,
                   StartPolicy, difference_law, distance_profile, eigen_eval,
                   evolve, hypergeom_pmf, lower_bound_certificate,
                   make_schedule, point_mass, stationary, t_mix,
                   transition_row, tv_distance)
from blmix import chain, pmf
from blmix.chain import MATRIX_GUARD, TILE, UNDERFLOW_FLOOR
from blmix.errors import (HorizonExceededError, InfeasibleSizeError,
                          ParameterError)
from blmix.pmf import FinitePmf, first_last, from_weights
from oracles import (dense_kernel, enum_transition_row,
                     exact_worst_start_profile, hahn_exact,
                     hahn_recurrence_exact, kernel_counts,
                     verify_moment_identities)


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
    Hyp(n, x, k)."""
    added = hypergeom_pmf(HypergeomParams(n, n - x, k), trim)
    removed = hypergeom_pmf(HypergeomParams(n, x, k), trim)
    row = difference_law(added, removed).shifted(x)
    return row.truncated() if trim else row


@pytest.mark.parametrize("n,trim", [(40, False), (41, False), (300, False),
                                    (1024, False), (5000, True), (20000, True)])
def test_one_law_rows_match_two_law_rows(n, trim):
    """Each row takes its incoming reds as the reflection k - Hyp(n, x, k)
    of its outgoing reds' law.  It has the support of the row built from
    two laws, its lost mass up to the rounding of the trimmed tails' sum,
    and weights within 1e-15."""
    xs = sorted({0, 1, 2, n // 4, n // 2 - 1, n // 2, n // 2 + 1,
                 n - n // 4, n - 2, n - 1, n, *range(0, n + 1, n // 17)})
    for k in sorted({1, n // 4, n // 2, n - 1, n}):
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
    """Make the row bound certify nothing, so that every row is kept."""
    monkeypatch.setattr(chain, "_row_bounds", lambda params, t_max: np.full(
        (t_max + 1, params.n // 2 + 1), np.inf))


def test_all_states_underflow_floor(monkeypatch):
    """The all-states profile zeroes the entries of P, of its folded odd
    half K_minus and of S and V below UNDERFLOW_FLOOR in magnitude, so its
    matmuls never meet a subnormal. Its d(t) is bit for bit that of the
    unfloored split loop, S <- S K_plus and V <- V K_minus, over the same
    leading rows (OpenBLAS's bits for a row can depend on how many rows
    the product has), and lost_mass bounds the error the floor put in: the
    floored S lies below the exact one, so the floor dropped at least S's
    entries below it, weighed as the profile's bound weighs them (1/2 on
    the middle column)."""
    n, k = 300, 75
    h, a = n // 2, (n + 1) // 2
    t_max = _default_horizon(n, k)
    params = ChainParams(n, k)
    kept = _kept_rows(monkeypatch)
    profile = distance_profile(params, t_max, StartPolicy.ALL_STATES)
    rows = kept[0]
    P = dense_kernel(params)
    k_plus = np.vstack([P[:a, :h + 1] + P[n:h:-1, :h + 1], P[a:h + 1, :h + 1]])
    k_minus = P[:a, :a] - P[n:h:-1, :a]
    two_pi = 2 * stationary(params).dense_on(0, n)[:h + 1]
    S, V = np.eye(h + 1), np.eye(h + 1, a)
    S[h, h] = 2.0  # even n: the middle column holds 2 D_t(x, h)
    d = np.empty(t_max + 1)
    for t in range(t_max + 1):
        S, V = S[:rows[t]], V[:rows[t]]
        gap = np.maximum(np.abs(S[:, :a] - two_pi[:a]), np.abs(V))
        row = gap.sum(axis=1) + 0.5 * np.abs(S[:, a:] - two_pi[a:]).sum(axis=1)
        d[t] = 0.5 * row.max()
        if t < t_max:
            S, V = S[:rows[t + 1]] @ k_plus, V[:rows[t + 1]] @ k_minus
    np.minimum.accumulate(d, out=d)
    assert rows[-1] < h + 1  # the profile dropped rows
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


@pytest.mark.parametrize("n", [40, 41, 300, 301, 1024])
def test_all_states_half_rows_match_every_row(n):
    """The all-states profile evolves only the starts x <= n/2, whose colour
    swaps are the other starts. Its d(t) is the maximum over every start of
    a loop over all n + 1 rows (floored like the profile, so that it runs
    without subnormals) within 1e-14."""
    k = n // 4
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


@pytest.mark.parametrize("n", [1, 2, 5, 12, 20])
def test_hahn_completeness_in_rationals(n):
    """sum_i d_i Q_i(x) Q_i(y) = delta_xy / pi(x), d_i = C(2n, i) -
    C(2n, i-1), exactly: the identity the row bound's tail rests on."""
    Q = [[hahn_exact(n, i, x) for x in range(n + 1)] for i in range(n + 1)]
    d = [math.comb(2 * n, i) - (math.comb(2 * n, i - 1) if i else 0)
         for i in range(n + 1)]
    for x in range(n + 1):
        for y in range(n + 1):
            total = sum(di * Qi[x] * Qi[y] for di, Qi in zip(d, Q))
            assert total == (Fraction(math.comb(2 * n, n), math.comb(n, x) ** 2)
                             if x == y else 0)


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


@pytest.mark.parametrize("n", [40, 41, 64, 65, 126, 127, 300, 301, 512, 1024])
@pytest.mark.parametrize("frac", [4, 3])
def test_row_bound_holds_for_every_start(n, frac):
    """B_x(t) is at least the distance d_x(t) of every start x <= n/2 at
    every t of the default horizon, from a loop over the rows of the dense
    kernel, up to that loop's own rounding, (t + 2) gamma_(n+2); and at
    t = 0 it is at least half the root of the exact chi-square distance."""
    k = n // frac
    t_max = _default_horizon(n, k)
    params = ChainParams(n, k)
    log_bound = chain._row_bounds(params, t_max)
    # at t = 0 the chi-square distance is 1/pi(x) - 1 exactly, most of it in
    # the modes past the first 64 when n > 64: the completeness tail's share
    total = math.comb(2 * n, n)
    log_chi2 = [math.log(total - math.comb(n, x) ** 2)
                - 2 * math.log(math.comb(n, x)) for x in range(n // 2 + 1)]
    assert np.all(log_bound[0] >= np.array(log_chi2) / 2 + math.log(0.5)
                  - 1e-9)  # the log sums' rounding, far inside rho
    bound = np.exp(np.minimum(log_bound, 1.0))
    P = dense_kernel(params)
    pi = stationary(params).dense_on(0, n)
    D = np.eye(n // 2 + 1, n + 1)
    for t in range(t_max + 1):
        d = 0.5 * np.abs(D - pi).sum(axis=1)
        assert np.all(d <= bound[t] + (t + 2) * chain._gamma(n + 2))
        D = D @ P


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


def test_rows_kept_at_1024(monkeypatch):
    """At n = 1024, k = n/4 and the default horizon the profile multiplies
    at most 35% of the rows the unpruned loop does (31.9% observed)."""
    n, k = 1024, 256
    t_max = _default_horizon(n, k)
    kept = _kept_rows(monkeypatch)
    distance_profile(ChainParams(n, k), t_max)
    rows = kept[0]
    assert rows[0] == n // 2 + 1 and rows[-1] < 0.13 * n
    assert rows.sum() <= 0.35 * (n // 2 + 1) * (t_max + 1)


@pytest.mark.parametrize("n,k,t_max", [
    (300, 75, 0), (1024, 256, 0), (1024, 341, None), (1024, 511, 10),
    (1024, 512, 10), (1025, 512, 10)])
def test_every_row_kept_where_nothing_is_certified(n, k, t_max, monkeypatch):
    """Where the bound certifies no start at every later step (t_max = 0,
    k = n/3 at the default horizon, where d(t_max) is about 1e-14, k near
    n/2, where d(t) collapses within a few steps), every row is kept."""
    t_max = _default_horizon(n, k) if t_max is None else t_max
    kept = _kept_rows(monkeypatch)
    distance_profile(ChainParams(n, k), t_max)
    assert np.all(kept[0] == n // 2 + 1)


def test_trimmed_evolution_above_matrix_guard():
    """Above MATRIX_GUARD the from-zero profile evolves with trimmed rows:
    they must track the exact rows, certify a negligible lost mass, and stay
    within the span of their two Hoeffding-window inputs."""
    params = ChainParams(5000, 1250)
    assert params.n > MATRIX_GUARD
    laws = {}
    for trim in (False, True):
        mu, laws[trim] = point_mass(0), []
        for _ in range(10):
            mu = evolve(params, mu, 1, trim=trim)
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


def test_fft_row_bytes_do_not_depend_on_the_batch(monkeypatch):
    """At n = 10^5, k = 6 * 10^4 (trimmed) each of the top 256 states'
    rows convolves two laws of about 2,190 lanes, past the direct limit, so
    the rows built by FFT do not depend on the batch either."""
    n, k = 100_000, 60_000
    products = []
    convolve = pmf.convolve

    def counted(wa, wb):
        products.append(wa.size * wb.size)
        return convolve(wa, wb)

    monkeypatch.setattr(pmf, "convolve", counted)
    _assert_rows_do_not_depend_on_the_batch(
        n, k, True, np.arange(n // 2 - 255, n // 2 + 1))
    assert min(products) > pmf._DIRECT_CONV_LIMIT


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
    mu = transition_row(params, 2 * n // 5, trim=trim)
    assert TILE <= mu.lo and mu.hi <= n - TILE  # state 0's tile has no mass
    out = kernel.step(mu)

    half = n // 2
    x = mu.dense_on(0, n)
    both = np.zeros((half + 1, 2))
    both[:, 0] = x[:half + 1]
    both[:n - half, 1] = x[:half:-1]
    prod = np.zeros((2, n + 1))
    for tile, (c0, block) in enumerate(kernel._tiles):
        part = both[tile * TILE:(tile + 1) * TILE]
        # the last tile holds the n // 2 + 1 - tile * TILE states left
        assert block.shape[0] == len(part) and block.flags.c_contiguous
        prod[:, c0:c0 + block.shape[1]] += part.T @ block
    ref = from_weights(0, prod[0] + prod[1, ::-1])
    assert out.dense_on(0, n).tobytes() == ref.dense_on(0, n).tobytes()


@pytest.mark.parametrize("n", [126, 300, 5000])
def test_state_zero_profile_ignores_build_history(n):
    """The cached kernel's rows do not depend on the order states were
    reached in: a state-zero profile on a fresh kernel is byte-equal to one
    taken after an evolution from state n, which starts above n/2, has
    filled the kernel first."""
    params = ChainParams(n, n // 4)
    t_max = _default_horizon(n, n // 4)
    chain._kernel.cache_clear()
    fresh = distance_profile(params, t_max, StartPolicy.STATE_ZERO)
    chain._kernel.cache_clear()
    evolve(params, point_mass(n), t_max, trim=n > MATRIX_GUARD)
    # state n is stepped through the row of its colour swap 0
    assert chain._kernel(params, n > MATRIX_GUARD)._tiles[0] is not None
    after = distance_profile(params, t_max, StartPolicy.STATE_ZERO)
    assert after.d_values.tobytes() == fresh.d_values.tobytes()
    assert after.lost_mass == fresh.lost_mass


@pytest.fixture
def row_builds(monkeypatch):
    """A counter of the kernel rows built, by state, on a fresh kernel."""
    built = collections.Counter()
    rows = chain._rows

    def counted(n_, k_, states, trim):
        built.update(states.tolist())
        return rows(n_, k_, states, trim)

    monkeypatch.setattr(chain, "_rows", counted)
    chain._kernel.cache_clear()
    yield built
    chain._kernel.cache_clear()


def test_state_zero_profile_builds_each_colour_swap_pair_once(row_builds):
    """At n = 10^4 the state-zero profile builds the row of each state
    x <= n/2 at most once and steps its colour swap n - x through it.  The
    rows it builds are the whole tiles of the states it steps from."""
    n, k = 10_000, 2500
    params = ChainParams(n, k)
    built = row_builds
    t_max = _default_horizon(n, k)
    profile = distance_profile(params, t_max, StartPolicy.STATE_ZERO)
    assert max(built.values()) == 1
    assert max(built) <= n // 2
    # the states with mass at t < t_max, stepped through the cached kernel
    reached, mu = set(), point_mass(0)
    for _ in range(t_max):
        reached.update(mu.support[mu.weights > 0].tolist())
        mu = evolve(params, mu, 1, trim=True)
    # the upper half was reached too, and no row was stored for it
    assert max(reached) > n // 2
    tiles = {min(x, n - x) // TILE for x in reached}
    assert sorted(built) == [c for c in range(n // 2 + 1) if c // TILE in tiles]
    assert profile.d_values[-1] < 0.25


def test_evolve_from_the_top_builds_each_canonical_row_once(row_builds):
    """An evolution from state n reaches states above n/2 before their
    colour swaps; the row built to mirror one is kept, so each canonical
    state min(x, n - x) is built exactly once."""
    n, k = 5000, 1250
    params = ChainParams(n, k)
    evolve(params, point_mass(n), 40, trim=True)
    tiles = chain._kernel(params, True)._tiles
    built = np.repeat([block is not None for block in tiles], TILE)
    reached = np.nonzero(built[:n // 2 + 1])[0]
    canonical = set(np.minimum(reached, n - reached).tolist())
    assert sorted(row_builds) == sorted(canonical)
    assert sum(row_builds.values()) == len(canonical)


def test_matrix_guard(monkeypatch):
    """Above MATRIX_GUARD the all-states profile is refused before any
    kernel row is built."""
    def refused(*args):
        raise AssertionError("a kernel row was built")

    monkeypatch.setattr(chain, "_rows", refused)
    with pytest.raises(InfeasibleSizeError):
        distance_profile(ChainParams(5000, 1250), 2, StartPolicy.ALL_STATES)


# ------------------------------------------------------------ eigenfunctions

def test_eigen_eval_examples():
    assert eigen_eval(ChainParams(10, 0), Eigenfunction.F1, 5) == 0.0
    assert eigen_eval(ChainParams(10, 0), Eigenfunction.F2, 0) == 1.0
    assert eigen_eval(ChainParams(2, 1), Eigenfunction.F2, 1) == pytest.approx(-0.5)
    assert eigen_eval(ChainParams(4, 0), Eigenfunction.F3, 2) == pytest.approx(0.5)
    with pytest.raises(ParameterError):
        eigen_eval(ChainParams(1, 0), Eigenfunction.F2, 0)


# ---------------------------------------------------------- moment identities

def test_moment_identities_frozen_examples():
    (lhs, rhs), _ = verify_moment_identities(ChainParams(2, 1), 0, 1)
    assert lhs == pytest.approx(0.0, abs=1e-15)
    assert rhs == pytest.approx(0.0, abs=1e-15)
    for lhs, rhs in verify_moment_identities(ChainParams(6, 2), 4, 0):
        assert abs(lhs - rhs) <= 1e-15
    (lhs, _), _ = verify_moment_identities(ChainParams(4, 1), 0, 2)
    assert lhs == pytest.approx(0.25, abs=1e-12)


@pytest.mark.parametrize("n,k", [(10, 2), (60, 15), (151, 37)])
def test_moment_identities_grid(n, k):
    for x0 in (0, n // 3, n // 2):
        for t in (1, 3, 7):
            for lhs, rhs in verify_moment_identities(ChainParams(n, k), x0, t):
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
