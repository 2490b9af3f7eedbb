"""Shared-selection coupling: exactness oracles and Monte Carlo estimators."""

import math
from fractions import Fraction

import numpy as np
import pytest

from blmix import (ChainParams, CoupledState, RngStream, StoppingKind,
                   StoppingSpec, band_excursion, coupled_step, make_schedule,
                   stopping_tail, survival_vs_bound, transition_row)
from blmix.coupling import (_ci_halfwidth, _hit_predicate, _step_arrays,
                            _survival_of_hits, default_horizon)
from blmix.errors import ParameterError
from oracles import block_joint_law, enum_coupled_joint, marginals


# ------------------------------------------------------------ exact step law

@pytest.mark.parametrize("n", range(2, 7))
def test_block_law_equals_label_enumeration(n):
    """The simulator's block-count step law is exactly the law induced by
    enumerating every shared (A, B) label-selection pair."""
    for k in range(n + 1):
        for x in range(n + 1):
            for y in range(n + 1):
                assert block_joint_law(n, k, x, y) == enum_coupled_joint(n, k, x, y)


@pytest.mark.parametrize("n", range(2, 7))
def test_step_marginals_are_exact(n):
    for k in range(n + 1):
        for x in range(n + 1):
            for y in range(n + 1):
                mx, my = marginals(block_joint_law(n, k, x, y))
                row_x = transition_row(ChainParams(n, k), x)
                row_y = transition_row(ChainParams(n, k), y)
                assert set(mx) == set(int(j) for j in row_x.support)
                for j, w in mx.items():
                    assert row_x.prob(j) == pytest.approx(float(w), abs=1e-12)
                for j, w in my.items():
                    assert row_y.prob(j) == pytest.approx(float(w), abs=1e-12)


def test_enumerated_outcomes_all_contract():
    for n, k in [(5, 2), (6, 3), (6, 1)]:
        for x in range(n + 1):
            for y in range(n + 1):
                for (xp, yp) in block_joint_law(n, k, x, y):
                    assert abs(xp - yp) <= abs(x - y)


def test_unordered_pair_symmetry():
    for n, k, x, y in [(5, 2, 1, 4), (6, 3, 0, 5), (6, 2, 2, 3)]:
        law = block_joint_law(n, k, x, y)
        swapped = {(b, a): w for (a, b), w in block_joint_law(n, k, y, x).items()}
        assert law == swapped


def test_coupled_step_simulation_matches_exact_law():
    n, k, x, y = 5, 2, 1, 4
    law = block_joint_law(n, k, x, y)
    rng = RngStream(99, 0)
    counts: dict[tuple[int, int], int] = {}
    draws = 20_000
    for _ in range(draws):
        s = coupled_step(ChainParams(n, k), CoupledState(x, y), rng)
        counts[(s.x, s.y)] = counts.get((s.x, s.y), 0) + 1
    assert set(counts) <= set(law)
    tv = 0.5 * sum(abs(counts.get(key, 0) / draws - float(w))
                   for key, w in law.items())
    assert tv <= 0.02


def test_equal_copies_stay_equal():
    params = ChainParams(40, 11)
    s = CoupledState(17, 17)
    rng = RngStream(5, 0)
    for _ in range(50):
        s = coupled_step(params, s, rng)
        assert s.x == s.y


def test_coupled_step_domain_check():
    with pytest.raises(ParameterError):
        coupled_step(ChainParams(5, 2), CoupledState(1, 9), RngStream(0, 0))


# ------------------------------------------------------- coalescence survival

def test_survival_equal_start_is_zero():
    est = survival_vs_bound(ChainParams(50, 12), 20, 20, 1.0, 10, 100,
                            RngStream(3, 0))
    assert np.all(est.empirical_survival == 0.0)


def test_survival_bound_frozen_value():
    est = survival_vs_bound(ChainParams(100, 25), 0, 100, 5.0, 12, 10,
                            RngStream(3, 0))
    assert est.theoretical_bound[10] == pytest.approx(0.625**10 * 20, rel=1e-12)
    assert np.all(est.theoretical_bound <= 1.0)


def test_survival_below_bound_with_slack():
    est = survival_vs_bound(ChainParams(100, 25), 0, 100, 5.0, 20, 10_000,
                            RngStream(17, 0))
    assert np.all(np.diff(est.empirical_survival) <= 0)
    assert np.all(est.empirical_survival
                  <= est.theoretical_bound + 3 * est.ci_halfwidth)


def _every_replica_survival(params, x0, y0, horizon, replicas, rng, hit):
    """Reference loop: step every replica to the horizon, hit or not, and
    keep an alive mask."""
    gen = rng.gen
    x = np.full(replicas, x0, dtype=np.int64)
    y = np.full(replicas, y0, dtype=np.int64)
    alive = ~hit(x, y)
    survival = np.empty(horizon + 1)
    survival[0] = alive.mean()
    for t in range(1, horizon + 1):
        x, y = _step_arrays(params.n, params.k, x, y, gen)
        alive &= ~hit(x, y)
        survival[t] = alive.mean()
    return survival


# the four coupling payload pins (tests/test_payloads.py): kind, n, kappa,
# master seed, replicas; k = n/4 at lambda = 1/4, start (0, n)
COUPLING_PINS = [(StoppingKind.TAU_COUPLE, 200, None, 7, 2000),
                 (StoppingKind.TAU1, 400, 1.0, 8, 1000),
                 (StoppingKind.TAU3, 400, 0.2, 9, 1000),
                 (StoppingKind.TAU4, 400, 1.0, 10, 1000)]


@pytest.mark.parametrize("kind, n, kappa, seed, replicas", COUPLING_PINS)
def test_dropping_hit_replicas_matches_stepping_all(kind, n, kappa, seed,
                                                    replicas):
    """Dropping hit replicas leaves the curve bit for bit equal to stepping
    every replica up to and including the first t at which survival falls
    below 1, and within 3 combined 95% half-widths after it."""
    sched = make_schedule(n, n // 4, 0.25)
    if kind is StoppingKind.TAU_COUPLE:
        spec = StoppingSpec(kind, sched, r=1.0)
        horizon = math.ceil(sched.t_n + 3 * sched.s_n)
    else:
        spec = StoppingSpec(kind, sched, kappa=kappa)
        horizon = default_horizon(spec)
    params, hit = ChainParams(n, n // 4), _hit_predicate(spec)
    pruned = _survival_of_hits(params, 0, n, horizon, replicas,
                               RngStream(seed, 1), hit)
    full = _every_replica_survival(params, 0, n, horizon, replicas,
                                   RngStream(seed, 1), hit)
    assert pruned.shape == full.shape == (horizon + 1,)
    assert np.any(full < 1.0)
    first = int(np.argmax(full < 1.0))
    assert np.array_equal(pruned[:first + 1], full[:first + 1])
    combined = np.hypot(_ci_halfwidth(pruned, replicas),
                        _ci_halfwidth(full, replicas))
    assert np.all(np.abs(pruned - full) <= 3 * combined)
    if full[-1] == 0.0:
        # every replica hit before the horizon: the rows after the last one
        # still exist and are exact zeros
        gone = int(np.argmax(pruned == 0.0))
        assert 0 < gone < horizon
        assert np.all(pruned[gone:] == 0.0)


def test_survival_reproducible():
    args = (ChainParams(80, 20), 0, 80, 2.0, 15, 2000)
    a = survival_vs_bound(*args, RngStream(123, 0))
    b = survival_vs_bound(*args, RngStream(123, 0))
    assert np.array_equal(a.empirical_survival, b.empirical_survival)
    c = survival_vs_bound(*args, RngStream(124, 0))
    assert not np.array_equal(a.empirical_survival, c.empirical_survival)


# ------------------------------------------------------------- stopping times

def test_stopping_spec_validation():
    sched = make_schedule(400, 100, 0.25)
    with pytest.raises(ParameterError):
        StoppingSpec(StoppingKind.TAU1, sched, kappa=0.0)
    with pytest.raises(ParameterError):
        StoppingSpec(StoppingKind.TAU_COUPLE, sched)


def test_default_horizons():
    sched = make_schedule(400, 100, 0.25)
    assert default_horizon(StoppingSpec(StoppingKind.TAU1, sched)) == int(np.ceil(sched.t_n))
    assert default_horizon(StoppingSpec(StoppingKind.TAU3, sched)) == int(np.ceil(sched.s_n))
    assert default_horizon(StoppingSpec(StoppingKind.TAU4, sched)) == int(np.ceil(2 * sched.s_n))


def test_tau4_inside_band_stops_immediately():
    sched = make_schedule(400, 100, 0.25)
    spec = StoppingSpec(StoppingKind.TAU4, sched, kappa=1.0)
    est = stopping_tail(ChainParams(400, 100), spec, 200, 200, 500,
                        RngStream(8, 0))
    assert np.all(est.empirical_survival == 0.0)


def test_tau_couple_consistent_with_survival_vs_bound():
    sched = make_schedule(400, 100, 0.25)
    spec = StoppingSpec(StoppingKind.TAU_COUPLE, sched, r=1.0)
    tail = stopping_tail(ChainParams(400, 100), spec, 0, 400, 2000,
                         RngStream(21, 0), horizon=12)
    direct = survival_vs_bound(ChainParams(400, 100), 0, 400, 1.0, 12, 2000,
                               RngStream(21, 0))
    assert np.array_equal(tail.empirical_survival, direct.empirical_survival)


def test_tau1_tail_decreasing_in_kappa():
    """Wider target bands are hit no later, so the tail falls as kappa
    grows.  The three runs share a seed but not their draws replica by
    replica: a hit replica is no longer stepped, so the draws a replica gets
    depend on which others were hit before it.  The order is therefore one
    of the estimates, not of shared paths; here each curve drops from 1 to 0
    within one step, a step earlier for each wider band."""
    sched = make_schedule(2000, 500, 0.25)
    params = ChainParams(2000, 500)
    tails = []
    for kappa in (5.0, 10.0, 20.0):
        spec = StoppingSpec(StoppingKind.TAU1, sched, kappa=kappa)
        est = stopping_tail(params, spec, 0, 2000, 10_000, RngStream(31, 0))
        tails.append(est.empirical_survival)
    assert np.all(tails[0] >= tails[1]) and np.all(tails[1] >= tails[2])


# ------------------------------------------------------------ band excursions

def test_band_excursion_trivial_and_monotone():
    sched = make_schedule(400, 100, 0.25)
    rng_args = dict(x0=200, s=0, replicas=2000)
    assert band_excursion(sched, r=200.0, s=0, x0=200, replicas=500,
                          rng=RngStream(4, 0)) == 0.0
    probs = [band_excursion(sched, r=r, rng=RngStream(4, 0), **rng_args)
             for r in (10.0, 30.0, 90.0)]
    assert probs[0] >= probs[1] >= probs[2]


def test_band_excursion_validation():
    sched = make_schedule(400, 100, 0.25)
    with pytest.raises(ParameterError):
        band_excursion(sched, 200, -1.0, 0, 100, RngStream(0, 0))
    with pytest.raises(ParameterError):
        band_excursion(sched, 200, 10.0, -1, 100, RngStream(0, 0))
