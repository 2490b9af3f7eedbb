"""Shared-selection coupling: exactness oracles and Monte Carlo estimators,
with the band excursions of a single chain checked by simulation."""

import collections
import dataclasses
import math
import statistics
import threading
from fractions import Fraction

import numpy as np
import pytest

from blmix import (ChainParams, RngStream, StoppingKind, StoppingSpec,
                   default_horizon, make_schedule, stopping_tail,
                   transition_row)
from blmix.coupling import (CHUNKS, MIN_CHUNK, _chunk_sizes, _chunk_survivors,
                            _ci_halfwidth, _hit_predicate, _step_arrays,
                            _survival_of_hits, _worker_count)
from blmix.errors import SAMPLER_LIMIT, InfeasibleSizeError, ParameterError
from oracles import (block_joint_law, coupled_survival, enum_coupled_joint,
                     marginals)


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


def test_distance_is_a_markov_chain():
    """For every n <= 8, every k and every lo <= hi, the distance |x' - y'|
    after one coupled step has exactly the law of |D - A - B|, with
    D = hi - lo and A, B independent Hyp(n, D, k): the selections falling
    in the D labels on which the copies differ, one draw per urn.  So the
    distance steps on its own, as ``_step_arrays`` draws it."""
    for n in range(1, 9):
        for k in range(n + 1):
            for hi in range(n + 1):
                for lo in range(hi + 1):
                    d = hi - lo
                    hyp = [Fraction(math.comb(d, a) * math.comb(n - d, k - a),
                                    math.comb(n, k))
                           for a in range(min(d, k) + 1)]
                    law = collections.Counter()
                    for a, pa in enumerate(hyp):
                        for b, pb in enumerate(hyp):
                            law[abs(d - a - b)] += pa * pb
                    dist = collections.Counter()
                    for (x, y), w in block_joint_law(n, k, lo, hi).items():
                        dist[abs(x - y)] += w
                    assert +law == +dist, (n, k, lo, hi)


def test_coupled_step_simulation_matches_exact_law():
    """20,000 replicas stepped once from (x, y), x <= y, as one array: the
    empirical joint law of the pair is within 0.02 in TV of the exact one.
    At (8, 3, 2, 3) the outer blocks differ in size (lo = 2, n - hi = 5),
    so a draw of either urn's outer counts from the other's blocks shows."""
    draws = 20_000
    for n, k, x, y in [(5, 2, 1, 4), (8, 3, 2, 3)]:
        law = block_joint_law(n, k, x, y)
        xs, ys = _step_arrays(n, k, (np.full(draws, x), np.full(draws, y)),
                              RngStream(99, 0).chunk(0))
        counts = collections.Counter(zip(xs.tolist(), ys.tolist()))
        assert set(counts) <= set(law)
        tv = 0.5 * sum(abs(counts.get(key, 0) / draws - float(w))
                       for key, w in law.items())
        assert tv <= 0.02


def test_survival_matches_the_exact_oracle():
    """At n = 24, k = 6, from (0, 24), with 20,000 replicas a kind, the
    survival P(tau > t) of each stopping kind at each t = 0..15 lies
    within a z-test of the exact one (``coupled_survival``), at a
    family-wise level of 1e-3 over all 64 (kind, t) pairs by Bonferroni.
    The exact tau_couple survival lies at or below the path-coupling
    bound."""
    n, k, replicas, horizon = 24, 6, 20_000, 15
    sched = make_schedule(n, k, 0.25)
    # bands that every kind crosses in a few steps, none the same hit set
    kappas = {StoppingKind.TAU_COUPLE: 10.0, StoppingKind.TAU1: 0.5,
              StoppingKind.TAU3: 0.03, StoppingKind.TAU4: 1.0}
    z_crit = statistics.NormalDist().inv_cdf(
        1 - 1e-3 / (2 * len(kappas) * (horizon + 1)))
    for seed, (kind, kappa) in enumerate(kappas.items()):
        spec = StoppingSpec(kind, sched, kappa=kappa, r=1.0)
        exact = coupled_survival(n, k, 0, n, _hit_predicate(spec), horizon)
        est = stopping_tail(ChainParams(n, k), spec, 0, n, replicas,
                            RngStream(seed, 1), horizon)
        p = np.clip(exact, 0.0, 1.0)
        sd = np.sqrt(p * (1.0 - p) / replicas)
        gap = np.abs(est.empirical_survival - p)
        assert np.all(gap <= z_crit * sd + 1e-12), kind
        if kind is StoppingKind.TAU_COUPLE:
            assert np.all(exact <= est.theoretical_bound + 1e-12)


def test_equal_copies_stay_equal():
    x = y = np.array([17])
    gen = RngStream(5, 0).chunk(0)
    for _ in range(50):
        x, y = _step_arrays(40, 11, (x, y), gen)
        assert x[0] == y[0]


def test_sizes_beyond_the_sampler_are_refused():
    """numpy's hypergeometric sampler takes urn counts below SAMPLER_LIMIT
    only, so the stopping-time tail refuses n = SAMPLER_LIMIT as an
    infeasible size before it draws or allocates replicas."""
    n = SAMPLER_LIMIT
    sched = make_schedule(n, n // 4, 0.25)
    spec = StoppingSpec(StoppingKind.TAU_COUPLE, sched, r=1.0)
    with pytest.raises(InfeasibleSizeError):
        stopping_tail(ChainParams(n, n // 4), spec, 0, n, 10, RngStream(0, 0),
                      horizon=3)


def test_stopping_tail_refuses_another_chains_schedule():
    """The bands and thresholds of a stopping time come from its schedule
    and the steps from ``params``: a schedule of another chain, whose band
    the chain may never reach, is refused instead of giving a survival of 1
    at every t."""
    spec = StoppingSpec(StoppingKind.TAU1, make_schedule(400, 100, 0.25),
                        kappa=1.0)
    with pytest.raises(ParameterError):
        stopping_tail(ChainParams(100, 25), spec, 0, 100, 200, RngStream(1, 0),
                      horizon=5)


# ------------------------------------------------------- coalescence survival

def tau_couple(n, k, r):
    """The coalescence time to distance ``r`` of the chain (n, k), with
    the schedule of lambda = k/n."""
    return StoppingSpec(StoppingKind.TAU_COUPLE, make_schedule(n, k, k / n),
                        r=r)


def test_survival_equal_start_is_zero():
    est = stopping_tail(ChainParams(50, 12), tau_couple(50, 12, 1.0), 20, 20,
                        100, RngStream(3, 0), horizon=10)
    assert np.all(est.empirical_survival == 0.0)


def test_survival_bound_frozen_value():
    est = stopping_tail(ChainParams(100, 25), tau_couple(100, 25, 5.0), 0, 100,
                        10, RngStream(3, 0), horizon=12)
    assert est.theoretical_bound[10] == pytest.approx(0.625**10 * 20, rel=1e-12)
    assert np.all(est.theoretical_bound <= 1.0)


def test_survival_bound_of_a_tiny_distance_is_one():
    """A distance threshold as small as the least subnormal takes the bound
    past the double range; it is capped at 1, with no overflow warning."""
    est = stopping_tail(ChainParams(3, 1), tau_couple(3, 1, 5e-324), 0, 3,
                        10, RngStream(3, 0), horizon=2)
    assert est.theoretical_bound.tolist() == [1.0, 1.0, 1.0]


def test_survival_below_bound_with_slack():
    est = stopping_tail(ChainParams(100, 25), tau_couple(100, 25, 5.0), 0, 100,
                        10_000, RngStream(17, 0), horizon=20)
    assert np.all(np.diff(est.empirical_survival) <= 0)
    assert np.all(est.empirical_survival
                  <= est.theoretical_bound + 3 * est.ci_halfwidth)


def _every_replica_survivors(params, x0, y0, horizon, size, gen, hit):
    """Reference loop: step every replica to the horizon, hit or not, and
    count the replicas never hit.  As in ``_chunk_survivors``, a replica
    keeps the copies' states if ``hit`` reads them, their distance if not."""
    start = (x0, y0) if hit.positions else (abs(x0 - y0),)
    state = tuple(np.full(size, s, dtype=np.int64) for s in start)
    alive = ~hit.test(*state)
    survivors = np.empty(horizon + 1, dtype=np.int64)
    survivors[0] = alive.sum()
    for t in range(1, horizon + 1):
        state = _step_arrays(params.n, params.k, state, gen)
        alive &= ~hit.test(*state)
        survivors[t] = alive.sum()
    return survivors


# the four coupling payload pins (tests/test_payloads.py): kind, n, kappa,
# master seed, replicas; k = n/4 at lambda = 1/4, start (0, n)
COUPLING_PINS = [(StoppingKind.TAU_COUPLE, 200, None, 7, 2000),
                 (StoppingKind.TAU1, 400, 1.0, 8, 1000),
                 (StoppingKind.TAU3, 400, 0.2, 9, 1000),
                 (StoppingKind.TAU4, 400, 1.0, 10, 1000)]


def _pin_setup(kind, n, kappa):
    sched = make_schedule(n, n // 4, 0.25)
    # tau_couple has no band: its kappa is None in the pins
    spec = StoppingSpec(kind, sched, kappa=kappa or 10.0, r=1.0)
    return ChainParams(n, n // 4), _hit_predicate(spec), default_horizon(spec)


@pytest.mark.parametrize("kind, n, kappa, seed, replicas", COUPLING_PINS + [
    (StoppingKind.TAU_COUPLE, 200, None, 7, 3 * MIN_CHUNK + 5),
    (StoppingKind.TAU4, 400, 1.0, 10, 2 * MIN_CHUNK)])
def test_dropping_hit_replicas_matches_stepping_all(kind, n, kappa, seed,
                                                    replicas):
    """In each chunk, dropping hit replicas leaves the survivor counts bit
    for bit equal to stepping every replica of the chunk on the chunk's
    generator, up to and including the first t at which one is hit, and
    within 3 combined 95% half-widths after it.  The curve is the chunks'
    sum over the replicas."""
    params, hit, horizon = _pin_setup(kind, n, kappa)
    rng = RngStream(seed, 1)
    sizes = _chunk_sizes(replicas)
    pruned_total = np.zeros(horizon + 1, dtype=np.int64)
    for c, size in enumerate(sizes):
        pruned = _chunk_survivors(params, 0, n, horizon, size, rng.chunk(c),
                                  hit)
        full = _every_replica_survivors(params, 0, n, horizon, size,
                                        rng.chunk(c), hit)
        assert pruned.shape == full.shape == (horizon + 1,)
        assert np.any(full < size)
        first = int(np.argmax(full < size))
        assert np.array_equal(pruned[:first + 1], full[:first + 1])
        combined = np.hypot(_ci_halfwidth(pruned / size, size),
                            _ci_halfwidth(full / size, size))
        assert np.all(np.abs(pruned - full) / size <= 3 * combined)
        if full[-1] == 0:
            # every replica hit before the horizon: the counts after the
            # last one still exist and are exact zeros
            gone = int(np.argmax(pruned == 0))
            assert 0 < gone < horizon
            assert np.all(pruned[gone:] == 0)
        pruned_total += pruned
    curve = _survival_of_hits(params, 0, n, horizon, replicas, rng, hit)
    assert np.array_equal(curve, pruned_total / replicas)


def test_chunk_sizes_are_near_equal():
    """One chunk per MIN_CHUNK replicas, at least one and at most CHUNKS."""
    assert _chunk_sizes(3) == [3]
    assert _chunk_sizes(2 * MIN_CHUNK - 1) == [2 * MIN_CHUNK - 1]
    assert _chunk_sizes(3 * MIN_CHUNK + 2) == [MIN_CHUNK + 1] * 2 + [MIN_CHUNK]
    assert _chunk_sizes(10**5) == [12_500] * CHUNKS
    for replicas in (1, 7, 1001, 5 * MIN_CHUNK + 3, 10**5 + 5, 10**7):
        sizes = _chunk_sizes(replicas)
        assert sum(sizes) == replicas and max(sizes) - min(sizes) <= 1
        assert len(sizes) == min(CHUNKS, max(1, replicas // MIN_CHUNK))


@pytest.mark.parametrize("replicas", [CHUNKS // 2, 3 * MIN_CHUNK + 5,
                                      CHUNKS * MIN_CHUNK + 3])
def test_survival_does_not_depend_on_threads(replicas):
    """The chunk layout depends on the replicas alone, so the curve is bit
    for bit the same on 1, 2 or CHUNKS workers, or as many as the CPUs, and
    with fewer replicas than chunks."""
    params, hit, horizon = _pin_setup(StoppingKind.TAU_COUPLE, 200, None)
    curves = [_survival_of_hits(params, 0, 200, horizon, replicas,
                                RngStream(5, 1), hit, threads)
              for threads in (1, 2, CHUNKS, None)]
    assert curves[0][0] == 1.0
    for curve in curves[1:]:
        assert curve.tobytes() == curves[0].tobytes()


def test_worker_count_is_capped_at_the_chunks():
    assert _worker_count(1, CHUNKS) == 1
    assert _worker_count(3, CHUNKS) == 3
    assert _worker_count(10**6, CHUNKS) == CHUNKS
    assert _worker_count(10**6, 3) == 3
    assert 1 <= _worker_count(None, CHUNKS) <= CHUNKS
    for threads in (0, -5):
        with pytest.raises(ParameterError):
            _worker_count(threads, CHUNKS)


class _ExpandingGen:
    """A generator whose every hypergeometric draw is -1, so each coupled
    step takes the distance D between the copies to D + 2; records the
    threads that drew."""

    def __init__(self):
        self.threads = set()

    def hypergeometric(self, ngood, nbad, nsample, size=None):
        self.threads.add(threading.get_ident())
        return np.full(np.shape(ngood) if size is None else size, -1)


def test_contraction_violation_in_a_worker_reaches_the_caller(monkeypatch):
    bad = _ExpandingGen()
    chunk = RngStream.chunk
    monkeypatch.setattr(RngStream, "chunk",
                        lambda self, c: bad if c == 3 else chunk(self, c))
    params, hit, horizon = _pin_setup(StoppingKind.TAU_COUPLE, 200, None)
    with pytest.raises(AssertionError, match="contraction violated"):
        _survival_of_hits(params, 0, 200, horizon, 4 * MIN_CHUNK,
                          RngStream(5, 1), hit, threads=2)
    assert bad.threads and threading.get_ident() not in bad.threads


class _CountingGen:
    """A generator that draws from ``gen`` and counts the variates drawn."""

    def __init__(self, gen):
        self.gen, self.variates = gen, 0

    def hypergeometric(self, ngood, nbad, nsample, size=None):
        out = self.gen.hypergeometric(ngood, nbad, nsample, size)
        self.variates += out.size
        return out


@pytest.mark.parametrize("kind, n, kappa, seed, replicas", COUPLING_PINS)
def test_variates_per_replica_step(kind, n, kappa, seed, replicas):
    """tau_couple reads the distance alone, so each step of a running
    replica draws the two counts that fix it; the band kinds read the
    copies' states and draw the two counts of the outer blocks as well."""
    params, hit, horizon = _pin_setup(kind, n, kappa)
    gen = _CountingGen(RngStream(seed, 1).chunk(0))
    alive = _chunk_survivors(params, 0, n, horizon, replicas, gen, hit)
    replica_steps = int(alive[:-1].sum())  # those running into t = 1..horizon
    assert replica_steps > 0
    per_step = 2 if kind is StoppingKind.TAU_COUPLE else 4
    assert gen.variates == per_step * replica_steps


def test_survival_reproducible():
    args = (ChainParams(80, 20), tau_couple(80, 20, 2.0), 0, 80, 2000)
    a = stopping_tail(*args, RngStream(123, 0), horizon=15)
    b = stopping_tail(*args, RngStream(123, 0), horizon=15)
    assert np.array_equal(a.empirical_survival, b.empirical_survival)
    c = stopping_tail(*args, RngStream(124, 0), horizon=15)
    assert not np.array_equal(a.empirical_survival, c.empirical_survival)


# ------------------------------------------------------------- stopping times

def test_stopping_spec_validation():
    """A kappa or r that is not positive is refused, and so is a missing one
    (r only for tau_couple, the kind that reads it), an infinite one, which
    no replica could cross, True, which is not read as 1, and a string or
    complex number, which would escape as TypeError. So is a kind that is
    not a StoppingKind, or a schedule that is not a Schedule: they ended
    late, in default_horizon's KeyError or stopping_tail's AttributeError."""
    sched = make_schedule(400, 100, 0.25)
    hostile = (math.inf, True, np.True_, "x", 1j)
    for kappa in (0.0, np.nan, None) + hostile:
        with pytest.raises(ParameterError):
            StoppingSpec(StoppingKind.TAU1, sched, kappa=kappa)
    for r in (None, 0.0, np.nan) + hostile:
        with pytest.raises(ParameterError):
            StoppingSpec(StoppingKind.TAU_COUPLE, sched, r=r)
    for r in (0.0, np.nan) + hostile:  # r is checked whenever it is given
        with pytest.raises(ParameterError):
            StoppingSpec(StoppingKind.TAU1, sched, r=r)
    for kind in ("tau1", "tau_couple", None, 1):
        with pytest.raises(ParameterError, match="StoppingKind"):
            StoppingSpec(kind, sched, r=1.0)
    for schedule in (None, (400, 100, 0.25), ChainParams(400, 100)):
        with pytest.raises(ParameterError, match="Schedule"):
            StoppingSpec(StoppingKind.TAU1, schedule)


def test_default_horizons():
    sched = make_schedule(400, 100, 0.25)
    assert (default_horizon(StoppingSpec(StoppingKind.TAU_COUPLE, sched, r=1.0))
            == int(np.ceil(sched.t_n + 3 * sched.s_n)))
    assert default_horizon(StoppingSpec(StoppingKind.TAU1, sched)) == int(np.ceil(sched.t_n))
    assert default_horizon(StoppingSpec(StoppingKind.TAU3, sched)) == int(np.ceil(sched.s_n))
    assert default_horizon(StoppingSpec(StoppingKind.TAU4, sched)) == int(np.ceil(2 * sched.s_n))


def test_tau4_inside_band_stops_immediately():
    sched = make_schedule(400, 100, 0.25)
    spec = StoppingSpec(StoppingKind.TAU4, sched, kappa=1.0)
    est = stopping_tail(ChainParams(400, 100), spec, 200, 200, 500,
                        RngStream(8, 0))
    assert np.all(est.empirical_survival == 0.0)


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

def band_excursion(schedule, x0, r, s, replicas, rng):
    """The share of ``replicas`` single chains from x0 that leave the band
    of half-width r about n/2 at some t in [s, s + ceil(s_n)], all drawing
    from ``rng.chunk(0)`` in turn."""
    n, k, gen = schedule.n, schedule.k, rng.chunk(0)
    x = np.full(replicas, x0, dtype=np.int64)
    out = np.zeros(replicas, dtype=bool)
    for t in range(s + math.ceil(schedule.s_n) + 1):
        if t > 0:  # the reds removed, then the reds added
            x = x - gen.hypergeometric(x, n - x, k) + gen.hypergeometric(
                n - x, x, k)
        if t >= s:
            out |= np.abs(x - n / 2.0) > r
    return out.mean()


def test_band_excursion_trivial_and_monotone():
    sched = make_schedule(400, 100, 0.25)
    rng_args = dict(x0=200, s=0, replicas=2000)
    assert band_excursion(sched, r=200.0, s=0, x0=200, replicas=500,
                          rng=RngStream(4, 0)) == 0.0
    probs = [band_excursion(sched, r=r, rng=RngStream(4, 0), **rng_args)
             for r in (10.0, 30.0, 90.0)]
    assert probs[0] >= probs[1] >= probs[2]


# ------------------------------------------------------------ integer inputs

_P = ChainParams(100, 25)
_SPEC = StoppingSpec(StoppingKind.TAU_COUPLE, make_schedule(100, 25, 0.25),
                     r=1.0)
# each integer input of the coupling entry points, in a call where 3 is valid
_INTEGER_INPUTS = {
    "tail-x0": lambda v: stopping_tail(_P, _SPEC, v, 99, 20,
                                       RngStream(1, 0), 5),
    "tail-y0": lambda v: stopping_tail(_P, _SPEC, 2, v, 20,
                                       RngStream(1, 0), 5),
    "tail-replicas": lambda v: stopping_tail(_P, _SPEC, 2, 99, v,
                                             RngStream(1, 0), 5),
    "tail-horizon": lambda v: stopping_tail(_P, _SPEC, 2, 99, 20,
                                            RngStream(1, 0), v),
    "tail-threads": lambda v: stopping_tail(_P, _SPEC, 2, 99, 20,
                                            RngStream(1, 0), 5, v),
}


def _result_bytes(result):
    return [np.asarray(getattr(result, f.name)).tobytes()
            for f in dataclasses.fields(result)]


@pytest.mark.parametrize("name", sorted(_INTEGER_INPUTS))
def test_coupling_refuses_non_integers(name):
    """A start of 2.5 is refused, not truncated to 2; True is not read as
    one replica, one step or one thread; and a float that holds an integer
    is refused as the chain's own inputs are.  A numpy integer runs as the
    int it holds."""
    call = _INTEGER_INPUTS[name]
    for bad in (2.5, True, np.float64(3.0)):
        with pytest.raises(ParameterError, match="must be an integer"):
            call(bad)
    assert _result_bytes(call(np.int64(3))) == _result_bytes(call(3))
