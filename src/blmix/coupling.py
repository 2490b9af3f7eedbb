"""Monte Carlo simulation of the shared-selection coupling of two chains.

One step selects the same k left-urn labels and the same k right-urn labels
for both copies (labels sorted so red balls come first).  Instead of
materializing label sets, the step samples the selection counts falling in
each of the three label blocks the two urns induce; this is equivalent by
exchangeability of labels within a block and costs O(1) per step.

The middle block of each urn holds the D = |x - y| labels on which the copies
differ, and the counts A and B of the selections falling there, independent
Hyp(n, D, k) draws, take the distance to |D - A - B|: the distance is a
Markov chain of its own.  The step draws A and B first, and the counts of
the outer blocks given them only when the stopping time reads the copies'
states; ``tau_couple``, which reads the distance alone, keeps only the
distance of each replica.

The distance between the coupled copies never increases; this is asserted on
every step of every replica still running and any violation aborts the run.

A survival curve splits its replicas into one near-equal chunk per MIN_CHUNK
replicas, at least one and at most CHUNKS.  Chunk c draws from ``RngStream.chunk(c)``,
the stream jumped c times, runs on its own, and reports how many of its
replicas survive each t; the curve is the sum over chunks.  The chunks run on
up to ``threads`` worker threads (numpy releases the interpreter lock while it
draws), and since the layout is fixed the curve does not depend on
``threads``.  The chunk generators start afresh from the stream's key, so a
curve depends on the stream's (master_seed, stream_id) alone.
"""

from __future__ import annotations

import enum
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .chain import ChainParams, Eigenfunction, eigen_eval
from .errors import ParameterError, check_size
from .pmf import as_index, check_real, check_type
from .rng import RngStream
from .schedule import Schedule

Z_CRIT = 1.96  # normal-approximation 95% binomial interval
CHUNKS = 8  # most replica chunks of a survival curve, each with its own stream
# fewest replicas of a chunk: a step of a chunk costs a fixed time however few
# replicas it holds (numpy checks the arrays of every draw call), about
# 0.04 ms for tau_couple's one sampler call and 0.1 ms for the band kinds'
# three, against about 0.3 us and 0.6 us a replica (n = 10^6 on a 2-core
# host), so smaller chunks would spend more on calls than threads save, and a
# curve of fewer than 2 * MIN_CHUNK replicas stays one chunk, drawing from
# the stream itself
MIN_CHUNK = 4096


class StoppingKind(enum.Enum):
    TAU_COUPLE = "tau_couple"
    TAU1 = "tau1"
    TAU3 = "tau3"
    TAU4 = "tau4"


@dataclass(frozen=True)
class StoppingSpec:
    kind: StoppingKind
    schedule: Schedule
    kappa: float = 10.0
    r: float | None = None  # distance threshold, tau_couple only

    def __post_init__(self):
        check_type(self.kind, StoppingKind, "kind")
        check_type(self.schedule, Schedule, "schedule")
        check_real(self.kappa, "kappa")
        if not 0 < self.kappa < math.inf:
            raise ParameterError("kappa must be positive and finite")
        if self.r is not None:
            check_real(self.r, "r")
            if not 0 < self.r < math.inf:
                raise ParameterError("r must be positive and finite")
        elif self.kind is StoppingKind.TAU_COUPLE:
            raise ParameterError("tau_couple requires an r")


@dataclass(frozen=True)
class SurvivalEstimate:
    t_grid: np.ndarray
    empirical_survival: np.ndarray
    ci_halfwidth: np.ndarray
    theoretical_bound: np.ndarray


@dataclass(frozen=True)
class _Hit:
    """The hit set of a stopping time over arrays of replicas: ``test``
    reads the copies' states x, y if ``positions`` holds, and their
    distances |x - y| alone if not."""
    test: Callable[..., np.ndarray]
    positions: bool

    def __call__(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """The hit set at the copies' states x, y."""
        return self.test(x, y) if self.positions else self.test(np.abs(x - y))


def _step_arrays(n: int, k: int, state: tuple[np.ndarray, ...],
                 gen: np.random.Generator) -> tuple[np.ndarray, ...]:
    """One coupled step for the replica arrays ``state``: the pair (x, y) of
    the copies' states, or the 1-tuple (d,) of their distances |x - y|.
    The new state has the same form; a new pair holds first the copy that
    was at min(x, y).  Every stopping predicate is symmetric in the two
    copies, so which copy is which is not kept."""
    if k == 0:
        return state
    if len(state) == 1:
        (d,) = state
    else:
        lo, hi = np.minimum(*state), np.maximum(*state)
        d = hi - lo
    # The left urns' labels (lo, hi] are red in the hi-copy only, and the
    # right urns' d slots after the first n - hi red in the lo-copy only:
    # one draw per urn of the selections falling there, in one call.
    a, b = gen.hypergeometric(d, n - d, k, size=(2, d.size))
    gap = d - a - b  # the new hi-copy less the new lo-copy
    dist = np.abs(gap)
    if np.any(dist > d):
        raise AssertionError("coupling contraction violated")
    if len(state) == 1:
        return (dist,)
    # The rest of each selection falls among the n - d labels the copies
    # agree on: red in both ([1, lo] on the left, the first n - hi slots on
    # the right) or blue in both.
    a1 = gen.hypergeometric(lo, n - hi, k - a)
    b1 = gen.hypergeometric(n - hi, lo, k - b)
    new_lo = lo - a1 + b1 + b
    return new_lo, new_lo + gap


def _chunk_sizes(replicas: int) -> list[int]:
    """Replicas of each chunk: one chunk per MIN_CHUNK replicas, at least one
    and at most CHUNKS, near-equal with the first ones one larger."""
    chunks = min(CHUNKS, max(1, replicas // MIN_CHUNK))
    q, r = divmod(replicas, chunks)
    return [q + (c < r) for c in range(chunks)]


def _worker_count(threads: int | None, chunks: int) -> int:
    """Worker threads for ``chunks`` chunks: ``threads``, or the CPUs this
    process may run on, capped at the chunk count."""
    if threads is None:
        try:
            threads = len(os.sched_getaffinity(0))
        except AttributeError:  # no affinity masks on this platform
            threads = os.cpu_count() or 1
    else:
        threads = as_index(threads, "threads")
    if threads < 1:
        raise ParameterError(f"threads must be at least 1, got {threads}")
    return min(threads, chunks)


def _chunk_survivors(params: ChainParams, x0: int, y0: int, horizon: int,
                     size: int, gen: np.random.Generator, hit: _Hit
                     ) -> np.ndarray:
    """How many of ``size`` replicas drawing from ``gen`` are not yet hit at
    t = 0..horizon.  A replica keeps the states of both copies if ``hit``
    reads them, and their distance alone if not.

    A replica is dropped once hit, so each step draws only for the replicas
    still running, and the loop ends when none are left (later counts stay
    0).  Up to and including the first step at which a replica is hit, the
    draws are those of stepping every replica; after it the counts differ
    from that by sampling noise only."""
    start = (x0, y0) if hit.positions else (abs(x0 - y0),)
    state = tuple(np.full(size, s, dtype=np.int64) for s in start)
    alive = np.zeros(horizon + 1, dtype=np.int64)
    for t in range(horizon + 1):
        if t > 0:
            state = _step_arrays(params.n, params.k, state, gen)
        running = ~hit.test(*state)
        state = tuple(s[running] for s in state)
        alive[t] = state[0].size
        if alive[t] == 0:
            break
    return alive


def _survival_of_hits(params: ChainParams, x0: int, y0: int, horizon: int,
                      replicas: int, rng: RngStream, hit: _Hit,
                      threads: int | None = None) -> np.ndarray:
    """P(tau > t) for t = 0..horizon where tau is the first time ``hit``
    holds for the coupled pair: the survivors of every chunk over
    ``replicas``, whatever the number of ``threads``."""
    x0, y0 = as_index(x0, "x0"), as_index(y0, "y0")
    replicas = as_index(replicas, "replicas")
    horizon = as_index(horizon, "horizon")
    if replicas < 1:
        raise ParameterError("replicas must be at least 1")
    if horizon < 0:
        raise ParameterError("horizon must be nonnegative")
    if not (0 <= x0 <= params.n and 0 <= y0 <= params.n):
        raise ParameterError(
            f"starting states ({x0}, {y0}) outside [0, {params.n}]")
    check_size("MAX_REPLICAS", replicas, "replicas")
    check_size("MAX_HORIZON", horizon, "horizon")
    check_size("SAMPLER_LIMIT", params.n + 1, "n + 1", "numpy's "
               "hypergeometric sampler takes urn counts below SAMPLER_LIMIT")
    sizes = _chunk_sizes(replicas)
    workers = _worker_count(threads, len(sizes))

    def survivors(c: int) -> np.ndarray:
        return _chunk_survivors(params, x0, y0, horizon, sizes[c],
                                rng.chunk(c), hit)

    chunks = range(len(sizes))
    if workers == 1:
        counts = [survivors(c) for c in chunks]
    else:
        # imported here, not with the module: it loads logging, which a
        # serial run does not need
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers) as pool:
            # reading every result re-raises a worker's AssertionError here
            counts = list(pool.map(survivors, chunks))
    return np.sum(counts, axis=0) / replicas


def _ci_halfwidth(p_hat: np.ndarray, replicas: int) -> np.ndarray:
    hw = Z_CRIT * np.sqrt(p_hat * (1.0 - p_hat) / replicas)
    return np.maximum(hw, Z_CRIT / (2.0 * replicas))


def _hit_predicate(spec: StoppingSpec) -> _Hit:
    sched = spec.schedule
    n = sched.n
    half = n / 2.0
    dist_thresh = math.sqrt(n) / math.log(math.log(n))
    if spec.kind is StoppingKind.TAU_COUPLE:
        return _Hit(lambda d: d <= spec.r, positions=False)
    if spec.kind is StoppingKind.TAU1:
        band = spec.kappa * math.sqrt(n)
        return _Hit(lambda x, y: (np.abs(x - half) < band)
                   & (np.abs(y - half) < band), positions=True)
    # tau3 and tau4 differ only in the width of the band about n/2
    band = spec.kappa * (sched.r_n if spec.kind is StoppingKind.TAU3
                         else math.sqrt(n))
    return _Hit(lambda x, y: ((np.abs(x - y) <= dist_thresh)
                             & (np.abs(x - half) < band)
                             & (np.abs(y - half) < band)), positions=True)


def default_horizon(spec: StoppingSpec) -> int:
    """The default horizon of a stopping time's tail, rounded up."""
    sched = spec.schedule
    return math.ceil({StoppingKind.TAU_COUPLE: sched.window_end,
                      StoppingKind.TAU1: sched.t_n,
                      StoppingKind.TAU3: sched.s_n,
                      StoppingKind.TAU4: 2.0 * sched.s_n}[spec.kind])


def stopping_tail(params: ChainParams, spec: StoppingSpec, x0: int, y0: int,
                  replicas: int, rng: RngStream, horizon: int | None = None,
                  threads: int | None = None) -> SurvivalEstimate:
    """Empirical tail P(tau > t), t = 0..horizon, of the stopping time
    ``spec`` for the pair started at (x0, y0), with the per-t binomial
    interval.  The bound column is the path-coupling bound
    min(1, (1 - 2k(n-k)/n^2)^t |x0 - y0| / r) for tau_couple, all ones for
    the band kinds.  ``threads`` sets the worker threads, not the result."""
    if (spec.schedule.n, spec.schedule.k) != (params.n, params.k):
        raise ParameterError("spec's schedule is of another chain than params")
    if horizon is None:
        horizon = default_horizon(spec)
    surv = _survival_of_hits(params, x0, y0, horizon, replicas, rng,
                             _hit_predicate(spec), threads)
    t_grid = np.arange(horizon + 1)
    bound = np.ones(horizon + 1)
    if spec.kind is StoppingKind.TAU_COUPLE:
        rate = eigen_eval(params, Eigenfunction.F3, params.k)
        with np.errstate(over="ignore"):  # a tiny r gives inf, capped at 1
            bound = np.minimum(1.0, rate**t_grid * abs(x0 - y0) / spec.r)
    return SurvivalEstimate(t_grid, surv, _ci_halfwidth(surv, replicas), bound)

