"""Monte Carlo simulation of the shared-selection coupling of two chains.

One step selects the same k left-urn labels and the same k right-urn labels
for both copies (labels sorted so red balls come first).  Instead of
materializing label sets, the step samples the selection counts falling in
each of the three label blocks the two urns induce; this is equivalent by
exchangeability of labels within a block and costs O(1) per step.

The distance between the coupled copies never increases; this is asserted on
every step of every replica still running and any violation aborts the run.

A survival curve splits its replicas into one near-equal chunk per MIN_CHUNK
replicas, at least one and at most CHUNKS.  Chunk c draws from ``RngStream.chunk(c)``,
the stream jumped c times, runs on its own, and reports how many of its
replicas survive each t; the curve is the sum over chunks.  The chunks run on
up to ``threads`` worker threads (numpy releases the interpreter lock while it
draws), and since the layout is fixed the curve does not depend on
``threads``.  The chunk generators start afresh from the stream's key, so a
curve depends on the stream's (master_seed, stream_id) alone, not on draws
already taken from ``RngStream.gen``.
"""

from __future__ import annotations

import enum
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .chain import ChainParams
from .errors import InfeasibleSizeError, ParameterError
from .pmf import as_index
from .rng import RngStream
from .schedule import Schedule

Z_CRIT = 1.96  # normal-approximation 95% binomial interval
CHUNKS = 8  # most replica chunks of a survival curve, each with its own stream
# fewest replicas of a chunk: a step of a chunk costs about 0.2 ms however few
# replicas it holds (numpy checks the arrays of every draw call), against
# about 0.4 us a replica, so smaller chunks would spend more on calls than
# threads save, and a curve of fewer than 2 * MIN_CHUNK replicas stays one
# chunk, drawing from the stream itself
MIN_CHUNK = 4096
SAMPLER_LIMIT = 10**9  # numpy's hypergeometric needs urn counts below this


@dataclass(frozen=True)
class CoupledState:
    x: int
    y: int


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
        if not self.kappa > 0:
            raise ParameterError("kappa must be positive")
        if (self.kind is StoppingKind.TAU_COUPLE
                and (self.r is None or not self.r > 0)):
            raise ParameterError("tau_couple requires a positive r")


@dataclass(frozen=True)
class SurvivalEstimate:
    t_grid: np.ndarray
    empirical_survival: np.ndarray
    ci_halfwidth: np.ndarray
    theoretical_bound: np.ndarray


def _step_arrays(n: int, k: int, x: np.ndarray, y: np.ndarray,
                 gen: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """One coupled step for replica arrays x, y (updated copies returned)."""
    if k == 0:
        return x, y
    lo = np.minimum(x, y)
    hi = np.maximum(x, y)
    # Left urns: red labels fill [1, lo] in both copies, (lo, hi] in the
    # hi-copy only.  Selection counts per block via sequential conditionals.
    a1 = gen.hypergeometric(lo, n - lo, k)
    a2 = gen.hypergeometric(hi - lo, n - hi, k - a1)
    # Right urns: red labels fill the first n-hi slots in both copies and the
    # next hi-lo slots in the lo-copy only.
    b1 = gen.hypergeometric(n - hi, hi, k)
    b2 = gen.hypergeometric(hi - lo, lo, k - b1)
    new_lo = lo - a1 + b1 + b2
    new_hi = hi - a1 - a2 + b1
    swap = x > y
    new_x = np.where(swap, new_hi, new_lo)
    new_y = np.where(swap, new_lo, new_hi)
    if np.any(np.abs(new_x - new_y) > np.abs(x - y)):
        raise AssertionError("coupling contraction violated")
    return new_x, new_y


def _check_sampler(n: int) -> None:
    if n >= SAMPLER_LIMIT:
        raise InfeasibleSizeError(
            f"n={n} reaches {SAMPLER_LIMIT:,}: numpy's hypergeometric "
            "sampler takes urn counts below it only")


def coupled_step(params: ChainParams, s: CoupledState,
                 rng: RngStream) -> CoupledState:
    _check_sampler(params.n)
    x, y = as_index(s.x, "x"), as_index(s.y, "y")
    if not (0 <= x <= params.n and 0 <= y <= params.n):
        raise ParameterError("coupled state outside the state space")
    x, y = _step_arrays(params.n, params.k, np.array([x]), np.array([y]),
                        rng.gen)
    return CoupledState(int(x[0]), int(y[0]))


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
                     size: int, gen: np.random.Generator,
                     hit: Callable[[np.ndarray, np.ndarray], np.ndarray]
                     ) -> np.ndarray:
    """How many of ``size`` replicas drawing from ``gen`` are not yet hit at
    t = 0..horizon.

    A replica is dropped once hit, so each step draws only for the replicas
    still running, and the loop ends when none are left (later counts stay
    0).  Up to and including the first step at which a replica is hit, the
    draws are those of stepping every replica; after it the counts differ
    from that by sampling noise only."""
    x = np.full(size, x0, dtype=np.int64)
    y = np.full(size, y0, dtype=np.int64)
    alive = np.zeros(horizon + 1, dtype=np.int64)
    for t in range(horizon + 1):
        if t > 0:
            x, y = _step_arrays(params.n, params.k, x, y, gen)
        running = ~hit(x, y)
        x, y = x[running], y[running]
        alive[t] = x.size
        if x.size == 0:
            break
    return alive


def _survival_of_hits(params: ChainParams, x0: int, y0: int, horizon: int,
                      replicas: int, rng: RngStream,
                      hit: Callable[[np.ndarray, np.ndarray], np.ndarray],
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
    _check_sampler(params.n)
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


def _hit_predicate(spec: StoppingSpec) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    sched = spec.schedule
    n = sched.n
    half = n / 2.0
    dist_thresh = math.sqrt(n) / math.log(math.log(n))
    if spec.kind is StoppingKind.TAU_COUPLE:
        return lambda x, y: np.abs(x - y) <= spec.r
    if spec.kind is StoppingKind.TAU1:
        band = spec.kappa * math.sqrt(n)
        return lambda x, y: (np.abs(x - half) < band) & (np.abs(y - half) < band)
    if spec.kind in (StoppingKind.TAU3, StoppingKind.TAU4):
        # tau3 and tau4 differ only in the width of the band about n/2
        band = spec.kappa * (sched.r_n if spec.kind is StoppingKind.TAU3
                             else math.sqrt(n))
        return lambda x, y: ((np.abs(x - y) <= dist_thresh)
                             & (np.abs(x - half) < band)
                             & (np.abs(y - half) < band))
    raise ParameterError(f"unknown stopping kind {spec.kind!r}")


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
        n, k = params.n, params.k
        rate = 1.0 - 2.0 * k * (n - k) / n**2
        bound = np.minimum(1.0, rate**t_grid * abs(x0 - y0) / spec.r)
    return SurvivalEstimate(t_grid, surv, _ci_halfwidth(surv, replicas), bound)

