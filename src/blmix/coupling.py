"""Monte Carlo simulation of the shared-selection coupling of two chains.

One step selects the same k left-urn labels and the same k right-urn labels
for both copies (labels sorted so red balls come first).  Instead of
materializing label sets, the step samples the selection counts falling in
each of the three label blocks the two urns induce; this is equivalent by
exchangeability of labels within a block and costs O(1) per step.

The distance between the coupled copies never increases; this is asserted on
every step of every replica still running and any violation aborts the run.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .chain import ChainParams
from .errors import ParameterError
from .rng import RngStream
from .schedule import Schedule

Z_CRIT = 1.96  # normal-approximation 95% binomial interval


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
        if self.kappa <= 0:
            raise ParameterError("kappa must be positive")
        if self.kind is StoppingKind.TAU_COUPLE and (self.r is None or self.r <= 0):
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


def coupled_step(params: ChainParams, s: CoupledState,
                 rng: RngStream) -> CoupledState:
    if not (0 <= s.x <= params.n and 0 <= s.y <= params.n):
        raise ParameterError("coupled state outside the state space")
    x, y = _step_arrays(params.n, params.k,
                        np.array([s.x]), np.array([s.y]), rng.gen)
    return CoupledState(int(x[0]), int(y[0]))


def _chain_step_arrays(n: int, k: int, x: np.ndarray,
                       gen: np.random.Generator) -> np.ndarray:
    """One marginal step for an array of independent single chains."""
    if k == 0:
        return x
    removed = gen.hypergeometric(x, n - x, k)
    added = gen.hypergeometric(n - x, x, k)
    return x - removed + added


def _survival_of_hits(params: ChainParams, x0: int, y0: int, horizon: int,
                      replicas: int, rng: RngStream,
                      hit: Callable[[np.ndarray, np.ndarray], np.ndarray]
                      ) -> np.ndarray:
    """P(tau > t) for t = 0..horizon where tau is the first time ``hit``
    holds for the coupled pair.

    A replica is dropped once hit, so each step draws only for the replicas
    still running, and the loop ends when none are left (later rows stay 0).
    Up to and including the first step at which a replica is hit, the draws
    are those of stepping every replica; after it the curve differs from that
    by sampling noise only."""
    if replicas < 1:
        raise ParameterError("replicas must be at least 1")
    if horizon < 0:
        raise ParameterError("horizon must be nonnegative")
    if not (0 <= x0 <= params.n and 0 <= y0 <= params.n):
        raise ParameterError(
            f"starting states ({x0}, {y0}) outside [0, {params.n}]")
    gen = rng.gen
    x = np.full(replicas, x0, dtype=np.int64)
    y = np.full(replicas, y0, dtype=np.int64)
    survival = np.zeros(horizon + 1)
    for t in range(horizon + 1):
        if t > 0:
            x, y = _step_arrays(params.n, params.k, x, y, gen)
        running = ~hit(x, y)
        x, y = x[running], y[running]
        survival[t] = x.size / replicas
        if x.size == 0:
            break
    return survival


def _ci_halfwidth(p_hat: np.ndarray, replicas: int) -> np.ndarray:
    hw = Z_CRIT * np.sqrt(p_hat * (1.0 - p_hat) / replicas)
    return np.maximum(hw, Z_CRIT / (2.0 * replicas))


def survival_vs_bound(params: ChainParams, x0: int, y0: int, r: float,
                      t_max: int, replicas: int,
                      rng: RngStream) -> SurvivalEstimate:
    """Empirical survival of the first time the coupled distance drops to
    ``r`` or below, against the geometric path-coupling bound."""
    if r <= 0:
        raise ParameterError("r must be positive")
    n, k = params.n, params.k
    surv = _survival_of_hits(params, x0, y0, t_max, replicas, rng,
                             lambda x, y: np.abs(x - y) <= r)
    t_grid = np.arange(t_max + 1)
    rate = 1.0 - 2.0 * k * (n - k) / n**2
    bound = np.minimum(1.0, rate**t_grid * abs(x0 - y0) / r)
    return SurvivalEstimate(t_grid, surv, _ci_halfwidth(surv, replicas), bound)


def _hit_predicate(spec: StoppingSpec) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    sched = spec.schedule
    n = sched.n
    half = n / 2.0
    dist_thresh = math.sqrt(n) / math.log(math.log(n))
    if spec.kind is StoppingKind.TAU_COUPLE:
        r = spec.r
        return lambda x, y: np.abs(x - y) <= r
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
    sched = spec.schedule
    if spec.kind is StoppingKind.TAU1:
        return math.ceil(sched.t_n)
    if spec.kind is StoppingKind.TAU4:
        return math.ceil(2.0 * sched.s_n)
    return math.ceil(sched.s_n)


def stopping_tail(params: ChainParams, spec: StoppingSpec, x0: int, y0: int,
                  replicas: int, rng: RngStream,
                  horizon: int | None = None) -> SurvivalEstimate:
    """Empirical tail P(tau > t) of a band/distance stopping time, with the
    per-t binomial interval.  No closed-form bound applies uniformly, so the
    bound column is all-ones."""
    if horizon is None:
        horizon = default_horizon(spec)
    surv = _survival_of_hits(params, x0, y0, horizon, replicas, rng,
                             _hit_predicate(spec))
    t_grid = np.arange(horizon + 1)
    return SurvivalEstimate(t_grid, surv, _ci_halfwidth(surv, replicas),
                            np.ones(horizon + 1))


def band_excursion(schedule: Schedule, x0: int, r: float, s: int,
                   replicas: int, rng: RngStream) -> float:
    """Empirical probability that a single chain leaves the band of
    half-width ``r`` about n/2 at some time in [s, s + window] where the
    window is the schedule's mixing-window length."""
    if replicas < 1:
        raise ParameterError("replicas must be at least 1")
    if s < 0 or r <= 0:
        raise ParameterError("s must be nonnegative and r positive")
    n, k = schedule.n, schedule.k
    horizon = s + math.ceil(schedule.s_n)
    gen = rng.gen
    x = np.full(replicas, x0, dtype=np.int64)
    out = np.zeros(replicas, dtype=bool)
    half = n / 2.0
    if s == 0:
        out |= np.abs(x - half) > r
    for t in range(1, horizon + 1):
        x = _chain_step_arrays(n, k, x, gen)
        if t >= s:
            out |= np.abs(x - half) > r
    return float(out.mean())
