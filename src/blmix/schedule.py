"""Asymptotic schedule quantities for a chain family with swap fraction
tending to a limit, plus numeric checks of the eigenvalue-power expansions.

All logarithms are natural.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .chain import ChainParams, Eigenfunction, eigen_eval
from .errors import ParameterError
from .pmf import as_index


@dataclass(frozen=True)
class Schedule:
    n: int
    k: int
    lam: float
    delta_n: float       # k/n - lam
    t_n: float           # log n / (2 |log(1-2 lam)|)
    s_n: float           # log log n / lam
    p_lambda: float      # log(1-2 lam) * 2 / lam
    r_n: float           # sqrt(n) * (log n)^(|p_lambda|/2)
    delta_prime: float   # h1(k) - h2(lam), from the quadratic eigenvalue
    delta_dprime: float  # k(n-k)/n^2 - (lam - lam^2)

    @property
    def params(self) -> ChainParams:
        return ChainParams(self.n, self.k)

    @property
    def window_end(self) -> float:
        """The end of the cutoff window, t_n + 3 s_n, from which the
        experiments take their default horizons."""
        return self.t_n + 3 * self.s_n


def make_schedule(n: int, k: int, lam: float) -> Schedule:
    if n < 3:
        raise ParameterError("n must be at least 3 (log log n must be positive)")
    if not 0.0 < lam < 0.5:
        raise ParameterError("lam must lie in the open interval (0, 1/2)")
    if 1.0 - 2.0 * lam == 1.0:
        raise ParameterError(
            f"lam={lam!r} is too small: 1 - 2 lam rounds to 1, so t_n is "
            "unbounded")
    if not 0 <= k <= n:
        raise ParameterError("k must lie in [0, n]")
    logn = math.log(n)
    delta_n = k / n - lam
    t_n = logn / (2.0 * abs(math.log(1.0 - 2.0 * lam)))
    s_n = math.log(logn) / lam
    p_lambda = math.log(1.0 - 2.0 * lam) * 2.0 / lam
    r_n = math.sqrt(n) * logn ** (abs(p_lambda) / 2.0)
    f2k = eigen_eval(ChainParams(n, k), Eigenfunction.F2, k)
    h1 = (1.0 - f2k) / 2.0
    h2 = (1.0 - (1.0 - 2.0 * lam) ** 2) / 2.0
    delta_dprime = k * (n - k) / n**2 - (lam - lam * lam)
    return Schedule(n, k, lam, delta_n, t_n, s_n, p_lambda, r_n,
                    h1 - h2, delta_dprime)


def floor_k(n: int, lam: float) -> int:
    return int(math.floor(lam * n))


@dataclass(frozen=True)
class ExpansionReport:
    t: int
    exact: float
    leading: float
    corrected: float
    outside_hypothesis: bool

    @property
    def residual(self) -> float:
        return self.exact - self.corrected


_BASES: dict[Eigenfunction, Callable[[float], float]] = {
    Eigenfunction.F1: lambda lam: 1.0 - 2.0 * lam,
    Eigenfunction.F2: lambda lam: (1.0 - 2.0 * lam) ** 2,
    Eigenfunction.F3: lambda lam: 1.0 - 2.0 * lam + 2.0 * lam * lam,
}


def lemma2_expansion(schedule: Schedule, which: Eigenfunction,
                     t: int) -> ExpansionReport:
    """Compare the exact eigenvalue power against its limit-rate expansion
    with first-order deviation correction."""
    if as_index(t, "t") < 0:
        raise ParameterError("t must be nonnegative")
    lam = schedule.lam
    delta = {Eigenfunction.F1: schedule.delta_n,
             Eigenfunction.F2: schedule.delta_prime,
             Eigenfunction.F3: schedule.delta_dprime}[which]
    exact = eigen_eval(schedule.params, which, schedule.k) ** t
    leading = _BASES[which](lam) ** t
    corrected = leading * (1.0 - 2.0 * t * delta / (1.0 - 2.0 * lam))
    return ExpansionReport(t, exact, leading, corrected, t > schedule.t_n)


@dataclass(frozen=True)
class AssumptionRow:
    n: int
    k: int
    ratio_in_band: bool   # k/n inside (0, delta)
    delta_n: float
    delta_n_log_n: float  # diagnostic; should trend to 0 for a valid family


def assumption_report(ns: Sequence[int], k_of_n, lam: float,
                      delta: float) -> list[AssumptionRow]:
    """Per-n diagnostics for a swap-count family k(n).

    The vanishing of delta_n * log n is reported as a trend over the given
    sequence; finite data cannot certify an asymptotic statement.
    """
    if list(ns) != sorted(set(ns)):
        raise ParameterError("ns must be strictly increasing")
    if not 0 < delta < 0.5:
        raise ParameterError("delta must lie in (0, 1/2)")
    rows = []
    for n in ns:
        k = k_of_n[n] if isinstance(k_of_n, Mapping) else k_of_n(n)
        dn = k / n - lam
        rows.append(AssumptionRow(n, k, 0 < k / n < delta, dn, dn * math.log(n)))
    return rows


def f2_asymptotic_check(ns: Sequence[int], q: float,
                        offset_of_n) -> list[dict]:
    """Evaluate the quadratic eigenfunction near n/2 and its ratio to
    n^(-1) (log n)^q over an n-grid."""
    rows = []
    for n in ns:
        zeta = offset_of_n[n] if isinstance(offset_of_n, Mapping) else offset_of_n(n)
        x0 = n / 2 + zeta
        val = eigen_eval(ChainParams(n, 0), Eigenfunction.F2, x0)
        ref = math.log(n) ** q / n
        rows.append({"n": n, "zeta": zeta, "value": val, "ratio": val / ref})
    return rows
