"""Asymptotic schedule quantities for a chain family with swap fraction
tending to a limit.

All logarithms are natural.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError, check_size
from .pmf import as_index, check_real


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

    @property
    def window_end(self) -> float:
        """The end of the cutoff window, t_n + 3 s_n, from which the
        experiments take their default horizons."""
        return self.t_n + 3 * self.s_n


def make_schedule(n: int, k: int, lam: float) -> Schedule:
    n, k = as_index(n, "n"), as_index(k, "k")
    check_size("MAX_N", n)
    check_real(lam, "lam")
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
    return Schedule(n, k, lam, delta_n, t_n, s_n, p_lambda, r_n)


def floor_k(n: int, lam: float) -> int:
    """floor(lam n), the swap count of a config that gives no k."""
    if as_index(n, "n") < 1:
        raise ParameterError("n must be positive")
    check_size("MAX_N", n)
    check_real(lam, "lam")
    if not 0.0 <= lam <= 1.0:  # NaN fails it too
        raise ParameterError(f"lam must lie in [0, 1], not {lam!r}")
    return int(math.floor(lam * n))
