"""Exception hierarchy shared across the package, and its size limits.

Every size limit is in the table below, each with the arrays it caps;
``check_size`` refuses a request over one before anything of that size is
allocated.
"""

LAW_GUARD = 10**7  # span hi - lo of a law or dense vector: pmfs, rows, pi
# n of the all-states profile, whose folded kernels and S and V are dense
# (n/2 + 1)-square arrays; the state-zero profile trims its rows above it
MATRIX_GUARD = 4096
VECTOR_GUARD = 100_000  # n of a single-start evolution: laws of n + 1 points
# numpy's hypergeometric sampler takes urn counts below this, so the coupled
# pair's n + 1 counts 0..n are this many at most
SAMPLER_LIMIT = 10**9
EXACT_TV_GUARD = 10_000  # not a refusal: one_step_tv's exact TV up to this n
MAX_HORIZON = 10**6  # t_max or horizon: a double of d(t) or survival a step
MAX_REPLICAS = 10**7  # replicas of a survival curve: ~120 bytes of state each
MAX_N = 2**53  # a config's n, exact in the doubles lambda * n is taken in


class BlmixError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(BlmixError, ValueError):
    """A parameter lies outside its admissible domain."""


class HorizonExceededError(BlmixError):
    """A distance profile was too short to reach the requested threshold."""

    def __init__(self, epsilon, d_last, t_max):
        self.epsilon = epsilon
        self.d_last = d_last
        self.t_max = t_max
        super().__init__(
            f"profile ends at t={t_max} with d={d_last:.6g} > epsilon={epsilon:.6g}"
        )


class InfeasibleSizeError(BlmixError):
    """The requested instance exceeds one of the size limits above."""


def check_size(limit: str, size: int, what: str = "n",
               advice: str = "") -> None:
    """Raise InfeasibleSizeError, naming ``what``, the limit and its value,
    and ending with ``advice`` if given, when ``size`` is above the limit
    named ``limit``."""
    cap = globals()[limit]
    if size > cap:
        raise InfeasibleSizeError(f"{what}={size:,} is above {limit}={cap:,}"
                                  + (f": {advice}" if advice else ""))


class ConfigError(BlmixError, ValueError):
    """An experiment configuration is malformed or violates an invariant."""
