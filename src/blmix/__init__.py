"""Exact kernels, coupling simulation and mixing-time diagnostics for the
two-urn ball-swap chain."""

import os as _os
import sys as _sys

# OpenBLAS reads this once, as numpy loads it.  Its idle worker spins 2**28
# cycles (~0.13 s of CPU) after the load and each threaded product; 2**20
# (~0.5 ms) still spans one loop's gaps.  Thread count and result bits stay.
# A user's value wins; once numpy is loaded, OpenBLAS has read it already.
if "numpy" not in _sys.modules:
    _os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "20")

from .chain import (ChainParams, Eigenfunction, MixingProfile, StartPolicy,
                    distance_profile, eigen_eval, evolve,
                    lower_bound_certificate, stationary, t_mix,
                    transition_row)
from .coupling import (StoppingKind, StoppingSpec, SurvivalEstimate,
                       default_horizon, stopping_tail)
from .errors import (BlmixError, ConfigError, HorizonExceededError,
                     InfeasibleSizeError, ParameterError)
from .pmf import (DiscreteNormalParams, FinitePmf, HypergeomParams,
                  discrete_normal_pmf, hypergeom_pmf, point_mass, tv_distance)
from .rng import RngStream
from .schedule import Schedule, floor_k, make_schedule
from .approx import (ApproxParams, FourChainSetup, TvDecomposition,
                     hyper_vs_dnormal_tv, normalization_constant, one_step_tv)

__version__ = "0.1.0"
