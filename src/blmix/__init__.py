"""Exact kernels, coupling simulation and mixing-time diagnostics for the
two-urn ball-swap chain."""

from .chain import (ChainParams, Eigenfunction, MixingProfile, StartPolicy,
                    distance_profile, eigen_eval, evolve,
                    lower_bound_certificate, stationary, t_mix,
                    transition_row, verify_moment_identities)
from .coupling import (CoupledState, StoppingKind, StoppingSpec,
                       SurvivalEstimate, band_excursion, coupled_step,
                       default_horizon, stopping_tail)
from .errors import (BlmixError, ConfigError, HorizonExceededError,
                     InfeasibleSizeError, ParameterError)
from .pmf import (DiscreteNormalParams, FinitePmf, HypergeomParams,
                  difference_law, discrete_normal_pmf, hoeffding_tail,
                  hypergeom_pmf, point_mass, sample, sample_hypergeom,
                  tv_distance)
from .rng import RngStream
from .schedule import (ExpansionReport, Schedule, assumption_report,
                       f2_asymptotic_check, floor_k, lemma2_expansion,
                       make_schedule)
from .approx import (ApproxParams, FourChainSetup, TvDecomposition,
                     WindowConstants, central_region_check,
                     hyper_vs_dnormal_tv, normalization_constant, one_step_tv,
                     shift_split_terms, window_constants)

__version__ = "0.1.0"
