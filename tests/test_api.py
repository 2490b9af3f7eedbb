"""The names ``import blmix`` makes public."""

import os
import subprocess
import sys

import blmix

PUBLIC = [
    "ApproxParams", "BlmixError", "ChainParams", "ConfigError",
    "DiscreteNormalParams", "Eigenfunction", "FinitePmf", "FourChainSetup",
    "HorizonExceededError", "HypergeomParams", "InfeasibleSizeError",
    "MixingProfile", "ParameterError", "RngStream", "Schedule", "StartPolicy",
    "StoppingKind", "StoppingSpec", "SurvivalEstimate", "TvDecomposition",
    "approx", "chain", "coupling", "default_horizon", "discrete_normal_pmf",
    "distance_profile", "eigen_eval", "errors", "evolve", "floor_k",
    "hoeffding_tail", "hyper_vs_dnormal_tv", "hypergeom_pmf",
    "lower_bound_certificate", "make_schedule", "normalization_constant",
    "one_step_tv", "pmf", "point_mass", "rng", "schedule", "stationary",
    "stopping_tail", "t_mix", "transition_row", "tv_distance",
]


def test_public_api_is_pinned():
    """A fresh ``import blmix`` makes exactly these names public (in a fresh
    interpreter, since importing ``blmix.cli`` adds its modules): a deleted
    export cannot come back, nor a new one appear, without this list."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(blmix.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", "import blmix; print(sorted(n for n in "
         "dir(blmix) if not n.startswith('_')))"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == repr(PUBLIC)
