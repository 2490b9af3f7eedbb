"""The names ``import blmix`` makes public."""

import os
import re
import subprocess
import sys

import pytest

import blmix
from blmix import (ChainParams, ParameterError, distance_profile, evolve,
                   hypergeom_pmf, point_mass, stationary, t_mix,
                   transition_row, tv_distance)

PUBLIC = [
    "ApproxParams", "BlmixError", "ChainParams", "ConfigError",
    "DiscreteNormalParams", "Eigenfunction", "FinitePmf", "FourChainSetup",
    "HorizonExceededError", "HypergeomParams", "InfeasibleSizeError",
    "MixingProfile", "ParameterError", "RngStream", "Schedule", "StartPolicy",
    "StoppingKind", "StoppingSpec", "SurvivalEstimate", "TvDecomposition",
    "approx", "chain", "coupling", "default_horizon", "discrete_normal_pmf",
    "distance_profile", "eigen_eval", "errors", "evolve", "floor_k",
    "hyper_vs_dnormal_tv", "hypergeom_pmf", "lower_bound_certificate",
    "make_schedule", "normalization_constant",
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


@pytest.mark.parametrize("call", [
    lambda bad: hypergeom_pmf(bad),
    lambda bad: transition_row(bad, 0),
    lambda bad: stationary(bad),
    lambda bad: evolve(bad, point_mass(0), 1),
    lambda bad: evolve(ChainParams(40, 10), bad, 1),
    lambda bad: distance_profile(bad, 5),
    lambda bad: tv_distance(bad, point_mass(0)),
    lambda bad: tv_distance(point_mass(0), bad),
    lambda bad: t_mix(bad, 0.25),
], ids=["hypergeom_pmf", "transition_row", "stationary", "evolve-params",
        "evolve-mu", "distance_profile", "tv_distance-p", "tv_distance-q",
        "t_mix"])
@pytest.mark.parametrize("bad", [(40, 10), None, "ChainParams(40, 10)"],
                         ids=["tuple", "None", "str"])
def test_functions_refuse_mistyped_arguments(call, bad):
    """A tuple, None or a string where a function takes HypergeomParams,
    ChainParams, FinitePmf or MixingProfile is refused with ParameterError,
    not left to raise AttributeError."""
    pattern = f"must be a .*, not {re.escape(repr(bad))}$"
    with pytest.raises(ParameterError, match=pattern):
        call(bad)
