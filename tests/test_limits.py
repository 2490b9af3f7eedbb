"""The size limits: one table in ``blmix.errors``, and refusals that come
before the first allocation."""

import ast
import os
import pathlib
import re
import subprocess
import sys

import pytest

import blmix

SRC = pathlib.Path(blmix.__file__).resolve().parent
LIMITS = ("LAW_GUARD", "MATRIX_GUARD", "VECTOR_GUARD", "SAMPLER_LIMIT",
          "EXACT_TV_GUARD", "MAX_HORIZON", "MAX_REPLICAS", "MAX_N")
# a name that reads as a size limit, wherever it is assigned
LIMIT_LIKE = re.compile(r"_(GUARD|LIMIT)$|^MAX_")


def _assigned(path: pathlib.Path) -> list[str]:
    """Every name the module at ``path`` binds by an assignment or an
    import alias, at any depth, once per binding."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign, ast.NamedExpr)):
            targets = [node.target]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names += [alias.asname for alias in node.names if alias.asname]
            continue
        else:
            continue
        names += [name.id for target in targets for name in ast.walk(target)
                  if isinstance(name, ast.Name)]
    return names


def test_each_limit_is_assigned_once_in_errors():
    """``errors.py`` assigns each size limit exactly once, and no other
    module of the package assigns one, or any name that reads as a limit,
    so that each guard stays in one place."""
    errors = _assigned(SRC / "errors.py")
    assert {name: errors.count(name) for name in LIMITS} == dict.fromkeys(
        LIMITS, 1)
    assert sorted(n for n in errors if LIMIT_LIKE.search(n)) == sorted(LIMITS)
    for path in sorted(SRC.glob("*.py")):
        if path.name != "errors.py":
            stray = [n for n in _assigned(path)
                     if n in LIMITS or LIMIT_LIKE.search(n)]
            assert stray == [], f"{path.name} assigns {stray}"


# Calls that ended in numpy's MemoryError, petabytes each, before their
# sizes were checked against the table; the last one before the
# MATRIX_GUARD refusal that its n alone would give.
OVERSIZED = {
    "profile-state-zero-t_max":
        "distance_profile(ChainParams(100, 25), 2**50, StartPolicy.STATE_ZERO)",
    "profile-all-states-t_max":
        "distance_profile(ChainParams(10**6, 1), 2**50, StartPolicy.ALL_STATES)",
    "stopping_tail-replicas":
        "stopping_tail(params, spec, 0, 100, 2**50, RngStream(0, 0), "
        "horizon=3, threads=1)",
    "stopping_tail-horizon":
        "stopping_tail(params, spec, 0, 100, 10, RngStream(0, 0), "
        "horizon=2**50, threads=1)",
}

CHILD = """
import resource, sys, tracemalloc
from blmix import (ChainParams, RngStream, StartPolicy, StoppingKind,
                   StoppingSpec, distance_profile, make_schedule, stopping_tail)
params = ChainParams(100, 25)
spec = StoppingSpec(StoppingKind.TAU_COUPLE, make_schedule(100, 25, 0.25),
                    r=1.0)
resource.setrlimit(resource.RLIMIT_AS,
                   (2 << 30, resource.getrlimit(resource.RLIMIT_AS)[1]))
tracemalloc.start()
try:
    eval(sys.argv[1])
except Exception as exc:
    print(type(exc).__name__, tracemalloc.get_traced_memory()[1], exc)
"""


@pytest.mark.parametrize("call", OVERSIZED.values(), ids=OVERSIZED.keys())
def test_oversized_requests_are_refused_before_allocating(call):
    """Each call, in a fresh interpreter whose address space is capped at
    2 GiB, raises InfeasibleSizeError naming a limit of the table, with a
    traced peak below 64 KiB: the sizes are checked before any array of
    theirs is allocated."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent), OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", CHILD, call], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    kind, peak, message = out.stdout.split(" ", 2)
    assert kind == "InfeasibleSizeError", out.stdout
    assert int(peak) < 1 << 16
    assert re.search(r"is above (MAX_HORIZON|MAX_REPLICAS)=", message)
