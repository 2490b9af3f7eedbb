"""Correctness gate: compare one CLI invocation's CSV payload with the
reference outputs stored under ``reference/``.

The references were produced once by the unmodified program (see
``make_reference.py``).  The checks never import blmix, so a defect in the
program cannot loosen them.
"""

from __future__ import annotations

import csv
import io
import math
import os

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "reference")

D_TOL = 1e-14          # exact profiles: |d(t) - reference| and lost_mass
ANALYTIC_REL = 1e-12   # closed forms and approximations, relative
# Coupling curves from different seeds or stream layouts differ by sampling
# noise; allow this many combined 95% half-widths before calling it a defect.
COUPLING_CI_MULTIPLE = 3.0
MAX_PROBLEMS = 5


def parse_csv(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def _num(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def reference_path(workload: str, experiment: str) -> str:
    return os.path.join(REFERENCE_DIR, workload, f"{experiment}.csv")


def load_reference(workload: str, experiment: str) -> list[dict[str, str]]:
    with open(reference_path(workload, experiment), encoding="utf-8") as fh:
        return parse_csv(fh.read())


def load_certificate() -> dict[tuple[int, int], float]:
    """Lower-bound certificate d(t) >= lb(n, t), keyed by (n, t)."""
    with open(os.path.join(REFERENCE_DIR, "certificate.csv"),
              encoding="utf-8") as fh:
        return {(int(r["n"]), int(r["t"])): float(r["certified_bound"])
                for r in parse_csv(fh.read())}


def _same_keys(rows, ref, keys) -> list[str]:
    got = [tuple(r.get(k) for k in keys) for r in rows]
    want = [tuple(r[k] for k in keys) for r in ref]
    if got != want:
        return [f"grid {keys} differs from the reference "
                f"({len(got)} rows vs {len(want)})"]
    return []


def check_profile(rows, ref, certificate) -> list[str]:
    """d(t) equal to the reference within D_TOL on the identical (n, t)
    grid, lost_mass <= D_TOL, and d(t) at or above the certificate."""
    problems = _same_keys(rows, ref, ("n", "k", "lambda", "t", "start_policy"))
    if problems:
        return problems
    for r, rr in zip(rows, ref):
        n, t = int(r["n"]), int(r["t"])
        d, lost = _num(r["d_of_t"]), _num(r["lost_mass"])
        if d is None or lost is None:
            problems.append(f"n={n} t={t}: non-numeric d_of_t or lost_mass")
            continue
        if not abs(d - float(rr["d_of_t"])) <= D_TOL:
            problems.append(f"n={n} t={t}: d={d!r} vs reference {rr['d_of_t']}")
        if not 0.0 <= lost <= D_TOL:
            problems.append(f"n={n} t={t}: lost_mass {lost!r} exceeds {D_TOL}")
        if not d >= certificate[(n, t)]:
            problems.append(f"n={n} t={t}: d={d!r} below the certified "
                            f"bound {certificate[(n, t)]!r}")
    return problems


def check_coupling(rows, ref) -> list[str]:
    """Survival curve in [0, 1], non-increasing, under the geometric bound
    plus its half-width, and within COUPLING_CI_MULTIPLE combined half-widths
    of the reference curve."""
    problems = _same_keys(rows, ref, ("n", "k", "kind", "t"))
    if problems:
        return problems
    prev = math.inf
    for r, rr in zip(rows, ref):
        t = r["t"]
        s, hw = _num(r["empirical_survival"]), _num(r["ci_halfwidth"])
        if s is None or hw is None or not hw >= 0:
            problems.append(f"t={t}: non-numeric survival or half-width")
            continue
        s_ref, hw_ref = float(rr["empirical_survival"]), float(rr["ci_halfwidth"])
        bound = float(rr["theoretical_bound"])
        if not 0.0 <= s <= 1.0:
            problems.append(f"t={t}: survival {s!r} outside [0, 1]")
        if s > prev:
            problems.append(f"t={t}: survival rises from {prev!r} to {s!r}")
        if s > bound + hw:
            problems.append(f"t={t}: survival {s!r} above bound {bound!r} "
                            f"+ half-width {hw!r}")
        if abs(s - s_ref) > COUPLING_CI_MULTIPLE * math.hypot(hw, hw_ref):
            problems.append(f"t={t}: survival {s!r} vs reference {s_ref!r} "
                            f"beyond {COUPLING_CI_MULTIPLE} combined half-widths")
        prev = s
    return problems


def check_exact(rows, ref) -> list[str]:
    """Every cell but the config digest equal to the reference: numbers
    within ANALYTIC_REL relative, everything else identical."""
    if not rows or list(rows[0]) != list(ref[0]) or len(rows) != len(ref):
        return ["columns or row count differ from the reference"]
    problems = []
    for i, (r, rr) in enumerate(zip(rows, ref)):
        for col, want in rr.items():
            if col == "config_digest":
                continue
            got = r[col]
            a, b = _num(got), _num(want)
            ok = (got == want if a is None or b is None
                  else math.isclose(a, b, rel_tol=ANALYTIC_REL, abs_tol=0.0))
            if not ok:
                problems.append(f"row {i} {col}: {got!r} vs reference {want!r}")
    return problems


def check_invocation(workload: str, experiment: str, returncode: int,
                     csv_text: str | None) -> list[str]:
    """All problems with one invocation; an empty list means it passed."""
    if returncode != 0:
        return [f"{experiment} exited with code {returncode}"]
    if csv_text is None:
        return [f"{experiment} wrote no CSV payload"]
    rows = parse_csv(csv_text)
    ref = load_reference(workload, experiment)
    if experiment == "profile":
        problems = check_profile(rows, ref, load_certificate())
    elif experiment == "coupling":
        problems = check_coupling(rows, ref)
    else:
        problems = check_exact(rows, ref)
    return [f"{experiment}: {p}" for p in problems[:MAX_PROBLEMS]]
