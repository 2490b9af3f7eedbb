"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Each criterion is checked at its stated tolerance against an independent
oracle (exhaustive enumeration, closed forms, or exact kernel evolution).
"""

import json
import math
import os
import time

import numpy as np

from blmix import (ApproxParams, ChainParams, RngStream, StartPolicy,
                   StoppingKind, StoppingSpec, distance_profile,
                   hyper_vs_dnormal_tv, lower_bound_certificate, make_schedule,
                   normalization_constant, one_step_tv, stationary,
                   stopping_tail, t_mix, transition_row)
from blmix.cli import main as cli_main
from blmix.config import lower_bound_offset
from oracles import (dense_kernel, enum_coupled_joint, enum_transition_row,
                     marginals, verify_moment_identities)


def report(num: int, description: str, ok: bool):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {description}"
    print(line, flush=True)
    assert ok, line


def test_criterion_01_kernel_enumeration_oracle():
    start = time.monotonic()
    worst = 0.0
    for n in range(1, 9):
        for k in range(n + 1):
            for x in range(n + 1):
                oracle = enum_transition_row(n, k, x)
                row = transition_row(ChainParams(n, k), x)
                for y in range(n + 1):
                    worst = max(worst, abs(row.prob(y)
                                           - float(oracle.get(y, 0))))
    elapsed = time.monotonic() - start
    report(1, f"kernel vs enumeration for n<=8, worst error {worst:.2e}, "
              f"{elapsed:.1f}s", worst <= 1e-12 and elapsed < 60)


def test_criterion_02_stationarity_and_reversibility():
    start = time.monotonic()
    worst_tv, worst_rel = 0.0, 0.0
    for n in (10, 100, 1000, 2000):
        params = ChainParams(n, n // 4)
        P = dense_kernel(params)
        pi = stationary(params).dense_on(0, n)
        worst_tv = max(worst_tv, 0.5 * np.abs(pi @ P - pi).sum())
        flux = pi[:, None] * P
        denom = np.maximum(np.maximum(np.abs(flux), np.abs(flux.T)), 1e-280)
        worst_rel = max(worst_rel, (np.abs(flux - flux.T) / denom).max())
    elapsed = time.monotonic() - start
    report(2, f"piP=pi (TV {worst_tv:.2e}) and detailed balance "
              f"(rel {worst_rel:.2e}), {elapsed:.1f}s",
           worst_tv <= 1e-10 and worst_rel <= 1e-10 and elapsed < 300)


def test_criterion_03_moment_identities():
    ok = True
    worst = 0.0
    for n in (10, 100, 1000):
        params = ChainParams(n, n // 4)
        for x0 in (0, n // 4, n // 2):
            for t in range(31):
                for lhs, rhs in verify_moment_identities(params, x0, t):
                    err = abs(lhs - rhs)
                    if abs(rhs) < 1e-6:
                        ok = ok and err <= 1e-12
                    else:
                        err /= max(abs(lhs), abs(rhs))
                        ok = ok and err <= 1e-9
                    worst = max(worst, err)
    report(3, f"first/second moment closed forms, worst error {worst:.2e}", ok)


def test_criterion_04_coupling_marginal_oracle():
    n, k = 5, 2
    ok = True
    for x in range(n + 1):
        for y in range(n + 1):
            joint = enum_coupled_joint(n, k, x, y)
            ok = ok and all(abs(xp - yp) <= abs(x - y) for xp, yp in joint)
            mx, my = marginals(joint)
            ok = ok and mx == enum_transition_row(n, k, x)
            ok = ok and my == enum_transition_row(n, k, y)
            for j, w in mx.items():
                ok = ok and abs(float(w)
                                - transition_row(ChainParams(n, k), x).prob(j)) <= 1e-12
    report(4, "coupled step at n=5, k=2: exact marginals and contraction "
              "over all 100 selection pairs", ok)


def test_criterion_05_coalescence_bound():
    start = time.monotonic()
    n = 200
    params = ChainParams(n, 50)
    ok = True
    sched = make_schedule(n, 50, 0.25)
    radii = (1.0, float(math.floor(math.sqrt(n) / math.log(math.log(n)))))
    for stream, r in enumerate(radii):
        spec = StoppingSpec(StoppingKind.TAU_COUPLE, sched, r=r)
        est = stopping_tail(params, spec, 0, n, 100_000,
                            RngStream(2026, stream), horizon=30)
        ok = ok and np.all(est.empirical_survival
                           <= est.theoretical_bound + 3 * est.ci_halfwidth)
    elapsed = time.monotonic() - start
    report(5, f"coalescence survival under the geometric bound for "
              f"r in {radii}, {elapsed:.1f}s", ok and elapsed < 120)


def test_criterion_06_cutoff_bracket():
    start = time.monotonic()
    lam = 0.25
    ok = True
    diagnostics = []
    for n in (250, 500, 1000, 2000):
        k = math.floor(lam * n)
        sched = make_schedule(n, k, lam)
        horizon = math.ceil(sched.t_n + 3 * sched.s_n + 10)
        prof = distance_profile(ChainParams(n, k), horizon,
                                StartPolicy.STATE_ZERO)
        for eps in (0.25, 0.75):
            tm = t_mix(prof, eps)
            lo = sched.t_n - lower_bound_offset(eps, lam)
            hi = sched.t_n + 3 * sched.s_n + 1
            ok = ok and lo <= tm <= hi
        diagnostics.append((t_mix(prof, 0.25) - t_mix(prof, 0.75))
                           / t_mix(prof, 0.5))
    ok = ok and all(a >= b - 1e-12 for a, b in zip(diagnostics, diagnostics[1:]))
    elapsed = time.monotonic() - start
    report(6, f"mixing times inside the predicted bracket, sharpening "
              f"diagnostic {['%.3f' % d for d in diagnostics]}, {elapsed:.1f}s",
           ok and elapsed < 1200)


def test_criterion_07_lower_bound_certificate():
    sched = make_schedule(10**6, 250_000, 0.25)
    t_big = math.floor(sched.t_n) - 8
    cert = lower_bound_certificate(ChainParams(10**6, 250_000), t_big)
    ok = cert >= 0.9
    params = ChainParams(2000, 500)
    exact = distance_profile(params, 15, StartPolicy.STATE_ZERO)
    assert exact.lost_mass == 0.0  # untrimmed: d(t) is the TV distance
    for t in range(16):
        ok = ok and lower_bound_certificate(params, t) <= exact.d_values[t] + 1e-12
    report(7, f"certificate {cert:.5f} >= 0.9 at n=1e6 and sound against "
              "the exact profile at n=2000", ok)


def test_criterion_08_surrogate_tv_rate():
    # The leading Edgeworth term of the hypergeometric law is proportional to
    # (1-2p)(1-2f)/sigma: at ell = n/4 it is present and TV ~ n^(-1/2); at
    # ell = n/2 (p = 1/2) it vanishes and TV ~ n^(-1).
    start = time.monotonic()
    ns = np.array([10**2, 10**3, 10**4, 10**5], dtype=np.float64)
    ok, parts = True, []
    for label, ell_div, power, lo, hi in (("ell=n/4", 4, 0.5, -0.75, -0.40),
                                          ("ell=n/2", 2, 1.0, -1.25, -0.75)):
        tvs = np.array([hyper_vs_dnormal_tv(int(n), int(n) // 4,
                                            int(n) // ell_div) for n in ns])
        slope = np.polyfit(np.log(ns), np.log(tvs), 1)[0]
        scaled = tvs * ns ** power
        ratio = scaled.max() / scaled.min()
        good = lo <= slope <= hi and ratio < 3
        ok = ok and good
        parts.append(f"{label} {'ok' if good else 'BROKEN'}: slope {slope:.3f} "
                     f"in [{lo:.2f}, {hi:.2f}] and n^{power:g}-scaled ratio "
                     f"{ratio:.2f} < 3")
    elapsed = time.monotonic() - start
    report(8, f"surrogate TV rate: {'; '.join(parts)}, {elapsed:.1f}s",
           ok and elapsed < 120)


def test_criterion_09_normalization_constant():
    worst = max(abs(normalization_constant(ApproxParams(n, n // 4, n // 2)) - 1)
                * math.sqrt(n) for n in (10**2, 10**3, 10**4, 10**5))
    report(9, f"|norm const - 1|*sqrt(n) worst {worst:.2e} < 5", worst < 5.0)


def test_criterion_10_one_step_closure():
    totals, ok = [], True
    for n in (10**3, 10**4, 10**5):
        dec = one_step_tv(ChainParams(n, n // 4), n // 2,
                          n // 2 + math.floor(n ** 0.25))
        totals.append(dec.total_bound)
        if dec.exact_tv is not None:
            ok = ok and dec.exact_tv <= dec.total_bound + 1e-9
    ok = ok and all(b <= 0.9 * a for a, b in zip(totals, totals[1:]))
    report(10, "one-step TV bound decreases >=10% per decade: "
               f"{['%.3f' % v for v in totals]}", ok)


def test_criterion_11_determinism_across_threads(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(
        {"experiment": "coupling", "n": 120, "lambda": 0.25,
         "replicas": 20_000, "horizon": 10, "master_seed": 7,
         "output_dir": str(tmp_path)}))
    payloads = []  # 20,000 replicas make four chunks for the threads to share
    for threads in ("1", "7"):
        assert cli_main(["coupling", "--config", str(cfg),
                         "--threads", threads]) == 0
        name = [f for f in os.listdir(tmp_path) if f.endswith(".csv")]
        assert len(name) == 1
        payloads.append((tmp_path / name[0]).read_bytes())
    report(11, "identical CSV bytes across --threads 1 and 7",
           payloads[0] == payloads[1])
