"""Workload definitions: the CLI invocations one workload iteration makes.

Each workload is a list of ``(experiment, config)`` pairs.  One iteration runs
every pair in order, each in a fresh ``blmix`` process, so the row cache is
cold and every process pays its own import.  The workload seed reaches the
program only through the CLI's ``--seed`` flag; the configs carry no seed.
"""

from __future__ import annotations

LAM = 0.25
ANALYTIC_GRID = [1000, 10_000, 100_000, 1_000_000]

WORKLOADS: dict[str, list[tuple[str, dict]]] = {
    # Dense-kernel path: every row built once, no reuse; time is the D @ P
    # matmul on BLAS.  n = 512 is the largest size `auto` sends here.
    "worst-start": [
        ("profile", {"lambda": LAM, "n_grid": [512, 1024],
                     "start_policy": "all_states"}),
    ],
    # Single-start sparse path: trimmed rows, heavy row reuse, convolution-
    # and evolve-bound.
    "zero-start": [
        ("profile", {"lambda": LAM, "n_grid": [10_000, 20_000],
                     "start_policy": "state_zero"}),
    ],
    # Monte Carlo path: never touches the pmf/chain kernels, so a kernel
    # change must show no effect here.
    "coupling": [
        ("coupling", {"lambda": LAM, "n_grid": [1_000_000],
                      "kind": "tau_couple", "replicas": 100_000}),
    ],
    # Closed forms and approximations: set-up dominated; the only workload
    # running approx, lower_bound_certificate and untrimmed full-width rows.
    "analytic": [
        ("schedule", {"lambda": LAM, "n_grid": ANALYTIC_GRID}),
        ("lowerbound", {"lambda": LAM, "n_grid": ANALYTIC_GRID}),
        ("approx", {"lambda": LAM, "n_grid": [1000, 2000, 5000, 10_000]}),
    ],
}

# Seed the reference outputs were generated with (coupling is the only
# workload whose output depends on it).
REFERENCE_SEED = 0
