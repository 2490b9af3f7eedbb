"""Run every workload several times and summarise, optionally appending the
result to the trajectory.

    python3 perfbench/record.py [--runs 10] [--traced] [--append LABEL]

Each run is a separate ``run.py`` process with BENCHMARK.json's run length
and its own seed (1000, 1001, ...), as the benchmark is run for a change's
before/after comparison.  Runs go round-robin over all workloads so slow
drift on the machine hits all of them alike.  For each end-to-end metric the
table shows the median of the runs' values and their spread: the distance
between the first and third quartile as a share of the median, against the
metric's bound in BENCHMARK.json.  ``--traced`` adds one traced run per
workload.  ``--append`` writes the summary as one line of
``trajectory.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

import run

TRAJECTORY = os.path.join(run.HERE, "trajectory.jsonl")
FIRST_SEED = 1000


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    stamp = next(line[2:] for line in lines if line.startswith("# src_sha256="))
    return {"result": json.loads(lines[-1]), "stamp": stamp}


def main(argv=None) -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--append", metavar="LABEL")
    args = parser.parse_args(argv)

    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {w: {m: [] for m in bounds} for w in workloads}
    counts = {w: [0, 0] for w in workloads}
    stamp = None
    for i in range(args.runs):
        for w in workloads:
            out = _run(w, FIRST_SEED + i, seconds, 0)
            stamp = out["stamp"]
            res = out["result"]
            counts[w][0] += res["attempted"]
            counts[w][1] += res["failed"]
            for m in bounds:
                values[w][m].append(res["metrics"][m]["value"])
            print(f"run {i} {w}: " + " ".join(
                f"{m}={res['metrics'][m]['value']:.4g}" for m in bounds)
                + f" failed={res['failed']}/{res['attempted']}", flush=True)

    summary = {}
    steady = True
    print(f"\n{'workload':12s} {'metric':12s} {'median':>10s} {'q1':>10s} "
          f"{'q3':>10s} {'spread':>8s} {'bound':>6s}")
    for w in workloads:
        summary[w] = {"e2e": {}, "attempted": counts[w][0],
                      "failed": counts[w][1]}
        for m, bound in bounds.items():
            s = run._summary(values[w][m])
            s["spread"] = (s["q3"] - s["q1"]) / s["median"]
            summary[w]["e2e"][m] = s
            wide = s["spread"] >= bound / 3
            steady = steady and not wide
            print(f"{w:12s} {m:12s} {s['median']:10.4g} {s['q1']:10.4g} "
                  f"{s['q3']:10.4g} {s['spread']:8.3%} {bound:6.2f}"
                  + ("  WIDE" if wide else ""))
        print(f"{w:12s} {'failed_frac':12s} "
              f"{counts[w][1] / max(counts[w][0], 1):10.4g}")

    if args.traced:
        for w in workloads:
            res = _run(w, FIRST_SEED, seconds, 1)["result"]
            summary[w]["per_layer"] = {m: v["value"]
                                       for m, v in res["metrics"].items()}
            print(f"traced {w}: solve={res['metrics']['trace.solve_s']['value']:.4g} "
                  f"wrapper={res['metrics']['trace.wrapper_s']['value']:.4g} "
                  f"overhead={res['metrics']['trace.overhead_s']['value']:.4g}")

    if args.append:
        entry = {"label": args.append,
                 "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
                 "stamp": stamp, "runs": args.runs, "first_seed": FIRST_SEED,
                 "seconds": seconds, "workloads": summary}
        with open(TRAJECTORY, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(entry) + "\n")
    print("steady" if steady else "not steady: a spread is at or above a "
          "third of its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
