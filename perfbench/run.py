"""Out-of-process benchmark of the blmix CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see ``workloads.py``) as a user does: every CLI
invocation is a fresh process (cold row cache), one after another (closed
loop, one client).  Iterations start until ``--seconds`` have passed, and
the one in flight finishes, so every iteration shorter than ``--seconds`` is
followed by at least one more.  Each iteration's outputs are checked
against the stored references (``checks.py``); a failed check or a non-zero
exit counts in ``failed``.

``--trace 0`` reports the end-to-end metrics as medians over the iterations
that passed.  ``--trace 1`` alternates untraced and traced iterations and
reports the per-layer metrics of the traced ones (``spans.py``) plus the
tracing overhead.  The last line of standard output is one JSON object;
the lines before it are a readable table.  A fuller record, with per-
iteration samples, payload digests and version stamps, goes to
``perfbench/out/results/``.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
CHILD = os.path.join(HERE, "child.py")

sys.path.insert(0, HERE)
import checks  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HARD_LIMIT_S = 170.0   # every child is killed by then, so the run ends in time
SETUP_SAMPLES = 5      # set-up measurements per run, topped up by probes

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("solve_s", "s"),
              ("cpu_s", "s"), ("peak_rss_mb", "MiB"))


def _src_digest() -> str:
    """sha256 over the package sources: identifies the measured code in any
    checkout, git repository or not."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "blmix", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Run:
    """State of one benchmark run: its work directory and deadline."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.invocations = WORKLOADS[workload]
        self.started = time.perf_counter()
        os.makedirs(OUT, exist_ok=True)
        self.work = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
        self.env = {k: v for k, v in os.environ.items() if k != "BLMIX_SEED"}
        self.configs = []
        for experiment, config in self.invocations:
            path = os.path.join(self.work, f"{experiment}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(config, fh)
            self.configs.append(path)
        self.count = 0
        self.last_stderr = ""

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def _spawn(self, spec: dict) -> dict:
        """Run one child to completion; wall, CPU and peak RSS of exactly
        that child come from wait4."""
        err_path = os.path.join(self.work, "stderr.txt")
        remaining = HARD_LIMIT_S - (time.perf_counter() - self.started)
        with open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, CHILD, json.dumps(spec)],
                                    stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err,
                                    cwd=self.work, env=self.env)
            killer = threading.Timer(max(remaining, 1.0), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            t1 = time.perf_counter()
            proc.returncode = os.waitstatus_to_exitcode(status)
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        if proc.returncode != 0:
            self.last_stderr = stderr[-2000:]
        record = None
        if os.path.isfile(spec["record"]):
            with open(spec["record"], encoding="utf-8") as fh:
                record = json.load(fh)
        return {"t0": t0, "wall": t1 - t0, "rc": proc.returncode,
                "cpu": usage.ru_utime + usage.ru_stime,
                "rss_mb": usage.ru_maxrss / 1024.0, "record": record}

    def once(self, setup_only: bool = False, trace: bool = False,
             env: bool = False) -> dict:
        """One pass over the workload's invocations, each in its own process;
        the result sums times over them and takes the largest RSS."""
        self.count += 1
        it = {"ok": True, "problems": [], "wall_s": 0.0, "setup_s": 0.0,
              "solve_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0,
              "import_s": 0.0, "lost_mass": 0.0, "sha256": {}, "spans": []}
        for (experiment, _), config in zip(self.invocations, self.configs):
            tag = f"{self.count}-{experiment}"
            out = os.path.join(self.work, tag)
            os.makedirs(out)
            spec = {"src": SRC, "experiment": experiment, "config": config,
                    "out": out, "seed": self.seed,
                    "record": os.path.join(self.work, f"{tag}.record.json"),
                    "trace": (os.path.join(self.work, f"{tag}.spans.json")
                              if trace else None),
                    "setup_only": setup_only, "env": env}
            res = self._spawn(spec)
            rec = res["record"]
            it["wall_s"] += res["wall"]
            it["cpu_s"] += res["cpu"]
            it["peak_rss_mb"] = max(it["peak_rss_mb"], res["rss_mb"])
            if res["rc"] != 0 or rec is None:
                it["ok"] = False
                it["problems"].extend(checks.check_invocation(
                    self.workload, experiment, res["rc"] or 1, None))
                continue
            it["setup_s"] += rec["t_setup"] - res["t0"]
            it["solve_s"] += rec["t_main1"] - rec["t_main0"]
            it["import_s"] += rec["import_s"]
            if env:
                it["env"] = rec.get("env")
            if trace:
                it["spans"].append(spec["trace"])
            if setup_only:
                os.rmdir(out)
                continue
            payloads = sorted(glob.glob(os.path.join(out, "*.*")))
            it["sha256"].update({os.path.basename(p): _sha256(p)
                                 for p in payloads})
            csv_path = next((p for p in payloads if p.endswith(".csv")), None)
            text = None
            if csv_path is not None:
                with open(csv_path, encoding="utf-8") as fh:
                    text = fh.read()
            problems = checks.check_invocation(self.workload, experiment,
                                               res["rc"], text)
            if problems:
                it["ok"] = False
                it["problems"].extend(problems)
            elif experiment == "profile":
                it["lost_mass"] = max(float(r["lost_mass"])
                                      for r in checks.parse_csv(text))
            shutil.rmtree(out, ignore_errors=True)
        return it

    def warm_up(self) -> dict | None:
        """Untimed set-up pass: fills the OS file cache and the bytecode
        cache, which users do not pay on every run, and stamps versions."""
        return self.once(setup_only=True, env=True).get("env")

    def out_of_time(self, loop_start: float, seconds: float, est: float) -> bool:
        """Whether the measuring window has passed, or a next step taking
        ``est`` would end after the hard limit."""
        now = time.perf_counter()
        return (now - loop_start >= seconds
                or now - self.started + est > HARD_LIMIT_S)


def _summary(values: list[float]) -> dict:
    if not values:
        return {"median": None, "q1": None, "q3": None, "n": 0}
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def measure(run: Run, seconds: float) -> dict:
    """Untraced iterations for ``seconds``, then set-up probes until
    SETUP_SAMPLES set-up times are in hand."""
    iterations, probes = [], []
    loop_start = time.perf_counter()
    while True:
        iterations.append(run.once())
        est = statistics.median(it["wall_s"] for it in iterations)
        if run.out_of_time(loop_start, seconds, est):
            break
    while len(iterations) + len(probes) < SETUP_SAMPLES:
        probes.append(run.once(setup_only=True))
    good = [it for it in iterations if it["ok"]]
    good_probes = [p for p in probes if p["ok"]]
    metrics = {name: _summary([it[name] for it in good])
               for name, _ in END_TO_END}
    metrics["setup_s"] = _summary([it["setup_s"] for it in good + good_probes])
    attempted = len(iterations) + len(probes)
    failed = attempted - len(good) - len(good_probes)
    return {"iterations": iterations, "probes": probes, "metrics": metrics,
            "attempted": attempted, "failed": failed, "usable": bool(good)}


def measure_traced(run: Run, seconds: float) -> dict:
    """Alternating untraced/traced iterations for ``seconds``; per-layer
    metrics are medians over the traced ones."""
    plain, traced = [], []
    loop_start = time.perf_counter()
    while True:
        plain.append(run.once())
        traced.append(run.once(trace=True))
        est = (statistics.median(it["wall_s"] for it in plain)
               + statistics.median(it["wall_s"] for it in traced))
        if run.out_of_time(loop_start, seconds, est):
            break
    good_plain = [it for it in plain if it["ok"]]
    good_traced = [it for it in traced if it["ok"]]
    per_iteration = []
    for it in good_traced:
        span_list, counters = spans.merge(it["spans"])
        m = spans.layer_metrics(span_list, counters)
        m["chain.lost_mass"] = it["lost_mass"]
        per_iteration.append(m)
    metrics = {}
    if per_iteration:
        for name in per_iteration[0]:
            metrics[name] = _summary([m[name] for m in per_iteration])
    metrics["cli.import_s"] = _summary(
        [it["import_s"] for it in good_plain + good_traced])
    if good_plain and good_traced:
        # Wall time after set-up, so the import's noise does not swamp it.
        overhead = (statistics.median(it["wall_s"] - it["setup_s"]
                                      for it in good_traced)
                    - statistics.median(it["wall_s"] - it["setup_s"]
                                        for it in good_plain))
        metrics["trace.overhead_s"] = _summary([overhead])
    if good_traced:  # keep the last traced iteration's spans to inspect
        keep = os.path.join(OUT, "spans")
        os.makedirs(keep, exist_ok=True)
        for path in good_traced[-1]["spans"]:
            shutil.copy(path, os.path.join(keep, f"{run.workload}-"
                                           + os.path.basename(path)))
    for it in plain + traced:
        it.pop("spans", None)
    attempted = len(plain) + len(traced)
    return {"iterations": plain + traced, "probes": [], "metrics": metrics,
            "attempted": attempted,
            "failed": attempted - len(good_plain) - len(good_traced),
            "usable": bool(good_plain and good_traced)}


def _fmt(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, int) or (isinstance(v, float) and v.is_integer()
                              and abs(v) >= 1e3):
        return f"{int(v)}"
    return f"{v:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not os.path.isfile(os.path.join(SRC, "blmix", "cli.py")):
        print(f"perfbench: no blmix sources under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    run = Run(args.workload, args.seed)
    try:
        env = run.warm_up()
        if args.trace:
            result = measure_traced(run, args.seconds)
        else:
            result = measure(run, args.seconds)
    finally:
        run.close()
    if not result["usable"]:
        print(f"perfbench: no iteration of {args.workload} succeeded\n"
              f"{run.last_stderr}", file=sys.stderr)
        return 1

    stamp = {"src_sha256": _src_digest(),
             "nproc": os.cpu_count(),
             "affinity": len(os.sched_getaffinity(0)), "env": env,
             "workload": args.workload, "seed": args.seed,
             "seconds": args.seconds, "trace": args.trace,
             "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}
    metrics = result["metrics"]
    if args.trace:
        rows = [(n, u, metrics[n]) for n, u in spans.PER_LAYER.items()]
    else:
        rows = [(n, u, metrics[n]) for n, u in END_TO_END]
    failed_frac = result["failed"] / result["attempted"]

    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    results_path = os.path.join(
        OUT, "results",
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(results_path, "w", encoding="utf-8") as fh:
        json.dump({"stamp": stamp, "metrics": metrics,
                   "failed_frac": failed_frac,
                   "attempted": result["attempted"], "failed": result["failed"],
                   "iterations": result["iterations"],
                   "probes": result["probes"]}, fh, indent=1)

    blas = (env or {}).get("blas") or {}
    print(f"# workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# src_sha256={stamp['src_sha256'][:16]} "
          f"nproc={stamp['nproc']} python={(env or {}).get('python')} "
          f"numpy={(env or {}).get('numpy')} scipy={(env or {}).get('scipy')} "
          f"blas={blas.get('name')} {blas.get('version')} "
          f"blas_threads={blas.get('threads')}")
    print(f"{'metric':40s} {'unit':6s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'n':>3s}")
    for name, unit, s in rows:
        print(f"{name:40s} {unit:6s} {_fmt(s['median']):>12s} "
              f"{_fmt(s['q1']):>12s} {_fmt(s['q3']):>12s} {s['n']:3d}")
    print(f"{'failed_frac':40s} {'ratio':6s} {failed_frac:12.6g} "
          f"{'':>12s} {'':>12s} {result['attempted']:3d}")
    for it in result["iterations"] + result["probes"]:
        for p in it["problems"]:
            print(f"# FAILED: {p}")
    print(f"# details: {os.path.relpath(results_path, ROOT)}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": s["median"], "unit": unit}
                    for name, unit, s in rows},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
