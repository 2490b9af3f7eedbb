"""Write the reference outputs the correctness gate compares against.

    python3 perfbench/make_reference.py

Run once, on the commit whose outputs define "correct"; the files it writes
under ``perfbench/reference/`` are committed with the benchmark.  For each
workload invocation it stores the CLI's CSV payload (coupling with
``--seed REFERENCE_SEED``), and for the profile workloads the moment-based
lower-bound certificate lb(n, t) on the same (n, t) grid.
"""

from __future__ import annotations

import csv
import glob
import io
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import blmix.cli  # noqa: E402
from blmix.chain import ChainParams, lower_bound_certificate  # noqa: E402
from checks import REFERENCE_DIR  # noqa: E402
from workloads import REFERENCE_SEED, WORKLOADS  # noqa: E402


def main() -> int:
    certificate = []
    for workload, invocations in WORKLOADS.items():
        dest = os.path.join(REFERENCE_DIR, workload)
        os.makedirs(dest, exist_ok=True)
        for experiment, config in invocations:
            os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
            tmp = tempfile.mkdtemp(dir=os.path.join(HERE, "out"))
            try:
                cfg = os.path.join(tmp, "config.json")
                with open(cfg, "w", encoding="utf-8") as fh:
                    json.dump(config, fh)
                rc = blmix.cli.main([experiment, "--config", cfg,
                                     "--output-dir", tmp,
                                     "--seed", str(REFERENCE_SEED)])
                if rc != 0:
                    raise SystemExit(f"{workload}/{experiment} exited {rc}")
                (out,) = glob.glob(os.path.join(tmp, f"{experiment}-*.csv"))
                shutil.copy(out, os.path.join(dest, f"{experiment}.csv"))
                if experiment == "profile":
                    with open(out, encoding="utf-8") as fh:
                        for row in csv.DictReader(fh):
                            n, k, t = int(row["n"]), int(row["k"]), int(row["t"])
                            certificate.append(
                                (n, t, lower_bound_certificate(ChainParams(n, k), t)))
            finally:
                shutil.rmtree(tmp)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("n", "t", "certified_bound"))
    writer.writerows((n, t, repr(lb)) for n, t, lb in certificate)
    with open(os.path.join(REFERENCE_DIR, "certificate.csv"), "w",
              encoding="utf-8") as fh:
        fh.write(buf.getvalue())
    return 0


if __name__ == "__main__":
    sys.exit(main())
