"""One measured blmix process: import the CLI, parse the workload's config,
then call ``blmix.cli.main`` as a user's ``blmix`` command would.

    python3 child.py SPEC_JSON

SPEC_JSON keys: ``src`` (directory holding the blmix package), ``experiment``,
``config``, ``out``, ``seed``, ``record`` (where to write timings),
``trace`` (spans file, or null for an untraced run), ``setup_only`` and
``env`` (also record library versions).  Timestamps are ``perf_counter``
readings, which share the system-wide monotonic clock with the parent.
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))


def _blas_info() -> dict:
    """Name, version and thread count of the BLAS numpy loaded."""
    import ctypes
    import glob

    import numpy

    cfg = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": cfg.get("name"), "version": cfg.get("version"),
            "threads": None}
    libdir = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)),
                          "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))) + [None]:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def _environment() -> dict:
    import platform

    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": _blas_info()}


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = os.path.abspath(spec["src"])
    # the package under test first; this directory's modules stay hidden
    sys.path[:] = [src] + [p for p in sys.path
                           if os.path.abspath(p or os.curdir) != HERE]
    t_import0 = time.perf_counter()
    import blmix.cli
    import blmix.config
    t_import1 = time.perf_counter()
    if not os.path.abspath(blmix.cli.__file__).startswith(src + os.sep):
        print(f"blmix imported from {blmix.cli.__file__}, not {src}",
              file=sys.stderr)
        return 97

    tracer = None
    if spec["trace"]:
        sys.path.append(HERE)
        from spans import LAYERS, Tracer

        tracer = Tracer()
        tracer.install({layer: sys.modules[f"blmix.{layer}"] for layer in LAYERS})
        tracer.calibrate()
    with open(spec["config"], encoding="utf-8") as fh:
        blmix.config.parse_config(fh.read(), experiment=spec["experiment"])
    t_setup = time.perf_counter()

    rc = 0
    t_main0 = t_main1 = t_setup
    if not spec["setup_only"]:
        t_main0 = time.perf_counter()
        rc = blmix.cli.main([spec["experiment"], "--config", spec["config"],
                             "--output-dir", spec["out"],
                             "--seed", str(spec["seed"])])
        t_main1 = time.perf_counter()

    record = {"t_start": T_START, "import_s": t_import1 - t_import0,
              "t_setup": t_setup, "t_main0": t_main0, "t_main1": t_main1,
              "rc": rc}
    if spec["env"]:
        record["env"] = _environment()
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(spec["trace"])
    with open(spec["record"], "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
