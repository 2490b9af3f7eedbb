"""Experiment configuration, dispatch, and result emission.

Configs are JSON documents with strict field validation (unknown fields are
rejected).  Every emitted row carries a digest of the canonicalized config so
output files can be joined back to the run that produced them.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass, field, fields

# CPython's own SHA-256, which hashlib falls back to: hashlib's import loads
# OpenSSL's libcrypto, 3.5 MiB of memory for one 8-hex-digit digest
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256

from . import approx as _approx
from . import chain as _chain
from . import coupling as _coupling
from . import schedule as _schedule
from .chain import ChainParams, StartPolicy
from .coupling import StoppingKind, StoppingSpec
from .errors import (MAX_HORIZON, MAX_N, MAX_REPLICAS, ConfigError,
                     ParameterError)
from .rng import RngStream

EXPERIMENTS = ("profile", "mixtime", "coupling", "approx", "lowerbound",
               "schedule", "sweep")

_REQUIRED = object()  # default of a field the config must give


def _field(must: str, check, default=_REQUIRED, key=None, coerce=None):
    """Declare a config field: the JSON ``key`` (the attribute name unless
    given), the ``default`` (None makes the field optional), the ``check``
    every given value must pass, ``must`` saying what that check demands, and
    the ``coerce`` applied to the checked value."""
    return field(metadata={"must": must, "check": check, "default": default,
                           "key": key, "coerce": coerce})


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    """A JSON number that converts to a finite float."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def _one_of(*options) -> tuple:
    return f"one of {', '.join(options)}", lambda v: v in options


def _int_range(lo: int, hi: int) -> tuple:
    return (f"an integer from {lo} to {hi:,}",
            lambda v: _is_int(v) and lo <= v <= hi)


_NONNEGATIVE_INT = ("a nonnegative integer", lambda v: _is_int(v) and v >= 0)
_POSITIVE_INT = ("a positive integer", lambda v: _is_int(v) and v > 0)
_POSITIVE = ("a positive number", lambda v: _is_number(v) and v > 0)


def _unique_grid(grid: list) -> tuple[int, ...]:
    kept: list[int] = []
    for n in grid:
        if n in kept:
            warnings.warn(f"duplicate n={n} in n_grid dropped")
        else:
            kept.append(n)
    return tuple(kept)


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated experiment config.  Each field is declared once, with its
    JSON key, default and check; ``parse_config`` works from these."""

    experiment: str = _field(*_one_of(*EXPERIMENTS))
    lam: float = _field(
        "a number in the open interval (0, 1/2): the swap fraction limit is "
        "required to stay strictly below 1/2",
        lambda v: _is_number(v) and 0.0 < v < 0.5, key="lambda", coerce=float)
    # a config gives either n (a one-entry grid) or n_grid
    n_grid: tuple[int, ...] = _field(
        "a non-empty list of integers from 1 to 2**53 (n: one such integer)",
        lambda v: (isinstance(v, list) and len(v) > 0
                   and all(_is_int(n) and 0 < n <= MAX_N for n in v)),
        coerce=_unique_grid)
    k_rule: str = _field(*_one_of("floor_lambda_n", "explicit"),
                         default="floor_lambda_n")
    k: int | None = _field(*_NONNEGATIVE_INT, default=None)
    epsilons: tuple[float, ...] = _field(
        "a non-empty list of numbers inside (0, 1)",
        lambda v: (isinstance(v, list) and len(v) > 0
                   and all(_is_number(e) and 0 < e < 1 for e in v)),
        default=[0.25, 0.5, 0.75], coerce=lambda v: tuple(map(float, v)))
    replicas: int = _field(*_int_range(1, MAX_REPLICAS), default=10_000)
    master_seed: int = _field("an integer", _is_int, default=12345)
    horizon: int | None = _field(*_int_range(0, MAX_HORIZON), default=None)
    output_dir: str = _field("a string", lambda v: isinstance(v, str),
                             default=".")
    kappa1: float = _field(*_POSITIVE, default=10.0, coerce=float)
    kappa3: float = _field(*_POSITIVE, default=10.0, coerce=float)
    kappa4: float = _field(*_POSITIVE, default=10.0, coerce=float)
    start_policy: str = _field(*_one_of("auto", *(p.value for p in StartPolicy)),
                               default="auto")
    kind: str = _field(*_one_of(*(m.value for m in StoppingKind)),
                       default="tau_couple")
    r: float = _field(*_POSITIVE, default=1.0, coerce=float)
    x0: int | None = _field(*_NONNEGATIVE_INT, default=None)
    y0: int | None = _field(*_NONNEGATIVE_INT, default=None)
    ell: int | None = _field(*_POSITIVE_INT, default=None)

    def canonical(self) -> dict:
        # output_dir is excluded: the digest identifies the computation, and
        # the same run written to two places must join on one digest.
        d = {k: v for k, v in self.__dict__.items() if k != "output_dir"}
        d["n_grid"] = list(self.n_grid)
        d["epsilons"] = list(self.epsilons)
        return d

    @property
    def digest(self) -> str:
        blob = json.dumps(self.canonical(), sort_keys=True, separators=(",", ":"))
        return sha256(blob.encode()).hexdigest()[:8]

    def k_for(self, n: int) -> int:
        if self.k_rule == "explicit":
            return self.k
        return _schedule.floor_k(n, self.lam)


def _unique_keys(pairs: list) -> dict:
    """A JSON object's members as a dict, refusing a repeated key, which
    json.loads would otherwise resolve silently to its last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"config repeats the field {key!r}")
        obj[key] = value
    return obj


def parse_config(text: str, experiment: str | None = None) -> ExperimentConfig:
    """Validate a JSON config document; unknown and repeated fields are hard
    errors, and so is an ``experiment`` other than the given one."""
    try:
        raw = json.loads(text, object_pairs_hook=_unique_keys)
    except ValueError as exc:  # a JSONDecodeError, or too many digits
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError("config nests too deeply to decode") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    if "n" in raw:
        if "n_grid" in raw:
            raise ConfigError("give either n or n_grid, not both")
        raw["n_grid"] = [raw.pop("n")]
    if experiment:
        # the command names the experiment: a config naming another one,
        # or a malformed one, is refused rather than overridden
        given = raw.setdefault("experiment", experiment)
        if given != experiment:
            named = repr(given) if given in EXPERIMENTS else "malformed"
            raise ConfigError(f"config's experiment is {named}, but the "
                              f"command runs {experiment!r}")
    specs = {f.metadata["key"] or f.name: f for f in fields(ExperimentConfig)}
    unknown = sorted(set(raw) - set(specs))
    if unknown:
        raise ConfigError(f"unknown config fields: {', '.join(unknown)}")

    values = {}
    for key, f in specs.items():
        spec = f.metadata
        value = raw.get(key, spec["default"])
        if value is _REQUIRED:
            raise ConfigError(f"{key} is required: {spec['must']}")
        if value is None and spec["default"] is None:
            values[f.name] = None
            continue
        if not spec["check"](value):
            raise ConfigError(f"{key} must be {spec['must']}, got {value!r}")
        values[f.name] = spec["coerce"](value) if spec["coerce"] else value
    # a k the rule would not use is refused, not silently replaced
    if (values["k_rule"] == "explicit") != (values["k"] is not None):
        raise ConfigError("k is required with k_rule=explicit and refused "
                          "without it")
    config = ExperimentConfig(**values)
    for n in config.n_grid:
        # k = 0 swaps nothing, so d(t) never falls and every horizon is
        # walked to its end
        if config.k_for(n) == 0:
            raise ConfigError(
                f"k is 0 at n={n}, so the chain never moves: k must be at "
                "least 1 (floor(lambda*n) is 0 when lambda < 1/n)")
    return config


@dataclass(frozen=True)
class ResultRecord:
    experiment: str
    config_digest: str
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]


def lower_bound_offset(epsilon: float, lam: float) -> float:
    """Number of steps before the mixing location at which the certificate
    still certifies distance 1 - epsilon."""
    return ((math.log(math.sqrt(3) + 100) - 0.5 * math.log(epsilon))
            / abs(math.log(1 - 2 * lam)))


def _horizon(config: ExperimentConfig, sched: _schedule.Schedule,
             length=lambda s: s.window_end) -> int:
    """The configured horizon, or else ``length`` of the schedule (by
    default the end of the cutoff window) rounded up.  An explicit k with
    0 < k/n < 1/2 is timed by its own swap fraction k/n, not by lambda; only
    the horizon is, so bands and thresholds keep lambda's schedule.  A
    default above MAX_HORIZON is refused: a tiny swap fraction stretches t_n
    and s_n without bound."""
    if config.horizon is not None:
        return config.horizon
    if config.k_rule == "explicit" and 0 < 2 * sched.k < sched.n:
        sched = _schedule.make_schedule(sched.n, sched.k, sched.k / sched.n)
    horizon = math.ceil(length(sched))
    if horizon > MAX_HORIZON:
        raise ParameterError(
            f"the schedule sets a horizon of {horizon} steps, above "
            f"{MAX_HORIZON:,}: the swap fraction is too small (give a "
            "horizon)")
    return horizon


def _profile(config, n, k, sched) -> _chain.MixingProfile:
    """d(t) to 10 steps past the cutoff window, from every state under the
    ``auto`` policy at n <= 512 and from state 0 above it."""
    policy = config.start_policy
    if policy == "auto":
        policy = "all_states" if n <= 512 else "state_zero"
    horizon = _horizon(config, sched, lambda s: s.window_end + 10)
    return _chain.distance_profile(ChainParams(n, k), horizon,
                                   StartPolicy(policy))


def _mix_times(config, n, k, sched):
    """(epsilon, t_mix(epsilon), t_mix(1 - epsilon)) for each epsilon."""
    prof = _profile(config, n, k, sched)
    for eps in config.epsilons:
        yield eps, _chain.t_mix(prof, eps), _chain.t_mix(prof, 1.0 - eps)


def _schedule_rows(config, n, k, s, threads):
    yield s.n, s.k, s.lam, s.delta_n, s.t_n, s.s_n, s.p_lambda, s.r_n


def _profile_rows(config, n, k, sched, threads):
    prof = _profile(config, n, k, sched)
    for t, d in enumerate(prof.d_values):
        yield (n, k, config.lam, t, float(d), prof.start_policy.value,
               prof.lost_mass)


def _mixtime_rows(config, n, k, sched, threads):
    for eps, tm, tm_c in _mix_times(config, n, k, sched):
        c_eps = lower_bound_offset(eps, config.lam)
        yield (n, k, config.lam, eps, tm, tm_c, sched.t_n, sched.s_n, c_eps,
               tm >= sched.t_n - c_eps, tm <= sched.window_end + 1)


def _sweep_rows(config, n, k, sched, threads):
    for eps, tm, tm_c in _mix_times(config, n, k, sched):
        yield (n, k, config.lam, eps, tm, tm_c,
               tm / tm_c if tm_c > 0 else None)


def _coupling_rows(config, n, k, sched, threads):
    # tau_couple has no band, so any positive kappa serves it
    kappa = {"tau1": config.kappa1, "tau3": config.kappa3,
             "tau4": config.kappa4}.get(config.kind, 10.0)
    spec = StoppingSpec(StoppingKind(config.kind), sched, kappa, config.r)
    horizon = _horizon(config, sched, lambda s: _coupling.default_horizon(
        dataclasses.replace(spec, schedule=s)))
    x0 = config.x0 if config.x0 is not None else 0
    y0 = config.y0 if config.y0 is not None else n
    est = _coupling.stopping_tail(ChainParams(n, k), spec, x0, y0,
                                  config.replicas,
                                  RngStream(config.master_seed, 1), horizon,
                                  threads)
    for t, surv, halfwidth, bound in zip(
            est.t_grid, est.empirical_survival, est.ci_halfwidth,
            est.theoretical_bound):
        yield (n, k, config.kind, int(t), float(surv), float(halfwidth),
               float(bound))


def _approx_rows(config, n, k, sched, threads):
    ell = config.ell if config.ell is not None else n // 2
    x0 = config.x0 if config.x0 is not None else n // 2
    y0 = config.y0 if config.y0 is not None else n // 2 + int(n ** 0.25)
    dec = _approx.one_step_tv(ChainParams(n, k), x0, y0)
    yield (n, k, ell, x0, y0, _approx.hyper_vs_dnormal_tv(n, k, ell),
           _approx.normalization_constant(_approx.ApproxParams(n, k, ell)),
           dec.shift_term, dec.center_term, dec.total_bound, dec.exact_tv)


def _lowerbound_rows(config, n, k, sched, threads):
    params = ChainParams(n, k)
    for t in range(_horizon(config, sched) + 1):
        yield n, k, config.lam, t, _chain.lower_bound_certificate(params, t)


# each experiment's columns, and the function yielding its rows at one n
# from (config, n, k, schedule, threads)
_TABLE = {
    "schedule": (("n", "k", "lambda", "delta_n", "t_n", "s_n", "p_lambda",
                  "r_n"), _schedule_rows),
    "profile": (("n", "k", "lambda", "t", "d_of_t", "start_policy",
                 "lost_mass"), _profile_rows),
    "mixtime": (("n", "k", "lambda", "epsilon", "t_mix", "t_mix_complement",
                 "t_n", "s_n", "c_eps", "lower_ok", "upper_ok"),
                _mixtime_rows),
    "sweep": (("n", "k", "lambda", "epsilon", "t_mix_eps", "t_mix_complement",
               "cutoff_ratio"), _sweep_rows),
    "coupling": (("n", "k", "kind", "t", "empirical_survival", "ci_halfwidth",
                  "theoretical_bound"), _coupling_rows),
    "approx": (("n", "k", "ell", "x0", "y0", "tv_hyper_dn", "norm_const",
                "shift_term", "center_term", "total_bound", "exact_tv"),
               _approx_rows),
    "lowerbound": (("n", "k", "lambda", "t", "certified_bound"),
                   _lowerbound_rows),
}


def run(config: ExperimentConfig, threads: int | None = None) -> ResultRecord:
    """Execute the configured experiment.  ``threads`` sets the worker
    threads of the coupling Monte Carlo (default: the CPUs available); it is
    not part of the config, since the results do not depend on it."""
    columns, rows_at = _TABLE[config.experiment]
    digest = config.digest
    rows = []
    for n in config.n_grid:
        k = config.k_for(n)
        # approx is not timed by lambda, which only sets its k, so it takes
        # no schedule: make_schedule refuses a lambda so small that
        # 1 - 2 lambda rounds to 1
        sched = (None if config.experiment == "approx"
                 else _schedule.make_schedule(n, k, config.lam))
        rows.extend(row + (digest,)
                    for row in rows_at(config, n, k, sched, threads))
    return ResultRecord(config.experiment, digest,
                        columns + ("config_digest",), tuple(rows))


def format_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _sniff(text: str):
    if text == "":
        return None
    if text in ("true", "false"):
        return text == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def render_csv(record: ResultRecord) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
    writer.writerow(record.columns)
    for row in record.rows:
        writer.writerow([format_value(v) for v in row])
    return buf.getvalue()


def render_json(record: ResultRecord) -> str:
    objs = [
        {c: (_sniff(format_value(v)) if isinstance(v, float) else v)
         for c, v in zip(record.columns, row)}
        for row in record.rows
    ]
    return json.dumps(objs, indent=1)


def emit(record: ResultRecord, output_dir) -> list[str]:
    """Write the record as CSV and as JSON, each file named by experiment
    and digest."""
    paths = []
    for fmt, render in (("csv", render_csv), ("json", render_json)):
        path = os.path.join(output_dir,
                            f"{record.experiment}-{record.config_digest}.{fmt}")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(render(record))
        paths.append(path)
    return paths
