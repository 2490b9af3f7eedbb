"""Experiment configuration, dispatch, and result emission.

Configs are JSON documents with strict field validation (unknown fields are
rejected).  Every emitted row carries a digest of the canonicalized config so
output files can be joined back to the run that produced them.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import math
import sys
import warnings
from dataclasses import dataclass, field, fields

from . import approx as _approx
from . import chain as _chain
from . import coupling as _coupling
from . import schedule as _schedule
from .chain import ChainParams, StartPolicy
from .coupling import StoppingKind, StoppingSpec
from .errors import ConfigError, ParameterError
from .rng import RngStream

EXPERIMENTS = ("profile", "mixtime", "coupling", "approx", "lowerbound",
               "schedule", "sweep")

_REQUIRED = object()  # default of a field the config must give
# the largest sizes a config may ask for, so that the arrays they size stay
# allocatable: a double of d(t) or of survival per step, and about 120 bytes
# of coupling state per replica; and the largest n a double holds exactly,
# since lambda * n and the schedule are taken in floats
MAX_HORIZON = 10**6
MAX_REPLICAS = 10**7
MAX_N = 2**53


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
        return hashlib.sha256(blob.encode()).hexdigest()[:8]

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
    if values["k_rule"] == "explicit" and values["k"] is None:
        raise ConfigError("k_rule=explicit requires an integer k")
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
             length=lambda s: s.t_n + 3 * s.s_n) -> int:
    """The configured horizon, or else ``length`` of the schedule (by
    default the end of the cutoff window, t_n + 3 s_n) rounded up.  An
    explicit k with 0 < k/n < 1/2 is timed by its own swap fraction k/n, not
    by lambda; only the horizon is, so bands and thresholds keep lambda's
    schedule.  A default above MAX_HORIZON is refused: a tiny swap fraction
    stretches t_n and s_n without bound."""
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


def _resolve_policy(config: ExperimentConfig, n: int) -> StartPolicy:
    policy = config.start_policy
    if policy == "auto":
        policy = "all_states" if n <= 512 else "state_zero"
    return StartPolicy(policy)


def _profile_for(config: ExperimentConfig, n: int) -> tuple[int, _chain.MixingProfile]:
    k = config.k_for(n)
    sched = _schedule.make_schedule(n, k, config.lam)
    policy = _resolve_policy(config, n)
    horizon = _horizon(config, sched, lambda s: s.t_n + 3 * s.s_n + 10)
    return k, _chain.distance_profile(ChainParams(n, k), horizon, policy)


def _run_schedule(config, threads):
    rows = []
    for n in config.n_grid:
        s = _schedule.make_schedule(n, config.k_for(n), config.lam)
        rows.append((s.n, s.k, s.lam, s.delta_n, s.t_n, s.s_n, s.p_lambda, s.r_n))
    return ("n", "k", "lambda", "delta_n", "t_n", "s_n", "p_lambda", "r_n"), rows


def _run_profile(config, threads):
    rows = []
    for n in config.n_grid:
        k, prof = _profile_for(config, n)
        for t, d in enumerate(prof.d_values):
            rows.append((n, k, config.lam, t, float(d),
                         prof.start_policy.value, prof.lost_mass))
    return ("n", "k", "lambda", "t", "d_of_t", "start_policy", "lost_mass"), rows


def _run_mixtime(config, threads):
    rows = []
    for n in config.n_grid:
        k, prof = _profile_for(config, n)
        sched = _schedule.make_schedule(n, k, config.lam)
        for eps in config.epsilons:
            tm = _chain.t_mix(prof, eps)
            tm_c = _chain.t_mix(prof, 1.0 - eps)
            c_eps = lower_bound_offset(eps, config.lam)
            rows.append((n, k, config.lam, eps, tm, tm_c, sched.t_n, sched.s_n,
                         c_eps, tm >= sched.t_n - c_eps,
                         tm <= sched.t_n + 3 * sched.s_n + 1))
    return ("n", "k", "lambda", "epsilon", "t_mix", "t_mix_complement",
            "t_n", "s_n", "c_eps", "lower_ok", "upper_ok"), rows


def _run_sweep(config, threads):
    rows = []
    for n in config.n_grid:
        k, prof = _profile_for(config, n)
        for eps in config.epsilons:
            tm = _chain.t_mix(prof, eps)
            tm_c = _chain.t_mix(prof, 1.0 - eps)
            ratio = tm / tm_c if tm_c > 0 else None
            rows.append((n, k, config.lam, eps, tm, tm_c, ratio))
    return ("n", "k", "lambda", "epsilon", "t_mix_eps", "t_mix_complement",
            "cutoff_ratio"), rows


def _run_coupling(config, threads):
    rows = []
    for n in config.n_grid:
        k = config.k_for(n)
        params = ChainParams(n, k)
        sched = _schedule.make_schedule(n, k, config.lam)
        x0 = config.x0 if config.x0 is not None else 0
        y0 = config.y0 if config.y0 is not None else n
        # tau_couple has no band, so any positive kappa serves it
        kappa = {"tau1": config.kappa1, "tau3": config.kappa3,
                 "tau4": config.kappa4}.get(config.kind, 10.0)
        spec = StoppingSpec(StoppingKind(config.kind), sched, kappa, config.r)
        horizon = _horizon(config, sched, lambda s: _coupling.default_horizon(
            dataclasses.replace(spec, schedule=s)))
        est = _coupling.stopping_tail(params, spec, x0, y0, config.replicas,
                                      RngStream(config.master_seed, 1),
                                      horizon, threads)
        for i, t in enumerate(est.t_grid):
            rows.append((n, k, config.kind, int(t),
                         float(est.empirical_survival[i]),
                         float(est.ci_halfwidth[i]),
                         float(est.theoretical_bound[i])))
    return ("n", "k", "kind", "t", "empirical_survival", "ci_halfwidth",
            "theoretical_bound"), rows


def _run_approx(config, threads):
    rows = []
    for n in config.n_grid:
        k = config.k_for(n)
        ell = config.ell if config.ell is not None else n // 2
        x0 = config.x0 if config.x0 is not None else n // 2
        y0 = config.y0 if config.y0 is not None else n // 2 + int(n ** 0.25)
        ap = _approx.ApproxParams(n, k, ell)
        dec = _approx.one_step_tv(ChainParams(n, k), x0, y0)
        rows.append((n, k, ell, x0, y0,
                     _approx.hyper_vs_dnormal_tv(n, k, ell),
                     _approx.normalization_constant(ap),
                     dec.shift_term, dec.center_term, dec.total_bound,
                     dec.exact_tv))
    return ("n", "k", "ell", "x0", "y0", "tv_hyper_dn", "norm_const",
            "shift_term", "center_term", "total_bound", "exact_tv"), rows


def _run_lowerbound(config, threads):
    rows = []
    for n in config.n_grid:
        k = config.k_for(n)
        sched = _schedule.make_schedule(n, k, config.lam)
        params = ChainParams(n, k)
        for t in range(_horizon(config, sched) + 1):
            rows.append((n, k, config.lam, t,
                         _chain.lower_bound_certificate(params, t)))
    return ("n", "k", "lambda", "t", "certified_bound"), rows


_RUNNERS = {
    "schedule": _run_schedule,
    "profile": _run_profile,
    "mixtime": _run_mixtime,
    "sweep": _run_sweep,
    "coupling": _run_coupling,
    "approx": _run_approx,
    "lowerbound": _run_lowerbound,
}


def run(config: ExperimentConfig, threads: int | None = None) -> ResultRecord:
    """Execute the configured experiment.  ``threads`` sets the worker
    threads of the coupling Monte Carlo (default: the CPUs available); it is
    not part of the config, since the results do not depend on it."""
    columns, rows = _RUNNERS[config.experiment](config, threads)
    digest = config.digest
    columns = columns + ("config_digest",)
    rows = tuple(tuple(r) + (digest,) for r in rows)
    return ResultRecord(config.experiment, digest, columns, rows)


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


def parse_csv(text: str) -> ResultRecord:
    reader = csv.reader(io.StringIO(text))
    header = tuple(next(reader))
    rows = tuple(tuple(_sniff(v) for v in row) for row in reader)
    digest = rows[0][-1] if rows else ""
    return ResultRecord(experiment="", config_digest=str(digest),
                        columns=header, rows=rows)


def parse_json(text: str) -> ResultRecord:
    objs = json.loads(text)
    header = tuple(objs[0]) if objs else ()
    rows = tuple(tuple(o[c] for c in header) for o in objs)
    digest = rows[0][-1] if rows else ""
    return ResultRecord(experiment="", config_digest=str(digest),
                        columns=header, rows=rows)


def emit(record: ResultRecord, output_dir, formats=("csv", "json")) -> list[str]:
    """Write one file per requested format, named by experiment and digest."""
    import os

    paths = []
    renderers = {"csv": render_csv, "json": render_json}
    for fmt in formats:
        name = f"{record.experiment}-{record.config_digest}.{fmt}"
        path = os.path.join(output_dir, name)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(renderers[fmt](record))
        paths.append(path)
    return paths
