"""Experiment configuration, dispatch, and result emission.

Configs are JSON documents with strict field validation (unknown fields are
rejected).  Every emitted row carries a digest of the canonicalized config so
output files can be joined back to the run that produced them.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import warnings
from dataclasses import dataclass, field

from . import approx as _approx
from . import chain as _chain
from . import coupling as _coupling
from . import schedule as _schedule
from .chain import ChainParams, StartPolicy
from .coupling import StoppingKind, StoppingSpec
from .errors import ConfigError, InfeasibleSizeError
from .rng import RngStream

EXPERIMENTS = ("profile", "mixtime", "coupling", "approx", "lowerbound",
               "schedule", "sweep")

_DEFAULTS = {
    "k_rule": "floor_lambda_n",
    "epsilons": [0.25, 0.5, 0.75],
    "replicas": 10_000,
    "master_seed": 12345,
    "output_dir": ".",
    "kappa1": 10.0, "kappa2": 10.0, "kappa3": 10.0, "kappa4": 10.0,
    "start_policy": "auto",
    "kind": "tau_couple",
    "r": 1.0,
}

_KNOWN_FIELDS = frozenset(_DEFAULTS) | {
    "experiment", "n", "n_grid", "lambda", "k", "horizon", "x0", "y0", "ell",
}

# Exact-kernel guards: worst-case-start profiles need the full kernel; the
# from-zero shortcut scales further via truncated convolution.
ALL_STATES_GUARD = 4096
STATE_ZERO_GUARD = 100_000


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    lam: float
    n_grid: tuple[int, ...]
    k_rule: str
    k: int | None
    epsilons: tuple[float, ...]
    replicas: int
    master_seed: int
    horizon: int | None
    output_dir: str
    kappa1: float
    kappa2: float
    kappa3: float
    kappa4: float
    start_policy: str
    kind: str
    r: float
    x0: int | None
    y0: int | None
    ell: int | None

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
            return int(self.k)
        return _schedule.floor_k(n, self.lam)


def parse_config(text: str, experiment: str | None = None) -> ExperimentConfig:
    """Validate a JSON config document; unknown fields are hard errors."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = sorted(set(raw) - _KNOWN_FIELDS)
    if unknown:
        raise ConfigError(f"unknown config fields: {', '.join(unknown)}")

    merged = dict(_DEFAULTS)
    merged.update(raw)
    exp = experiment or merged.get("experiment")
    if exp not in EXPERIMENTS:
        raise ConfigError(f"experiment must be one of {EXPERIMENTS}, got {exp!r}")

    lam = merged.get("lambda")
    if not isinstance(lam, (int, float)) or not 0.0 < lam < 0.5:
        raise ConfigError(
            "lambda must lie in the open interval (0, 1/2): the swap fraction "
            f"limit is required to stay strictly below 1/2 (got {lam!r})")

    if "n" in merged and "n_grid" in merged:
        raise ConfigError("give either n or n_grid, not both")
    grid_raw = merged.get("n_grid", [merged["n"]] if "n" in merged else [])
    if not isinstance(grid_raw, list) or not grid_raw:
        raise ConfigError("n (or a non-empty n_grid) is required")
    grid: list[int] = []
    for n in grid_raw:
        if not isinstance(n, int) or n < 1:
            raise ConfigError(f"grid entries must be positive integers, got {n!r}")
        if n in grid:
            warnings.warn(f"duplicate n={n} in n_grid dropped")
        else:
            grid.append(n)

    eps = merged["epsilons"]
    if (not isinstance(eps, list) or not eps
            or any(not isinstance(e, (int, float)) or not 0 < e < 1 for e in eps)):
        raise ConfigError("epsilons must be a non-empty list inside (0, 1)")
    replicas = merged["replicas"]
    if not isinstance(replicas, int) or replicas < 1:
        raise ConfigError("replicas must be a positive integer")
    if merged["k_rule"] not in ("floor_lambda_n", "explicit"):
        raise ConfigError("k_rule must be floor_lambda_n or explicit")
    if merged["k_rule"] == "explicit" and not isinstance(merged.get("k"), int):
        raise ConfigError("k_rule=explicit requires an integer k")
    if merged["start_policy"] not in ("auto", "all_states", "state_zero"):
        raise ConfigError("start_policy must be auto, all_states or state_zero")
    if merged["kind"] not in [m.value for m in StoppingKind]:
        raise ConfigError(f"kind must be one of {[m.value for m in StoppingKind]}")
    for name in ("kappa1", "kappa2", "kappa3", "kappa4"):
        if not merged[name] > 0:
            raise ConfigError(f"{name} must be positive")
    horizon = merged.get("horizon")
    if horizon is not None and (isinstance(horizon, bool)
                                or not isinstance(horizon, int) or horizon < 0):
        raise ConfigError(f"horizon must be a nonnegative integer, got {horizon!r}")

    return ExperimentConfig(
        experiment=exp, lam=float(lam), n_grid=tuple(grid),
        k_rule=merged["k_rule"], k=merged.get("k"),
        epsilons=tuple(float(e) for e in eps), replicas=replicas,
        master_seed=int(merged["master_seed"]), horizon=horizon,
        output_dir=str(merged["output_dir"]),
        kappa1=float(merged["kappa1"]), kappa2=float(merged["kappa2"]),
        kappa3=float(merged["kappa3"]), kappa4=float(merged["kappa4"]),
        start_policy=merged["start_policy"], kind=merged["kind"],
        r=float(merged["r"]),
        x0=merged.get("x0"), y0=merged.get("y0"), ell=merged.get("ell"))


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


def _resolve_policy(config: ExperimentConfig, n: int) -> StartPolicy:
    policy = config.start_policy
    if policy == "auto":
        policy = "all_states" if n <= 512 else "state_zero"
    if policy == "all_states" and n > ALL_STATES_GUARD:
        raise InfeasibleSizeError(
            f"worst-case-start profile refused for n={n} > {ALL_STATES_GUARD}; "
            "use start_policy=state_zero or a Monte Carlo experiment")
    if policy == "state_zero" and n > STATE_ZERO_GUARD:
        raise InfeasibleSizeError(
            f"exact evolution refused for n={n} > {STATE_ZERO_GUARD}; "
            "use the coupling or lowerbound experiments at this size")
    return StartPolicy(policy)


def _default_profile_horizon(sched: _schedule.Schedule) -> int:
    return math.ceil(sched.t_n + 3 * sched.s_n + 10)


def _profile_for(config: ExperimentConfig, n: int) -> tuple[int, _chain.MixingProfile]:
    k = config.k_for(n)
    sched = _schedule.make_schedule(n, k, config.lam)
    horizon = (_default_profile_horizon(sched) if config.horizon is None
               else config.horizon)
    policy = _resolve_policy(config, n)
    return k, _chain.distance_profile(ChainParams(n, k), horizon, policy)


def _run_schedule(config):
    rows = []
    for n in config.n_grid:
        s = _schedule.make_schedule(n, config.k_for(n), config.lam)
        rows.append((s.n, s.k, s.lam, s.delta_n, s.t_n, s.s_n, s.p_lambda, s.r_n))
    return ("n", "k", "lambda", "delta_n", "t_n", "s_n", "p_lambda", "r_n"), rows


def _run_profile(config):
    rows = []
    for n in config.n_grid:
        k, prof = _profile_for(config, n)
        for t, d in enumerate(prof.d_values):
            rows.append((n, k, config.lam, t, float(d),
                         prof.start_policy.value, prof.lost_mass))
    return ("n", "k", "lambda", "t", "d_of_t", "start_policy", "lost_mass"), rows


def _run_mixtime(config):
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


def _run_sweep(config):
    rows = []
    for n in config.n_grid:
        k, prof = _profile_for(config, n)
        for eps in config.epsilons:
            tm = _chain.t_mix(prof, eps)
            tm_c = _chain.t_mix(prof, 1.0 - eps)
            ratio = tm / tm_c if tm_c > 0 else math.inf
            rows.append((n, k, config.lam, eps, tm, tm_c, ratio))
    return ("n", "k", "lambda", "epsilon", "t_mix_eps", "t_mix_complement",
            "cutoff_ratio"), rows


def _run_coupling(config):
    rows = []
    for n in config.n_grid:
        k = config.k_for(n)
        params = ChainParams(n, k)
        sched = _schedule.make_schedule(n, k, config.lam)
        x0 = config.x0 if config.x0 is not None else 0
        y0 = config.y0 if config.y0 is not None else n
        rng = RngStream(config.master_seed, 1)
        if config.kind == "tau_couple":
            horizon = (math.ceil(sched.t_n + 3 * sched.s_n)
                       if config.horizon is None else config.horizon)
            est = _coupling.survival_vs_bound(params, x0, y0, config.r,
                                              horizon, config.replicas, rng)
        else:
            kappa = {"tau1": config.kappa1, "tau3": config.kappa3,
                     "tau4": config.kappa4}[config.kind]
            spec = StoppingSpec(StoppingKind(config.kind), sched, kappa=kappa)
            est = _coupling.stopping_tail(params, spec, x0, y0,
                                          config.replicas, rng,
                                          horizon=config.horizon)
        for i, t in enumerate(est.t_grid):
            rows.append((n, k, config.kind, int(t),
                         float(est.empirical_survival[i]),
                         float(est.ci_halfwidth[i]),
                         float(est.theoretical_bound[i])))
    return ("n", "k", "kind", "t", "empirical_survival", "ci_halfwidth",
            "theoretical_bound"), rows


def _run_approx(config):
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


def _run_lowerbound(config):
    rows = []
    for n in config.n_grid:
        k = config.k_for(n)
        sched = _schedule.make_schedule(n, k, config.lam)
        horizon = (math.ceil(sched.t_n + 3 * sched.s_n)
                   if config.horizon is None else config.horizon)
        params = ChainParams(n, k)
        for t in range(horizon + 1):
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


def run(config: ExperimentConfig, threads: int = 1) -> ResultRecord:
    """Execute the configured experiment.  ``threads`` caps worker pools and
    never affects the numerical output."""
    columns, rows = _RUNNERS[config.experiment](config)
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
