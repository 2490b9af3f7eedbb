"""Out-of-process tracing of the blmix layers.

``Tracer.install`` replaces every public module-level function of the traced
modules with a timing wrapper, at every name a caller looks it up by: ``chain``
binds ``hypergeom_pmf`` in its own namespace and ``approx`` binds
``transition_row``, so patching only the defining module would miss those
calls.  Spans ``(name, start, end, parent, tracer_s)`` stay in memory, in flat
arrays that add no work for the garbage collector, and are written out once
at the end; self times are computed afterwards from the span tree.

A wrapper costs time of its own, and most of it would land in the caller's
self time: on a workload with 10^5 cheap calls it would swamp the program's
own time.  Each traced process therefore measures the wrapper's fixed cost
on an empty function (``calibrate``) and times each work-counting annotation
directly.  A written span covers the whole traced call, wrapper included;
``tracer_s`` is the wrapper's share of it.  Self time is then the span's
duration minus its direct children's durations minus its own ``tracer_s``,
and the sum of ``tracer_s`` is reported as ``trace.wrapper_s``.

Nothing here imports blmix; the caller passes the already imported modules.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import statistics
import time
from array import array

LAYERS = ("pmf", "chain", "coupling", "schedule", "approx", "config", "cli")

# Per-layer metrics a traced run reports, with their units.  Times are per
# workload iteration; ``self_s`` excludes time spent in traced callees and in
# the tracer's own wrappers.
PER_LAYER = {
    "pmf.hypergeom_pmf.calls": "count",
    "pmf.hypergeom_pmf.self_s": "s",
    "pmf.hypergeom_pmf.points": "count",
    "pmf.difference_law.calls": "count",
    "pmf.difference_law.self_s": "s",
    "pmf.difference_law.p50_s": "s",
    "pmf.difference_law.p99_s": "s",
    "pmf.difference_law.conv_ops": "count",
    "pmf.tv_distance.self_s": "s",
    "chain.transition_row.calls": "count",
    "chain.transition_row.distinct_rows": "count",
    "chain.transition_row.reuse": "ratio",
    "chain.transition_row.self_s": "s",
    "chain.evolve.calls": "count",
    "chain.evolve.self_s": "s",
    "chain.evolve.row_adds": "count",
    "chain.distance_profile.self_s": "s",
    "chain.distance_profile.matmul_flops": "flop",
    "chain.distance_profile.gflops": "GFLOP/s",
    "chain.lost_mass": "prob",
    "chain.lower_bound_certificate.self_s": "s",
    "coupling.survival_vs_bound.self_s": "s",
    "coupling.replica_steps": "count",
    "coupling.replica_steps_per_s": "1/s",
    "schedule.make_schedule.self_s": "s",
    "approx.one_step_tv.self_s": "s",
    "approx.hyper_vs_dnormal_tv.self_s": "s",
    "cli.import_s": "s",
    "config.parse_config.s": "s",
    "config.run.self_s": "s",
    "config.emit.s": "s",
    "config.emit.bytes": "B",
    "cli.main.self_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.solve_s": "s",
    "trace.wrapper_s": "s",
    "trace.overhead_s": "s",
}


def _transition_row_key(args, kwargs):
    params, x = args[0], args[1] if len(args) > 1 else kwargs["x"]
    trim = args[2] if len(args) > 2 else kwargs.get("trim", False)
    return (params.n, params.k, int(x), bool(trim))


def _arg(args, kwargs, i, name, default=None):
    return args[i] if len(args) > i else kwargs.get(name, default)


def _no_annotation(args, kwargs, result):
    return None


def _empty():
    return None


class Tracer:
    """Records one span per call of a wrapped function, plus work counters
    computed from the call's arguments and result."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.annotate_s = array("d")   # annotation time after the span ended
        self.counters: dict[str, float] = {}
        self.distinct_rows: set = set()
        self.cost_in = 0.0    # wrapper time inside a span, per call
        self.cost_out = 0.0   # wrapper time outside a span, per call
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- work counters -----------------------------------------------------

    def _add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def _hypergeom_pmf(self, args, kwargs, result):
        self._add("pmf.hypergeom_pmf.points", len(result.weights))

    def _difference_law(self, args, kwargs, result):
        a = _arg(args, kwargs, 0, "p_a")
        b = _arg(args, kwargs, 1, "p_b")
        self._add("pmf.difference_law.conv_ops", len(a.weights) * len(b.weights))

    def _transition_row(self, args, kwargs, result):
        self.distinct_rows.add(_transition_row_key(args, kwargs))

    def _evolve(self, args, kwargs, result):
        self._add("chain.evolve.row_adds", len(_arg(args, kwargs, 1, "mu").weights))

    def _distance_profile(self, args, kwargs, result):
        params = _arg(args, kwargs, 0, "params")
        t_max = _arg(args, kwargs, 1, "t_max")
        policy = _arg(args, kwargs, 2, "start_policy")
        if policy is None or getattr(policy, "value", "") == "all_states":
            self._add("chain.distance_profile.matmul_flops",
                      2 * (params.n + 1) ** 3 * t_max)

    def _survival_vs_bound(self, args, kwargs, result):
        self._add("coupling.replica_steps",
                  _arg(args, kwargs, 5, "replicas") * _arg(args, kwargs, 4, "t_max"))

    def _emit(self, args, kwargs, result):
        self._add("config.emit.bytes", sum(os.path.getsize(p) for p in result))

    def _annotator(self, name: str):
        return {
            "pmf.hypergeom_pmf": self._hypergeom_pmf,
            "pmf.difference_law": self._difference_law,
            "chain.transition_row": self._transition_row,
            "chain.evolve": self._evolve,
            "chain.distance_profile": self._distance_profile,
            "coupling.survival_vs_bound": self._survival_vs_bound,
            "config.emit": self._emit,
        }.get(name, _no_annotation)

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        name_id, parent, start, end = (self.name_id, self.parent, self.start,
                                       self.end)
        annotate_s, stack, clock = self.annotate_s, self._stack, time.perf_counter
        annotate = self._annotator(name)

        # An annotator that raises propagates: the traced iteration fails
        # rather than reporting a silently partial work count.
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            annotate_s.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            annotate(args, kwargs, result)
            annotate_s[i] = clock() - end[i]
            return result

        return traced

    def calibrate(self, calls: int = 20_000, blocks: int = 7) -> None:
        """Measure the wrapper's fixed cost on an empty function: the part
        inside a span (``cost_in``) and the part around it that the caller
        would otherwise be charged (``cost_out``).  Medians over blocks."""
        clock = time.perf_counter
        loop = range(calls)

        def per_call(fn):
            t0 = clock()
            for _ in loop:
                fn()
            return (clock() - t0) / calls

        def idle():
            t0 = clock()
            for _ in loop:
                pass
            return (clock() - t0) / calls

        ins, outs = [], []
        for _ in range(blocks + 1):   # the first block warms up and is dropped
            probe = Tracer()
            wrapped = probe._wrap("probe", _empty)
            bare = per_call(_empty) - idle()
            traced = per_call(wrapped) - idle()
            inside = statistics.fmean(e - s for s, e in zip(probe.start, probe.end))
            after = statistics.fmean(probe.annotate_s)
            ins.append(max(inside - bare, 0.0))
            outs.append(max(traced - inside - after, 0.0))
        self.cost_in = statistics.median(ins[1:])
        self.cost_out = statistics.median(outs[1:])

    def install(self, modules: dict[str, object]) -> None:
        """Wrap the public functions defined in ``modules`` (layer name ->
        module) at every binding found in those modules."""
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)][1])

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def dump(self, path: str) -> None:
        """Write the spans as ``(name id, start, end, parent, tracer_s)``.
        Each interval is widened to the whole traced call (``cost_out``
        before it, the annotation after it), and ``tracer_s`` is the
        wrapper's share of that call."""
        c_in, c_out = self.cost_in, self.cost_out
        rows = [(n, s - c_out, e + a, p, c_in + c_out + a)
                for n, s, e, p, a in zip(self.name_id, self.start, self.end,
                                         self.parent, self.annotate_s)]
        counters = dict(self.counters)
        counters["chain.transition_row.distinct_rows"] = len(self.distinct_rows)
        doc = {"names": self.names, "spans": rows, "counters": counters,
               "cost_in": self.cost_in, "cost_out": self.cost_out}
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, separators=(",", ":")))


def merge(paths) -> tuple[list[tuple[str, float, float, int, float]], dict]:
    """Spans and summed counters of several traced processes (one workload
    iteration), with parent indices shifted into one list."""
    spans: list[tuple[str, float, float, int, float]] = []
    counters: dict[str, float] = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        names, base = doc["names"], len(spans)
        spans.extend((names[i], s, e, p + base if p >= 0 else -1, w)
                     for i, s, e, p, w in doc["spans"])
        for key, value in doc["counters"].items():
            counters[key] = counters.get(key, 0) + value
    return spans, counters


def self_times(spans) -> list[float]:
    """Per span: its duration minus its direct children's durations minus
    its own wrapper time.  Calls are nested on one thread, so children never
    overlap and lie inside their parent."""
    out = [(end - start) - tracer_s for _, start, end, _, tracer_s in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def root_of(spans) -> list[int]:
    """Index of each span's outermost ancestor (itself when it has none)."""
    roots = []
    for i, span in enumerate(spans):
        parent = span[3]
        roots.append(i if parent < 0 else roots[parent])
    return roots


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in [0, 100]; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def layer_metrics(spans, counters: dict) -> dict[str, float]:
    """Per-layer metrics of one workload iteration (its processes' spans
    merged).  Layer totals and the solve time count only spans under a
    ``cli.main`` root, so the seven ``<layer>.self_s`` totals plus
    ``trace.wrapper_s`` sum to ``trace.solve_s``."""
    selfs = self_times(spans)
    roots = root_of(spans)
    in_main = [spans[r][0] == "cli.main" for r in roots]
    per_name_self: dict[str, float] = {}
    per_name_calls: dict[str, int] = {}
    per_name_dur: dict[str, list[float]] = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    solve = wrapper = setup_parse = 0.0
    for (name, start, end, parent, tracer_s), st, main in zip(spans, selfs,
                                                               in_main):
        per_name_calls[name] = per_name_calls.get(name, 0) + 1
        # a call's own duration, without the wrapper around it
        per_name_dur.setdefault(name, []).append(end - start - tracer_s)
        if main:
            per_name_self[name] = per_name_self.get(name, 0.0) + st
            layer_self[name.split(".", 1)[0]] += st
            wrapper += tracer_s
            if parent < 0:
                solve += end - start
        elif name == "config.parse_config":
            setup_parse += end - start - tracer_s

    def calls(n):
        return per_name_calls.get(n, 0)

    def self_s(n):
        return per_name_self.get(n, 0.0)

    m: dict[str, float] = {}
    m["pmf.hypergeom_pmf.calls"] = calls("pmf.hypergeom_pmf")
    m["pmf.hypergeom_pmf.self_s"] = self_s("pmf.hypergeom_pmf")
    m["pmf.hypergeom_pmf.points"] = counters.get("pmf.hypergeom_pmf.points", 0)
    diff = per_name_dur.get("pmf.difference_law", [])
    m["pmf.difference_law.calls"] = calls("pmf.difference_law")
    m["pmf.difference_law.self_s"] = self_s("pmf.difference_law")
    m["pmf.difference_law.p50_s"] = percentile(diff, 50)
    m["pmf.difference_law.p99_s"] = percentile(diff, 99)
    m["pmf.difference_law.conv_ops"] = counters.get(
        "pmf.difference_law.conv_ops", 0)
    m["pmf.tv_distance.self_s"] = self_s("pmf.tv_distance")
    rows = calls("chain.transition_row")
    distinct = counters.get("chain.transition_row.distinct_rows", 0)
    m["chain.transition_row.calls"] = rows
    m["chain.transition_row.distinct_rows"] = distinct
    m["chain.transition_row.reuse"] = 1.0 - distinct / rows if rows else 0.0
    m["chain.transition_row.self_s"] = self_s("chain.transition_row")
    m["chain.evolve.calls"] = calls("chain.evolve")
    m["chain.evolve.self_s"] = self_s("chain.evolve")
    m["chain.evolve.row_adds"] = counters.get("chain.evolve.row_adds", 0)
    dp_self = self_s("chain.distance_profile")
    flops = counters.get("chain.distance_profile.matmul_flops", 0)
    m["chain.distance_profile.self_s"] = dp_self
    m["chain.distance_profile.matmul_flops"] = flops
    m["chain.distance_profile.gflops"] = flops / dp_self / 1e9 if dp_self else 0.0
    m["chain.lower_bound_certificate.self_s"] = self_s(
        "chain.lower_bound_certificate")
    svb = per_name_dur.get("coupling.survival_vs_bound", [])
    steps = counters.get("coupling.replica_steps", 0)
    m["coupling.survival_vs_bound.self_s"] = self_s("coupling.survival_vs_bound")
    m["coupling.replica_steps"] = steps
    m["coupling.replica_steps_per_s"] = steps / sum(svb) if svb else 0.0
    m["schedule.make_schedule.self_s"] = self_s("schedule.make_schedule")
    m["approx.one_step_tv.self_s"] = self_s("approx.one_step_tv")
    m["approx.hyper_vs_dnormal_tv.self_s"] = self_s("approx.hyper_vs_dnormal_tv")
    m["config.parse_config.s"] = setup_parse
    m["config.run.self_s"] = self_s("config.run")
    m["config.emit.s"] = sum(per_name_dur.get("config.emit", []))
    m["config.emit.bytes"] = counters.get("config.emit.bytes", 0)
    m["cli.main.self_s"] = self_s("cli.main")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    m["trace.solve_s"] = solve
    m["trace.wrapper_s"] = wrapper
    return m
