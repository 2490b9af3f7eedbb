"""Self-time arithmetic, per-layer aggregation and the tracer's patching."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import spans
from conftest import BENCH, ROOT


def _span(name, start, end, parent=-1, tracer_s=0.0):
    return (name, float(start), float(end), parent, tracer_s)


def test_self_time_on_a_span_tree():
    tree = [
        _span("cli.main", 0, 10),            # 0
        _span("config.run", 1, 4, 0),        # 1
        _span("chain.evolve", 5, 9, 0),      # 2
        _span("chain.transition_row", 6, 7, 2),  # 3
        _span("pmf.hypergeom_pmf", 6.25, 6.75, 3),  # 4
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 3.0, 3.0, 0.5, 0.5])


def test_self_time_leaves_out_wrapper_time():
    tree = [
        _span("chain.evolve", 0, 10, -1, 0.5),
        _span("chain.transition_row", 1, 2, 0, 0.25),
        _span("chain.transition_row", 3, 5, 0, 0.25),
    ]
    assert spans.self_times(tree) == pytest.approx([10 - 3 - 0.5, 0.75, 1.75])
    m = spans.layer_metrics([_span("cli.main", -1, 11)] + [
        (n, s, e, p + 1, w) for n, s, e, p, w in tree], {})
    assert m["trace.wrapper_s"] == pytest.approx(1.0)
    assert (sum(m[f"{layer}.self_s"] for layer in spans.LAYERS)
            + m["trace.wrapper_s"]) == pytest.approx(m["trace.solve_s"])


def test_layer_totals_account_for_solve_time():
    tree = [
        _span("config.parse_config", 0, 0.5),          # set-up, outside main
        _span("cli.main", 1, 11),
        _span("config.parse_config", 1.5, 2, 1),
        _span("config.run", 2, 9, 1),
        _span("chain.distance_profile", 2.5, 8.5, 3),
        _span("pmf.difference_law", 3, 4, 4),
        _span("pmf.difference_law", 5, 8, 4),
        _span("config.emit", 9, 10, 1),
    ]
    m = spans.layer_metrics(tree, {"config.emit.bytes": 10})
    assert m["trace.solve_s"] == pytest.approx(10.0)
    assert sum(m[f"{layer}.self_s"] for layer in spans.LAYERS) == pytest.approx(10.0)
    assert m["config.parse_config.s"] == pytest.approx(0.5)
    assert m["cli.main.self_s"] == pytest.approx(10 - 0.5 - 7 - 1)
    assert m["chain.distance_profile.self_s"] == pytest.approx(2.0)
    assert m["pmf.difference_law.calls"] == 2
    assert m["pmf.difference_law.p50_s"] == pytest.approx(1.0)
    assert m["pmf.difference_law.p99_s"] == pytest.approx(3.0)
    assert m["config.emit.s"] == pytest.approx(1.0)
    assert m["chain.transition_row.reuse"] == 0.0
    assert m["trace.wrapper_s"] == 0.0
    assert set(spans.PER_LAYER) - set(m) == {
        "chain.lost_mass", "cli.import_s", "trace.overhead_s"}


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert spans.percentile(values, 50) == 50
    assert spans.percentile(values, 99) == 99
    assert spans.percentile([7.0], 99) == 7.0
    assert spans.percentile([], 50) == 0.0


def test_merge_shifts_parent_indices(tmp_path):
    for i in range(2):
        (tmp_path / f"{i}.json").write_text(json.dumps({
            "names": ["cli.main", "config.run"],
            "spans": [[0, 0.0, 2.0, -1, 0.1], [1, 0.5, 1.0, 0, 0.1]],
            "counters": {"config.emit.bytes": 5}}))
    merged, counters = spans.merge([tmp_path / "0.json", tmp_path / "1.json"])
    assert [s[3] for s in merged] == [-1, 0, -1, 2]
    assert counters["config.emit.bytes"] == 10


def _recorded(tracer, tmp_path):
    """The tracer's spans as the benchmark reads them back."""
    tracer.dump(tmp_path / "spans.json")
    return spans.merge([tmp_path / "spans.json"])


def test_tracer_patches_every_binding_and_counts_work(tmp_path):
    import blmix.approx
    import blmix.chain
    import blmix.pmf
    from blmix.chain import ChainParams, StartPolicy

    original = blmix.pmf.hypergeom_pmf
    tracer = spans.Tracer()
    tracer.install({layer: __import__(f"blmix.{layer}", fromlist=["_"])
                    for layer in spans.LAYERS})
    try:
        assert blmix.chain.hypergeom_pmf is not original
        assert blmix.chain.hypergeom_pmf is blmix.pmf.hypergeom_pmf
        assert blmix.approx.transition_row is blmix.chain.transition_row
        blmix.chain._row_cached.cache_clear()
        blmix.chain.distance_profile(ChainParams(30, 7), 6, StartPolicy.STATE_ZERO)
        blmix.approx.one_step_tv(ChainParams(40, 10), 20, 22)
    finally:
        tracer.uninstall()
        blmix.chain._row_cached.cache_clear()
    assert blmix.chain.hypergeom_pmf is original
    recorded, counters = _recorded(tracer, tmp_path)
    names = [s[0] for s in recorded]
    by_index = dict(enumerate(recorded))
    # hypergeom_pmf called from chain's own namespace, under transition_row
    assert any(s[0] == "pmf.hypergeom_pmf"
               and by_index[s[3]][0] == "chain.transition_row"
               for s in recorded if s[3] >= 0)
    # transition_row called from approx's namespace, under one_step_tv
    assert any(s[0] == "chain.transition_row"
               and by_index[s[3]][0] == "approx.one_step_tv"
               for s in recorded if s[3] >= 0)
    calls = names.count("chain.transition_row")
    assert 0 < counters["chain.transition_row.distinct_rows"] < calls
    assert counters["pmf.difference_law.conv_ops"] > 0


def test_wrapper_cost_is_calibrated_and_subtracted(tmp_path):
    tracer = spans.Tracer()
    tracer.calibrate(calls=2000, blocks=3)
    assert 0.0 <= tracer.cost_in < 1e-4 and 0.0 < tracer.cost_out < 1e-4
    outer = tracer._wrap("cli.main", lambda f: [f() for _ in range(1000)])
    inner = tracer._wrap("config.run", lambda: None)
    outer(inner)
    recorded, _ = _recorded(tracer, tmp_path)
    assert len(recorded) == 1001
    # the wrapper time of the 1000 inner calls is not charged to the caller
    name, start, end, parent, tracer_s = recorded[0]
    children = sum(e - s for _, s, e, _, _ in recorded[1:])
    assert spans.self_times(recorded)[0] == pytest.approx(
        end - start - children - tracer_s)
    assert all(w >= tracer.cost_in + tracer.cost_out for *_, w in recorded)


def test_failing_annotation_fails_the_call():
    tracer = spans.Tracer()
    # difference_law's annotator reads .weights of its arguments
    wrapped = tracer._wrap("pmf.difference_law", lambda a, b: None)
    with pytest.raises(AttributeError):
        wrapped(1, 2)


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(
        spans.PER_LAYER.items())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(
        run.END_TO_END)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "coupling",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
