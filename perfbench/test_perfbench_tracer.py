"""Structural checks of the benchmark's tracer and its metric declarations.

These pin no call counts of the product: they check that every binding of
a wrapped function is replaced, that spans nest and fold into self times,
and that BENCHMARK.json declares exactly what run.py reports.
"""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import heisenflag  # noqa: F401  (loads every package module)
import tracer

HERE = Path(__file__).resolve().parent


def _load_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod   # dataclasses resolve annotations through it
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture
def recorder():
    rec = tracer.Recorder()
    rec.install()
    try:
        yield rec
    finally:
        rec.uninstall()


def test_every_binding_of_a_wrapped_function_is_replaced():
    before = {t.name: tracer.bindings(vars(tracer._resolve_owner(t.owner))[t.attr])
              for t in tracer.TARGETS}
    rec = tracer.Recorder()
    rec.install()
    try:
        assert rec.missing == []
        assert rec.uncovered() == []
        for target, (original, wrapper) in rec.installed.items():
            # the wrapper now sits wherever the original sat
            assert tracer.bindings(wrapper) == before[target.name], target.name
    finally:
        rec.uninstall()
    for t in tracer.TARGETS:
        original = vars(tracer._resolve_owner(t.owner))[t.attr]
        assert tracer.bindings(original) == before[t.name]


def test_calls_through_by_name_imports_are_traced(recorder):
    from heisenflag import checks, inversion
    from heisenflag.grids import self_dual_line
    from heisenflag.symbols import unit_symbol

    table = unit_symbol(1.0, self_dual_line(8))
    checks.kn_quantize(table)
    op = inversion.kn_quantize(table)
    np.linalg.norm(op.matrix, 2)
    np.linalg.norm(op.matrix)
    np.linalg.svd(np.stack([op.matrix] * 3), compute_uv=False)
    names = [s[0] for s in recorder.spans]
    assert names.count("symbols.kn_quantize") == 2
    assert recorder.counts["inversion.svd.calls"] == 1 + 3
    assert recorder.counts["symbols.kn_quantize.macs"] == 2 * 8 ** 3


def test_aggregate_subtracts_direct_children_only():
    spans = [
        ["outer", 0.0, 10.0, -1],
        ["mid", 1.0, 5.0, 0],
        ["leaf", 2.0, 3.0, 1],
        ["mid", 6.0, 8.0, 0],
    ]
    agg = tracer.aggregate(spans)
    assert agg["outer"] == {"calls": 1, "total_s": 10.0, "self_s": 4.0}
    assert agg["mid"] == {"calls": 2, "total_s": 6.0, "self_s": 5.0}
    assert agg["leaf"]["self_s"] == 1.0


def test_benchmark_json_matches_run_py():
    run = _load_run()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == run.PER_LAYER
    traced = {t.name for t in tracer.TARGETS}
    for name in run.PER_LAYER:
        layer, _, metric = name.rpartition(".")
        if metric in ("calls", "self_s") and name != "inversion.svd.calls":
            assert layer in traced, name


def test_reported_metrics_are_exactly_the_declared_ones():
    run = _load_run()
    child = {"layers_by_span": {}, "counts": {}, "status": 0, "pass_s": 1.0}
    layers = run.layer_metrics(child, {"summary": {}})
    sample = {"ok": True, "pass_s": 1.0, "setup_s": 0.5, "peak_rss_mb": 100.0}
    _, traced = run.per_layer([sample], [dict(sample, layers=layers)])
    assert list(traced) == list(run.PER_LAYER)
    _, plain = run.end_to_end([sample], [0.4])
    assert list(plain) == list(run.END_TO_END)
