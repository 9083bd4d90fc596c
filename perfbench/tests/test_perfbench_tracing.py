import sys

import numpy as np
import pytest

import tracing


def _span(name, start, end, parent=-1, request=None):
    return (name, start, end, parent, request)


def test_self_time_subtracts_children_once():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("a.inner", 2.0, 3.0, parent=1),
        _span("b", 5.0, 6.0, parent=0),
    ]
    assert tracing.self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_merges_overlapping_children_and_clips_to_parent():
    spans = [
        _span("root", 0.0, 10.0),
        _span("x", 1.0, 5.0, parent=0),
        _span("y", 4.0, 6.0, parent=0),   # overlaps x: covered is 1..6
        _span("z", 9.0, 12.0, parent=0),  # runs past the parent: 9..10 counts
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_tracer_records_nested_spans_with_parent_and_request():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    tracer.request = 7
    tracer.call("outer", lambda: tracer.call("inner", lambda: None))
    inner, outer = sorted(tracer.spans, key=lambda s: s[0])
    assert outer == ("outer", 0.0, 3.0, -1, 7)
    assert inner == ("inner", 1.0, 2.0, 0, 7)
    assert tracing.self_times(tracer.spans) == [2.0, 1.0]


def test_inclusive_totals_count_same_name_nesting_once():
    spans = [
        _span("prune", 0.0, 4.0, request=1),
        _span("prune", 1.0, 3.0, parent=0, request=1),
        _span("other", 5.0, 6.0, request=None),
    ]
    assert tracing.inclusive_totals(spans) == {"prune": 4.0, "other": 1.0}
    assert tracing.inclusive_totals(spans, lambda r: r is not None) == {"prune": 4.0}


def _joltsql_bindings():
    for module_name, _, _ in tracing._targets():
        __import__(module_name)
    import joltsql.autodiff
    out = {}
    for name, module in sys.modules.items():
        if name == "joltsql" or name.startswith("joltsql."):
            for key, value in vars(module).items():
                out[(name, key)] = value
    for key, value in vars(joltsql.autodiff.AdamW).items():
        out[("AdamW", key)] = value
    return out


def test_traced_wraps_then_restores_every_attribute():
    from joltsql import autodiff as ad
    from joltsql import pipeline
    before = _joltsql_bindings()
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        assert pipeline.build_joint_mask is not before[("joltsql.masks", "build_joint_mask")]
        assert ad.AdamW.step is not before[("AdamW", "step")]
        a = ad.tensor(np.ones((2, 3)), requires_grad=True)
        b = ad.tensor(np.ones((3, 2)), requires_grad=True)
        ad.backward(ad.sum_all(ad.matmul(a, b)))
    names = {s[0] for s in tracer.spans}
    assert {"autodiff.fwd.matmul", "autodiff.bwd.matmul", "autodiff.backward"} <= names
    after = _joltsql_bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []


def test_traced_restores_after_an_error():
    from joltsql import masks
    before = _joltsql_bindings()
    with pytest.raises(RuntimeError):
        with tracing.traced(tracing.Tracer()):
            assert masks.build_causal_mask is not before[("joltsql.masks", "build_causal_mask")]
            raise RuntimeError("boom")
    after = _joltsql_bindings()
    assert [k for k in before if after[k] is not before[k]] == []


def test_per_layer_metrics_cover_benchmark_json():
    import json
    import os
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = tracing.per_layer_metrics(tracing.Tracer(), n_ops=1, n_setups=1)
    metrics["trace.overhead_ms"] = (0.0, "ms")
    metrics["trace.overhead_share"] = (0.0, "share")
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: unit for k, (_, unit) in metrics.items()}
