"""Tests of the benchmark's own helpers: spans, percentiles, GFLOP, checks."""

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.mark.parametrize("count, expected", [
    (0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0),
    (999, 90.0), (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    assert tracing.tail_percentile(count) == expected


def test_percentile_interpolates_linearly():
    assert tracing.percentile([4, 1, 3, 2], 50) == 2.5
    assert tracing.percentile([1, 2, 3, 4, 5], 90) == pytest.approx(4.6)
    assert tracing.percentile([7], 99) == 7


def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)
    outer = tracer.begin("outer")
    clock.now = 1.0
    with tracer.span("a"):
        clock.now = 3.0
    clock.now = 4.0
    b = tracer.begin("b")
    clock.now = 5.0
    with tracer.span("leaf"):
        clock.now = 6.0
    clock.now = 8.0
    tracer.end(b)
    clock.now = 10.0
    tracer.end(outer)

    spans = tracer.spans
    assert [s.name for s in spans] == ["outer", "a", "b", "leaf"]
    assert [s.parent for s in spans] == [None, 0, 0, 2]
    assert tracing.self_times(spans) == [4.0, 2.0, 3.0, 1.0]


def test_self_time_counts_overlapping_children_once():
    spans = [tracing.Span("p", 0.0, 10.0),
             tracing.Span("c1", 1.0, 5.0, parent=0),
             tracing.Span("c2", 3.0, 12.0, parent=0)]
    assert tracing.self_times(spans)[0] == pytest.approx(1.0)


def test_instrument_wraps_restores_and_notes_absent_names():
    mod = types.ModuleType("perfbench_fake_layer")
    mod.work = lambda n: n * 2
    mod.items = lambda n: iter(range(n))
    sys.modules[mod.__name__] = mod
    original = mod.work
    try:
        tracer = tracing.Tracer()
        hooks = [
            tracing.Hook(mod.__name__, "work", "layer.work",
                         lambda args, kwargs, result: {"out": result}),
            tracing.Hook(mod.__name__, "items", "layer.item", per_item=True),
            tracing.Hook(mod.__name__, "gone", "layer.gone"),
        ]
        with tracer.instrument(hooks):
            assert mod.work(3) == 6
            assert list(mod.items(2)) == [0, 1]
        assert mod.work is original
        assert tracer.absent == [mod.__name__ + ".gone"]
        names = [s.name for s in tracer.spans]
        assert names == ["layer.work"] + ["layer.item"] * 3
        assert tracer.spans[0].attrs == {"out": 6}
        assert tracer.spans[-1].attrs == {"exhausted": True}
    finally:
        del sys.modules[mod.__name__]


def test_failing_call_still_closes_its_span():
    tracer = tracing.Tracer()

    def boom():
        raise ValueError("x")

    wrapped = tracer._wrap(boom, tracing.Hook("m", "boom", "boom"))
    with pytest.raises(ValueError):
        wrapped()
    assert tracer.spans[0].end is not None
    assert tracer._open == []


def test_dense_gflop_counts_forward_and_backward_products():
    assert layers.dense_gflop(2, (3, 4, 5)) == pytest.approx(
        6 * 2 * (3 * 4 + 4 * 5) / 1e9)
    # one paper-shape image branch on 195 rows: about 11 GFLOP
    assert layers.dense_gflop(195, (4096, 2048, 512)) == pytest.approx(
        11.041505280)


def _span(name, start, end, parent=None, **attrs):
    return tracing.Span(name, start, end, parent, attrs)


def test_summarize_splits_a_step_into_its_children():
    spans = [
        _span("cli.train", 0.0, 1.0),
        _span("training.train", 0.1, 0.9, 0),
        _span("data.batch", 0.1, 0.11, 1, rows_x=2, rows_y=3),
        _span("training.step", 0.2, 0.6, 1, rows_x=2, rows_y=3),
        _span("network.forward_train", 0.2, 0.25, 3),
        _span("network.forward_train", 0.25, 0.3, 3),
        _span("loss_mining.mine", 0.3, 0.42, 3,
              triplets={"image_to_sentence": 5}),
        _span("loss_mining.hinge", 0.42, 0.46, 3),
        _span("loss_mining.hinge", 0.46, 0.5, 3),
        _span("network.backward_step", 0.5, 0.58, 3),
        _span("network.save_checkpoint", 0.9, 0.95, 0, bytes=2e6),
    ]
    metrics, info = layers.summarize([spans], {"x": (3, 4, 5),
                                               "y": (3, 4, 5)})
    assert metrics["training.step_ms.p50"] == pytest.approx(400.0)
    assert metrics["loss_mining.hinge_ms.p50"] == pytest.approx(80.0)
    assert metrics["loss_mining.hinge_calls_per_step"] == 2
    assert metrics["loss_mining.mine_ms.p50"] == pytest.approx(120.0)
    assert metrics["network.forward_train_ms.p50"] == pytest.approx(100.0)
    assert metrics["training.step_self_ms.p50"] == pytest.approx(20.0)
    assert metrics["loss_mining.triplets.image_to_sentence"] == 5
    assert metrics["training.steps"] == 1
    assert metrics["training.skipped_batches"] == 0
    assert metrics["network.checkpoint_mb"] == 2.0
    assert metrics["network.gflop_per_step"] == pytest.approx(
        layers.dense_gflop(2, (3, 4, 5)) + layers.dense_gflop(3, (3, 4, 5)))
    # the command's own time: its span minus the training loop and the
    # save, plus the loop's time outside batches and steps
    assert metrics["cli.train.self_s"] == pytest.approx(0.15 + 0.39)
    assert info["largest_step_child"] == "loss_mining.mine"


def test_recall_by_sort_breaks_ties_by_index():
    dist = np.array([[0.5, 0.5, 0.1],
                     [0.2, 0.9, 0.3]])
    positives = [[1], [2]]
    out = workloads.recall_by_sort(dist, positives, (1, 2, 3))
    # query 0: the tie at 0.5 puts index 0 before the positive -> rank 2
    # query 1: one negative closer -> rank 1
    assert {k: v[0] for k, v in out.items()} == {1: 0.0, 2: 50.0, 3: 100.0}
    assert out[2][1] == 50.0  # query 0 sits on an exact tie at k=2
    assert out[3][1] == 0.0


def test_benchmark_json_names_every_metric_the_bench_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == dict(layers.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
