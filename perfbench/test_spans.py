"""Unit tests of the benchmark's own span arithmetic and wrapper lifetime.

    python3 -m pytest perfbench -q
"""

import math

import pytest

import layers
from run import load_package, tail
from spans import Span, Tracer, self_times, summarize

PKG = load_package()


def tree():
    # root [0, 10] with children a [1, 4] (holding a1 [2, 3]) and work [5, 9]
    # (holding another work [5, 6] and b2 [6.5, 8])
    return [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("a1", 2.0, 3.0, 1, 0),
        Span("work", 5.0, 9.0, 0, 0),
        Span("work", 5.0, 6.0, 3, 0),
        Span("b2", 6.5, 8.0, 3, 0),
    ]


def test_self_time_is_duration_minus_child_coverage():
    assert self_times(tree()) == pytest.approx([3.0, 2.0, 1.0, 1.5, 1.0, 1.5])


def test_self_times_of_a_tree_sum_to_its_root():
    assert math.fsum(self_times(tree())) == pytest.approx(10.0)


def test_overlapping_and_overhanging_children_are_counted_once():
    spans = [
        Span("p", 0.0, 10.0, -1, 0),
        Span("c", 1.0, 4.0, 0, 0),
        Span("c", 3.0, 6.0, 0, 0),
        Span("c", 8.0, 12.0, 0, 0),  # clipped to the parent at 10
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 2.0)


def test_summary_counts_nested_repeats_of_a_name_once_in_busy_time():
    stats = summarize(tree())
    assert stats["work"].calls == 2
    assert stats["work"].busy_s == pytest.approx(4.0)
    assert stats["work"].self_s == pytest.approx(2.5)
    assert stats["root"].self_s == pytest.approx(3.0)


def test_tracer_records_parents_and_counters():
    tracer = Tracer()

    def leaf(x):
        return tracer.call("inner", lambda: x + 1)

    def outer(x):
        return tracer.call("middle", leaf, (x,), count=lambda a, k, r: {"seen": r})

    assert tracer.call("root", outer, (1,)) == 2
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("root", -1), ("middle", 0), ("inner", 1)]
    assert tracer.counters == {"seen": 2}


def originals():
    import importlib

    return {(t.module, t.attr): getattr(importlib.import_module(t.module), t.attr) for t in layers.TARGETS}


def test_install_wraps_every_target_and_restore_puts_originals_back():
    before = originals()
    tracer = Tracer()
    tracer.install(layers.TARGETS)
    try:
        wrapped = originals()
        assert all(getattr(fn, "__perfbench_wrapped__", False) for fn in wrapped.values())
        noise = PKG.model.NoiseModel(0.99)
        PKG.estimator.crb_curves(PKG.estimator.ExperimentConfig(rounds=3), 0.25, PKG.model.Method.G)
        PKG.fisher.quantum_fisher(3.0, noise)
    finally:
        tracer.restore()
    after = originals()
    assert all(after[key] is before[key] for key in before)
    stats = summarize(tracer.spans)
    assert stats["estimator.crb_curves"].calls == 1
    assert stats["fisher.quantum_fisher"].calls == 1


def test_restore_after_a_failing_traced_call():
    before = originals()
    tracer = Tracer()
    tracer.install(layers.TARGETS)
    try:
        empty = PKG.estimator.MeasurementRecord(PKG.model.Method.G, ())
        with pytest.raises(ValueError, match="no rounds"):
            PKG.estimator.mle_estimate(empty, PKG.model.NoiseModel(0.99))
    finally:
        tracer.restore()
    assert all(originals()[key] is before[key] for key in before)
    assert [s.name for s in tracer.spans] == ["estimator.mle_estimate"]


def test_tail_uses_ten_samples_beyond_or_the_maximum():
    assert tail(list(range(1, 201))) == (190, "p95")
    assert tail(list(range(1, 41))) == (30, "p75")
    assert tail(list(range(1, 12))) == (11, "max")
