"""Tests of the benchmark harness itself: statistics helpers and tracing."""

import statistics
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))
sys.path.insert(0, str(HERE.parent))

import stats  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from workloads import Ledger, Op  # noqa: E402


def test_median():
    assert stats.median([3.0, 1.0, 2.0]) == 2.0
    assert stats.median([4, 1, 3, 2]) == 2.5
    with pytest.raises(ValueError):
        stats.median([])


def test_tail_percentile_keeps_ten_samples_beyond():
    assert stats.tail_percentile(range(10)) is None
    assert stats.tail_percentile(range(11)) == (9, 0.0)
    assert stats.tail_percentile(range(20)) == (50, 9.0)
    pct, value = stats.tail_percentile(range(100))
    assert (pct, value) == (90, 89.0)
    assert sum(1 for x in range(100) if x > value) == 10


def test_quartile_spread_matches_statistics_quantiles():
    values = [1.0, 2.0, 2.5, 3.0, 10.0, 4.0, 2.2, 2.8, 3.1, 2.9]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert stats.quartile_spread(values) == pytest.approx((q3 - q1) / statistics.median(values))
    assert stats.quartile_spread([5.0] * 6) == 0.0


def test_describe_names_count_and_tail():
    assert stats.describe([1.0, 2.0, 3.0], "s") == "median 2 s, n=3"
    assert "p50" in stats.describe([float(x) for x in range(20)], "ms")


def test_self_time_subtracts_children():
    tracer = tracing.Tracer("t")
    with tracer.span("outer") as outer:
        with tracer.span("inner") as inner:
            pass
    assert inner.parent == outer.id and outer.parent is None
    kids = tracer.children()
    assert tracer.self_time(outer, kids) == pytest.approx(outer.duration - inner.duration)


def _target_attrs():
    pairs = []
    for owner, attr, _, _, copies in tracing.targets():
        for holder in (owner, *copies):
            pairs.append((holder, attr, getattr(holder, attr)))
    return pairs


def test_traced_run_restores_every_attribute_even_on_error():
    before = _target_attrs()
    tracer = tracing.Tracer("t")
    with pytest.raises(RuntimeError):
        with tracer.installed(tracing.targets()):
            assert all(getattr(h, a) is not orig for h, a, orig in before)
            raise RuntimeError("stop inside the traced region")
    assert all(getattr(h, a) is orig for h, a, orig in before)


def test_by_name_copies_are_rebound_to_the_same_wrapper():
    from roitomo import fraclap, lines, solver, xray_vector

    tracer = tracing.Tracer("t")
    with tracer.installed(tracing.targets()):
        assert xray_vector.ramp_filter_offsets is fraclap.ramp_filter_offsets
        assert hasattr(fraclap.ramp_filter_offsets, "__wrapped__")
        assert solver.filter_roi is lines.filter_roi
        assert hasattr(lines.filter_roi, "__wrapped__")


class _FakeWorkload:
    """Trivial workload that records which functions its steps saw."""

    name = "fake"
    primary = "solve"
    seed = 0

    def __init__(self):
        self.seen = []

    def setup(self):
        return {"grid": None, "lines": [1, 2, 3]}

    def verify(self, state, ledger):
        pass

    def steps(self, state):
        return [self._step]

    def _step(self, ledger):
        self.seen.append([getattr(h, a) for h, a, _ in _target_attrs()])
        ledger.run("solve", lambda: None)

    def working_set(self, state):
        return state["grid"], state["lines"]


def test_untraced_run_installs_no_wrapper():
    before = _target_attrs()
    fake = _FakeWorkload()
    ledger, metrics, units = worker.untraced(fake, 0.0, 0.0)
    assert set(metrics) == set(units)
    assert fake.seen and all(
        seen is orig for snapshot in fake.seen for seen, (_, _, orig) in zip(snapshot, before)
    )
    assert not ledger.failed


def test_traced_run_wraps_then_restores(tmp_path, monkeypatch):
    monkeypatch.setattr(worker, "direct_applies", lambda workload, state: {})
    before = _target_attrs()
    fake = _FakeWorkload()
    ledger, metrics, units = worker.traced(fake, tmp_path)
    untraced_round, traced_round = fake.seen
    assert all(s is orig for s, (_, _, orig) in zip(untraced_round, before))
    assert all(s is not orig for s, (_, _, orig) in zip(traced_round, before))
    assert all(getattr(h, a) is orig for h, a, orig in before)
    assert list(metrics) == list(tracing.PER_LAYER_UNITS) == list(units)
    assert metrics["lines.kept_lines"] == 3
    assert list(tmp_path.glob("trace-fake-*.json"))


def test_failed_operation_is_counted_not_raised():
    ledger = Ledger()
    ledger.cycle = 0
    op = ledger.run("solve", lambda: 1 / 0)
    ok = ledger.run("solve", lambda: 2)
    ok.check(ok.result == 3, "wrong answer")
    assert op.error and not op.ok and not ok.ok
    assert len(ledger.failed) == 2 and len(ledger.ops) == 2


class _StepWorkload:
    """Three steps of fixed sleeps; names the ops the way real workloads do."""

    primary = "solve"

    def steps(self, state):
        return [
            lambda ledger: ledger.run("solve:a", time.sleep, 0.002),
            lambda ledger: ledger.run("solve:b", time.sleep, 0.004),
            lambda ledger: ledger.run("probe", time.sleep, 0.01),
        ]


def test_zero_seconds_runs_exactly_one_whole_cycle():
    ledger = Ledger()
    worker.run_cycles(_StepWorkload(), None, ledger, 0.0)
    assert [op.name for op in ledger.ops] == ["solve:a", "solve:b", "probe"]
    assert ledger.cycles == 1 and ledger.cycle is None


def test_run_stops_before_a_step_that_would_overrun():
    ledger = Ledger()
    t0 = time.perf_counter()
    worker.run_cycles(_StepWorkload(), None, ledger, 0.1)
    elapsed = time.perf_counter() - t0
    assert ledger.cycles >= 2
    assert elapsed < 0.1 + 0.01 + 0.005   # no step is started that cannot finish in time


def test_cycle_summary_uses_each_operations_median():
    ledger = Ledger()
    times = {"solve:a": [1.0, 3.0, 2.0], "solve:b": [4.0, 4.0], "probe": [10.0, 30.0, 20.0]}
    for name, ts in times.items():
        for cycle, t in enumerate(ts):
            ledger.ops.append(Op(name, t, cycle))
    ledger.ops.append(Op("solve:a", 100.0, None))   # one-off check, not in a cycle
    op_s, round_s = worker.cycle_summary(ledger, "solve")
    assert op_s == pytest.approx((2.0 + 4.0) / 2)
    assert round_s == pytest.approx(2.0 + 4.0 + 20.0)
