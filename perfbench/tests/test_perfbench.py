"""Tests of the benchmark's metric arithmetic, inputs and contract file.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import threading
import time
from pathlib import Path

import pytest

from perfbench import inputs, probe, stats
from perfbench.run import END_TO_END, PER_LAYER
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
PERFBENCH = ROOT / "perfbench"


# ------------------------------------------------------------- probe scaling
def test_host_factor_scales_durations_down_on_a_slow_host():
    factor = stats.host_factor(nominal_probe_ms=2.0, probe_median_ms=4.0)
    assert factor == 0.5
    assert stats.scale_duration(10.0, factor) == 5.0


def test_host_factor_rejects_non_positive_probe_times():
    with pytest.raises(ValueError):
        stats.host_factor(2.0, 0.0)


def test_timeline_scales_each_op_by_the_probes_around_it():
    # The host is twice as slow from t=10 on; ops are scaled by the probes
    # next to them, not by the run's overall median.
    times = [float(t) for t in range(20)]
    samples = [1.0] * 10 + [2.0] * 10
    timeline = stats.ProbeTimeline(times, samples, nominal_ms=1.0, window=2)
    assert timeline.factor_at(3.5) == 1.0
    assert timeline.factor_at(15.5) == 0.5
    assert timeline.scaled([(3.5, 4.0, "write"), (15.5, 4.0, "read")]) == 4.0 + 2.0


def test_timeline_applies_a_kinds_elasticity():
    timeline = stats.ProbeTimeline([0.0, 1.0], [4.0, 4.0], nominal_ms=1.0, window=1, elasticity={"write": 0.5})
    assert timeline.factor_at(0.5, "write") == 0.5
    assert timeline.factor_at(0.5, "read") == 0.25
    assert timeline.scaled([(0.5, 8.0, "write"), (0.5, 8.0, "other")]) == 4.0 + 2.0


def test_timeline_accepts_probes_out_of_order():
    timeline = stats.ProbeTimeline([3.0, 1.0, 2.0], [3.0, 1.0, 2.0], nominal_ms=2.0, window=1)
    assert timeline.times == [1.0, 2.0, 3.0]
    assert timeline.factor_at(0.0) == 2.0


# -------------------------------------------------------------------- tails
def test_tail_needs_ten_samples_beyond_it():
    assert stats.tail([float(v) for v in range(1, 101)], 0.9) == pytest.approx(90.1)
    assert stats.tail([float(v) for v in range(1, 51)], 0.9) is None
    assert stats.tail([], 0.9) is None


def test_tail_counts_only_samples_strictly_beyond_the_percentile():
    # 200 equal samples: none lies beyond their p90.
    assert stats.tail([5.0] * 200, 0.9) is None


def test_percentile_interpolates_between_ranks():
    assert stats.percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.5
    with pytest.raises(ValueError):
        stats.percentile([1.0], 1.0)


# ---------------------------------------------------------------- failures
def test_fail_ratio_counts_failed_over_attempted_ops():
    counter = stats.OpCounter()
    assert counter.fail_ratio == 0.0
    counter.ok(7)
    counter.fail("HTTP 429")
    counter.fail("HTTP 429")
    counter.fail("check: digest differs")
    assert (counter.attempted, counter.failed) == (10, 3)
    assert counter.fail_ratio == 0.3
    assert counter.errors == {"HTTP 429": 2, "check: digest differs": 1}


# ------------------------------------------------------------------ inputs
def test_a_fixed_seed_yields_identical_inputs():
    first = inputs.restaurant(seed=11, record_count=80)
    again = inputs.restaurant(seed=11, record_count=80)
    other = inputs.restaurant(seed=12, record_count=80)
    assert inputs.digest(first) == inputs.digest(again)
    assert inputs.digest(first) != inputs.digest(other)
    products = inputs.product(seed=5, scale=0.05)
    assert inputs.digest(products) == inputs.digest(inputs.product(seed=5, scale=0.05))
    script = inputs.event_script(products, seed=5, batch_size=10, revise_every=2)
    assert inputs.digest(script) == inputs.digest(
        inputs.event_script(products, seed=5, batch_size=10, revise_every=2)
    )


def test_event_script_revises_and_retracts_only_resident_records():
    data = inputs.product(seed=3, scale=0.05)
    resident = set()
    for event in inputs.event_script(data, seed=3, batch_size=10, revise_every=2):
        if event["op"] == "append":
            resident.update(record["record_id"] for record in event["records"])
        elif event["op"] == "update":
            assert event["record"]["record_id"] in resident
        else:
            resident.remove(event["record_id"])


# ------------------------------------------------------------- probe guard
def test_probe_flags_a_busy_thread_and_passes_an_idle_program():
    idle = probe.HostProbe()
    idle.run(3)
    assert len(idle.samples_ms) == 3 and not idle.overlaps

    stop = threading.Event()

    def spin():
        while not stop.is_set():
            sum(range(1000))

    busy = probe.HostProbe()
    worker = threading.Thread(target=spin)
    worker.start()
    try:
        time.sleep(0.01)
        busy.run(3)
    finally:
        stop.set()
        worker.join(timeout=5)
    assert not worker.is_alive()
    assert busy.overlaps


# ----------------------------------------------------------- contract file
def test_benchmark_json_matches_what_the_runner_prints():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((PERFBENCH / "spec.json").read_text())
    assert [(m["name"], m["unit"]) for m in benchmark["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in benchmark["per_layer"]] == PER_LAYER
    names = [w["name"] for w in benchmark["workloads"]]
    assert names == list(WORKLOADS) == list(spec["workloads"])
    assert all(m["bound"] <= 0.25 for m in benchmark["end_to_end"])
    setup = next(m for m in benchmark["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in benchmark["end_to_end"])
