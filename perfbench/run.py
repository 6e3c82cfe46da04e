"""The repository benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload batch-join --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``./src``.  The run makes its inputs from the seed, measures set-up in
fresh interpreters, warms up, then drives the workload in a closed loop
for ``--seconds``, running the host probe between ops, and checks the
program's outputs outside the timed region.  Timings are scaled to the
nominal host (see ``probe.py`` and ``spec.json``).

The last stdout line is the result: ``correct``, ``attempted``, ``failed``
and ``metrics`` -- the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The line before it holds the
details: host fingerprint, probe median, raw values, tails, sample
counts.  The exit code is 0 only for a correct run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

# Hard ceiling on the measured loop, so that a run ends well inside 180 s
# whatever --seconds asks for.
MAX_MEASURE_S = 60.0

END_TO_END = [
    ("setup_s", "s"),
    ("records_per_s", "1/s"),
    ("write_p50_ms", "ms"),
    ("read_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("hits", "count"),
    ("crowd_cost_usd", "USD"),
    ("f1", "ratio"),
]

PER_LAYER = [
    ("simjoin.busy_ms", "ms"),
    ("simjoin.calls", "count"),
    ("simjoin.candidates_out", "count"),
    ("simjoin.true_candidate_ratio", "ratio"),
    ("records.token_set_calls", "count"),
    ("hit.busy_ms", "ms"),
    ("hit.hits", "count"),
    ("hit.fill_ratio", "ratio"),
    ("crowd.busy_ms", "ms"),
    ("crowd.publishes", "count"),
    ("crowd.assignments", "count"),
    ("aggregation.busy_ms", "ms"),
    ("aggregation.calls", "count"),
    ("aggregation.votes_in", "count"),
    ("streaming.self_ms", "ms"),
    ("streaming.dirty_ratio", "ratio"),
    ("streaming.snapshot_ms", "ms"),
    ("storage.sql_statements", "count"),
    ("storage.commit_ms", "ms"),
    ("storage.commits", "count"),
    ("storage.db_bytes", "bytes"),
    ("journal.append_ms", "ms"),
    ("journal.appends", "count"),
    ("journal.bytes", "bytes"),
    ("service.client_ms", "ms"),
    ("service.queue_wait_ms", "ms"),
    ("service.shard_busy_ms", "ms"),
    ("service.http_ms", "ms"),
    ("service.rejected", "count"),
    ("service.shard_skew", "ratio"),
    ("core.resolve_ms", "ms"),
    ("core.self_ms", "ms"),
    ("setup.import_ms", "ms"),
    ("setup.build_ms", "ms"),
    ("setup.preload_ms", "ms"),
    ("latency.write_p90_ms", "ms"),
    ("latency.read_p90_ms", "ms"),
    ("host.ref_ms", "ms"),
    ("host.raw_records_per_s", "1/s"),
    ("host.raw_write_p50_ms", "ms"),
    ("trace.attributed_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
]


def host_fingerprint() -> Dict[str, object]:
    model = ""
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        model = platform.processor()
    versions = {}
    for module in ("numpy", "scipy"):
        try:
            versions[module] = __import__(module).__version__
        except ImportError:
            versions[module] = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        **versions,
    }


def measure(workload, run, seconds: float, min_units: int) -> None:
    """Run units until ``seconds`` have passed and ``min_units`` are done."""
    from perfbench.harness import Phase

    run.phase = Phase()
    started = time.perf_counter()
    units = 0
    while True:
        elapsed = time.perf_counter() - started
        if elapsed >= MAX_MEASURE_S or (elapsed >= seconds and units >= min_units):
            return
        workload.unit()
        units += 1


def setup_seconds(sample: Dict[str, float], *keys: str, nominal_ms: Optional[float]) -> float:
    """Set-up seconds of ``keys``, scaled by the sample's own probe if ``nominal_ms``."""
    from perfbench.stats import host_factor

    total = sum(sample[key] for key in keys)
    return total * host_factor(nominal_ms, sample["probe_ms"]) if nominal_ms else total


def end_to_end(workload, run, timeline, nominal_ms: Optional[float]) -> Dict[str, float]:
    """The end-to-end metrics; raw when ``timeline`` is None, else scaled."""
    from perfbench.harness import f1_score
    from perfbench.stats import median

    phase = run.phase
    setup_s = [setup_seconds(sample, "import_s", "build_s", "preload_s", nominal_ms=nominal_ms) for sample in run.setup]
    outcome = workload.outcome
    return {
        "setup_s": median(setup_s),
        "records_per_s": phase.records_per_s(timeline),
        "write_p50_ms": median(phase.latency_s("write", timeline)) * 1e3,
        "read_p50_ms": median(phase.latency_s("read", timeline)) * 1e3,
        "peak_rss_mb": workload.rss_mb,
        "hits": float(outcome["hits"]),
        "crowd_cost_usd": float(outcome["cost"]),
        "f1": f1_score(outcome["f1"]),
    }


def per_layer(workload, run, factor: float, untraced, summary, timeline) -> Dict[str, float]:
    """Per-layer metrics, per unit of work of the traced phase.

    Layer times are scaled by the run's probe median (``factor``), the
    latency tails by the probes around each op and set-up times by their
    own interpreter's probe, as for the end-to-end metrics.
    """
    from perfbench.stats import median, scale_duration, tail

    traced = run.phase
    units = len(traced.units)
    counts = summary["counts"]
    layers = summary["layers"]

    def count(key: str) -> float:
        return counts.get(key, 0) / units

    def ms(layer: str, kind: str = "self") -> float:
        return scale_duration(layers.get(layer, {}).get(kind, 0) / 1e6 / units, factor)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    def ns_ms(key: str) -> float:
        return scale_duration(counts.get(key, 0) / 1e6 / units, factor)

    shard_busy = [value for key, value in counts.items() if key.startswith("service.shard") and key.endswith("_busy_ns") and key != "service.shard_busy_ns"]
    client_ms = ns_ms("service.client_ns")
    wait_ms = ns_ms("service.queue_wait_ns")
    busy_ms = ns_ms("service.shard_busy_ns")
    setup = {
        key: median([setup_seconds(sample, key, nominal_ms=timeline.nominal_ms) for sample in run.setup]) * 1e3
        for key in ("import_s", "build_s", "preload_s")
    }
    op_s = traced.op_s()
    span_s = sum(entry["self"] for entry in layers.values()) / 1e9
    if client_ms:
        span_s = (counts.get("service.queue_wait_ns", 0) + counts.get("service.shard_busy_ns", 0)) / 1e9
        op_s = counts["service.client_ns"] / 1e9
    write_p90 = tail(untraced.latency_s("write", timeline), 0.9)
    read_p90 = tail(untraced.latency_s("read", timeline), 0.9)
    raw_rps = untraced.records_per_s()
    return {
        "simjoin.busy_ms": ms("simjoin"),
        "simjoin.calls": count("simjoin.calls"),
        "simjoin.candidates_out": count("simjoin.candidates_out"),
        "simjoin.true_candidate_ratio": ratio(counts.get("simjoin.true_candidates", 0), counts.get("simjoin.candidates_out", 0)),
        "records.token_set_calls": count("records.token_set_calls"),
        "hit.busy_ms": ms("hit"),
        "hit.hits": count("hit.hits"),
        "hit.fill_ratio": ratio(counts.get("hit.filled", 0), counts.get("hit.slots", 0)),
        "crowd.busy_ms": ms("crowd"),
        "crowd.publishes": count("crowd.publishes"),
        "crowd.assignments": count("crowd.assignments"),
        "aggregation.busy_ms": ms("aggregation"),
        "aggregation.calls": count("aggregation.calls"),
        "aggregation.votes_in": count("aggregation.votes_in"),
        "streaming.self_ms": ms("streaming"),
        "streaming.dirty_ratio": ratio(counts.get("streaming.dirty", 0), counts.get("streaming.components", 0)),
        "streaming.snapshot_ms": ms("streaming.snapshot", "total"),
        "storage.sql_statements": count("storage.sql_statements"),
        "storage.commit_ms": ms("storage"),
        "storage.commits": count("storage.commits"),
        "storage.db_bytes": median(workload.db_bytes) if getattr(workload, "db_bytes", None) else 0.0,
        "journal.append_ms": ms("journal"),
        "journal.appends": count("journal.appends"),
        "journal.bytes": count("journal.bytes"),
        "service.client_ms": client_ms,
        "service.queue_wait_ms": wait_ms,
        "service.shard_busy_ms": busy_ms,
        "service.http_ms": client_ms - wait_ms - busy_ms if client_ms else 0.0,
        "service.rejected": float(counts.get("service.rejected", 0)),
        "service.shard_skew": ratio(max(shard_busy), sum(shard_busy) / len(shard_busy)) if shard_busy else 0.0,
        "core.resolve_ms": ms("core", "total"),
        "core.self_ms": ms("core"),
        "setup.import_ms": setup["import_s"],
        "setup.build_ms": setup["build_s"],
        "setup.preload_ms": setup["preload_s"],
        "latency.write_p90_ms": write_p90 * 1e3 if write_p90 is not None else 0.0,
        "latency.read_p90_ms": read_p90 * 1e3 if read_p90 is not None else 0.0,
        "host.ref_ms": median(run.probe.samples_ms),
        "host.raw_records_per_s": raw_rps,
        "host.raw_write_p50_ms": median(untraced.raw_latency_s("write")) * 1e3,
        "trace.attributed_ratio": ratio(span_s, op_s),
        "trace.overhead_ratio": ratio(traced.records_per_s(timeline), untraced.records_per_s(timeline)),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {root / 'src' / 'repro'}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src"), str(Path(__file__).resolve().parent.parent)]
    import repro

    if Path(repro.__file__).resolve().parent != (root / "src" / "repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}, not from ./src", file=sys.stderr)
        return 2

    from perfbench.harness import OpFailed, Run
    from perfbench.stats import host_factor, median
    from perfbench.workloads import WORKLOADS

    spec = json.loads((Path(__file__).resolve().parent / "spec.json").read_text())
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    params = spec["workloads"][args.workload]["params"]
    work_dir = root / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    run = Run(root, work_dir, int(params["probes_per_gap"]))
    workload = WORKLOADS[args.workload](run, params, args.seed)
    min_units = int(spec["min_units"])
    untraced = summary = None
    errors: List[str] = []
    try:
        inputs_path = work_dir / "inputs.json"
        inputs_path.write_text(json.dumps(workload.make_inputs()))
        workload.setup_samples(int(spec["setup_samples"]), inputs_path)
        workload.start()
        if args.trace:
            measure(workload, run, args.seconds / 2, min_units)
            untraced = run.phase
            workload.begin_trace()
            measure(workload, run, args.seconds / 2, min_units)
            summary = workload.end_trace()
        else:
            measure(workload, run, args.seconds, min_units)
            workload.rss_mb = workload.peak_rss_mb()
        workload.check()
    except OpFailed as error:
        errors.append(f"op failed: {error.__cause__!r}")
    except Exception as error:  # noqa: BLE001 - reported as an incorrect run
        errors.append(f"{type(error).__name__}: {error}")
    finally:
        workload.stop()
        shutil.rmtree(work_dir, ignore_errors=True)
        if not any((root / ".perfbench").iterdir()):
            (root / ".perfbench").rmdir()

    for failure in workload.failures:
        run.ops.fail(failure)
    overlaps = run.probe.overlaps
    if overlaps:
        errors.append(f"{len(overlaps)} host probe(s) overlapped program CPU work")
    correct = not errors and not workload.failures and workload.outcome is not None
    details: Dict[str, object] = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "host": host_fingerprint(),
        "nominal_probe_ms": spec["nominal_probe_ms"],
        "probe": {"median_ms": None, "samples": len(run.probe.samples_ms), "overlaps": len(overlaps)},
        "errors": errors + workload.failures + sorted(run.ops.errors),
        "fail_ratio": run.ops.fail_ratio,
        **workload.details,
    }
    metrics: Dict[str, float] = {}
    if correct:
        probe_ms = median(run.probe.samples_ms)
        factor = host_factor(spec["nominal_probe_ms"], probe_ms)
        timeline = run.timeline(
            spec["nominal_probe_ms"], int(spec["probe_window"]), params.get("elasticity", {})
        )
        details["probe"]["median_ms"] = probe_ms  # type: ignore[index]
        details["host_factor"] = factor
        phase = run.phase
        details["samples"] = {
            "units": len(phase.units),
            "write": len(phase.latency["write"]),
            "read": len(phase.latency["read"]),
            "setup": len(run.setup),
        }
        if args.trace:
            metrics = per_layer(workload, run, factor, untraced, summary, timeline)
            units = dict(PER_LAYER)
        else:
            metrics = end_to_end(workload, run, timeline, spec["nominal_probe_ms"])
            units = dict(END_TO_END)
            details["raw"] = end_to_end(workload, run, None, None)
            details["tails_ms"] = {
                kind: _tail_ms(phase.latency_s(kind, timeline)) for kind in ("write", "read")
            }
    print(json.dumps({"perfbench": details}))
    result = {
        "correct": correct,
        "attempted": max(run.ops.attempted, 1),
        "failed": run.ops.failed if correct else max(run.ops.failed, 1),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def _tail_ms(samples_s: List[float]) -> Dict[str, object]:
    from perfbench.stats import tail

    p90 = tail(samples_s, 0.9)
    return {"p90": p90 * 1e3 if p90 is not None else None, "samples": len(samples_s)}


if __name__ == "__main__":
    # A fixed hash seed gives every run the same dict and set layouts, one
    # less source of run-to-run spread; the program's results do not
    # depend on it.  Re-exec once to apply it to this interpreter.
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": "0"})
    sys.exit(main())
