"""One set-up sample of an in-process workload, in a fresh interpreter.

    python3 perfbench/setup_child.py <workload> <inputs.json> <scratch-dir>

Times importing ``repro``, building the workflow or session, and the
warm-up op (first resolve or first event: pool start, lazy imports,
preload).  Turning the inputs into ``Record`` objects is input handling
and is left out.  Prints one JSON line of seconds, plus the median of host
probes run afterwards in the same interpreter, which scales them.  Imports
nothing from the benchmark before that, so the import time is the
program's alone.
"""

import json
import shutil
import sys
import time
from pathlib import Path


def main(workload: str, inputs_path: str, scratch: str) -> dict:
    with open(inputs_path) as handle:
        inputs = json.load(handle)
    started = time.perf_counter()
    import repro  # noqa: F401
    from repro.core.config import WorkflowConfig

    imported = time.perf_counter()
    if workload == "batch-join":
        from repro.core.workflow import HybridWorkflow
        from repro.datasets.base import Dataset
        from repro.records.record import Record, RecordStore

        store = RecordStore(name="bench")
        for entry in inputs["dataset"]["records"]:
            store.add(Record(**entry))
        dataset = Dataset(
            name="bench", store=store,
            ground_truth=frozenset(tuple(pair) for pair in inputs["dataset"]["truth"]),
        )
        build_started = time.perf_counter()
        workflow = HybridWorkflow(WorkflowConfig(**inputs["config"]))
        built = time.perf_counter()
        workflow.resolve(dataset)
    else:
        from repro.records.record import Record
        from repro.streaming import StreamingResolver

        first = inputs["script"][0]
        records = [Record(**entry) for entry in first["records"]]
        truth = [tuple(pair) for pair in inputs["dataset"]["truth"]]
        build_started = time.perf_counter()
        session = StreamingResolver(
            WorkflowConfig(**inputs["config"], checkpoint_dir=scratch),
            cross_sources=tuple(inputs["dataset"]["cross_sources"]),
        )
        session.add_truth(truth)
        built = time.perf_counter()
        session.add_batch(records)
        session.snapshot()
        session.storage.close()
    done = time.perf_counter()
    shutil.rmtree(scratch, ignore_errors=True)
    return {
        "import_s": imported - started,
        "build_s": built - build_started,
        "preload_s": done - built,
        "probe_ms": probe_median_ms(),
    }


def probe_median_ms(count: int = 7) -> float:
    """This interpreter's host probe, for scaling its own set-up times."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from perfbench.probe import probe_loop

    samples = []
    for _ in range(count):
        started = time.perf_counter_ns()
        probe_loop()
        samples.append((time.perf_counter_ns() - started) / 1e6)
    return sorted(samples)[count // 2]


if __name__ == "__main__":
    print(json.dumps(main(*sys.argv[1:4])))
