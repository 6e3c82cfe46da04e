"""Launch ``repro serve`` for the service-mixed workload.

    python3 perfbench/serve.py <setup.json> <trace-prefix|-> serve [serve args...]

Writes how long importing the program took, and the median of host
probes run right after (excluded from set-up time), to ``setup.json``
before the server starts.  With a trace prefix, installs the benchmark's layer
wrappers (``perfbench.tracing``) first and, once the server has shut down
(SIGTERM drains it gracefully), writes ``<prefix>.summary.json`` and the
spans to ``<prefix>.jsonl``; the truth pairs for
``simjoin.true_candidate_ratio`` come from ``<prefix>.truth.json``.
"""

import json
import sys
import time
from pathlib import Path


def main(setup_path: str, trace_prefix: str, argv: list) -> int:
    started = time.perf_counter()
    from repro import cli

    imported = time.perf_counter() - started
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from perfbench.setup_child import probe_median_ms

    probed = time.perf_counter()
    probe_ms = probe_median_ms()
    Path(setup_path).write_text(json.dumps({
        "import_s": imported, "probe_ms": probe_ms, "probe_s": time.perf_counter() - probed,
    }))
    if trace_prefix == "-":
        return cli.main(argv)
    from perfbench.tracing import Tracer

    truth = json.loads(Path(trace_prefix + ".truth.json").read_text())
    tracer = Tracer(truth={tuple(pair) for pair in truth})
    tracer.install()
    tracer.wrap_service()
    try:
        return cli.main(argv)
    finally:
        Path(trace_prefix + ".summary.json").write_text(json.dumps(tracer.summary()))
        tracer.dump(Path(trace_prefix + ".jsonl"))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2], sys.argv[3:]))
