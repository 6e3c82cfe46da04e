"""The three workloads.  Why each exists, and which layers it should and
should not move, is recorded in ``spec.json``.

Each workload class makes its inputs from the seed, measures set-up,
warms up, runs units of work in a closed loop, and checks its outputs
outside the timed region.  ``unit()`` is one repetition of the workload's
fixed script.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from perfbench import inputs
from perfbench.harness import PERFBENCH_DIR, OpFailed, Run, f1_counts, peak_rss_mb
from perfbench.tracing import Tracer


def _record(entry: Dict[str, object]):
    from repro.records.record import Record

    return Record(**entry)  # type: ignore[arg-type]


def _truth_keys(pairs) -> set:
    return {tuple(sorted(pair)) for pair in pairs}


class Workload:
    """Base: holds the run, the sizes from ``spec.json`` and the outcome."""

    name = ""

    def __init__(self, run: Run, params: Dict[str, object], seed: int) -> None:
        self.run = run
        self.params = params
        self.seed = seed
        self.outcome: Optional[Dict[str, object]] = None
        self.failures: List[str] = []
        self.tracer: Optional[Tracer] = None
        self.details: Dict[str, object] = {}
        self.rss_mb = 0.0

    def set_outcome(self, outcome: Dict[str, object]) -> None:
        """Keep the first unit's outcome; every later unit must repeat it."""
        if self.outcome is None:
            self.outcome = outcome
        elif outcome != self.outcome:
            self.failures.append(f"{self.name}: a unit's outcome differs from the first unit's")

    def truth(self) -> set:
        raise NotImplementedError

    def setup_samples(self, samples: int, inputs_path: Path) -> None:
        """Measure set-up ``samples`` times (default: fresh interpreters)."""
        self.run.setup_child(self.name, inputs_path, samples)

    def begin_trace(self) -> None:
        self.tracer = Tracer(truth=self.truth())
        self.tracer.install()

    def end_trace(self) -> Dict[str, object]:
        """Remove the wrappers, write the spans, return the layer summary."""
        assert self.tracer is not None
        self.tracer.uninstall()
        self.tracer.dump(self.run.trace_dir / f"{self.name}-{self.seed}.jsonl")
        return self.tracer.summary()

    def stop(self) -> None:
        """Release what the workload started (sessions, servers)."""

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()


class BatchJoin(Workload):
    """Repeated one-shot ``HybridWorkflow.resolve`` of one Restaurant dataset."""

    name = "batch-join"

    def make_inputs(self) -> Dict[str, object]:
        from repro.datasets.base import Dataset
        from repro.records.record import RecordStore

        data = inputs.restaurant(self.seed, int(self.params["records"]))
        self.data = data
        store = RecordStore(name="bench")
        for entry in data["records"]:
            store.add(_record(entry))
        self.dataset = Dataset(
            name="bench", store=store,
            ground_truth=frozenset(tuple(pair) for pair in data["truth"]),
        )
        self.config = {"likelihood_threshold": self.params["threshold"]}
        return {"dataset": data, "config": self.config}

    def truth(self) -> set:
        return _truth_keys(self.data["truth"])

    def _workflow(self, **overrides):
        from repro.core.config import WorkflowConfig
        from repro.core.workflow import HybridWorkflow

        return HybridWorkflow(WorkflowConfig(**self.config, **overrides))

    def start(self) -> None:
        from repro.simjoin.backend import auto_backend_name

        self.details["auto_backend"] = auto_backend_name(
            len(self.dataset.store), float(self.params["threshold"])
        )
        self._workflow().resolve(self.dataset)  # starts the reused join pool
        self.last = None

    def unit(self) -> None:
        from repro.evaluation.metrics import precision_recall_curve

        run = self.run
        workflow = self._workflow()  # fresh crowd state: every unit is identical
        run.begin_unit()
        run.gap()
        result = run.op("write", lambda: workflow.resolve(self.dataset))
        truth = self.data["truth"]
        for _ in range(int(self.params["reads_per_resolve"])):
            run.gap()
            run.op("read", lambda: precision_recall_curve(result.ranked_pairs, truth))
        run.end_unit(len(self.dataset.store))
        self.last = result
        self.set_outcome({
            "hits": result.hit_count,
            "cost": result.cost,
            "f1": f1_counts(result.matches, truth),
        })

    def check(self) -> None:
        """Pooled pairs and likelihoods equal a serial vectorized resolve."""
        serial = self._workflow(join_backend="vectorized").resolve(self.dataset)
        if serial.likelihoods != self.last.likelihoods:
            self.failures.append("batch-join: pooled likelihoods differ from a serial vectorized resolve")
        if sorted(serial.ranked_pairs) != sorted(self.last.ranked_pairs):
            self.failures.append("batch-join: pooled candidate pairs differ from a serial vectorized resolve")


class StreamDurable(Workload):
    """A fixed event script over fresh durable (sqlite) streaming sessions.

    A unit runs the script of each of ``datasets`` Product datasets, each
    over its own fresh session, so that one dataset's quirks weigh less.
    """

    name = "stream-durable"

    def make_inputs(self) -> Dict[str, object]:
        count = int(self.params["datasets"])
        self.data = []
        self.scripts = []
        for index in range(count):
            seed = self.seed * count + index
            data = inputs.prefixed(inputs.product(seed, float(self.params["scale"])), f"d{index}-")
            self.data.append(data)
            self.scripts.append(inputs.event_script(
                data, seed, int(self.params["batch_size"]), int(self.params["revise_every"]),
            ))
        self.config = {
            "likelihood_threshold": self.params["threshold"],
            "storage_backend": "sqlite",
        }
        self.events = [[self._decode(event) for event in script] for script in self.scripts]
        self.sessions = 0
        self.digests: List[str] = []
        return {"dataset": self.data[0], "script": self.scripts[0], "config": self.config}

    def truth(self) -> set:
        return set().union(*(_truth_keys(data["truth"]) for data in self.data))

    @staticmethod
    def _decode(event: Dict[str, object]) -> Tuple[str, object]:
        if event["op"] == "append":
            return "append", [_record(entry) for entry in event["records"]]  # type: ignore[union-attr]
        if event["op"] == "update":
            return "update", _record(event["record"])  # type: ignore[arg-type]
        return "retract", event["record_id"]

    def _session(self, data: Dict[str, object], checkpoint_dir: Optional[Path]):
        from repro.core.config import WorkflowConfig
        from repro.streaming import StreamingResolver

        config = dict(self.config)
        if checkpoint_dir is None:
            config["storage_backend"] = "memory"
        else:
            config["checkpoint_dir"] = str(checkpoint_dir)
        session = StreamingResolver(
            WorkflowConfig(**config), cross_sources=tuple(data["cross_sources"])
        )
        session.add_truth([tuple(pair) for pair in data["truth"]])
        return session

    @staticmethod
    def _apply(session, op: str, arg: object):
        if op == "append":
            return session.add_batch(arg)
        if op == "update":
            return session.update(arg)
        return session.retract(arg)

    def start(self) -> None:
        directory = self.run.work_dir / "warm-up"
        session = self._session(self.data[0], directory)
        for op, arg in self.events[0][:8]:
            self._apply(session, op, arg)
            session.snapshot()
        session.storage.close()
        shutil.rmtree(directory, ignore_errors=True)
        self.db_bytes: List[int] = []

    def unit(self) -> None:
        run = self.run
        run.begin_unit()
        records = 0
        outcome = {"hits": 0, "cost": 0.0, "f1": {"tp": 0, "fp": 0, "fn": 0}, "digests": []}
        for data, events in zip(self.data, self.events):
            self.sessions += 1
            directory = run.work_dir / f"session-{self.sessions}"
            run.gap()
            session = run.op("other", lambda: self._session(data, directory))
            try:
                for op, arg in events:
                    run.op("write", lambda: self._apply(session, op, arg))
                    result = run.op("read", session.snapshot)
                    run.gap()
                    records += len(arg) if op == "append" else (1 if op == "update" else 0)
                outcome["hits"] += result.hit_count
                outcome["cost"] += result.cost
                for key, value in f1_counts(result.matches, data["truth"]).items():
                    outcome["f1"][key] += value
                outcome["digests"].append(session.state_digest())
            finally:
                session.storage.close()
                self.db_bytes.append(sum(path.stat().st_size for path in directory.glob("store*")))
                shutil.rmtree(directory, ignore_errors=True)
        run.end_unit(records)
        self.set_outcome(outcome)

    def check(self) -> None:
        """Each durable session's final digest equals an in-memory replay."""
        for index, (data, events) in enumerate(zip(self.data, self.events)):
            session = self._session(data, None)
            for op, arg in events:
                self._apply(session, op, arg)
            if session.state_digest() != self.outcome["digests"][index]:
                self.failures.append("stream-durable: state digest differs from an in-memory replay")


class ServiceMixed(Workload):
    """``repro serve`` with 2 shards and two lockstep clients, one session each.

    A unit (cycle) runs, for each of ``datasets`` phases, one session per
    client over its own Restaurant dataset: create, lockstep rounds, close.
    """

    name = "service-mixed"
    clients = 2
    server: Optional[subprocess.Popen] = None
    pool: Optional[ThreadPoolExecutor] = None

    def make_inputs(self) -> Dict[str, object]:
        per_session = int(self.params["records_per_session"])
        phases = int(self.params["datasets"])
        size = int(self.params["append_size"])
        # data[client][phase]; distinct ids everywhere, so one truth set serves the trace.
        self.data = [
            [
                inputs.prefixed(
                    inputs.restaurant((self.seed * self.clients + client) * phases + phase, per_session),
                    f"c{client}d{phase}-",
                )
                for phase in range(phases)
            ]
            for client in range(self.clients)
        ]
        self.rounds = [
            [[data["records"][start : start + size] for start in range(0, per_session, size)] for data in row]
            for row in self.data
        ]
        self.config = {"likelihood_threshold": self.params["threshold"]}
        self.cycles = 0
        self.served: List[List[List[dict]]] = [[[] for _ in range(phases)] for _ in range(self.clients)]
        self.client_times = {"client_ns": 0, "rejected": 0}
        return {"clients": self.data, "config": self.config}

    def truth(self) -> set:
        return set().union(*(_truth_keys(data["truth"]) for row in self.data for data in row))

    # ---------------------------------------------------------------- server
    def _spawn(self, trace_prefix: Optional[Path]) -> Dict[str, float]:
        """Start ``self.server``; returns its import and build seconds and probe."""
        self.run.gap()
        tag = f"server-{time.perf_counter_ns()}"
        port_file = self.run.work_dir / f"{tag}.port"
        command = [
            sys.executable, str(PERFBENCH_DIR / "serve.py"),
            str(self.run.work_dir / f"{tag}.setup.json"),
            str(trace_prefix) if trace_prefix else "-",
            "serve", "--port", "0", "--port-file", str(port_file),
            "--shards", str(self.params["shards"]),
        ]
        env = dict(os.environ, PYTHONPATH=str(self.run.root / "src"), PYTHONHASHSEED="0")
        stderr_path = self.run.work_dir / f"{tag}.stderr"
        started = time.perf_counter()
        with open(stderr_path, "w") as stderr:
            server = subprocess.Popen(
                command, cwd=self.run.root, env=env, stdout=subprocess.DEVNULL, stderr=stderr,
            )
        self.server = server
        self.run.probe.cpu.watch(server.pid)
        while not port_file.exists():
            if server.poll() is not None:
                raise RuntimeError(f"server exited: {stderr_path.read_text()[-2000:]}")
            if time.perf_counter() - started > 60:
                raise RuntimeError("server did not publish its port within 60 s")
            time.sleep(0.002)
        ready = time.perf_counter() - started
        self.port = int(port_file.read_text())
        setup = json.loads((self.run.work_dir / f"{tag}.setup.json").read_text())
        setup["build_s"] = ready - setup["import_s"] - setup.pop("probe_s")
        return setup

    def _stop_server(self) -> None:
        """Stop the current server gracefully (SIGTERM drains it) and reap it."""
        server, self.server = self.server, None
        if server is None:
            return
        self.run.probe.cpu.unwatch(server.pid)
        if server.poll() is None:
            server.send_signal(signal.SIGTERM)
            try:
                server.wait(timeout=30)
            except subprocess.TimeoutExpired:
                server.kill()
                server.wait()

    def _client(self):
        from repro.service.client import ServiceClient

        return ServiceClient("127.0.0.1", self.port)

    def setup_samples(self, samples: int, inputs_path: Path) -> None:
        """Spawn the server, create a session and warm it up, ``samples`` times.

        The last server stays up for the measured loop.
        """
        for index in range(samples):
            self._stop_server()
            setup = self._spawn(None)
            started = time.perf_counter()
            client = self._client()
            session = f"warm-{index}"
            client.create_session(session, config=self.config, truth=self.data[0][0]["truth"])
            client.append(session, self.rounds[0][0][0])
            client.close(session)
            setup["preload_s"] = time.perf_counter() - started
            self.run.setup.append(setup)

    def start(self) -> None:
        self.pool = ThreadPoolExecutor(max_workers=self.clients, thread_name_prefix="bench-client")

    def _session_ids(self, phase: int) -> List[str]:
        """Ids placing client k on shard k, so both shards carry one client."""
        from repro.service.shards import shard_of

        ids = []
        shards = int(self.params["shards"])
        for client in range(self.clients):
            suffix = 0
            while shard_of(f"s{self.cycles}.{phase}-c{client}-{suffix}", shards) != client % shards:
                suffix += 1
            ids.append(f"s{self.cycles}.{phase}-c{client}-{suffix}")
        return ids

    def _requests(self, rounds: list, round_index: int) -> List[Tuple[str, str, object]]:
        """The requests of one client in one round: (kind, method, argument)."""
        if round_index == 0:
            return [("other", "create", None)]
        if round_index > len(rounds):
            return [("other", "close", None)]
        requests = [("write", "append", rounds[round_index - 1]), ("read", "status", None)]
        if round_index % int(self.params["result_every"]) == 0:
            requests.append(("read", "result", None))
        return requests

    def _do_round(self, client: int, phase: int, session: str, round_index: int):
        from repro.service.client import ServiceClientError

        http = self._client()
        timings = []
        served = None
        for kind, method, argument in self._requests(self.rounds[client][phase], round_index):
            started = time.perf_counter_ns()
            try:
                if method == "create":
                    http.create_session(session, config=self.config, truth=self.data[client][phase]["truth"])
                elif method == "append":
                    http.append(session, argument)
                elif method == "status":
                    http.status(session)
                elif method == "result":
                    served = http.result(session)
                else:
                    http.close(session)
            except ServiceClientError as error:
                timings.append((kind, time.perf_counter_ns(), started, f"HTTP {error.status}"))
                break
            except OSError as error:
                timings.append((kind, time.perf_counter_ns(), started, f"{type(error).__name__}"))
                break
            timings.append((kind, time.perf_counter_ns(), started, None))
        return timings, served

    def unit(self) -> None:
        run = self.run
        self.cycles += 1
        run.begin_unit()
        for phase in range(int(self.params["datasets"])):
            self._phase(phase)
        run.end_unit(sum(len(batch) for row in self.rounds for rounds in row for batch in rounds))
        outcome = {"hits": 0, "cost": 0.0, "f1": {"tp": 0, "fp": 0, "fn": 0}}
        for client, row in enumerate(self.data):
            for phase, data in enumerate(row):
                final = self.served[client][phase][-1]
                outcome["hits"] += final["hit_count"]
                outcome["cost"] += final["cost"]
                for key, value in f1_counts(final["matches"], data["truth"]).items():
                    outcome["f1"][key] += value
        self.set_outcome(outcome)

    def _phase(self, phase: int) -> None:
        """Both clients' sessions of one phase, round by round in lockstep."""
        run = self.run
        sessions = self._session_ids(phase)
        last = len(self.rounds[0][phase])
        for round_index in range(last + 2):
            run.gap()
            started = time.perf_counter()
            futures = [
                self.pool.submit(self._do_round, client, phase, sessions[client], round_index)
                for client in range(self.clients)
            ]
            outcomes = [future.result() for future in futures]
            ended = time.perf_counter()
            run.add_unit_time(ended, ended - started)
            failed = False
            for client, (timings, served) in enumerate(outcomes):
                for kind, ended_ns, started_ns, error in timings:
                    self.client_times["client_ns"] += ended_ns - started_ns
                    if error is None:
                        run.ops.ok()
                        run.add_op_time(kind, ended_ns / 1e9, (ended_ns - started_ns) / 1e9)
                    else:
                        failed = True
                        run.ops.fail(f"service {kind}: {error}")
                        if error == "HTTP 429":
                            self.client_times["rejected"] += 1
                if served is not None and round_index == last:
                    self.served[client][phase].append(served)
            if failed:
                raise OpFailed()

    def check(self) -> None:
        """Every served final result equals a standalone session replay."""
        from repro.core.config import WorkflowConfig
        from repro.service.sessions import encode_result
        from repro.streaming import StreamingResolver

        for client, row in enumerate(self.data):
            for phase, data in enumerate(row):
                session = StreamingResolver(WorkflowConfig(**self.config, vote_mode="per-pair"))
                session.add_truth([tuple(pair) for pair in data["truth"]])
                for batch in self.rounds[client][phase]:
                    session.add_batch([_record(entry) for entry in batch])
                expected = json.loads(json.dumps(encode_result(session.snapshot())))
                served = self.served[client][phase]
                if not served or any(result != expected for result in served):
                    self.failures.append(
                        f"service-mixed: client {client} phase {phase} result differs from a standalone replay"
                    )

    def peak_rss_mb(self) -> float:
        assert self.server is not None
        return peak_rss_mb(self.server.pid)

    # ----------------------------------------------------------------- trace
    def begin_trace(self) -> None:
        """Swap the untraced server for one launched with the layer wrappers."""
        self._stop_server()
        self.trace_prefix = self.run.trace_dir / f"{self.name}-{self.seed}-server"
        self.trace_prefix.parent.mkdir(parents=True, exist_ok=True)
        truth = sorted(list(pair) for pair in self.truth())
        Path(f"{self.trace_prefix}.truth.json").write_text(json.dumps(truth))
        self._spawn(self.trace_prefix)
        self.client_times = {"client_ns": 0, "rejected": 0}

    def end_trace(self) -> Dict[str, object]:
        self._stop_server()
        summary = json.loads(Path(f"{self.trace_prefix}.summary.json").read_text())
        summary["counts"]["service.client_ns"] = self.client_times["client_ns"]
        summary["counts"]["service.rejected"] = self.client_times["rejected"]
        return summary

    def stop(self) -> None:
        if self.pool is not None:
            self.pool.shutdown(wait=True)
        self._stop_server()


WORKLOADS = {cls.name: cls for cls in (BatchJoin, StreamDurable, ServiceMixed)}
