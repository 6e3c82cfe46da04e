"""Layer spans for the traced run, recorded from the benchmark's own files.

``Tracer.install`` wraps the public entry points of each program module
(the layer named after it) in place: a wrapper records a span -- layer,
name, start, end and the enclosing span on the same thread -- and bumps
counters from the call's arguments and result.  Hot per-statement calls
(SQL statements, token-set builds) are counted only, never timed.  Spans
stay in memory; ``dump`` writes them out once, when the run ends, one
JSON line per span, ``parent`` being the line index of the enclosing span.

A layer's self time is its spans' duration minus the part covered by
child spans.  Nothing here edits the program's source; ``uninstall``
restores every patched attribute.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Set, Tuple

Span = List  # [layer, name, start_ns, end_ns, parent_index]

_TOKEN_SET_IMPORTERS = (
    "repro.simjoin.prefix_filter",
    "repro.simjoin.vectorized",
    "repro.similarity.record_similarity",
    "repro.streaming.incremental_join",
)


class Tracer:
    def __init__(self, truth: Optional[Set[Tuple[str, str]]] = None) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = {}
        self.truth = truth or set()
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------ recording
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + amount

    def open_span(self, layer: str, name: str) -> int:
        stack = self._stack()
        span = [layer, name, time.perf_counter_ns(), 0, stack[-1] if stack else -1]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def close_span(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter_ns()
        self._stack().pop()

    # ------------------------------------------------------------- patching
    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap(
        self,
        owner: type,
        attr: str,
        layer: str,
        after: Optional[Callable[..., None]] = None,
    ) -> None:
        """Time ``owner.attr`` as a ``layer`` span; ``after(result, *args)`` counts."""
        original = owner.__dict__[attr]
        tracer = self
        name = f"{owner.__name__}.{attr}"

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = tracer.open_span(layer, name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close_span(index)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        self._patch(owner, attr, traced)

    def count(self, owner: object, attr: str, key: str) -> None:
        """Count calls of ``owner.attr`` without timing them."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def counted(*args, **kwargs):
            tracer.add(key)
            return original(*args, **kwargs)

        self._patch(owner, attr, counted)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ---------------------------------------------------------------- layers
    def install(self) -> None:
        """Wrap every layer the benchmark reports (see ``spec.json``)."""
        from repro.aggregation.dawid_skene import DawidSkeneAggregator
        from repro.aggregation.majority import MajorityAggregator
        from repro.core.workflow import HybridWorkflow
        from repro.crowd.platform import SimulatedCrowdPlatform
        from repro.hit.generator import ClusterHITGenerator
        from repro.hit.pair_generation import PairHITGenerator
        from repro.records import tokenize
        from repro.simjoin.likelihood import SimJoinLikelihood
        from repro.storage.sqlite import SqliteStore
        from repro.streaming.incremental_join import IncrementalSimJoin
        from repro.streaming.persistence import SessionJournal
        from repro.streaming.session import StreamingResolver

        truth = self.truth

        def candidates_out(pairs, *_args, **_kwargs) -> None:
            self.add("simjoin.calls")
            if pairs is None:
                return
            keys = list(pairs.keys())
            self.add("simjoin.candidates_out", len(keys))
            self.add("simjoin.true_candidates", sum(1 for key in keys if key in truth))

        self.wrap(SimJoinLikelihood, "estimate", "simjoin", candidates_out)
        self.wrap(IncrementalSimJoin, "add_batch", "simjoin", candidates_out)
        self.wrap(IncrementalSimJoin, "retract", "simjoin", candidates_out)

        # Import every module that binds ``record_token_set`` at import
        # time, so each binding is counted even before first use.
        for module_name in _TOKEN_SET_IMPORTERS:
            importlib.import_module(module_name)
        original_token_set = tokenize.record_token_set
        for module in [m for name, m in sys.modules.items() if name.startswith("repro")]:
            if getattr(module, "record_token_set", None) is original_token_set:
                self.count(module, "record_token_set", "records.token_set_calls")

        def hits_out(batch, *_args, **_kwargs) -> None:
            self.add("hit.hits", batch.hit_count)
            self.add("hit.slots", batch.hit_count * max(batch.cluster_size, 1))
            self.add("hit.filled", sum(hit.size for hit in batch.hits))

        self.wrap(ClusterHITGenerator, "generate", "hit", hits_out)
        self.wrap(PairHITGenerator, "generate", "hit", hits_out)

        def published(run, *_args, **_kwargs) -> None:
            self.add("crowd.publishes")
            self.add("crowd.assignments", run.assignment_count)

        self.wrap(SimulatedCrowdPlatform, "publish", "crowd", published)

        for aggregator in (DawidSkeneAggregator, MajorityAggregator):
            self._wrap_aggregate(aggregator)

        self.wrap(HybridWorkflow, "resolve", "core")

        def delta_out(result, *_args, **_kwargs) -> None:
            delta = result.delta
            if delta is not None:
                self.add("streaming.dirty", delta.dirty_components)
                self.add("streaming.components", delta.dirty_components + delta.clean_components)

        for op in ("add_batch", "update", "retract"):
            self.wrap(StreamingResolver, op, "streaming", delta_out)
        self.wrap(StreamingResolver, "snapshot", "streaming")

        self.count(SqliteStore, "execute", "storage.sql_statements")
        self.count(SqliteStore, "executemany", "storage.sql_statements")
        self._wrap_commit(SqliteStore)
        self._wrap_journal(SessionJournal)

    def _wrap_aggregate(self, owner: type) -> None:
        original = owner.__dict__["aggregate"]
        tracer = self

        @functools.wraps(original)
        def aggregate(self_, votes, *args, **kwargs):
            votes = list(votes)
            tracer.add("aggregation.calls")
            tracer.add("aggregation.votes_in", len(votes))
            index = tracer.open_span("aggregation", f"{owner.__name__}.aggregate")
            try:
                return original(self_, votes, *args, **kwargs)
            finally:
                tracer.close_span(index)

        self._patch(owner, "aggregate", aggregate)

    def _wrap_commit(self, owner: type) -> None:
        original = owner.__dict__["commit"]
        tracer = self

        @functools.wraps(original)
        def commit(self_):
            # Only a call that closes an open transaction commits.
            if not getattr(self_, "_in_txn", True):
                return original(self_)
            tracer.add("storage.commits")
            index = tracer.open_span("storage", "SqliteStore.commit")
            try:
                return original(self_)
            finally:
                tracer.close_span(index)

        self._patch(owner, "commit", commit)

    def _wrap_journal(self, owner: type) -> None:
        original = owner.__dict__["append"]
        tracer = self

        @functools.wraps(original)
        def append(self_, *args, **kwargs):
            before = _size(self_.path)
            index = tracer.open_span("journal", "SessionJournal.append")
            try:
                return original(self_, *args, **kwargs)
            finally:
                tracer.close_span(index)
                after = _size(self_.path)
                tracer.add("journal.appends")
                tracer.add("journal.bytes", after - before if after >= before else after)

        self._patch(owner, "append", append)

    def wrap_service(self) -> None:
        """Time shard queue wait and shard work inside the server process."""
        from repro.service.shards import ShardExecutor

        original = ShardExecutor.__dict__["submit"]
        tracer = self

        @functools.wraps(original)
        async def submit(self_, routing_key, fn, *args):
            submitted = time.perf_counter_ns()
            marks: Dict[str, int] = {}

            def run(*call_args):
                marks["start"] = time.perf_counter_ns()
                index = tracer.open_span("service", "shard_work")
                try:
                    return fn(*call_args)
                finally:
                    tracer.close_span(index)
                    marks["end"] = time.perf_counter_ns()

            try:
                return await original(self_, routing_key, run, *args)
            finally:
                if "end" in marks:
                    shard = self_.shard_of(routing_key)
                    tracer.add("service.queue_wait_ns", marks["start"] - submitted)
                    tracer.add("service.shard_busy_ns", marks["end"] - marks["start"])
                    tracer.add(f"service.shard{shard}_busy_ns", marks["end"] - marks["start"])
                    tracer.add("service.submits")

        self._patch(ShardExecutor, "submit", submit)

    # --------------------------------------------------------------- summary
    def layer_times_ns(self) -> Dict[str, Dict[str, int]]:
        """Per layer: ``total`` (inclusive span time) and ``self`` time."""
        child_ns = [0] * len(self.spans)
        for layer, name, start, end, parent in self.spans:
            if parent >= 0 and end:
                child_ns[parent] += end - start
        out: Dict[str, Dict[str, int]] = {}
        for index, (layer, name, start, end, parent) in enumerate(self.spans):
            if not end:
                continue
            entry = out.setdefault(layer, {"total": 0, "self": 0})
            entry["self"] += (end - start) - child_ns[index]
            if parent < 0 or self.spans[parent][0] != layer:
                entry["total"] += end - start
            if name == "StreamingResolver.snapshot":
                out.setdefault("streaming.snapshot", {"total": 0, "self": 0})["total"] += end - start
        return out

    def summary(self) -> Dict[str, object]:
        return {"counts": dict(self.counts), "layers": self.layer_times_ns()}

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for layer, name, start, end, parent in self.spans:
                handle.write(json.dumps({
                    "layer": layer, "name": name, "start_ns": start, "end_ns": end, "parent": parent,
                }) + "\n")


def _size(path: os.PathLike) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0
