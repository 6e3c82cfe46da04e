"""Workload inputs, generated from the benchmark's ``--seed`` alone.

Inputs are plain JSON-friendly data (record dicts, truth pairs, event
scripts): the program only ever receives them, through its public API or
over HTTP.  The same seed and sizes always give byte-identical inputs,
which ``digest`` makes checkable.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Dict, List

Record = Dict[str, object]


def _plain(dataset) -> Dict[str, object]:
    records = [
        {"record_id": r.record_id, "attributes": dict(r.attributes), "source": r.source}
        for r in dataset.store
    ]
    return {
        "records": records,
        "truth": sorted([list(pair) for pair in dataset.ground_truth]),
        "cross_sources": list(dataset.cross_sources) if dataset.cross_sources else None,
    }


def restaurant(seed: int, record_count: int) -> Dict[str, object]:
    """A Restaurant-generator dataset with the paper's duplicate share (106/858)."""
    from repro.datasets.restaurant import RestaurantGenerator

    duplicates = round(record_count * 106 / 858)
    return _plain(
        RestaurantGenerator(record_count=record_count, duplicate_pairs=duplicates, seed=seed).generate()
    )


def product(seed: int, scale: float) -> Dict[str, object]:
    """A Product-generator (Abt-Buy shape) dataset at ``scale`` of the paper's size."""
    from repro.datasets.product import load_product

    return _plain(load_product(seed=seed, scale=scale))


def prefixed(dataset: Dict[str, object], prefix: str) -> Dict[str, object]:
    """``dataset`` with ``prefix`` on every record id, so datasets can share a truth set."""
    records = [{**entry, "record_id": prefix + str(entry["record_id"])} for entry in dataset["records"]]  # type: ignore[union-attr]
    truth = [[prefix + a, prefix + b] for a, b in dataset["truth"]]  # type: ignore[union-attr]
    return {**dataset, "records": records, "truth": truth}


def event_script(
    dataset: Dict[str, object], seed: int, batch_size: int, revise_every: int
) -> List[Dict[str, object]]:
    """The stream-durable event script over ``dataset``.

    Records arrive ``batch_size`` at a time in dataset order.  After every
    ``revise_every``-th append, one resident record chosen by the seed is
    updated (its name gains a token) and another is retracted.
    """
    rng = random.Random(seed)
    records: List[Record] = dataset["records"]  # type: ignore[assignment]
    resident: List[str] = []
    current: Dict[str, Record] = {}
    script: List[Dict[str, object]] = []
    for index, start in enumerate(range(0, len(records), batch_size), start=1):
        batch = records[start : start + batch_size]
        script.append({"op": "append", "records": batch})
        for record in batch:
            resident.append(str(record["record_id"]))
            current[str(record["record_id"])] = record
        if index % revise_every == 0 and len(resident) > 2:
            target = rng.choice(resident)
            old = current[target]
            attributes = dict(old["attributes"])  # type: ignore[arg-type]
            attributes["name"] = f"{attributes['name']} rev{index}"
            revised = {"record_id": target, "attributes": attributes, "source": old["source"]}
            current[target] = revised
            script.append({"op": "update", "record": revised})
            victim = rng.choice(resident)
            resident.remove(victim)
            del current[victim]
            script.append({"op": "retract", "record_id": victim})
    return script


def digest(value: object) -> str:
    """SHA-256 of the canonical JSON form of ``value``."""
    encoded = json.dumps(value, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()
