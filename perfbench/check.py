"""Output check: every DAG's rows against the reference backends, and
a pinned seed's simulated makespan and rows digest against
``pins.json``."""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

from bench_common import rows_equal  # noqa: E402

PINS_PATH = Path(__file__).with_name("pins.json")


def dag_mismatch(rows: dict, expected: dict) -> str:
    """'' when ``rows`` match ``expected`` output by output under
    ``rows_equal``'s float tolerance, else what differs."""
    if sorted(rows) != sorted(expected):
        return f"outputs {sorted(rows)} != {sorted(expected)}"
    for name in sorted(rows):
        if not rows_equal(rows[name], expected[name]):
            return (f"rows of {name} differ "
                    f"({len(rows[name])} vs {len(expected[name])})")
    return ""


def dag_digest(dag) -> str:
    """sha256 over one DAG's rows, canonicalised like ``rows_equal``
    (floats to 4 places, rows sorted), so it is stable across runs."""
    h = hashlib.sha256()
    for name in sorted(dag.rows):
        canon = sorted(
            (tuple(round(v, 4) if isinstance(v, float) else v for v in row)
             for row in dag.rows[name]),
            key=repr)
        h.update(repr((dag.label, name, canon)).encode())
    return h.hexdigest()


def rep_digest(rep) -> str:
    """Digest of a repetition: its DAGs' digests in submission order."""
    return hashlib.sha256(
        "".join(d.digest for d in rep.dags).encode()).hexdigest()


def load_pins() -> dict:
    with open(PINS_PATH) as f:
        return json.load(f)


def pin_mismatch(workload: str, seed: int, makespan_s: float,
                 digest: str, pins: dict) -> str:
    """'' unless the seed is pinned and the makespan or digest moved."""
    pin = pins.get(workload, {}).get(str(seed))
    if pin is None:
        return ""
    if repr(makespan_s) != pin["sim_makespan_s"]:
        return (f"sim_makespan_s {makespan_s!r} != pinned "
                f"{pin['sim_makespan_s']}")
    if digest != pin["rows_digest"]:
        return f"rows digest {digest} != pinned {pin['rows_digest']}"
    return ""
