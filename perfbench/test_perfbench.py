"""The benchmark's own tests: ``python3 -m pytest perfbench -q``."""

import json
import pickle
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
from check import dag_mismatch  # noqa: E402
from hostspeed import PROBE_REF_S, Probe  # noqa: E402
from layers import REPORTED, Tracer  # noqa: E402
from scenarios import WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
DETERMINISTIC = ["sim.events", "yarn.heartbeats", "tez.am.dispatched",
                 "shuffle.records_sorted"]


def _spec():
    with open(HERE.parent / "BENCHMARK.json") as f:
        return json.load(f)


def test_metric_names_match_benchmark_json():
    spec = _spec()
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = [m["name"] for m in spec["per_layer"]]
    assert e2e == run.END_TO_END
    assert layers == REPORTED
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    for name in list(e2e) + layers:
        assert NAME.match(name), name
    assert len(set(e2e) | set(layers)) == len(e2e) + len(layers)
    for metric in spec["per_layer"]:
        assert metric["unit"] == run.layer_unit(metric["name"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) <= 0.25
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("name", ["kmeans_session", "hive_session"])
def test_deterministic_counters_repeat_across_traced_runs(name):
    first, second = (run.measure(name, 3, seconds=0, traced=True)[0]
                     for _ in range(2))
    for key in DETERMINISTIC:
        assert first.layers[key] == second.layers[key], key
    assert first.layers["sim.events"] > 0
    assert first.makespan_s == second.makespan_s
    assert [d.sim_s for d in first.dags] == [d.sim_s for d in second.dags]


def test_uninstall_restores_every_binding():
    import repro.shuffle.sorter as sorter
    import repro.tez.library.shuffle_io as shuffle_io

    before = (sorter.sort_records, shuffle_io.sort_records)
    tracer = Tracer().install()
    assert shuffle_io.sort_records is not before[1]
    tracer.uninstall()
    assert (sorter.sort_records, shuffle_io.sort_records) == before


def test_output_check_flags_altered_rows():
    workload = WORKLOADS["kmeans_session"]
    reps = run.measure(workload.name, 5, seconds=0)
    failed, problems = run.check(workload, 5, reps)
    assert failed == 0, problems

    outputs = pickle.loads(reps[0].rows)
    (path, rows), = outputs[3].items()
    altered = [(rows[0][0], rows[0][1] + 1) + tuple(rows[0][2:])] + rows[1:]
    assert dag_mismatch({path: altered}, {path: rows})
    outputs[3] = {path: altered}
    reps[0].rows = pickle.dumps(outputs)
    failed, problems = run.check(workload, 5, reps)
    assert failed == 1
    assert problems[0].startswith(reps[0].dags[3].label)


def test_probe_scales_each_stretch_by_its_bounding_samples():
    probe = Probe()
    loop = PROBE_REF_S
    probe.points = [(1.0, 1.1, loop), (2.0, 2.1, 3 * loop),
                    (4.0, 4.1, 2 * loop)]
    assert probe.lead(0.5) == pytest.approx((0.5, 0.5))
    assert probe.span(0, 1) == pytest.approx((0.9, 0.9 / 2))
    assert probe.span(1, 2) == pytest.approx((1.9, 1.9 / 2.5))
    assert probe.span(0, 2) == pytest.approx((2.8, 0.9 / 2 + 1.9 / 2.5))
    probe.sample()
    assert len(probe.points) == 4 and probe.points[-1][2] > 0
