"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload etl_busy --seed 1 --seconds 20 \\
        --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Each repetition of the workload runs in a fresh single-threaded
process: interpreter start, imports, input generation from the seed,
HDFS load, cluster and session start, then every DAG. Repetitions run
one at a time until ``--seconds`` have elapsed. Afterwards, outside the
timed phase, every DAG's rows are checked against the engines'
reference backends, and a pinned seed's makespan and rows digest
against ``pins.json``.

``wall_s`` and ``setup_s`` are host times scaled to a reference host
speed, which each repetition samples with ``hostspeed.Probe``; the
unscaled host times are printed beside them.

``--trace 0`` prints the end-to-end metrics (tracing off). ``--trace 1``
spends half the time untraced and half traced, prints the per-layer
metrics of the traced repetitions and the tracing overhead, and writes
the first traced repetition's spans under ``.perfbench_out/``.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` (DAGs) and ``metrics``.
"""

import argparse
import contextlib
import json
import os
import pickle
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

# Reported in the JSON line of ``--trace 0`` (name -> unit). Printed
# besides: the unscaled wall_host_s and setup_host_s; tasks_per_s and
# the per-DAG latencies, which follow wall_s because a repetition's
# task and DAG counts are fixed; and sim_makespan_s, which pins.json
# gates.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


@contextlib.contextmanager
def local_tempdir():
    """Point ``tempfile`` into the tree for the duration: the span store
    spools through it, and the benchmark writes only inside its tree."""
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(tmp)
    try:
        yield
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def measure(workload: str, seed: int, seconds: float,
            traced: bool = False) -> list:
    """Repetitions of ``workload``, each in its own process, until
    ``seconds`` have elapsed: at least one, and none started that
    would end past the budget, judged by the mean so far."""
    reps = []
    t0 = time.perf_counter()
    while True:
        result = OUT / f"rep-{os.getpid()}.pkl"
        cmd = [sys.executable, __file__, "--workload", workload,
               "--seed", str(seed), "--trace", str(int(traced)),
               "--repetition", str(result), "--keep-rows",
               str(int(not reps))]
        if traced and not reps:
            cmd += ["--spans", str(OUT / f"{workload}-seed{seed}.spans.tsv")]
        cmd += ["--started", repr(time.perf_counter())]
        subprocess.run(cmd, check=True)
        with open(result, "rb") as f:
            reps.append(pickle.load(f))
        result.unlink()
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / len(reps) > seconds:
            return reps


def repetition(args) -> int:
    """Child process: run one repetition and pickle it to the file
    named by ``--repetition``. DAG rows are reduced to digests; the
    rows themselves are kept only with ``--keep-rows 1``. The first
    host-speed sample is taken before the program is imported."""
    from hostspeed import Probe

    probe = Probe()
    probe.sample()
    from check import dag_digest
    from layers import Tracer, layer_metrics
    from scenarios import WORKLOADS

    workload = WORKLOADS[args.workload]
    tracer = Tracer().install() if args.trace else None
    try:
        rep = workload.once(args.seed, probe, started=args.started, on_dag=(
            lambda i: setattr(tracer, "dag", i)) if tracer
            else lambda i: None)
    finally:
        if tracer:
            tracer.uninstall()
    if tracer:
        rep.layers = layer_metrics(tracer, rep)
        if args.spans:
            rep.spans = (args.spans, tracer.write(Path(args.spans)))
    if args.keep_rows:
        rep.rows = pickle.dumps([d.rows for d in rep.dags])
    for dag in rep.dags:
        dag.digest, dag.rows = dag_digest(dag), None
    rep.sim = rep.client = None
    rep.peak_rss_mb = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(args.repetition, "wb") as f:
        pickle.dump(rep, f)
    return 0


def check(workload, seed: int, reps: list, pins=None) -> tuple[int, list]:
    """Failed DAGs over ``reps`` and what was wrong. The first
    repetition is checked against the reference backends and, for a
    pinned seed, against its pinned makespan and rows digest; every
    later one must match it exactly (rows digest and simulated time
    per DAG)."""
    from check import dag_mismatch, load_pins, pin_mismatch, rep_digest

    problems = []
    first = reps[0]
    expected = workload.reference(seed, first)
    bad = set()
    for i, (dag, rows, ref) in enumerate(zip(first.dags,
                                            pickle.loads(first.rows),
                                            expected)):
        why = dag_mismatch(rows, ref) if dag.ok \
            else "engine reported failure"
        if why:
            bad.add(i)
            problems.append(f"{dag.label}: {why}")
    if len(expected) != len(first.dags):
        bad.update(range(len(first.dags)))
        problems.append(f"{len(first.dags)} DAGs, {len(expected)} expected")
    why = pin_mismatch(workload.name, seed, first.makespan_s,
                       rep_digest(first), load_pins() if pins is None
                       else pins)
    if why:
        bad.update(range(len(first.dags)))
        problems.append(why)
    failed = 0
    for rep in reps:
        for i, dag in enumerate(rep.dags):
            same = (i < len(first.dags) and dag.ok
                    and dag.sim_s == first.dags[i].sim_s
                    and dag.digest == first.dags[i].digest)
            if i in bad or not same:
                failed += 1
                if i not in bad:
                    problems.append(f"{dag.label}: differs from the first "
                                    "repetition")
    return failed, problems


def quantile(values: list, q: float) -> float:
    return statistics.quantiles(sorted(values), n=100,
                                method="inclusive")[int(q * 100) - 1]


def dag_geomean_ms(reps: list) -> float:
    """Geometric mean, over the distinct DAGs of the workload (script,
    k-means iteration or query), of each one's median host latency over
    all its runs. In a mix of query types the plain median sits on the
    boundary between two types and jumps between them; this weighs
    every DAG alike."""
    per_dag: dict = {}
    for rep in reps:
        for dag in rep.dags:
            per_dag.setdefault(dag.label, []).append(dag.host_ms)
    return statistics.geometric_mean(
        statistics.median(v) for v in per_dag.values())


def end_to_end(reps: list) -> dict:
    return {
        "wall_s": statistics.median(r.wall_s for r in reps),
        "setup_s": statistics.median(r.setup_s for r in reps),
        "peak_rss_mb": max(r.peak_rss_mb for r in reps),
    }


def report_end_to_end(reps: list) -> dict:
    e2e = end_to_end(reps)
    dag_ms = [d.host_ms for r in reps for d in r.dags]
    rows = [
        ("wall_s", e2e["wall_s"], "s"),
        ("wall_host_s", statistics.median(r.wall_host_s for r in reps), "s"),
        ("tasks_per_s", sum(d.tasks for r in reps for d in r.dags)
         / sum(r.wall_host_s for r in reps), "1/s"),
        ("dag_geomean_ms", dag_geomean_ms(reps), "ms"),
        ("dag_p50_ms", statistics.median(dag_ms), "ms"),
    ]
    if len(dag_ms) >= 100:
        rows.append(("dag_p90_ms", quantile(dag_ms, 0.9), "ms"))
    rows += [
        ("setup_s", e2e["setup_s"], "s"),
        ("setup_host_s", statistics.median(r.setup_host_s for r in reps),
         "s"),
        ("peak_rss_mb", e2e["peak_rss_mb"], "MB"),
        ("sim_makespan_s", reps[0].makespan_s, "sim s"),
    ]
    samples = {"dag_geomean_ms": len(dag_ms), "dag_p50_ms": len(dag_ms),
               "dag_p90_ms": len(dag_ms)}
    for key, value, unit in rows:
        print(f"  {key:16s} {value:12.4f} {unit:6s} "
              f"(n={samples.get(key, len(reps))})")
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}


def report_layers(plain: list, traced: list) -> dict:
    from layers import REPORTED

    layers = {}
    for key in traced[0].layers:
        values = [r.layers[key] for r in traced]
        layers[key] = statistics.median(values) \
            if isinstance(values[0], float) else values[0]
    layers["bench.trace_overhead_frac"] = (
        statistics.median(r.wall_s for r in traced)
        / statistics.median(r.wall_s for r in plain) - 1)
    path, count = traced[0].spans
    print(f"  {len(traced)} traced repetitions; {count} spans of the first "
          f"written to {Path(path).relative_to(ROOT)}")
    for key, value in layers.items():
        note = "" if key in REPORTED else "  (printed only)"
        print(f"  {key:32s} {value:<24} {layer_unit(key)}{note}")
    return {k: {"value": layers[k], "unit": layer_unit(k)} for k in REPORTED}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    if name.endswith("us_per_event"):
        return "us"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def run_all(args, names) -> int:
    """Every workload in turn; the last line merges their results,
    metrics keyed ``<workload>/<metric>``."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode != 0 or not lines:
            print(f"perfbench: {name} exited with {child.returncode}",
                  file=sys.stderr)
            return child.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}/{k}": v for k, v in
                                  result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def run(args) -> int:
    from check import rep_digest
    from scenarios import WORKLOADS

    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose "
              f"from {sorted(WORKLOADS)} or all", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.trace:
        plain = measure(workload.name, args.seed, args.seconds / 2)
        traced = measure(workload.name, args.seed, args.seconds / 2,
                         traced=True)
        reps = plain + traced
    else:
        reps = measure(workload.name, args.seed, args.seconds)
    failed, problems = check(workload, args.seed, reps)
    attempted = sum(len(r.dags) for r in reps)

    print(f"{workload.name} seed={args.seed}: {len(reps)} repetitions, "
          f"{attempted} DAGs; sim_makespan_s={reps[0].makespan_s!r} "
          f"rows_digest={rep_digest(reps[0])}")
    print("  repetition walls (s), scaled: "
          + " ".join(f"{r.wall_s:.3f}" for r in reps))
    print("  repetition walls (s), host:   "
          + " ".join(f"{r.wall_host_s:.3f}" for r in reps))
    for problem in problems:
        print(f"  CHECK FAILED {problem}")
    print(f"  failed_share {failed / attempted:.4f} ({failed} of "
          f"{attempted} DAGs)")
    metrics = report_layers(plain, traced) if args.trace \
        else report_end_to_end(reps)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: one repetition in a child process (see ``measure``).
    parser.add_argument("--repetition", help=argparse.SUPPRESS)
    parser.add_argument("--keep-rows", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--spans", help=argparse.SUPPRESS)
    parser.add_argument("--started", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    with local_tempdir():
        return repetition(args) if args.repetition else run(args)


if __name__ == "__main__":
    sys.exit(main())
