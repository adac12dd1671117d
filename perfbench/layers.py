"""Per-layer tracing from outside the program.

``Tracer.install()`` wraps the public functions listed in ``TARGETS``
and rebinds every module-level name that points at one of them
(callers often bind them with ``from ... import``), so each call into a
layer records a span: name, start, end, parent span and the DAG being
run. Generator functions are timed per resumption, not per call, so a
span never covers simulated waiting. Spans stay in memory, in columnar
arrays, until ``write()``; ``uninstall()`` restores every binding.

Self time is a span's duration minus the duration of its child spans.
``layer_metrics()`` folds spans, boundary counters and the engine's
own counters into the per-layer metrics named after ``src/repro``
modules.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns

ROOT = Path(__file__).resolve().parents[1]


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Boundary counters: (tracer, args, kwargs, result) -> None, run after
# the call returns (or per yielded item for generators).
def _count_calls(key):
    def count(tracer, args, kwargs, result):
        tracer.counts[key] += 1
    return count


def _count_len_result(key):
    def count(tracer, args, kwargs, result):
        tracer.counts[key] += len(result)
    return count


def _count_spill(tracer, args, kwargs, result):
    tracer.counts["shuffle.spill_bytes"] += sum(r.nbytes for r in result)


def _count_written(tracer, args, kwargs, result):
    tracer.counts["hdfs.records_written"] += len(
        _arg(args, kwargs, 2, "records"))


def _count_agg_rows(tracer, args, kwargs, result):
    tracer.counts["engines.pig.agg_rows"] += len(_arg(args, kwargs, 0, "rows"))


def _count_fragment_rows(tracer, args, kwargs, result):
    if tracer.parent_name() != "repro.engines.hive.fragments.execute_fragment":
        tracer.counts["engines.hive.fragment_rows"] += len(result)


def _count_tick(tracer, args, kwargs, result):
    tracer.counts["yarn.sched_ticks"] += 1
    tracer.counts["yarn.containers_allocated"] += len(result)


def _keep_instance(tracer, args, kwargs, result):
    tracer.instances[type(args[0]).__name__][id(args[0])] = args[0]


# (layer group, module, qualified name, "call" | "gen", boundary counter)
TARGETS = [
    ("sim.run", "repro.sim.core", "Environment.run", "call", None),
    ("yarn.heartbeat", "repro.yarn.resource_manager",
     "ResourceManager.node_heartbeat", "call",
     _count_calls("yarn.heartbeats")),
    ("yarn.sched_tick", "repro.yarn.scheduler", "CapacityScheduler.tick",
     "call", _count_tick),
    ("tez.am.dispatch", "repro.tez.am.dispatcher", "Dispatcher.dispatch",
     "call", _count_calls("tez.am.dispatched")),
    ("tez.am.schedule", "repro.tez.am.task_scheduler",
     "TaskSchedulerService.schedule", "call", _keep_instance),
    ("tez.am.schedule", "repro.tez.am.task_scheduler",
     "TaskSchedulerService.release_slot", "call", None),
    ("tez.am.journal_fold", "repro.tez.am.journal", "RecoveryJournal.fold",
     "call", None),
    ("tez.submit", "repro.tez.client", "TezClient.submit_dag", "call", None),
    ("telemetry.emit", "repro.telemetry.facade", "Telemetry.event", "call",
     None),
    ("telemetry.emit", "repro.telemetry.facade", "Telemetry.span", "call",
     None),
    ("telemetry.emit", "repro.telemetry.facade", "Telemetry.finish", "call",
     None),
    ("telemetry.emit", "repro.telemetry.store", "SpanStore.add_span", "call",
     _count_calls("telemetry.records")),
    ("telemetry.emit", "repro.telemetry.store", "SpanStore.add_event",
     "call", _count_calls("telemetry.records")),
    ("telemetry.flush", "repro.telemetry.store", "SpanStore.flush", "call",
     None),
    ("shuffle.sort", "repro.shuffle.sorter", "sort_records", "call",
     _count_len_result("shuffle.records_sorted")),
    ("shuffle.sort", "repro.shuffle.sorter", "merge_sorted_runs", "gen",
     _count_calls("shuffle.records_sorted")),
    ("shuffle.group", "repro.shuffle.sorter", "group_by_key", "gen", None),
    ("shuffle.spill", "repro.shuffle.service",
     "ShuffleService.register_spill", "call", _count_spill),
    ("shuffle.spill", "repro.shuffle.service", "ShuffleService.fetch",
     "call", None),
    ("shuffle.spill", "repro.shuffle.fetcher", "Fetcher.fetch", "gen",
     _keep_instance),
    ("engines.pig.agg", "repro.engines.pig.reference",
     "partial_aggregate_states", "call", _count_agg_rows),
    ("engines.pig.agg", "repro.engines.pig.reference",
     "merge_aggregate_states", "call", _count_agg_rows),
    ("engines.pig.compile", "repro.engines.pig.compiler_tez",
     "PigTezCompiler.compile", "call", None),
    ("engines.hive.compile", "repro.engines.hive.session", "HiveSession.plan",
     "call", None),
    ("engines.hive.compile", "repro.engines.hive.compiler_tez",
     "TezCompiler.compile", "call", None),
    ("engines.hive.fragment", "repro.engines.hive.fragments",
     "execute_fragment", "call", _count_fragment_rows),
    ("engines.hive.fragment", "repro.engines.hive.fragments",
     "partial_aggregate", "call", None),
    ("engines.hive.fragment", "repro.engines.hive.fragments",
     "merge_aggregate_groups", "call", None),
    ("hdfs.write", "repro.hdfs.namenode", "Hdfs.write", "call",
     _count_written),
    ("hdfs.read", "repro.hdfs.namenode", "Hdfs.read_block", "call",
     _count_len_result("hdfs.records_read")),
    ("hdfs.read", "repro.hdfs.namenode", "Hdfs.read_file", "call",
     _count_len_result("hdfs.records_read")),
    ("workloads.generate", "repro.workloads.etl", "generate_events", "call",
     None),
    ("workloads.generate", "repro.workloads.etl", "generate_profiles",
     "call", None),
    ("workloads.generate", "repro.workloads.kmeans", "generate_points",
     "call", None),
    ("workloads.generate", "repro.workloads.tpch", "generate_tpch", "call",
     None),
]
# Every Partitioner subclass's own ``partition`` is wrapped too.
PARTITIONER = ("repro.shuffle.partitioner", "Partitioner")
PARTITION_GROUP = "shuffle.partition"


class Tracer:
    def __init__(self):
        self.names: list[str] = []     # span name per name id
        self.groups: list[str] = []    # layer group per name id
        self.kind = array("i")         # per span: name id
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")       # index of the enclosing span, -1
        self.dag_id = array("i")       # DAG index within the repetition
        self.stack: list[int] = []
        self.dag = -1
        self.counts: dict[str, int] = defaultdict(int)
        self.instances: dict[str, dict] = defaultdict(dict)
        self._undo: list[tuple] = []

    # -------------------------------------------------------- recording
    def parent_name(self) -> str:
        """Name of the innermost open span (the caller's layer)."""
        if not self.stack:
            return ""
        return self.names[self.kind[self.stack[-1]]]

    def _wrap(self, group, name, mode, fn, count):
        nid = len(self.names)
        self.names.append(name)
        self.groups.append(group)
        kind, start, end = self.kind, self.start, self.end
        parent, dag_id, stack = self.parent, self.dag_id, self.stack
        tracer = self

        if mode == "call":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                i = len(kind)
                kind.append(nid)
                parent.append(stack[-1] if stack else -1)
                dag_id.append(tracer.dag)
                end.append(0)
                stack.append(i)
                start.append(perf_counter_ns())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end[i] = perf_counter_ns()
                    stack.pop()
                if count is not None:
                    count(tracer, args, kwargs, result)
                return result
            return wrapper

        def resumed(inner, args, kwargs):
            value, exc = None, None
            while True:
                i = len(kind)
                kind.append(nid)
                parent.append(stack[-1] if stack else -1)
                dag_id.append(tracer.dag)
                end.append(0)
                stack.append(i)
                start.append(perf_counter_ns())
                try:
                    item = inner.send(value) if exc is None \
                        else inner.throw(exc)
                except StopIteration as stop:
                    return stop.value
                finally:
                    end[i] = perf_counter_ns()
                    stack.pop()
                if count is not None:
                    count(tracer, args, kwargs, item)
                try:
                    value, exc = (yield item), None
                except GeneratorExit:
                    inner.close()
                    raise
                except BaseException as thrown:  # forwarded to ``inner``
                    value, exc = None, thrown

        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            return resumed(fn(*args, **kwargs), args, kwargs)
        return gen_wrapper

    # ---------------------------------------------------- install/undo
    def _rebind(self, original, wrapped) -> None:
        """Point every module-level name bound to ``original`` (in the
        program and in this benchmark) at ``wrapped``."""
        for module in list(sys.modules.values()):
            path = getattr(module, "__file__", None) or ""
            if not path.startswith(str(ROOT)):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)
                    self._undo.append((module, attr, original))

    def _install_method(self, group, cls, attr, mode, count) -> None:
        raw = cls.__dict__[attr]
        static = isinstance(raw, staticmethod)
        fn = raw.__func__ if static else raw
        wrapped = self._wrap(group, f"{cls.__module__}.{cls.__qualname__}."
                             f"{attr}", mode, fn, count)
        setattr(cls, attr, staticmethod(wrapped) if static else wrapped)
        self._undo.append((cls, attr, raw))

    def install(self) -> "Tracer":
        for group, module_name, qualname, mode, count in TARGETS:
            module = importlib.import_module(module_name)
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                self._install_method(group, getattr(module, cls_name), attr,
                                     mode, count)
            else:
                fn = getattr(module, qualname)
                self._rebind(fn, self._wrap(group, f"{module_name}."
                                            f"{qualname}", mode, fn, count))
        base = getattr(importlib.import_module(PARTITIONER[0]),
                       PARTITIONER[1])
        todo = list(base.__subclasses__())
        while todo:
            cls = todo.pop()
            todo.extend(cls.__subclasses__())
            if "partition" in cls.__dict__:
                self._install_method(PARTITION_GROUP, cls, "partition",
                                     "call",
                                     _count_calls("shuffle.partition_calls"))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # ---------------------------------------------------------- results
    def group_times(self, bucket=lambda group: group) -> tuple[dict, dict]:
        """Per bucket of layer groups, in seconds: busy time (spans not
        nested in a span of the same bucket) and self time (span
        durations minus their child spans)."""
        n = len(self.kind)
        kind, start, end, parent = self.kind, self.start, self.end, \
            self.parent
        buckets = list(dict.fromkeys(bucket(g) for g in self.groups))
        gid = [buckets.index(bucket(g)) for g in self.groups]  # per name
        bit = [1 << b for b in gid]
        child = [0] * n
        above = [0] * n        # buckets of the enclosing spans, as bits
        busy = [0] * len(buckets)
        own = [0] * len(buckets)
        for i in range(n):
            p = parent[i]
            dur = end[i] - start[i]
            if p >= 0:
                child[p] += dur
                above[i] = above[p] | bit[kind[p]]
            if not above[i] & bit[kind[i]]:
                busy[gid[kind[i]]] += dur
        for i in range(n):
            own[gid[kind[i]]] += end[i] - start[i] - child[i]
        return ({g: busy[j] / 1e9 for j, g in enumerate(buckets)},
                {g: own[j] / 1e9 for j, g in enumerate(buckets)})

    def write(self, path: Path) -> int:
        """Write every span as a tab-separated line: name, start_ns,
        end_ns, parent index (-1 for none), DAG index."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            f.write("name\tstart_ns\tend_ns\tparent\tdag\n")
            for i in range(len(self.kind)):
                f.write(f"{self.names[self.kind[i]]}\t{self.start[i]}\t"
                        f"{self.end[i]}\t{self.parent[i]}\t"
                        f"{self.dag_id[i]}\n")
        return len(self.kind)


def layer_metrics(tracer: Tracer, rep) -> dict:
    """Per-layer metrics of one traced repetition: work counts at the
    layer boundaries, busy seconds per layer group (``<group>_s``) and
    the engine's own counters."""
    busy, own = tracer.group_times()
    shuffle_busy, _ = tracer.group_times(lambda g: g.split(".")[0])
    counts = tracer.counts
    schedulers = tracer.instances["TaskSchedulerService"].values()
    placed = sum(s.tasks_placed for s in schedulers)
    reuse = sum(s.reuse_hits for s in schedulers)
    client = rep.client
    templates = client.coordinator.template_summaries() \
        if client.session else []
    hits = sum(t["hits"] for t in templates)
    lookups = hits + sum(t["misses"] for t in templates)
    events = rep.sim.env.heap_pushes
    metrics = {f"{g}_s": v for g, v in busy.items()
               if g not in ("shuffle.spill", "tez.am.dispatch")}
    metrics.update({
        "shuffle.busy_s": shuffle_busy["shuffle"],
        "sim.events": events,
        "sim.self_s": own["sim.run"],
        "sim.us_per_event": own["sim.run"] / events * 1e6,
        "yarn.heartbeats": counts["yarn.heartbeats"],
        "yarn.sched_ticks": counts["yarn.sched_ticks"],
        "yarn.containers_allocated": counts["yarn.containers_allocated"],
        "tez.am.dispatched": counts["tez.am.dispatched"],
        "tez.am.dispatch_self_s": own["tez.am.dispatch"],
        "tez.am.reuse_ratio": reuse / placed if placed else 0.0,
        "tez.am.attempts_failed": sum(d.attempts_failed for d in rep.dags),
        "tez.templates.hit_ratio": hits / lookups if lookups else 0.0,
        "tez.templates.fallbacks": sum(t["fallbacks"] for t in templates),
        "telemetry.records": counts["telemetry.records"],
        "shuffle.records_sorted": counts["shuffle.records_sorted"],
        "shuffle.partition_calls": counts["shuffle.partition_calls"],
        "shuffle.spill_bytes": counts["shuffle.spill_bytes"],
        "shuffle.fetch_retries": sum(
            f.retries for f in tracer.instances["Fetcher"].values()),
        "engines.pig.agg_rows": counts["engines.pig.agg_rows"],
        "engines.hive.fragment_rows": counts["engines.hive.fragment_rows"],
        "hdfs.records_written": counts["hdfs.records_written"],
        "hdfs.records_read": counts["hdfs.records_read"],
    })
    return metrics


# The per-layer metrics ``--trace 1`` reports in its JSON line: work
# counts, and the busy times of layers that every workload crosses.
# The times of layers some workload never enters (engine compilers and
# operators, sort/group/partition, HDFS, span-store flush) would read
# 0.0 on every run of that workload; they are printed, not reported.
REPORTED = [
    "sim.events", "sim.run_s", "sim.self_s", "sim.us_per_event",
    "yarn.heartbeats", "yarn.heartbeat_s", "yarn.sched_ticks",
    "yarn.sched_tick_s", "yarn.containers_allocated",
    "tez.am.dispatched", "tez.am.dispatch_self_s", "tez.am.schedule_s",
    "tez.am.reuse_ratio", "tez.am.attempts_failed",
    "tez.am.journal_fold_s", "tez.submit_s", "tez.templates.hit_ratio",
    "tez.templates.fallbacks", "telemetry.records", "telemetry.emit_s",
    "shuffle.busy_s", "shuffle.records_sorted", "shuffle.partition_calls",
    "shuffle.spill_bytes", "shuffle.fetch_retries",
    "engines.pig.agg_rows", "engines.hive.fragment_rows",
    "hdfs.records_written", "hdfs.records_read", "workloads.generate_s",
    "bench.trace_overhead_frac",
]
