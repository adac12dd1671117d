"""Pig → Tez compiler (paper 5.3).

Produces a single Tez DAG per script:

* relations with several consumers become *multi-output vertices* (the
  modeling gap the paper calls out for MapReduce);
* local ops (filter/foreach/foreach_batch/flatten) fuse into their
  producer's vertex;
* ORDER BY uses the paper's sample-histogram pattern: the producer
  feeds a 1-task histogram vertex, which (a) broadcasts range
  boundaries to a partitioner vertex and (b) sends a
  VertexManagerEvent to the order vertex's custom
  :class:`PartitionerDefinedVertexManager`, which adapts the vertex's
  parallelism to the observed key distribution before scheduling;
* skewed joins reuse the same machinery to range-partition both sides.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Optional

from ...shuffle import Partitioner, RangePartitioner
from ...shuffle.sorter import comparable_keys, sort_key
from ...tez import (
    DAG,
    DataMovementType,
    DataSinkDescriptor,
    DataSourceDescriptor,
    Descriptor,
    Edge,
    EdgeProperty,
    ShuffleVertexManager,
    ShuffleVertexManagerConfig,
    Vertex,
    VertexManagerPlugin,
)
from ...tez.events import VertexManagerEvent
from ...tez.library import (
    BroadcastKVInput,
    BroadcastKVOutput,
    FnProcessor,
    HdfsInput,
    HdfsInputInitializer,
    HdfsOutput,
    HdfsOutputCommitter,
    OneToOneInput,
    OneToOneOutput,
    OrderedGroupedKVInput,
    OrderedPartitionedKVOutput,
    UnorderedKVInput,
    UnorderedPartitionedKVOutput,
)
from .model import PigScript, Relation, batch_op
from .reference import (
    key_tuples,
    merge_aggregate_states,
    partial_aggregate_states,
)

__all__ = ["PigTezCompiler", "PigTezConfig",
           "PartitionerDefinedVertexManager", "IndexPartitioner"]


@dataclass
class PigTezConfig:
    default_parallel: int = 4
    sample_rate: int = 10          # 1-in-N sampling for order/skew
    auto_parallelism: bool = True
    bytes_per_reducer: int = 64 * 1024 * 1024
    output_base: str = "/tmp/pig"


class IndexPartitioner(Partitioner):
    """Routes by a pre-computed partition index carried in the key:
    keys are (partition_index, real_key...) tuples."""

    def partition(self, key: Any, num_partitions: int) -> int:
        return min(int(key[0]), num_partitions - 1)


class PartitionerDefinedVertexManager(VertexManagerPlugin):
    """Custom manager (paper 5.3): waits for the histogram vertex's
    event carrying the boundary count, sets the vertex's parallelism to
    match, then schedules tasks once source data is complete."""

    def __init__(self, ctx, payload=None):
        super().__init__(ctx, payload)
        self._configured = False
        self._completed: dict[str, set[int]] = {}
        self._started = False

    def initialize(self) -> None:
        self._completed = {s: set() for s in self.ctx.source_vertices()}

    def on_vertex_started(self) -> None:
        self._started = True
        self._maybe_schedule()

    def on_vertex_manager_event(self, event: VertexManagerEvent) -> None:
        payload = event.payload or {}
        partitions = payload.get("num_partitions")
        if partitions and not self._configured:
            self._configured = True
            if partitions < self.ctx.vertex_parallelism:
                self.ctx.set_parallelism(partitions)
        self._maybe_schedule()

    def on_source_task_completed(self, vertex_name: str,
                                 task_index: int) -> None:
        self._completed.setdefault(vertex_name, set()).add(task_index)
        self._maybe_schedule()

    def _maybe_schedule(self) -> None:
        if not (self._started and self._configured):
            return
        if any(self.ctx.source_parallelism(s) < 1 for s in self._completed):
            return
        ready = all(
            len(done) >= self.ctx.source_parallelism(s)
            for s, done in self._completed.items()
        )
        if ready:
            self._schedule_all()


class _PStage:
    def __init__(self, name: str, parallelism: int):
        self.name = name
        self.parallelism = parallelism
        self.roots: dict[str, tuple[DataSourceDescriptor, Callable]] = {}
        # (src_stage, movement, emit(ctx, rows, inputs), decoder,
        #  grouped, bytes_per_record, partitioner)
        self.in_edges: list[tuple] = []
        self.combine: Optional[Callable] = None   # (ctx, inputs) -> rows
        self.ops: list[Callable] = []             # rows -> rows
        self.sinks: list[tuple[str, str, list[str], int]] = []
        self.manager: Optional[Descriptor] = None
        self.events_fn: Optional[Callable] = None


class PigTezCompiler:
    def __init__(self, config: Optional[PigTezConfig] = None):
        self.config = config or PigTezConfig()
        self._seq = itertools.count(1)

    # ------------------------------------------------------------- public
    def compile(self, script: PigScript) -> tuple[DAG, dict[str, str]]:
        """Returns (dag, {store path: hdfs path})."""
        script.validate()
        self._stages: list[_PStage] = []
        self._by_rel: dict[int, _PStage] = {}
        self._consumer_counts: dict[int, int] = {}
        live = script.live_relations()
        live_ids = {id(r) for r in live}
        for rel in live:
            for parent in rel.parents:
                self._consumer_counts[id(parent)] = (
                    self._consumer_counts.get(id(parent), 0) + 1
                )
        for rel, _path in script.stores:
            self._consumer_counts[id(rel)] = (
                self._consumer_counts.get(id(rel), 0) + 1
            )
        outputs: dict[str, str] = {}
        for rel, path in script.stores:
            stage = self._build(rel)
            stage.sinks.append((
                f"store_{next(self._seq)}", path, list(rel.schema), 48,
            ))
            outputs[path] = path
        dag = self._materialize(script.name)
        return dag, outputs

    # ------------------------------------------------------------ helpers
    def _new_stage(self, label: str, parallelism: int) -> _PStage:
        stage = _PStage(f"{label}_{next(self._seq)}", parallelism)
        self._stages.append(stage)
        return stage

    def _svm(self) -> Descriptor:
        return Descriptor(ShuffleVertexManager, ShuffleVertexManagerConfig(
            auto_parallelism=self.config.auto_parallelism,
            desired_task_input_bytes=self.config.bytes_per_reducer,
        ))

    def _is_shared(self, rel: Relation) -> bool:
        return self._consumer_counts.get(id(rel), 0) > 1

    def _disable_auto(self, stage: _PStage) -> None:
        """A stage feeding a one-to-one edge must keep its static
        parallelism (runtime shrinking would break task pairing)."""
        if stage.manager is not None and \
                stage.manager.cls is ShuffleVertexManager:
            stage.manager = Descriptor(
                ShuffleVertexManager,
                ShuffleVertexManagerConfig(auto_parallelism=False),
            )

    def _continue_from(self, rel: Relation) -> _PStage:
        """Stage in which ``rel``'s single consumer may append ops.

        For shared relations a fresh stage is connected one-to-one so
        each consumer gets its own copy of the pipeline tail.
        """
        stage = self._build(rel)
        if not self._is_shared(rel):
            return stage
        self._disable_auto(stage)
        follower = self._new_stage("fused", -1)
        follower.in_edges.append((
            stage, DataMovementType.ONE_TO_ONE,
            lambda ctx, rows, inputs: list(rows),
            lambda ctx, data: list(data),
            False, 72, None,
        ))
        follower.combine = _single_input_combine(stage.name)
        return follower

    # -------------------------------------------------------- compilation
    def _build(self, rel: Relation) -> _PStage:
        if id(rel) in self._by_rel:
            return self._by_rel[id(rel)]
        builder = getattr(self, f"_build_{rel.op}")
        stage = builder(rel)
        self._by_rel[id(rel)] = stage
        return stage

    def _build_load(self, rel: Relation) -> _PStage:
        stage = self._new_stage(f"load", -1)
        # Name the root input after the stage (per-compile counter),
        # not the relation (process-global counter): recompiles of the
        # same script must be structurally identical or the session
        # AM's execution-template cache can never match them.
        input_name = f"in_{stage.name}"
        stage.roots[input_name] = (
            DataSourceDescriptor(
                Descriptor(HdfsInput),
                Descriptor(HdfsInputInitializer,
                           {"paths": [rel.params["path"]]}),
            ),
            _tuple_decoder(list(rel.schema)),
        )
        stage.combine = _single_input_combine(input_name)
        return stage

    def _build_filter(self, rel: Relation) -> _PStage:
        stage = self._continue_from(rel.parents[0])
        pred = rel.params["predicate"]
        stage.ops.append(lambda rows, _p=pred: [r for r in rows if _p(r)])
        return stage

    def _build_foreach(self, rel: Relation) -> _PStage:
        stage = self._continue_from(rel.parents[0])
        fn = rel.params["fn"]
        stage.ops.append(lambda rows, _f=fn: [_f(r) for r in rows])
        return stage

    def _build_foreach_batch(self, rel: Relation) -> _PStage:
        stage = self._continue_from(rel.parents[0])
        stage.ops.append(batch_op(rel))
        return stage

    def _build_flatten(self, rel: Relation) -> _PStage:
        stage = self._continue_from(rel.parents[0])
        fn = rel.params["fn"]
        stage.ops.append(
            lambda rows, _f=fn: [o for r in rows for o in _f(r)]
        )
        return stage

    def _build_group(self, rel: Relation) -> _PStage:
        producer = self._build(rel.parents[0])
        keys = rel.params["keys"]
        stage = self._new_stage("group", self.config.default_parallel)
        stage.manager = self._svm()

        def emit(ctx, rows, inputs, _k=keys):
            return list(zip(key_tuples(rows, _k), rows))

        def decode(ctx, data, _k=keys):
            return [
                {"group": key if len(_k) > 1 else key[0], "bag": bag}
                for key, bag in data
            ]

        stage.in_edges.append((
            producer, DataMovementType.SCATTER_GATHER, emit, decode,
            True, 72, None,
        ))
        stage.combine = _single_input_combine(producer.name)
        return stage

    def _build_aggregate(self, rel: Relation) -> _PStage:
        producer = self._build(rel.parents[0])
        keys, aggs = rel.params["keys"], rel.params["aggs"]
        parallelism = self.config.default_parallel if keys else 1
        stage = self._new_stage("agg", parallelism)
        if keys:
            stage.manager = self._svm()

        def emit(ctx, rows, inputs, _k=keys, _a=aggs):
            return partial_aggregate_states(rows, _k, _a)

        def decode(ctx, data, _k=keys, _a=aggs):
            return merge_aggregate_states(data, _k, _a)

        stage.in_edges.append((
            producer, DataMovementType.SCATTER_GATHER, emit, decode,
            True, 48, None,
        ))
        stage.combine = _single_input_combine(producer.name)
        return stage

    def _build_distinct(self, rel: Relation) -> _PStage:
        producer = self._build(rel.parents[0])
        schema = list(rel.schema)
        stage = self._new_stage("distinct", self.config.default_parallel)
        stage.manager = self._svm()

        def emit(ctx, rows, inputs, _s=schema):
            return [(key, None) for key in key_tuples(rows, _s)]

        def decode(ctx, data, _s=schema):
            return [dict(zip(_s, key)) for key, _vals in data]

        stage.in_edges.append((
            producer, DataMovementType.SCATTER_GATHER, emit, decode,
            True, 48, None,
        ))
        stage.combine = _single_input_combine(producer.name)
        return stage

    def _build_union(self, rel: Relation) -> _PStage:
        left = self._build(rel.parents[0])
        right = self._build(rel.parents[1])
        stage = self._new_stage("union", self.config.default_parallel)

        def emit(ctx, rows, inputs):
            return [(i, r) for i, r in enumerate(rows)]

        flat = lambda ctx, data: [r for _i, r in data]
        for producer in (left, right):
            stage.in_edges.append((
                producer, DataMovementType.SCATTER_GATHER, emit, flat,
                False, 72, None,
            ))

        def combine(ctx, inputs, _l=left.name, _r=right.name):
            return list(inputs[_l]) + list(inputs[_r])

        stage.combine = combine
        return stage

    def _build_join(self, rel: Relation) -> _PStage:
        if rel.params.get("skewed"):
            return self._build_skewed_join(rel)
        left = self._build(rel.parents[0])
        right = self._build(rel.parents[1])
        stage = self._new_stage("join", self.config.default_parallel)
        stage.manager = self._svm()
        lk, rk = rel.params["left_keys"], rel.params["right_keys"]

        def emit_keys(keys):
            def emit(ctx, rows, inputs, _k=keys):
                return list(zip(key_tuples(rows, _k), rows))
            return emit

        flat = lambda ctx, data: [r for _k, r in data]
        stage.in_edges.append((
            left, DataMovementType.SCATTER_GATHER, emit_keys(lk), flat,
            False, 72, None,
        ))
        stage.in_edges.append((
            right, DataMovementType.SCATTER_GATHER, emit_keys(rk), flat,
            False, 72, None,
        ))
        stage.combine = _join_combine(
            left.name, right.name, lk, rk, rel.params["how"],
            rel.parents[0].schema, rel.parents[1].schema,
        )
        return stage

    def _build_skewed_join(self, rel: Relation) -> _PStage:
        """Range-partitioned join driven by a key histogram."""
        left = self._build(rel.parents[0])
        right = self._build(rel.parents[1])
        lk, rk = rel.params["left_keys"], rel.params["right_keys"]
        parallel = self.config.default_parallel
        hist = self._histogram_stage(left, lk, parallel)
        lp = self._range_partition_stage(left, hist, lk)
        rp = self._range_partition_stage(right, hist, rk)
        stage = self._new_stage("skewjoin", parallel)
        stage.manager = Descriptor(PartitionerDefinedVertexManager)
        hist.events_fn = _make_histogram_events(stage.name)
        flat = lambda ctx, data: [r for _k, r in data]
        for producer in (lp, rp):
            stage.in_edges.append((
                producer, DataMovementType.SCATTER_GATHER,
                _emit_prepartitioned(), flat, False, 72,
                IndexPartitioner(),
            ))
        stage.combine = _join_combine(
            lp.name, rp.name, lk, rk, rel.params["how"],
            rel.parents[0].schema, rel.parents[1].schema,
        )
        return stage

    def _build_order(self, rel: Relation) -> _PStage:
        producer = self._build(rel.parents[0])
        keys = rel.params["keys"]
        ascending = rel.params["ascending"]
        parallel = rel.params["parallel"]
        hist = self._histogram_stage(producer, keys, parallel)
        part = self._range_partition_stage(producer, hist, keys,
                                           ascending=ascending)
        stage = self._new_stage("order", parallel)
        stage.manager = Descriptor(PartitionerDefinedVertexManager)
        hist.events_fn = _make_histogram_events(stage.name)
        stage.in_edges.append((
            part, DataMovementType.SCATTER_GATHER,
            _emit_prepartitioned(),
            lambda ctx, data: [r for _k, r in data],
            False, 72, IndexPartitioner(),
        ))
        stage.combine = _single_input_combine(part.name)

        def local_sort(rows, _k=keys, _a=ascending):
            keyed = comparable_keys(key_tuples(rows, _k))
            order = sorted(range(len(rows)), key=keyed.__getitem__,
                           reverse=not _a)
            return list(map(rows.__getitem__, order))

        stage.ops.append(local_sort)
        return stage

    def _build_limit(self, rel: Relation) -> _PStage:
        producer = self._continue_from(rel.parents[0])
        n = rel.params["n"]
        producer.ops.append(lambda rows, _n=n: rows[:_n])
        stage = self._new_stage("limit", 1)

        def emit(ctx, rows, inputs, _n=n):
            # Keys carry (producer task, sequence) so the single limit
            # task can restore the producers' order before truncating.
            return [((ctx.task_index, i), r)
                    for i, r in enumerate(rows[:_n])]

        def decode(ctx, data):
            ordered = sorted(data, key=lambda kv: kv[0])
            return [r for _k, r in ordered]

        stage.in_edges.append((
            producer, DataMovementType.SCATTER_GATHER, emit, decode,
            False, 72, None,
        ))
        stage.combine = _single_input_combine(producer.name)
        stage.ops.append(lambda rows, _n=n: rows[:_n])
        return stage

    def _histogram_stage(self, producer: _PStage, keys: list[str],
                         parallel: int) -> _PStage:
        hist = self._new_stage("histogram", 1)
        rate = self.config.sample_rate

        def emit_sample(ctx, rows, inputs, _k=keys, _r=rate):
            return [(0, s) for s in key_tuples(rows[::_r], _k)]

        def decode_sample(ctx, data, _p=parallel):
            keys_seen = [s for _zero, bag in data for s in bag]
            partitioner = RangePartitioner.from_sample(keys_seen, _p)
            # Collapse duplicate boundaries (heavy skew).
            uniq = []
            for b in partitioner.boundaries:
                if not uniq or sort_key(uniq[-1]) != sort_key(b):
                    uniq.append(b)
            return [{"boundaries": uniq}]

        hist.in_edges.append((
            producer, DataMovementType.SCATTER_GATHER, emit_sample,
            decode_sample, True, 32, None,
        ))
        hist.combine = _single_input_combine(producer.name)
        return hist

    def _range_partition_stage(self, producer: _PStage, hist: _PStage,
                               keys: list[str],
                               ascending: bool = True) -> _PStage:
        self._disable_auto(producer)
        stage = self._new_stage("partition", -1)
        stage.in_edges.append((
            producer, DataMovementType.ONE_TO_ONE,
            lambda ctx, rows, inputs: list(rows),
            lambda ctx, data: list(data),
            False, 72, None,
        ))
        stage.in_edges.append((
            hist, DataMovementType.BROADCAST,
            lambda ctx, rows, inputs: list(rows),
            lambda ctx, data: list(data),
            False, 32, None,
        ))

        def combine(ctx, inputs, _p=producer.name, _h=hist.name,
                    _k=keys, _asc=ascending):
            boundaries = inputs[_h][0]["boundaries"]
            count = len(boundaries) + 1
            rows = inputs[_p]
            parts = RangePartitioner(boundaries).partition_keys(
                key_tuples(rows, _k), count)
            if not _asc:
                parts = [count - 1 - idx for idx in parts]
            return [{"__part": idx, "__row": row}
                    for idx, row in zip(parts, rows)]

        stage.combine = combine
        return stage

    # ------------------------------------------------------- materialize
    def _materialize(self, name: str) -> DAG:
        dag = DAG(name)
        vertices: dict[str, Vertex] = {}
        emits: dict[str, dict[str, Callable]] = {
            s.name: {} for s in self._stages
        }
        partitioners: dict[tuple[str, str], Optional[Partitioner]] = {}
        for stage in self._stages:
            for (src, movement, emit, _dec, _g, _b, part) in stage.in_edges:
                emits[src.name][stage.name] = emit
                partitioners[(src.name, stage.name)] = part
        for stage in self._stages:
            fn = self._make_fn(stage, emits[stage.name])
            vertex = Vertex(
                stage.name,
                Descriptor(FnProcessor, {"fn": fn}),
                parallelism=stage.parallelism,
                vertex_manager=stage.manager,
            )
            for input_name, (source, _dec) in stage.roots.items():
                vertex.add_data_source(input_name, source)
            for sink_name, path, _schema, rb in stage.sinks:
                vertex.add_data_sink(sink_name, DataSinkDescriptor(
                    Descriptor(HdfsOutput,
                               {"path": path, "record_bytes": rb}),
                    Descriptor(HdfsOutputCommitter,
                               {"path": path, "record_bytes": rb}),
                ))
            vertices[stage.name] = vertex
            dag.add_vertex(vertex)
        for stage in self._stages:
            for (src, movement, _e, _d, grouped, bpr, part) in stage.in_edges:
                dag.add_edge(Edge(
                    vertices[src.name], vertices[stage.name],
                    _edge_property(movement, grouped, bpr, part),
                ))
        return dag

    def _make_fn(self, stage: _PStage,
                 targets: dict[str, Callable]) -> Callable:
        roots = dict(stage.roots)
        in_edges = list(stage.in_edges)
        combine = stage.combine
        ops = list(stage.ops)
        sinks = list(stage.sinks)
        events_fn = stage.events_fn

        def fn(ctx, data):
            inputs: dict[str, list] = {}
            for input_name, (_src, decoder) in roots.items():
                inputs[input_name] = decoder(ctx, data.get(input_name, []))
            for (src, _m, _e, decoder, _g, _b, _p) in in_edges:
                inputs[src.name] = decoder(ctx, data.get(src.name, []))
            rows = combine(ctx, inputs) if combine else []
            for op in ops:
                rows = op(rows)
            if events_fn is not None:
                events_fn(ctx, rows)
            out: dict[str, list] = {}
            for target, emit in targets.items():
                out[target] = emit(ctx, rows, inputs)
            for sink_name, _path, schema, _rb in sinks:
                out[sink_name] = key_tuples(rows, schema)
            return out

        return fn


# -------------------------------------------------------------- helpers
def _tuple_decoder(schema: list[str]) -> Callable:
    def decoder(ctx, records):
        return [dict(zip(schema, rec)) for rec in records]
    return decoder


def _single_input_combine(name: str) -> Callable:
    def combine(ctx, inputs, _n=name):
        return inputs[_n]
    return combine


def _join_combine(left_name, right_name, lk, rk, how,
                  left_schema, right_schema) -> Callable:
    right_only = [c for c in right_schema if c not in left_schema]

    def combine(ctx, inputs):
        right, left = inputs[right_name], inputs[left_name]
        keys = comparable_keys(key_tuples(right, rk) + key_tuples(left, lk))
        build: dict = {}
        for r, key in zip(right, keys):
            build.setdefault(key, []).append(r)
        out = []
        for l, key in zip(left, keys[len(right):]):
            matches = build.get(key, [])
            if matches:
                for m in matches:
                    merged = dict(l)
                    merged.update({c: m[c] for c in right_only})
                    out.append(merged)
            elif how == "left":
                merged = dict(l)
                merged.update({c: None for c in right_only})
                out.append(merged)
        return out

    return combine


def _emit_prepartitioned() -> Callable:
    def emit(ctx, rows, inputs):
        return [((r["__part"],), r["__row"]) for r in rows]
    return emit


def _make_histogram_events(target_vertex: str) -> Callable:
    def events(ctx, rows, _t=target_vertex):
        boundaries = rows[0]["boundaries"] if rows else []
        ctx.send_event(VertexManagerEvent(
            target_vertex=_t,
            payload={"num_partitions": max(1, len(boundaries) + 1)},
        ))
    return events


def _edge_property(movement, grouped: bool, bytes_per_record: float,
                   partitioner) -> EdgeProperty:
    payload: dict[str, Any] = {"bytes_per_record": bytes_per_record}
    if partitioner is not None:
        payload["partitioner"] = partitioner
    if movement == DataMovementType.BROADCAST:
        return EdgeProperty(
            movement,
            output_descriptor=Descriptor(BroadcastKVOutput, payload),
            input_descriptor=Descriptor(BroadcastKVInput),
        )
    if movement == DataMovementType.ONE_TO_ONE:
        return EdgeProperty(
            movement,
            output_descriptor=Descriptor(OneToOneOutput, payload),
            input_descriptor=Descriptor(OneToOneInput),
        )
    if grouped:
        return EdgeProperty(
            movement,
            output_descriptor=Descriptor(OrderedPartitionedKVOutput,
                                         payload),
            input_descriptor=Descriptor(OrderedGroupedKVInput),
        )
    return EdgeProperty(
        movement,
        output_descriptor=Descriptor(UnorderedPartitionedKVOutput,
                                     payload),
        input_descriptor=Descriptor(UnorderedKVInput),
    )


