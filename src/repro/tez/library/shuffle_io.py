"""Built-in shuffle inputs/outputs (paper 4.1: the runtime library).

These implement the physical transport of edges against the per-node
shuffle service, with the MapReduce-inherited robustness behaviour:
fetch retry with back-off happens inside the fetcher; permanently lost
data produces an InputReadErrorEvent and the input *stays alive*,
caching what it already fetched, until the framework regenerates the
missing output and routes a fresh DataMovementEvent.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Generator, Optional

from ...shuffle import (
    FetchFailure,
    Fetcher,
    HashPartitioner,
    assign_partitions,
    group_by_key,
    sort_records,
)
from ..events import (
    CompositeDataMovementEvent,
    DataMovementEvent,
    InputReadErrorEvent,
    TezEvent,
    VertexManagerEvent,
)
from ..runtime import LogicalInput, LogicalOutput

__all__ = [
    "OrderedPartitionedKVOutput",
    "UnorderedPartitionedKVOutput",
    "OrderedGroupedKVInput",
    "UnorderedKVInput",
    "BroadcastKVOutput",
    "BroadcastKVInput",
    "OneToOneOutput",
    "OneToOneInput",
]


def _payload_get(payload: Any, key: str, default=None):
    if isinstance(payload, dict):
        return payload.get(key, default)
    return default


class _SpillOutputBase(LogicalOutput):
    """Common machinery: buffer records, partition, register a spill,
    emit one DataMovementEvent per partition."""

    sorted_output = False

    def __init__(self, ctx, spec, payload):
        super().__init__(ctx, spec, payload)
        self.records: list = []
        self.partitioner = _payload_get(payload, "partitioner") \
            or HashPartitioner()
        self.bytes_per_record = _payload_get(payload, "bytes_per_record")
        self.report_stats = _payload_get(payload, "report_stats", True)
        self.combiner = _payload_get(payload, "combiner")

    def write(self, records: list) -> Generator:
        self.records.extend(records)
        yield from ()

    def _partition_records(self) -> dict[int, list]:
        count = self.spec.physical_count
        partitions: dict[int, list] = {p: [] for p in range(count)}
        if count == 1:
            partitions[0] = list(self.records)
            return partitions
        keys = list(map(itemgetter(0), self.records))
        parts = assign_partitions(self.partitioner, keys, count)
        for record, part in zip(self.records, parts):
            partitions[part].append(record)
        return partitions

    def close(self) -> Generator:
        ctx = self.ctx
        spec_model = ctx.services.spec
        partitions = self._partition_records()
        # CPU: partitioning pass (+ sort per partition when ordered).
        yield ctx.compute(spec_model.compute_time(len(self.records)))
        if self.sorted_output:
            yield ctx.compute(spec_model.sort_time(len(self.records)))
            for part, recs in partitions.items():
                partitions[part] = sort_records(recs)
        if self.combiner is not None:
            combined = {}
            for part, recs in partitions.items():
                combined[part] = self.combiner(recs)
            partitions = combined
        # Spill to local disk through the node's shuffle service.
        service = ctx.services.shuffle.on_node(ctx.node_id)
        app_id = ctx.services.job_token.owner
        spill_id = f"{ctx.task.attempt_id}/{self.spec.target_name}"
        refs = service.register_spill(
            app_id, spill_id, partitions,
            token=ctx.services.job_token,
            bytes_per_record=self.bytes_per_record,
        )
        total_bytes = sum(r.nbytes for r in refs)
        yield ctx.io_wait(total_bytes / spec_model.disk_write_bw)
        ctx.count("shuffle_bytes_written", total_bytes)
        events: list[TezEvent] = []
        contiguous = all(
            ref.partition == i for i, ref in enumerate(refs)
        )
        if getattr(self.spec, "composite", False) and len(refs) > 1 \
                and contiguous:
            # One composite per source attempt covering the whole
            # partition range (real Tez's CompositeDataMovementEvent):
            # the AM expands it lazily per consumer.
            event = CompositeDataMovementEvent(
                source_vertex=ctx.vertex_name,
                source_task_index=ctx.task_index,
                source_output_start=0,
                count=len(refs),
                version=ctx.attempt,
                payloads=tuple(refs),
            )
            event._edge_target = self.spec.target_name
            events.append(event)
        else:
            for ref in refs:
                event = DataMovementEvent(
                    source_vertex=ctx.vertex_name,
                    source_task_index=ctx.task_index,
                    source_output_index=ref.partition,
                    payload=ref,
                    version=ctx.attempt,
                )
                event._edge_target = self.spec.target_name
                events.append(event)
        if self.report_stats:
            ctx.send_event(VertexManagerEvent(
                target_vertex=self.spec.target_name,
                payload={
                    "output_bytes": total_bytes,
                    "producer_vertex": ctx.vertex_name,
                },
                producer_task_index=ctx.task_index,
            ))
        return events


class OrderedPartitionedKVOutput(_SpillOutputBase):
    """Partitioned + key-sorted output (the classic map-side shuffle)."""

    sorted_output = True


class UnorderedPartitionedKVOutput(_SpillOutputBase):
    """Partitioned but unsorted (hash-join style distribution)."""

    sorted_output = False


class BroadcastKVOutput(_SpillOutputBase):
    """Single partition replicated to all consumers (physical count 1)."""

    sorted_output = False


class OneToOneOutput(_SpillOutputBase):
    """Single partition destined for exactly one consumer task."""

    sorted_output = False


class _FetchingInputBase(LogicalInput):
    """Common machinery: await one DataMovementEvent per physical
    input, fetch as events arrive, survive lost spills by reporting
    InputReadError and waiting for regenerated data."""

    def __init__(self, ctx, spec, payload):
        super().__init__(ctx, spec, payload)
        # (source_task, source_output) -> (version, records | None)
        self.fetched: dict[tuple[int, int], tuple[int, list]] = {}
        self.total_bytes = 0

    def _fetcher(self) -> Fetcher:
        services = self.ctx.services
        return Fetcher(
            services.env,
            services.cluster,
            services.shuffle,
            app_id=services.job_token.owner,
            reader_node=self.ctx.node_id,
            job_token=services.job_token,
            owner=self.ctx.task.attempt_id,
        )

    def _gather(self) -> Generator:
        """Fetch until every expected physical input has arrived."""
        expected = self.spec.physical_count
        fetcher = self._fetcher()
        inline = self.ctx.inline
        while len(self.fetched) < expected:
            if inline and self.events.items:
                # Fast path: drain already-delivered events without a
                # getter round-trip through the kernel.
                event = self.events.items.popleft()
            else:
                event = yield self.events.get()
            if not isinstance(event, DataMovementEvent):
                continue
            key = (event.source_task_index, event.source_output_index)
            prev = self.fetched.get(key)
            if prev is not None and prev[0] >= event.version:
                continue  # stale duplicate
            ref = event.payload
            try:
                if inline:
                    records = yield from fetcher.fetch(ref)
                else:
                    records = yield self.ctx.env.process(
                        fetcher.fetch(ref),
                        name=f"fetch:{self.ctx.task.attempt_id}",
                    )
            except FetchFailure:
                # Report and wait: the AM will re-execute the producer
                # and route a fresh event here (paper 4.3).
                self.fetched.pop(key, None)
                self.ctx.send_event(InputReadErrorEvent(
                    source_vertex=event.source_vertex,
                    source_task_index=event.source_task_index,
                    version=event.version,
                    diagnostics=f"fetch failed for {ref}",
                ))
                continue
            self.fetched[key] = (event.version, records)
            self.total_bytes += ref.nbytes
        self.ctx.count("shuffle_bytes_read", self.total_bytes)
        runs = [
            records for _version, records in self.fetched.values()
        ]
        return runs


class OrderedGroupedKVInput(_FetchingInputBase):
    """Merges key-sorted runs and groups values by key (reduce input)."""

    def reader(self) -> Generator:
        runs = yield from self._gather()
        total = sum(len(r) for r in runs)
        # Merge cost: one comparison-heavy pass over the data.
        yield self.ctx.compute(
            self.ctx.services.spec.sort_time(total)
        )
        merged = sort_records([kv for run in runs for kv in run])
        return list(group_by_key(merged))


class UnorderedKVInput(_FetchingInputBase):
    """Concatenated unsorted records (hash-side of joins etc.)."""

    def reader(self) -> Generator:
        runs = yield from self._gather()
        total = sum(len(r) for r in runs)
        yield self.ctx.compute(
            self.ctx.services.spec.compute_time(total)
        )
        return [kv for run in runs for kv in run]


class BroadcastKVInput(UnorderedKVInput):
    """Receives every source task's full output (map-join side)."""


class OneToOneInput(UnorderedKVInput):
    """Receives exactly its twin task's output."""
