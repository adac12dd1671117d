"""Pig → MapReduce compiler: the pre-Tez baseline (paper 5.3 / 6.3).

Reproduces the classic Pig-on-MR execution shape:

* one MR job per distributed boundary, HDFS materialization between;
* relations consumed by several operators are materialized to a temp
  file once and re-read (the multi-query workaround);
* ORDER BY is the paper's three-step workaround: a sampling job, a
  client-side histogram, and a final partition/sort job whose range
  partitioner is built **on the client machine** from the sample;
* no broadcast joins, no runtime re-configuration.

Because the order-by partitioner depends on the sample produced by an
earlier job, compilation emits *job steps*: callables that build the
next MRJob after the previous ones ran (the client-side part of the
workflow).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional

from ...shuffle import RangePartitioner
from ...shuffle.sorter import sort_key
from ..mapreduce.model import MRJob
from ..mapreduce.yarn_runner import MapReduceYarnRunner
from .model import PigScript, Relation, batch_op
from .reference import (
    fold_states,
    merge_aggregate_states,
    partial_aggregate_states,
    state_combiners,
)

__all__ = ["PigMRCompiler", "PigMRConfig", "run_pig_on_mr"]


@dataclass
class PigMRConfig:
    default_parallel: int = 4
    sample_rate: int = 10
    tmp_base: str = "/tmp/pig_mr"


class _Pending:
    """Map-side work for the next job: inputs + a row pipeline."""

    def __init__(self, inputs: list[tuple[str, Callable]],
                 ops: list[Callable]):
        self.inputs = inputs          # (path, decoder records->rows)
        self.ops = ops                # rows -> rows


# A step builds one MRJob given the HDFS handle (so late steps can read
# artifacts, e.g. the order-by sample, "on the client machine").
JobStep = Callable[[Any], MRJob]


class PigMRCompiler:
    def __init__(self, config: Optional[PigMRConfig] = None):
        self.config = config or PigMRConfig()
        self._seq = itertools.count(1)

    def compile(self, script: PigScript) -> list[JobStep]:
        script.validate()
        self._steps: list[JobStep] = []
        self._done: dict[int, _Pending] = {}
        self._consumer_counts: dict[int, int] = {}
        self._script_tag = f"{script.name}_{next(self._seq)}"
        for rel in script.live_relations():
            for parent in rel.parents:
                self._consumer_counts[id(parent)] = (
                    self._consumer_counts.get(id(parent), 0) + 1
                )
        for rel, _p in script.stores:
            self._consumer_counts[id(rel)] = (
                self._consumer_counts.get(id(rel), 0) + 1
            )
        for rel, path in script.stores:
            pending = self._build(rel)
            self._emit_store(pending, rel, path)
        return self._steps

    # ------------------------------------------------------------ helpers
    def _tmp(self, label: str) -> str:
        return f"{self.config.tmp_base}/{self._script_tag}/" \
               f"{label}_{next(self._seq)}"

    def _apply_ops(self, ops: list[Callable], rows: list) -> list:
        for op in ops:
            rows = op(rows)
        return rows

    def _mapper(self, decoder: Callable, ops: list[Callable],
                emit: Callable) -> Callable:
        def mapper(records):
            rows = self._apply_ops(ops, decoder(records))
            return emit(rows)
        mapper.batch = True
        return mapper

    def _static_job(self, job: MRJob) -> None:
        self._steps.append(lambda hdfs, _j=job: _j)

    # -------------------------------------------------------- compilation
    def _build(self, rel: Relation) -> _Pending:
        cached = self._done.get(id(rel))
        if cached is not None:
            return cached
        pending = getattr(self, f"_build_{rel.op}")(rel)
        if self._consumer_counts.get(id(rel), 0) > 1:
            pending = self._materialize(pending, rel)
        self._done[id(rel)] = pending
        return pending

    def _materialize(self, pending: _Pending, rel: Relation) -> _Pending:
        """Shared relation: write it to a temp file once (map-only)."""
        if not pending.ops and len(pending.inputs) == 1:
            return pending   # already a plain file
        out = self._tmp(f"shared_{rel.op}")
        self._map_only_job(pending, out, f"shared_{rel.op}")
        return _Pending([(out, _identity_rows)], [])

    def _map_only_job(self, pending: _Pending, out: str,
                      label: str) -> None:
        path_mappers = {}
        for path, decoder in pending.inputs:
            path_mappers[path] = self._mapper(
                decoder, pending.ops, lambda rows: list(rows)
            )
        job = MRJob(
            name=f"{label}_{next(self._seq)}",
            input_paths=[p for p, _d in pending.inputs],
            output_path=out,
            mapper=next(iter(path_mappers.values())),
        )
        job.path_mappers = path_mappers
        self._static_job(job)

    def _shuffle_job(self, label: str, pendings: list[tuple[_Pending,
                                                            Callable]],
                     reducer: Callable, reducers: int, out: str,
                     combiner: Optional[Callable] = None,
                     partitioner=None) -> None:
        path_mappers = {}
        input_paths = []
        for pending, emit in pendings:
            for path, decoder in pending.inputs:
                path_mappers[path] = self._mapper(
                    decoder, pending.ops, emit
                )
                input_paths.append(path)
        job = MRJob(
            name=f"{label}_{next(self._seq)}",
            input_paths=input_paths,
            output_path=out,
            mapper=next(iter(path_mappers.values())),
            reducer=reducer,
            num_reducers=reducers,
            combiner=combiner,
            partitioner=partitioner,
        )
        job.path_mappers = path_mappers
        self._static_job(job)

    def _build_load(self, rel: Relation) -> _Pending:
        schema = list(rel.schema)

        def decoder(records, _s=schema):
            return [dict(zip(_s, rec)) for rec in records]

        return _Pending([(rel.params["path"], decoder)], [])

    def _build_filter(self, rel: Relation) -> _Pending:
        pending = self._build(rel.parents[0])
        pred = rel.params["predicate"]
        return _Pending(pending.inputs, pending.ops + [
            lambda rows, _p=pred: [r for r in rows if _p(r)]
        ])

    def _build_foreach(self, rel: Relation) -> _Pending:
        pending = self._build(rel.parents[0])
        fn = rel.params["fn"]
        return _Pending(pending.inputs, pending.ops + [
            lambda rows, _f=fn: [_f(r) for r in rows]
        ])

    def _build_foreach_batch(self, rel: Relation) -> _Pending:
        pending = self._build(rel.parents[0])
        return _Pending(pending.inputs, pending.ops + [batch_op(rel)])

    def _build_flatten(self, rel: Relation) -> _Pending:
        pending = self._build(rel.parents[0])
        fn = rel.params["fn"]
        return _Pending(pending.inputs, pending.ops + [
            lambda rows, _f=fn: [o for r in rows for o in _f(r)]
        ])

    def _build_union(self, rel: Relation) -> _Pending:
        left = self._build(rel.parents[0])
        right = self._build(rel.parents[1])
        if left.ops or right.ops:
            # Normalize both sides to plain files so a single job can
            # read the union.
            out_l = self._tmp("union_l")
            out_r = self._tmp("union_r")
            if left.ops:
                self._map_only_job(left, out_l, "union_side")
                left = _Pending([(out_l, _identity_rows)], [])
            if right.ops:
                self._map_only_job(right, out_r, "union_side")
                right = _Pending([(out_r, _identity_rows)], [])
        return _Pending(left.inputs + right.inputs, [])

    def _build_group(self, rel: Relation) -> _Pending:
        pending = self._build(rel.parents[0])
        keys = rel.params["keys"]
        out = self._tmp("group")

        def emit(rows, _k=keys):
            return [(tuple(r[k] for k in _k), r) for r in rows]

        def reducer(key, rows, _k=keys):
            return [{
                "group": key if len(_k) > 1 else key[0],
                "bag": list(rows),
            }]

        self._shuffle_job("group", [(pending, emit)], reducer,
                          self.config.default_parallel, out)
        return _Pending([(out, _identity_rows)], [])

    def _build_aggregate(self, rel: Relation) -> _Pending:
        pending = self._build(rel.parents[0])
        keys, aggs = rel.params["keys"], rel.params["aggs"]
        out = self._tmp("agg")

        def emit(rows, _k=keys, _a=aggs):
            return partial_aggregate_states(rows, _k, _a)

        def reducer(key, states, _k=keys, _a=aggs):
            return merge_aggregate_states([(key, list(states))], _k, _a)

        def combiner(key, states, _c=state_combiners(aggs)):
            return [(key, fold_states(states, _c))]

        reducers = self.config.default_parallel if keys else 1
        self._shuffle_job("agg", [(pending, emit)], reducer, reducers,
                          out, combiner=combiner)
        return _Pending([(out, _identity_rows)], [])

    def _build_distinct(self, rel: Relation) -> _Pending:
        pending = self._build(rel.parents[0])
        schema = list(rel.schema)
        out = self._tmp("distinct")

        def emit(rows, _s=schema):
            return [(tuple(r[c] for c in _s), None) for r in rows]

        def reducer(key, _values, _s=schema):
            return [dict(zip(_s, key))]

        self._shuffle_job("distinct", [(pending, emit)], reducer,
                          self.config.default_parallel, out)
        return _Pending([(out, _identity_rows)], [])

    def _build_join(self, rel: Relation) -> _Pending:
        left = self._build(rel.parents[0])
        right = self._build(rel.parents[1])
        lk, rk = rel.params["left_keys"], rel.params["right_keys"]
        how = rel.params["how"]
        right_only = [c for c in rel.parents[1].schema
                      if c not in rel.parents[0].schema]
        out = self._tmp("join")

        def emit_side(tag, keys):
            def emit(rows, _t=tag, _k=keys):
                return [
                    (tuple(r[k] for k in _k), (_t, r)) for r in rows
                ]
            return emit

        def reducer(key, tagged, _ro=right_only, _how=how):
            left_rows = [r for t, r in tagged if t == "L"]
            right_rows = [r for t, r in tagged if t == "R"]
            out_rows = []
            for l in left_rows:
                if right_rows:
                    for m in right_rows:
                        merged = dict(l)
                        merged.update({c: m[c] for c in _ro})
                        out_rows.append(merged)
                elif _how == "left":
                    merged = dict(l)
                    merged.update({c: None for c in _ro})
                    out_rows.append(merged)
            return out_rows

        self._shuffle_job(
            "join",
            [(left, emit_side("L", lk)), (right, emit_side("R", rk))],
            reducer, self.config.default_parallel, out,
        )
        return _Pending([(out, _identity_rows)], [])

    def _build_order(self, rel: Relation) -> _Pending:
        """The 3-step MR order-by the paper describes: sample job →
        client-side histogram → range-partitioned sort job."""
        pending = self._build(rel.parents[0])
        if pending.ops or len(pending.inputs) > 1:
            staged = self._tmp("presort")
            self._map_only_job(pending, staged, "presort")
            pending = _Pending([(staged, _identity_rows)], [])
        keys = rel.params["keys"]
        ascending = rel.params["ascending"]
        parallel = rel.params["parallel"]
        rate = self.config.sample_rate
        sample_out = self._tmp("sample")

        def sample_emit(rows, _k=keys, _r=rate):
            return [
                (0, tuple(r[k] for k in _k))
                for i, r in enumerate(rows) if i % _r == 0
            ]

        def sample_reducer(_key, samples):
            return [{"sample": list(samples)}]

        self._shuffle_job("sample", [(pending, sample_emit)],
                          sample_reducer, 1, sample_out)

        sort_out = self._tmp("sorted")
        src_path = pending.inputs[0][0]
        src_decoder = pending.inputs[0][1]

        def build_sort_job(hdfs, _sample=sample_out, _src=src_path,
                           _dec=src_decoder, _k=keys, _asc=ascending,
                           _p=parallel, _out=sort_out):
            # Client-side histogram from the sample artifact.
            sample_rows = hdfs.read_file(_sample)
            sample = sample_rows[0]["sample"] if sample_rows else []
            partitioner = RangePartitioner.from_sample(sample, _p)

            def mapper(records, _d=_dec, _kk=_k):
                rows = _d(records)
                return [(tuple(r[k] for k in _kk), r) for r in rows]
            mapper.batch = True

            def reducer(key, rows, _kk=_k, _a=_asc):
                ordered = sorted(
                    rows,
                    key=lambda r: tuple(sort_key(r[k]) for k in _kk),
                    reverse=not _a,
                )
                return ordered

            class _Oriented(RangePartitioner):
                def __init__(self, base, asc):
                    super().__init__(base.boundaries)
                    self._asc = asc

                def partition(self, key, num_partitions):
                    idx = super().partition(key, num_partitions)
                    if not self._asc:
                        idx = num_partitions - 1 - idx
                    return idx

            job = MRJob(
                name=f"ordersort_{id(rel)}",
                input_paths=[_src],
                output_path=_out,
                mapper=mapper,
                reducer=reducer,
                num_reducers=_p,
                partitioner=_Oriented(partitioner, _asc),
                descending_sort=not _asc,
            )
            return job

        self._steps.append(build_sort_job)
        return _Pending([(sort_out, _identity_rows)], [])

    def _build_limit(self, rel: Relation) -> _Pending:
        pending = self._build(rel.parents[0])
        n = rel.params["n"]
        out = self._tmp("limit")

        def emit(rows, _n=n):
            return [(0, r) for r in rows[:_n]]

        def reducer(_key, rows, _n=n):
            return list(rows)[:_n]

        self._shuffle_job("limit", [(pending, emit)], reducer, 1, out)
        return _Pending([(out, _identity_rows)], [])

    # ------------------------------------------------------------- stores
    def _emit_store(self, pending: _Pending, rel: Relation,
                    path: str) -> None:
        schema = list(rel.schema)

        def emit(rows, _s=schema):
            return [tuple(r[c] for c in _s) for r in rows]

        self._map_only_job(
            _Pending(pending.inputs, pending.ops + [emit]), path, "store"
        )


def _identity_rows(records):
    return list(records)


def run_pig_on_mr(script: PigScript, runner: MapReduceYarnRunner,
                  config: Optional[PigMRConfig] = None) -> Generator:
    """Process: compile and run a script on MapReduce.

    Returns {store path: rows-as-tuples} plus per-job results on the
    generator's return value: (outputs, job_results).
    """
    compiler = PigMRCompiler(config)
    steps = compiler.compile(script)
    results = []
    for step in steps:
        job = step(runner.hdfs)
        result = yield from runner.run_job(job)
        results.append(result)
        if not result.succeeded:
            raise RuntimeError(
                f"pig-on-mr job {job.name} failed: {result.diagnostics}"
            )
    outputs = {
        path: runner.hdfs.read_file(path)
        for _rel, path in script.stores
    }
    return outputs, results
