"""In-memory reference executor for Pig scripts (differential tests)."""

from __future__ import annotations

from functools import partial, reduce
from itertools import repeat
from operator import add, is_not, itemgetter
from typing import Any, Callable

from ...shuffle.sorter import plain_keys, sort_key
from .model import PigScript, Relation, batch_op

__all__ = ["execute_script", "apply_aggregate"]

_AGG_INIT = {
    "count": lambda: 0,
    "sum": lambda: None,
    "avg": lambda: (0.0, 0),
    "min": lambda: None,
    "max": lambda: None,
}


def agg_step(func: str, state: Any, value: Any) -> Any:
    if func == "count":
        return state + 1
    if value is None:
        return state
    if func == "sum":
        return value if state is None else state + value
    if func == "avg":
        return (state[0] + value, state[1] + 1)
    if func == "min":
        return value if state is None or value < state else state
    if func == "max":
        return value if state is None or value > state else state
    raise ValueError(func)


def agg_result(func: str, state: Any) -> Any:
    if func == "avg":
        total, n = state
        return total / n if n else None
    return state


def apply_aggregate(rows: list[dict], keys: list[str],
                    aggs: dict[str, tuple[str, Any]]) -> list[dict]:
    groups: dict[tuple, dict] = {}
    raw: dict[tuple, tuple] = {}
    for row in rows:
        values = tuple(row[k] for k in keys)
        gkey = tuple(sort_key(v) for v in values)
        state = groups.get(gkey)
        if state is None:
            state = {out: _AGG_INIT[f]() for out, (f, _c) in aggs.items()}
            groups[gkey] = state
            raw[gkey] = values
        for out, (func, field) in aggs.items():
            value = 1 if field is None else row[field]
            state[out] = agg_step(func, state[out], value)
    out_rows = []
    for gkey, state in groups.items():
        row = dict(zip(keys, raw[gkey]))
        for out, (func, _f) in aggs.items():
            row[out] = agg_result(func, state[out])
        out_rows.append(row)
    return out_rows


def key_tuples(rows: list[dict], keys: list[str]) -> list[tuple]:
    """Each row's values of ``keys``, as a tuple."""
    if not keys:
        return [()] * len(rows)
    get = itemgetter(*keys)
    if len(keys) == 1:
        return list(zip(map(get, rows)))
    return list(map(get, rows))


def partial_aggregate_states(rows: list[dict], keys: list[str],
                             aggs: dict) -> list[tuple]:
    """Map-side partial aggregation: [(key_values, state_tuple)]."""
    specs = list(aggs.values())
    if len(keys) == 1:
        # One key groups on its bare values, with no tuple per row.
        column = list(map(itemgetter(keys[0]), rows))
        if plain_keys(column):
            return [((key,), state) for key, state
                    in _plain_partial_states(rows, column, specs)]
    else:
        key_values = key_tuples(rows, keys)
        if plain_keys(key_values):
            return _plain_partial_states(rows, key_values, specs)
    groups: dict[tuple, list] = {}
    raw: dict[tuple, tuple] = {}
    agg_items = list(aggs.items())
    for row in rows:
        values = tuple(row[k] for k in keys)
        gkey = tuple(sort_key(v) for v in values)
        state = groups.get(gkey)
        if state is None:
            state = [_AGG_INIT[f]() for _o, (f, _c) in agg_items]
            groups[gkey] = state
            raw[gkey] = values
        for i, (_out, (func, field)) in enumerate(agg_items):
            value = 1 if field is None else row[field]
            state[i] = agg_step(func, state[i], value)
    return [(raw[g], tuple(state)) for g, state in groups.items()]


_not_none = partial(is_not, None)


def _fold_sum(values: list) -> Any:
    values = list(filter(_not_none, values))
    return reduce(add, values) if values else None


def _fold_avg(values: list) -> tuple:
    values = list(filter(_not_none, values))
    return (reduce(add, values, 0.0), len(values))


def _fold_extreme(pick: Callable) -> Callable:
    def fold(values: list) -> Any:
        values = list(filter(_not_none, values))
        return pick(values) if values else None
    return fold


# Each fold equals ``agg_step`` over a group's values in row order: the
# same additions in the same order, and min/max keep the first of equal
# values, as ``agg_step`` does.
_FOLDS = {
    "count": None,              # the group's size
    "sum": _fold_sum,
    "avg": _fold_avg,
    "min": _fold_extreme(min),
    "max": _fold_extreme(max),
}


def _plain_partial_states(rows: list[dict], key_values: list,
                          specs: list[tuple]) -> list[tuple]:
    """``partial_aggregate_states`` on plain keys, set at a time: rows
    are bucketed by raw key (first-seen order, row order within a
    bucket), then each aggregate column folds per bucket."""
    groups: dict = {}
    for key, row in zip(key_values, rows):
        group = groups.get(key)
        if group is None:
            groups[key] = group = []
        group.append(row)
    buckets = list(groups.values())
    columns = []
    for func, field in specs:
        fold = _FOLDS[func]
        if fold is None:
            columns.append(list(map(len, buckets)))
        elif field is None:
            columns.append([fold([1] * len(b)) for b in buckets])
        else:
            get = itemgetter(field)
            columns.append([fold(list(map(get, b))) for b in buckets])
    states = zip(*columns) if columns else [()] * len(groups)
    return list(zip(groups, states))


def _none_yields_other(combine: Callable) -> Callable:
    def merge(a: Any, b: Any) -> Any:
        if a is None:
            return b
        if b is None:
            return a
        return combine(a, b)
    return merge


def _combine_avg(a: tuple, b: tuple) -> tuple:
    return (a[0] + b[0], a[1] + b[1])


# How two partial states of one aggregate merge, the running state on
# the left: a None sum/min/max state (no non-null value seen) yields the
# other, and min/max keep the left one of equal states.
_COMBINERS = {
    "count": add,
    "sum": _none_yields_other(add),
    "avg": _combine_avg,
    "min": _none_yields_other(min),
    "max": _none_yields_other(max),
}


def state_combiners(aggs: dict) -> list[Callable]:
    """Each aggregate's combiner, resolved once for ``fold_states``."""
    return [_COMBINERS[func] for func, _field in aggs.values()]


def fold_states(states: list, combiners: list[Callable]) -> tuple:
    """One group's partial states merged in order, aggregate by
    aggregate."""
    merged = states[0]
    for state in states[1:]:
        merged = [c(m, s) for c, m, s in zip(combiners, merged, state)]
    return tuple(merged)


def merge_aggregate_states(grouped: list[tuple], keys: list[str],
                           aggs: dict) -> list[dict]:
    """Reduce-side merge of partial states into final rows."""
    combiners = state_combiners(aggs)
    merged = [fold_states(states, combiners) for _key, states in grouped]
    for i, (func, _f) in enumerate(aggs.values()):
        if func == "avg":
            merged = [(*m[:i], agg_result(func, m[i]), *m[i + 1:])
                      for m in merged]
    key_values = map(tuple, map(itemgetter(0), grouped))
    fields = [*keys, *aggs]
    return list(map(dict, map(zip, repeat(fields),
                              map(add, key_values, merged))))


def _eval(rel: Relation, hdfs, cache: dict) -> list[dict]:
    if id(rel) in cache:
        return cache[id(rel)]
    p = rel.params
    if rel.op == "load":
        records = hdfs.read_file(p["path"])
        rows = [dict(zip(rel.schema, rec)) for rec in records]
    elif rel.op == "filter":
        rows = [r for r in _eval(rel.parents[0], hdfs, cache)
                if p["predicate"](r)]
    elif rel.op == "foreach":
        rows = [p["fn"](r) for r in _eval(rel.parents[0], hdfs, cache)]
    elif rel.op == "foreach_batch":
        rows = batch_op(rel)(_eval(rel.parents[0], hdfs, cache))
    elif rel.op == "flatten":
        rows = [
            out
            for r in _eval(rel.parents[0], hdfs, cache)
            for out in p["fn"](r)
        ]
    elif rel.op == "group":
        groups: dict = {}
        raw: dict = {}
        for r in _eval(rel.parents[0], hdfs, cache):
            values = tuple(r[k] for k in p["keys"])
            gkey = tuple(sort_key(v) for v in values)
            groups.setdefault(gkey, []).append(r)
            raw[gkey] = values
        rows = [
            {"group": raw[g] if len(p["keys"]) > 1 else raw[g][0],
             "bag": bag}
            for g, bag in groups.items()
        ]
    elif rel.op == "aggregate":
        rows = apply_aggregate(
            _eval(rel.parents[0], hdfs, cache), p["keys"], p["aggs"]
        )
    elif rel.op == "join":
        left = _eval(rel.parents[0], hdfs, cache)
        right = _eval(rel.parents[1], hdfs, cache)
        build: dict = {}
        for r in right:
            key = tuple(sort_key(r[k]) for k in p["right_keys"])
            build.setdefault(key, []).append(r)
        right_only = [c for c in rel.parents[1].schema
                      if c not in rel.parents[0].schema]
        rows = []
        for l in left:
            key = tuple(sort_key(l[k]) for k in p["left_keys"])
            matches = build.get(key, [])
            if matches:
                for m in matches:
                    merged = dict(l)
                    merged.update({c: m[c] for c in right_only})
                    rows.append(merged)
            elif p["how"] == "left":
                merged = dict(l)
                merged.update({c: None for c in right_only})
                rows.append(merged)
    elif rel.op == "union":
        rows = (
            _eval(rel.parents[0], hdfs, cache)
            + _eval(rel.parents[1], hdfs, cache)
        )
    elif rel.op == "distinct":
        seen = set()
        rows = []
        for r in _eval(rel.parents[0], hdfs, cache):
            key = tuple(sort_key(r[c]) for c in rel.schema)
            if key not in seen:
                seen.add(key)
                rows.append(r)
    elif rel.op == "order":
        rows = sorted(
            _eval(rel.parents[0], hdfs, cache),
            key=lambda r: tuple(sort_key(r[k]) for k in p["keys"]),
            reverse=not p["ascending"],
        )
    elif rel.op == "limit":
        rows = _eval(rel.parents[0], hdfs, cache)[: p["n"]]
    else:
        raise ValueError(f"unknown op {rel.op}")
    cache[id(rel)] = rows
    return rows


def execute_script(script: PigScript, hdfs) -> dict[str, list[dict]]:
    """Evaluate all stores; returns {store path: rows}."""
    script.validate()
    cache: dict = {}
    return {
        path: _eval(rel, hdfs, cache)
        for rel, path in script.stores
    }
