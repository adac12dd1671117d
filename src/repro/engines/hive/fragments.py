"""Local plan-fragment execution inside distributed tasks.

Compilers cut the logical plan at distributed boundaries (shuffle
joins, aggregations, global sorts) and ship the in-between operator
pipelines into tasks. A fragment is a plan subtree whose leaves are
:class:`InputLeaf` nodes fed by the task's logical inputs; this module
executes fragments and provides the partial-aggregation emitters both
the Tez and MR backends share.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ...shuffle.sorter import comparable_keys, plain_keys, sort_key
from .aggregates import agg_final, agg_init, agg_input, agg_merge, agg_update
from .ast_nodes import FuncCall
from .plan import (
    Aggregate,
    Filter,
    Join,
    Limit,
    PlanNode,
    Project,
    Sort,
)
from .reference import sort_rows

__all__ = [
    "InputLeaf",
    "execute_fragment",
    "partial_aggregate",
    "merge_aggregate_groups",
    "rows_from_tuples",
    "rows_to_tuples",
]


class InputLeaf(PlanNode):
    """Fragment leaf: rows delivered through a task input."""

    def __init__(self, name: str, broadcast: bool = False):
        super().__init__([])
        self.name = name
        self.broadcast = broadcast

    def output_columns(self) -> list[str]:
        return []

    def __repr__(self):
        return f"InputLeaf({self.name})"


def rows_from_tuples(records: list[tuple], alias: str,
                     all_columns: list[str],
                     needed_columns: Optional[list[str]]) -> list[dict]:
    """Decode raw table tuples into qualified row dicts."""
    cols = needed_columns if needed_columns is not None else all_columns
    pairs = [(f"{alias}.{c}", all_columns.index(c)) for c in cols]
    return [{k: rec[i] for k, i in pairs} for rec in records]


def rows_to_tuples(rows: list[dict], columns: list[str]) -> list[tuple]:
    return [tuple(row[c] for c in columns) for row in rows]


def _hash_table(keys, rows: list[dict]) -> dict:
    table: dict = {}
    for key, row in zip(keys, rows):
        table.setdefault(key, []).append(row)
    return table


def _local_hash_join(node: Join, left_rows: list[dict],
                     right_rows: list[dict], ctx=None) -> list[dict]:
    built = None
    # Broadcast build sides are cached in the container's shared
    # object registry (paper 4.2: Hive's map-join hash table reuse).
    cache_key = None
    if (
        ctx is not None
        and isinstance(node.right, InputLeaf)
        and node.right.broadcast
    ):
        cache_key = f"hashtable:{node.right.name}:{node.node_id}"
        built = ctx.cache_get(cache_key)
    if built is None:
        right_keys = [node.right_key.eval(row) for row in right_rows]
        # The entry records its keying: raw keys with a sample of one
        # of them (none for an empty side), or None for tagged keys.
        keying = right_keys[:1] if plain_keys(right_keys) else None
        if keying is None:
            right_keys = list(map(sort_key, right_keys))
        built = (keying, _hash_table(right_keys, right_rows))
        if cache_key is not None:
            from ...tez.registry import Scope
            ctx.cache_put(Scope.DAG, cache_key, built)
    keying, build = built
    keys = [node.left_key.eval(row) for row in left_rows]
    # Raw probes are exact only when the probe keys carry the build
    # keys' tags; otherwise probe a tagged table.
    if keying is None or not plain_keys(keys + keying):
        if keying is not None:
            build = _hash_table(
                [sort_key(node.right_key.eval(r)) for r in right_rows],
                right_rows)
        keys = list(map(sort_key, keys))
    right_columns = getattr(node, "right_columns", None)
    if right_columns is None:
        right_columns = [k for row in right_rows[:1] for k in row]
    out: list[dict] = []
    for row, key in zip(left_rows, keys):
        matches = build.get(key, [])
        if matches:
            for match in matches:
                merged = dict(row)
                merged.update(match)
                out.append(merged)
        elif node.how == "left":
            padding = {c: None for c in right_columns} if right_columns \
                else {}
            merged = dict(row)
            merged.update(padding)
            out.append(merged)
    return out


def execute_fragment(node: PlanNode, inputs: dict[str, list[dict]],
                     ctx=None) -> list[dict]:
    """Run a plan fragment over the task's decoded inputs."""
    if isinstance(node, InputLeaf):
        return inputs[node.name]
    if isinstance(node, Filter):
        rows = execute_fragment(node.child, inputs, ctx)
        return [r for r in rows if node.predicate.eval(r)]
    if isinstance(node, Project):
        rows = execute_fragment(node.child, inputs, ctx)
        return [
            {name: expr.eval(r) for name, expr in node.items}
            for r in rows
        ]
    if isinstance(node, Join):
        left = execute_fragment(node.left, inputs, ctx)
        right = execute_fragment(node.right, inputs, ctx)
        return _local_hash_join(node, left, right, ctx)
    if isinstance(node, Aggregate):
        from .reference import run_aggregate
        rows = execute_fragment(node.child, inputs, ctx)
        return run_aggregate(node, rows)
    if isinstance(node, Sort):
        rows = execute_fragment(node.child, inputs, ctx)
        return sort_rows(rows, node.keys)
    if isinstance(node, Limit):
        rows = execute_fragment(node.child, inputs, ctx)
        return rows[: node.n]
    raise TypeError(f"fragment cannot execute {type(node).__name__}")


# ------------------------------------------------------------- aggregation
def partial_aggregate(rows: list[dict],
                      group_items: list[tuple[str, Any]],
                      aggs: list[FuncCall]) -> list[tuple]:
    """Map-side partial aggregation: (group values, partial states)."""
    group_values = [
        tuple(expr.eval(row) for _n, expr in group_items) for row in rows
    ]
    keys = comparable_keys(group_values)
    groups: dict[tuple, list] = {}
    raw_keys: dict[tuple, tuple] = {}
    for row, values, key in zip(rows, group_values, keys):
        state = groups.get(key)
        if state is None:
            state = [agg_init(a) for a in aggs]
            groups[key] = state
            raw_keys[key] = values
        for i, agg in enumerate(aggs):
            state[i] = agg_update(agg, state[i], agg_input(agg, row))
    return [
        (raw_keys[key], tuple(state)) for key, state in groups.items()
    ]


def merge_aggregate_groups(
    grouped: list[tuple],
    group_items: list[tuple[str, Any]],
    aggs: list[FuncCall],
    include_empty_global: bool = False,
) -> list[dict]:
    """Reduce-side merge of partial states into final rows.

    ``grouped`` is ``[(group_values, [state, ...]), ...]`` as produced
    by a grouped shuffle input.
    """
    out: list[dict] = []
    seen_any = False
    for values, states in grouped:
        seen_any = True
        merged = None
        for state in states:
            if merged is None:
                merged = list(state)
            else:
                merged = [
                    agg_merge(a, m, s)
                    for a, m, s in zip(aggs, merged, state)
                ]
        row = {name: v for (name, _e), v in zip(group_items, values)}
        for agg, state in zip(aggs, merged or
                              [agg_init(a) for a in aggs]):
            row[agg.agg_key()] = agg_final(agg, state)
        out.append(row)
    if not seen_any and include_empty_global and not group_items:
        row = {}
        for agg in aggs:
            row[agg.agg_key()] = agg_final(agg, agg_init(agg))
        out.append(row)
    return out
