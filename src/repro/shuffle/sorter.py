"""Sort / merge / group primitives for the shuffle data plane.

Keys may be arbitrary comparable Python values. For mixed-type safety
(None vs str, say) the shuffle's total order is the type-tagged
``sort_key``, so the data plane never throws on heterogeneous keys —
matching Hadoop's bytewise comparator behaviour of "everything is
comparable".

Tagging costs one recursive Python call per record, so every batch is
first checked once with :func:`plain_keys`. When it holds, raw ``<``
and ``==`` order and equate the batch's keys exactly as ``sort_key``
does, and the batch is sorted and grouped on its raw keys; otherwise
it takes the tagged path.
"""

from __future__ import annotations

import heapq
from itertools import groupby
from math import isnan
from operator import itemgetter
from typing import Any, Iterable, Iterator, Sequence

__all__ = ["sort_key", "plain_keys", "comparable_keys", "sort_records",
           "merge_sorted_runs", "group_by_key"]


def sort_key(key: Any):
    """Total order over heterogeneous keys: by type name, then value."""
    if key is None:
        return ("", 0)
    if isinstance(key, bool):
        return ("bool", key)
    if isinstance(key, (int, float)):
        return ("num", key)
    if isinstance(key, str):
        return ("str", key)
    if isinstance(key, bytes):
        return ("bytes", key)
    if isinstance(key, tuple):
        return ("tuple", tuple(sort_key(k) for k in key))
    return ("obj", str(key))


# The ``sort_key`` tag of each plain scalar type. Exact types only:
# bool (tagged apart from int), None, subclasses (which may override
# comparison) and every other type are not plain.
_PLAIN_TAGS = {str: "str", int: "num", float: "num", bytes: "bytes"}


def _plain_column(column: list) -> bool:
    """One plain tag across ``column``, and no NaN (NaN is unordered,
    so raw sorting around it is not the tagged order)."""
    types = set(map(type, column))
    tags = set(map(_PLAIN_TAGS.get, types))
    if len(tags) != 1 or None in tags:
        return False
    if float not in types:
        return True
    try:
        return not any(map(isnan, column))
    except OverflowError:       # an int beyond float range
        return False


def plain_keys(keys: Sequence) -> bool:
    """Whether raw comparison of ``keys`` agrees exactly with
    ``sort_key`` comparison.

    Holds when every key is a ``str``, ``int``, ``float`` or ``bytes``
    scalar, or every key is a flat tuple of them of one length, and
    each position carries one ``sort_key`` tag (int and float share
    "num"). Then two keys differ in tag nowhere, so the tagged
    comparison reduces to the raw one. Decided column-wise in C-level
    passes, never per key.
    """
    if not keys:
        return True
    width = len(keys[0]) if type(keys[0]) is tuple else None
    if width is None:
        return _plain_column(keys)
    if set(map(type, keys)) != {tuple} or set(map(len, keys)) != {width}:
        return False
    return all(_plain_column(list(map(itemgetter(j), keys)))
               for j in range(width))


def comparable_keys(keys: list) -> list:
    """``keys`` in a form whose raw comparison is the shuffle's total
    order: the keys themselves when plain, their tags otherwise."""
    return keys if plain_keys(keys) else list(map(sort_key, keys))


def _kv_sort_key(kv: tuple) -> Any:
    return sort_key(kv[0])


_first = itemgetter(0)
_second = itemgetter(1)


def sort_records(kvs: Iterable[tuple]) -> list[tuple]:
    """Stable sort of (key, value) pairs by key."""
    kvs = kvs if isinstance(kvs, list) else list(kvs)
    if plain_keys(list(map(_first, kvs))):
        return sorted(kvs, key=_first)
    return sorted(kvs, key=_kv_sort_key)


def merge_sorted_runs(runs: Iterable[Iterable[tuple]]) -> Iterator[tuple]:
    """K-way merge of key-sorted runs (the reduce-side merge)."""
    return heapq.merge(*runs, key=_kv_sort_key)


def group_by_key(sorted_kvs: Iterable[tuple]) -> Iterator[tuple]:
    """Yield (key, [values...]) groups from a key-sorted stream.

    A list whose keys are plain groups on raw ``==``; any other stream
    is grouped on tagged equality as it arrives.
    """
    if isinstance(sorted_kvs, list) and \
            plain_keys(list(map(_first, sorted_kvs))):
        for key, group in groupby(sorted_kvs, key=_first):
            yield key, list(map(_second, group))
        return
    current_key = None
    current_tag = None
    values: list = []
    first = True
    for key, value in sorted_kvs:
        tag = sort_key(key)
        if first:
            current_key, current_tag = key, tag
            values = [value]
            first = False
        elif tag == current_tag:
            values.append(value)
        else:
            yield current_key, values
            current_key, current_tag = key, tag
            values = [value]
    if not first:
        yield current_key, values
