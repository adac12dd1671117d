"""Partitioners: map a record key to one of P partitions.

A partitioner must be a function of the key under the shuffle's
equality (``sort_key``): keys the shuffle groups together land in one
partition, so one group never reaches two reducers. Spills rely on
this to partition each distinct key once.
"""

from __future__ import annotations

import bisect
from typing import Any, Sequence

from .sorter import plain_keys, sort_key

__all__ = ["HashPartitioner", "RangePartitioner", "Partitioner",
           "assign_partitions"]


def _fnv(codes) -> int:
    """31-bit FNV-1 over a sequence of character or byte codes."""
    h = 2166136261
    for c in codes:
        h = ((h ^ c) * 16777619) & 0xFFFFFFFF
    return h & 0x7FFFFFFF


def _stable_hash(key: Any) -> int:
    """Deterministic hash across runs (no PYTHONHASHSEED dependence).

    An integral float hashes as its int, as ``sort_key`` equates them.
    """
    if isinstance(key, str):
        # ASCII text hashes its bytes: the same codes as its characters.
        return _fnv(key.encode() if key.isascii() else map(ord, key))
    if isinstance(key, (tuple, list)):
        h = 1
        for item in key:
            h = (h * 31 + _stable_hash(item)) & 0x7FFFFFFF
        return h
    if isinstance(key, int):
        return key * 2654435761 & 0x7FFFFFFF
    if isinstance(key, float):
        if key.is_integer():
            return _stable_hash(int(key))
        return _stable_hash(hash(key) & 0x7FFFFFFF)
    if isinstance(key, bytes):
        return _fnv(key)
    if key is None:
        return 0
    return hash(key) & 0x7FFFFFFF


class Partitioner:
    """Interface: subclasses route keys to partitions."""

    def partition(self, key: Any, num_partitions: int) -> int:
        raise NotImplementedError


def assign_partitions(partitioner: Partitioner, keys: list,
                      num_partitions: int) -> list[int]:
    """The partition of each key in ``keys``. Plain keys are equal
    exactly when the shuffle equates them, so each distinct one is
    partitioned once."""
    partition = partitioner.partition
    if plain_keys(keys):
        memo = {key: partition(key, num_partitions)
                for key in dict.fromkeys(keys)}
        return list(map(memo.__getitem__, keys))
    return [partition(key, num_partitions) for key in keys]


class HashPartitioner(Partitioner):
    """MapReduce-default partitioning by stable key hash."""

    def partition(self, key: Any, num_partitions: int) -> int:
        if num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        return _stable_hash(key) % num_partitions


class RangePartitioner(Partitioner):
    """Partition by sorted key ranges (total-order partitioning).

    ``boundaries`` are P-1 split points, sorted in the shuffle's total
    order: keys <= boundaries[i] go to partition i; keys above the last
    boundary go to the final partition. Built from a sample histogram
    for skew-aware order-by (the Pig use case in paper section 5.3).
    """

    def __init__(self, boundaries: Sequence[Any]):
        self.boundaries = list(boundaries)
        self._tagged = [sort_key(b) for b in self.boundaries]
        for a, b in zip(self._tagged, self._tagged[1:]):
            if b < a:
                raise ValueError("boundaries must be sorted")

    def partition(self, key: Any, num_partitions: int) -> int:
        return self.partition_keys([key], num_partitions)[0]

    def partition_keys(self, keys: list, num_partitions: int) -> list[int]:
        """The partition of every key in ``keys``: bisects on raw keys
        when they and the boundaries are plain, on tagged keys
        otherwise."""
        if num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        last = num_partitions - 1
        if plain_keys(self.boundaries + keys):
            bounds, probes = self.boundaries, keys
        else:
            bounds, probes = self._tagged, map(sort_key, keys)
        return [min(bisect.bisect_left(bounds, k), last) for k in probes]

    @classmethod
    def from_sample(cls, sample: Sequence[Any],
                    num_partitions: int) -> "RangePartitioner":
        """Equi-depth boundaries from a key sample."""
        if num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        sample = list(sample)
        ordered = sorted(sample) if plain_keys(sample) \
            else sorted(sample, key=sort_key)
        if not ordered or num_partitions == 1:
            return cls([])
        boundaries = []
        for i in range(1, num_partitions):
            idx = min(len(ordered) - 1, (i * len(ordered)) // num_partitions)
            boundaries.append(ordered[idx])
        return cls(boundaries)
