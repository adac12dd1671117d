"""Simulated YARN shuffle service and shuffle data-plane primitives."""

from .fetcher import FetchFailure, Fetcher, TransientFetchError
from .partitioner import (
    HashPartitioner,
    Partitioner,
    RangePartitioner,
    assign_partitions,
)
from .service import (
    ShuffleError,
    ShuffleService,
    ShuffleServices,
    Spill,
    SpillLost,
    SpillRef,
)
from .sorter import (
    group_by_key,
    merge_sorted_runs,
    plain_keys,
    sort_key,
    sort_records,
)

__all__ = [
    "FetchFailure",
    "Fetcher",
    "HashPartitioner",
    "Partitioner",
    "RangePartitioner",
    "ShuffleError",
    "ShuffleService",
    "ShuffleServices",
    "Spill",
    "SpillLost",
    "SpillRef",
    "TransientFetchError",
    "assign_partitions",
    "group_by_key",
    "merge_sorted_runs",
    "plain_keys",
    "sort_key",
    "sort_records",
]
