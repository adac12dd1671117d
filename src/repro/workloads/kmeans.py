"""K-means iterative workload (Figure 11 substitute).

The paper runs a k-means PIG script for 10/50/100 iterations over a
10,000-row input: each iteration is one DAG (assign points to nearest
centroid, recompute centroids) submitted to a shared Tez session —
versus one MapReduce job per iteration. This module provides the data
generator and the per-iteration Pig script builder, plus a pure-Python
reference implementation for correctness checks.
"""

from __future__ import annotations

import random
from itertools import repeat
from operator import add, getitem, itemgetter, sub
from typing import Sequence

from ..engines.pig import PigScript

__all__ = ["generate_points", "kmeans_iteration_script",
           "reference_kmeans_step", "initial_centroids", "nearest_batch"]


def generate_points(n: int = 10_000, k: int = 4, dim: int = 2,
                    seed: int = 23) -> list:
    """Gaussian blobs around k true centers; rows (point_id, x, y)."""
    rng = random.Random(seed)
    centers = [
        tuple(rng.uniform(-50, 50) for _ in range(dim)) for _ in range(k)
    ]
    points = []
    for i in range(n):
        cx = centers[i % k]
        coords = tuple(rng.gauss(c, 4.0) for c in cx)
        points.append((i, *coords))
    return points


def initial_centroids(points: Sequence, k: int) -> list[tuple]:
    """First-k seeding (deterministic)."""
    return [tuple(p[1:]) for p in points[:k]]


def _nearest(coords: tuple, centroids: list[tuple]) -> int:
    best, best_d = 0, float("inf")
    for idx, c in enumerate(centroids):
        # Explicit left-to-right ``+`` from 0, not ``sum()``: since
        # Python 3.12 ``sum()`` of floats is compensated (Neumaier), so
        # with 3 or more dimensions it could pick another centroid than
        # 3.10/3.11 do. With at most two terms the two agree: the
        # compensated ``t + e`` rounds back to ``t``.
        d = 0
        for a, b in zip(coords, c):
            d = d + (a - b) ** 2
        if d < best_d:
            best, best_d = idx, d
    return best


def nearest_batch(columns: Sequence[Sequence],
                  centroids: list[tuple]) -> list[int]:
    """``_nearest`` for a batch of points given as one column per
    dimension (at least one), computed column-wise with C-level maps.

    Equals ``[_nearest(p, centroids) for p in points]`` exactly:

    * each centroid's distance column is ``(a - c) ** 2`` added up over
      the dimensions left to right, as ``_nearest`` does. Its leading
      ``0 +`` is left out: a square is never ``-0.0``, so ``0 + s`` is
      ``s``, int or float;
    * ``min(inf, d0, d1, ...)`` replaces its running value only when an
      argument is strictly less, which is ``_nearest``'s scan from
      ``+inf``: NaN distances never win and ties keep the first;
    * the winner is the first position in ``(inf, d0, d1, ...)`` equal
      to that minimum: an equal earlier distance would have been the
      minimum itself, and when nothing beat ``inf`` the minimum is
      ``inf``, found at the leading position, and the point keeps 0.
    """
    n = len(columns[0])
    if not centroids:
        return [0] * n
    dists = []
    for c in centroids:
        d = None
        for col, cj in zip(columns, c):
            sq = map(pow, map(sub, col, repeat(cj)), repeat(2))
            d = sq if d is None else map(add, d, sq)
        dists.append([0] * n if d is None else list(d))
    inf = float("inf")
    lows = map(min, repeat(inf), *dists)
    slots = map(tuple.index, zip(repeat(inf), *dists), lows)
    cluster_of_slot = (0, *range(len(centroids)))
    return list(map(getitem, repeat(cluster_of_slot), slots))


def kmeans_iteration_script(centroids: list[tuple], points_path: str,
                            out_path: str, dim: int = 2) -> PigScript:
    """One k-means iteration as a Pig dataflow.

    Assign each point to its nearest centroid (a batch FOREACH with the
    current centroids injected as a UDF closure — Tez's opaque payload
    code injection — run once per task by ``nearest_batch``), then
    aggregate per-cluster sums to produce the new centroids.
    """
    fields = [f"x{d}" for d in range(dim)]
    script = PigScript("kmeans_iter")
    points = script.load(points_path, ["pid"] + fields)
    out_schema = ["cluster"] + fields

    def assign(rows, _c=list(centroids), _fields=fields, _out=out_schema):
        columns = [list(map(itemgetter(f), rows)) for f in _fields]
        clusters = nearest_batch(columns, _c)
        return list(map(dict, map(zip, repeat(_out),
                                  zip(clusters, *columns))))

    assigned = points.foreach_batch(assign, out_schema)
    aggs = {"n": ("count", None)}
    for d in range(dim):
        aggs[f"sx{d}"] = ("sum", f"x{d}")
    sums = assigned.aggregate(["cluster"], aggs)
    sums.store(out_path)
    return script


def centroids_from_rows(rows: list[tuple], k: int,
                        previous: list[tuple], dim: int = 2) -> list[tuple]:
    """New centroids from the aggregation output (clusters with no
    members keep their previous centroid)."""
    new = list(previous)
    for row in rows:
        cluster, n = row[0], row[1]
        sums = row[2: 2 + dim]
        if n:
            new[cluster] = tuple(s / n for s in sums)
    return new


def reference_kmeans_step(points: Sequence, centroids: list[tuple],
                          dim: int = 2) -> list[tuple]:
    """Pure-python single iteration (ground truth for tests).

    Assigns point by point with ``_nearest``, not with ``nearest_batch``:
    the Pig reference backend runs the same batch kernel as Tez, so this
    stays an oracle independent of it.
    """
    k = len(centroids)
    counts = [0] * k
    sums = [[0.0] * dim for _ in range(k)]
    for p in points:
        coords = tuple(p[1: 1 + dim])
        c = _nearest(coords, centroids)
        counts[c] += 1
        for d in range(dim):
            sums[c][d] += coords[d]
    out = list(centroids)
    for c in range(k):
        if counts[c]:
            out[c] = tuple(s / counts[c] for s in sums[c])
    return out
