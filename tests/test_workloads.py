"""Workload generators + end-to-end correctness on benchmark queries."""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.engines.hive import Catalog, HiveSession
from repro.engines.pig import PigRunner
from repro.workloads import (
    TPCDS_QUERIES,
    TPCH_QUERIES,
    build_script,
    centroids_from_rows,
    generate_points,
    generate_tpcds,
    generate_tpch,
    initial_centroids,
    kmeans_iteration_script,
    load_etl_data,
    reference_kmeans_step,
    register_tpcds,
    register_tpch,
)
from repro.workloads.kmeans import _nearest, nearest_batch

from helpers import make_sim


def canon(rows):
    """Normalize rows for comparison: distributed float summation
    order differs from serial, so round floats."""
    def fix(value):
        if isinstance(value, float):
            return round(value, 4)
        return value

    return sorted(
        (tuple(fix(v) for v in row) for row in rows), key=repr
    )


def canon_ordered(rows):
    def fix(value):
        if isinstance(value, float):
            return round(value, 4)
        return value

    return [tuple(fix(v) for v in row) for row in rows]


class TestGenerators:
    def test_tpch_determinism_and_shape(self):
        a = generate_tpch(1, seed=5)
        b = generate_tpch(1, seed=5)
        assert a.lineitem == b.lineitem
        assert len(a.customer) == 150
        assert len(a.orders) == 1500
        # Lineitems reference valid orders.
        order_keys = {o[0] for o in a.orders}
        assert all(l[0] in order_keys for l in a.lineitem)

    def test_tpcds_star_integrity(self):
        t = generate_tpcds(1)
        item_keys = {i[0] for i in t.item}
        date_keys = {d[0] for d in t.date_dim}
        assert all(s[1] in item_keys for s in t.store_sales)
        assert all(s[0] in date_keys for s in t.store_sales)

    def test_kmeans_reference_converges(self):
        points = generate_points(500, k=3)
        centroids = initial_centroids(points, 3)
        for _ in range(15):
            centroids = reference_kmeans_step(points, centroids)
        again = reference_kmeans_step(points, centroids)
        drift = max(
            abs(a - b) for c1, c2 in zip(centroids, again)
            for a, b in zip(c1, c2)
        )
        assert drift < 1.0


@pytest.fixture(scope="module")
def tpch_session():
    sim = make_sim(num_nodes=4, nodes_per_rack=2)
    catalog = Catalog()
    register_tpch(catalog, sim.hdfs, generate_tpch(1))
    return HiveSession(sim, catalog)


@pytest.mark.parametrize("name", sorted(TPCH_QUERIES))
def test_tpch_queries_tez_vs_reference(tpch_session, name):
    sql = TPCH_QUERIES[name]
    ref = tpch_session.run(sql, backend="reference")
    tez = tpch_session.run(sql, backend="tez")
    ordered = "ORDER BY" in sql.upper()
    if ordered:
        assert canon_ordered(tez.rows) == canon_ordered(ref.rows)
    else:
        assert canon(tez.rows) == canon(ref.rows)


@pytest.fixture(scope="module")
def tpcds_session():
    sim = make_sim(num_nodes=4, nodes_per_rack=2)
    catalog = Catalog()
    register_tpcds(catalog, sim.hdfs, generate_tpcds(1))
    return HiveSession(sim, catalog)


@pytest.mark.parametrize("name", sorted(TPCDS_QUERIES))
def test_tpcds_queries_tez_vs_reference(tpcds_session, name):
    sql = TPCDS_QUERIES[name]
    ref = tpcds_session.run(sql, backend="reference")
    tez = tpcds_session.run(sql, backend="tez")
    ordered = "ORDER BY" in sql.upper()
    if ordered:
        assert canon_ordered(tez.rows) == canon_ordered(ref.rows)
    else:
        assert canon(tez.rows) == canon(ref.rows)


def test_tpcds_dpp_query_uses_pruning(tpcds_session):
    from repro.engines.hive import Scan
    plan = tpcds_session.plan(TPCDS_QUERIES["q3_monthly_sales"])
    fact_scans = [
        n for n in plan.walk()
        if isinstance(n, Scan) and n.table.name == "store_sales"
    ]
    assert fact_scans and fact_scans[0].dpp is not None


@pytest.mark.parametrize("script_name", ["sessionize", "funnel",
                                         "reporting", "skew_join"])
def test_etl_scripts_tez_vs_reference(script_name):
    sim = make_sim(num_nodes=4, nodes_per_rack=2)
    load_etl_data(sim.hdfs, scale=1)
    runner = PigRunner(sim)
    ref = runner.run(build_script(script_name), backend="reference")
    tez = runner.run(build_script(script_name), backend="tez")
    assert set(ref.outputs) == set(tez.outputs)
    for path in ref.outputs:
        assert canon(ref.outputs[path]) == canon(tez.outputs[path])
    runner.close()


def test_kmeans_pig_iteration_matches_reference():
    sim = make_sim(num_nodes=2, nodes_per_rack=2)
    points = generate_points(400, k=3)
    sim.hdfs.write("/km/points", points, record_bytes=24)
    runner = PigRunner(sim)
    centroids = initial_centroids(points, 3)
    for i in range(3):
        script = kmeans_iteration_script(
            centroids, "/km/points", f"/km/out_{i}"
        )
        result = runner.run(script, backend="tez")
        rows = result.outputs[f"/km/out_{i}"]
        centroids = centroids_from_rows(rows, 3, centroids)
    # Reference from scratch for the same number of iterations.
    expected = initial_centroids(points, 3)
    for _ in range(3):
        expected = reference_kmeans_step(points, expected)
    for got, want in zip(centroids, expected):
        for a, b in zip(got, want):
            assert abs(a - b) < 1e-6
    runner.close()


def test_kmeans_session_records_one_template_and_replays_the_rest():
    sim = make_sim()
    points = generate_points(1000, k=3)
    sim.hdfs.write("/km/points", points, record_bytes=24)
    runner = PigRunner(sim)
    centroids = initial_centroids(points, 3)
    iterations = 4
    for i in range(iterations):
        out = f"/km/out_{i}"
        result = runner.run(
            kmeans_iteration_script(centroids, "/km/points", out),
            backend="tez",
        )
        centroids = centroids_from_rows(result.outputs[out], 3, centroids)
    [stats] = runner.tez_client.coordinator.template_summaries()
    assert stats["recorded"] == 1
    assert stats["hits"] == iterations - 1
    assert stats["fallbacks"] == 0
    runner.close()


# Small ints make ties (equidistant points, duplicate centroids) common;
# magnitudes stay below 1e100 so no square overflows.
_COORD = st.one_of(
    st.integers(-3, 3),
    st.floats(-1e100, 1e100, allow_nan=False),
    st.sampled_from([-0.0, 0.5, math.inf, -math.inf, math.nan]),
)


@st.composite
def _points_and_centroids(draw):
    dim = draw(st.integers(1, 4))
    vector = st.tuples(*[_COORD] * dim)
    centroids = draw(st.lists(vector, min_size=1, max_size=6))
    centroids += draw(st.lists(st.sampled_from(centroids), max_size=2))
    points = draw(st.lists(vector, max_size=12))
    return dim, points, centroids


@settings(max_examples=400, deadline=None)
@given(_points_and_centroids())
@example((1, [], [(0,)]))                                   # empty batch
@example((2, [(0, 0), (0, 5)], [(1, 0), (-1, 0), (1, 0)]))  # ties
@example((2, [(math.nan, 1), (math.inf, 0)], [(0, 0), (2, 2)]))
def test_nearest_batch_equals_nearest_per_point(case):
    dim, points, centroids = case
    columns = [[p[d] for p in points] for d in range(dim)]
    assert nearest_batch(columns, centroids) == \
        [_nearest(p, centroids) for p in points]
