"""Unit + property tests for the shuffle substrate."""

import sys
from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import Cluster, ClusterSpec
from repro.shuffle import (
    FetchFailure,
    Fetcher,
    HashPartitioner,
    RangePartitioner,
    ShuffleServices,
    SpillLost,
    group_by_key,
    merge_sorted_runs,
    plain_keys,
    sort_key,
    sort_records,
)
from repro.shuffle import sorter as sorter_module
from repro.sim import Environment
from repro.yarn import SecurityManager


def make_services():
    spec = ClusterSpec(num_nodes=4, nodes_per_rack=2)
    env = Environment()
    cluster = Cluster(env, spec)
    security = SecurityManager()
    return env, cluster, security, ShuffleServices(cluster, security)


keys = st.one_of(
    st.integers(-1000, 1000),
    st.text(max_size=8),
    st.tuples(st.integers(0, 50), st.integers(0, 50)),
)


class TestPartitioners:
    @given(st.lists(keys, max_size=100), st.integers(1, 16))
    @settings(max_examples=50, deadline=None)
    def test_hash_partitioner_in_range_and_deterministic(self, ks, n):
        p = HashPartitioner()
        for k in ks:
            a = p.partition(k, n)
            assert 0 <= a < n
            assert a == p.partition(k, n)

    def test_hash_partitioner_rejects_bad_count(self):
        with pytest.raises(ValueError):
            HashPartitioner().partition(1, 0)

    def test_range_partitioner_ordering(self):
        p = RangePartitioner([10, 20, 30])
        assert p.partition(5, 4) == 0
        assert p.partition(10, 4) == 0
        assert p.partition(15, 4) == 1
        assert p.partition(25, 4) == 2
        assert p.partition(99, 4) == 3

    def test_range_partitioner_unsorted_rejected(self):
        with pytest.raises(ValueError):
            RangePartitioner([3, 1])

    @given(st.lists(st.integers(-100, 100), min_size=1, max_size=200),
           st.integers(1, 8))
    @settings(max_examples=50, deadline=None)
    def test_range_from_sample_is_monotone(self, sample, n):
        p = RangePartitioner.from_sample(sample, n)
        values = sorted(sample)
        parts = [p.partition(v, n) for v in values]
        assert parts == sorted(parts)          # monotone in key order
        assert all(0 <= x < n for x in parts)

    def test_from_sample_empty(self):
        p = RangePartitioner.from_sample([], 4)
        assert p.partition(42, 4) == 0


class TestSorter:
    @given(st.lists(st.tuples(keys, st.integers()), max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_sort_records_sorted_and_stable(self, kvs):
        out = sort_records(kvs)
        assert len(out) == len(kvs)
        ks = [sort_key(k) for k, _v in out]
        assert ks == sorted(ks)

    @given(st.lists(st.lists(st.tuples(st.integers(0, 20),
                                       st.integers()), max_size=30),
                    max_size=5))
    @settings(max_examples=50, deadline=None)
    def test_merge_equals_global_sort(self, runs):
        sorted_runs = [sort_records(r) for r in runs]
        merged = list(merge_sorted_runs(sorted_runs))
        assert merged == sort_records([kv for r in runs for kv in r])

    @given(st.lists(st.tuples(st.integers(0, 10), st.integers()),
                    max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_group_by_key_partitions_values(self, kvs):
        grouped = list(group_by_key(sort_records(kvs)))
        # Every value accounted for, keys unique.
        assert sum(len(vs) for _k, vs in grouped) == len(kvs)
        ks = [sort_key(k) for k, _v in grouped]
        assert len(set(ks)) == len(ks)

    def test_heterogeneous_keys_do_not_crash(self):
        kvs = [(None, 1), ("a", 2), (3, 3), ((1, 2), 4), (1.5, 5)]
        out = sort_records(kvs)
        assert len(out) == 5
        list(group_by_key(out))


class TestShuffleService:
    def test_register_and_fetch(self):
        env, cluster, security, services = make_services()
        tok = security.issue("JOB", "app1")
        svc = services.on_node("node0000")
        refs = svc.register_spill(
            "app1", "s1", {0: [("a", 1)], 1: [("b", 2)]}, token=tok
        )
        assert len(refs) == 2
        assert svc.fetch("s1", 0, "app1", tok) == [("a", 1)]
        assert svc.fetch("s1", 1, "app1", tok) == [("b", 2)]

    def test_duplicate_spill_rejected(self):
        env, cluster, security, services = make_services()
        tok = security.issue("JOB", "app1")
        svc = services.on_node("node0000")
        svc.register_spill("app1", "s1", {0: []}, token=tok)
        with pytest.raises(Exception):
            svc.register_spill("app1", "s1", {0: []}, token=tok)

    def test_missing_spill_raises(self):
        env, cluster, security, services = make_services()
        tok = security.issue("JOB", "app1")
        with pytest.raises(SpillLost):
            services.on_node("node0000").fetch("nope", 0, "app1", tok)

    def test_dead_node_loses_spills(self):
        env, cluster, security, services = make_services()
        tok = security.issue("JOB", "app1")
        svc = services.on_node("node0000")
        svc.register_spill("app1", "s1", {0: [1]}, token=tok)
        cluster.crash_node("node0000")
        with pytest.raises(SpillLost):
            svc.fetch("s1", 0, "app1", tok)

    def test_wrong_token_rejected(self):
        from repro.yarn import AuthenticationError
        env, cluster, security, services = make_services()
        bad = security.issue("JOB", "other-app")
        with pytest.raises(AuthenticationError):
            services.on_node("node0000").register_spill(
                "app1", "s1", {0: []}, token=bad
            )

    def test_app_cleanup(self):
        env, cluster, security, services = make_services()
        tok = security.issue("JOB", "app1")
        svc = services.on_node("node0000")
        svc.register_spill("app1", "s1", {0: [1]}, token=tok)
        assert svc.spill_count("app1") == 1
        services.delete_app("app1")
        assert svc.spill_count("app1") == 0

    def test_bytes_per_record_hint(self):
        env, cluster, security, services = make_services()
        tok = security.issue("JOB", "app1")
        refs = services.on_node("node0000").register_spill(
            "app1", "s1", {0: [1, 2, 3]}, token=tok,
            bytes_per_record=1000,
        )
        assert refs[0].nbytes == 3000


class TestFetcher:
    def run_fetch(self, error_rate=0.0, kill_node=False):
        spec = ClusterSpec(num_nodes=4, nodes_per_rack=2,
                           shuffle_transient_error_rate=error_rate)
        env = Environment()
        cluster = Cluster(env, spec)
        security = SecurityManager()
        services = ShuffleServices(cluster, security)
        tok = security.issue("JOB", "app1")
        refs = services.on_node("node0000").register_spill(
            "app1", "s1", {0: [("k", 1)] * 10}, token=tok
        )
        if kill_node:
            cluster.crash_node("node0000")
        fetcher = Fetcher(env, cluster, services, "app1",
                          reader_node="node0003", job_token=tok)
        proc = env.process(fetcher.fetch(refs[0]))
        env.run()
        return proc, fetcher

    def test_basic_fetch(self):
        proc, fetcher = self.run_fetch()
        assert proc.value == [("k", 1)] * 10
        assert fetcher.bytes_fetched > 0

    def test_transient_errors_retried(self):
        proc, fetcher = self.run_fetch(error_rate=0.5)
        assert proc.value == [("k", 1)] * 10
        assert fetcher.retries >= 0  # retried internally, still done

    def test_lost_spill_raises_fetch_failure(self):
        spec = ClusterSpec(num_nodes=4, nodes_per_rack=2)
        env = Environment()
        cluster = Cluster(env, spec)
        security = SecurityManager()
        services = ShuffleServices(cluster, security)
        tok = security.issue("JOB", "app1")
        refs = services.on_node("node0000").register_spill(
            "app1", "s1", {0: [1]}, token=tok
        )
        cluster.crash_node("node0000")
        fetcher = Fetcher(env, cluster, services, "app1",
                          reader_node="node0003", job_token=tok)
        caught = []

        def body():
            try:
                yield env.process(fetcher.fetch(refs[0]))
            except FetchFailure as exc:
                caught.append(exc.ref)

        env.process(body())
        env.run()
        assert caught and caught[0].spill_id == "s1"

    def test_local_fetch_faster_than_remote(self):
        spec = ClusterSpec(num_nodes=4, nodes_per_rack=2)
        env = Environment()
        cluster = Cluster(env, spec)
        security = SecurityManager()
        services = ShuffleServices(cluster, security)
        tok = security.issue("JOB", "app1")
        refs = services.on_node("node0000").register_spill(
            "app1", "s1", {0: [("k", "v" * 100)] * 5000}, token=tok,
            bytes_per_record=10_000,
        )

        def timed(node):
            f = Fetcher(env, cluster, services, "app1",
                        reader_node=node, job_token=tok)
            start = env.now
            proc = env.process(f.fetch(refs[0]))
            env.run(until=proc)
            return env.now - start

        local = timed("node0000")
        remote = timed("node0003")
        assert local < remote


# ----------------------------------------------------------------------
# Plain-key record plane: every fast path must return exactly what the
# tagged path returns, and ``plain_keys`` must never admit a batch on
# which raw and tagged comparison disagree.

NAN = float("nan")
_texts = st.text("ab", max_size=2)
_ints = st.integers(-3, 3)
_nums = st.one_of(_ints, st.sampled_from([-0.0, 0.0, 1.0, 2.5, -1.0]))
_nums_nan = st.one_of(_nums, st.floats(), st.just(NAN))
_huge = st.sampled_from([10 ** 400, -(10 ** 400), 2 ** 61, 1.5,
                         float(2 ** 61)])
_flat = st.tuples(_texts, _nums)
_nested = st.tuples(_flat, _ints)
_FAMILIES = [_texts, _ints, _nums, _nums_nan, _huge, st.binary(max_size=2),
             _flat, st.tuples(_ints, _nums_nan), st.booleans(),
             st.tuples(st.booleans(), _ints)]
_any_key = st.one_of(*_FAMILIES, st.none(), _nested,
                     st.tuples(_ints, _ints, _ints), st.integers())
key_batches = st.one_of(
    st.sampled_from(_FAMILIES).flatmap(lambda f: st.lists(f, max_size=30)),
    st.lists(_any_key, max_size=30),
)
_values = st.one_of(st.none(), _ints,
                    st.sampled_from([0.1, 0.2, 0.3, -0.0, 1e16, NAN]))


@contextmanager
def tagged_only():
    """Force every batch in the program onto the tagged path."""
    original = sorter_module.plain_keys
    with pytest.MonkeyPatch.context() as mp:
        for module in list(sys.modules.values()):
            if getattr(module, "plain_keys", None) is original:
                mp.setattr(module, "plain_keys", lambda keys: False)
        yield


def outcome(fn):
    """``fn()``, or the name of the error it raises (NaN, say, has no
    place in a total order, so range boundaries over it are refused)."""
    try:
        return fn()
    except (TypeError, ValueError) as exc:
        return type(exc).__name__


def both_paths(fn):
    """``fn()``'s outcome on the plain-key path and on the tagged path."""
    fast = outcome(fn)
    with tagged_only():
        tagged = outcome(fn)
    return fast, tagged


def assert_same(fast, tagged):
    # repr tells 1 from 1.0 and -0.0 from 0.0, and equates NaNs.
    assert repr(fast) == repr(tagged)


def _equal_twin(key):
    """A key the shuffle equates with ``key`` but of another type where
    possible (int <-> integral float)."""
    if type(key) is int and abs(key) < 2 ** 1000 and float(key) == key:
        return float(key)
    if type(key) is float and key.is_integer():
        return int(key)
    if type(key) is tuple:
        return tuple(_equal_twin(k) for k in key)
    return key


class TestPlainKeys:
    def test_examples(self):
        class S(str):
            pass

        assert plain_keys([])
        assert plain_keys([1, 2.5, -0.0])
        assert plain_keys([("a", 1), ("b", 2.0)])
        assert plain_keys([(), ()])
        assert not plain_keys([True, 1])
        assert not plain_keys([None, None])
        assert not plain_keys([1, "a"])
        assert not plain_keys([(1,), (1, 2)])
        assert not plain_keys([((1,),)])
        assert not plain_keys([1.0, NAN])
        assert not plain_keys([S("a")])
        assert not plain_keys([10 ** 400, 1.5])

    @given(key_batches)
    @settings(max_examples=200, deadline=None)
    def test_plain_keys_is_sound(self, keys):
        if not plain_keys(keys):
            return
        for a in keys:
            for b in keys:
                assert (a < b) == (sort_key(a) < sort_key(b))
                assert (a == b) == (sort_key(a) == sort_key(b))

    @given(key_batches)
    @settings(max_examples=150, deadline=None)
    def test_sort_records_matches_tagged(self, keys):
        kvs = [(k, i) for i, k in enumerate(keys)]
        assert_same(sort_records(kvs),
                    sorted(kvs, key=lambda kv: sort_key(kv[0])))

    @given(key_batches)
    @settings(max_examples=150, deadline=None)
    def test_group_by_key_matches_tagged(self, keys):
        kvs = sorted([(k, i) for i, k in enumerate(keys)],
                     key=lambda kv: sort_key(kv[0]))
        assert_same(*both_paths(lambda: list(group_by_key(kvs))))

    @given(key_batches, key_batches, st.integers(1, 5))
    @settings(max_examples=150, deadline=None)
    def test_range_partition_matches_tagged(self, sample, keys, n):
        def assign():
            rp = RangePartitioner.from_sample(sample, n)
            return rp.boundaries, rp.partition_keys(list(keys), n), \
                [rp.partition(k, n) for k in keys]
        fast, tagged = both_paths(assign)
        assert_same(fast, tagged)
        if not isinstance(fast, str):
            assert fast[1] == fast[2]

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_pig_partial_aggregate_matches_tagged(self, data):
        from repro.engines.pig.reference import partial_aggregate_states
        keys = data.draw(key_batches)
        rows = [{"a": k, "b": k if i % 2 else None, "x": data.draw(_values)}
                for i, k in enumerate(keys)]
        group = data.draw(st.sampled_from([["a"], ["a", "b"], []]))
        aggs = {"n": ("count", None), "c": ("count", "x"),
                "s": ("sum", "x"), "m": ("avg", "x"), "lo": ("min", "x"),
                "hi": ("max", "x"), "one": ("sum", None)}
        assert_same(*both_paths(
            lambda: partial_aggregate_states(rows, group, aggs)))

    @given(key_batches, st.sampled_from(["inner", "left"]))
    @settings(max_examples=150, deadline=None)
    def test_pig_join_combine_matches_tagged(self, keys, how):
        from repro.engines.pig.compiler_tez import _join_combine
        left = [{"a": k, "x": i} for i, k in enumerate(keys)]
        right = [{"a": _equal_twin(k), "y": i}
                 for i, k in enumerate(keys[::2])]
        combine = _join_combine("L", "R", ["a"], ["a"], how,
                                ["a", "x"], ["a", "y"])
        inputs = {"L": left, "R": right}
        assert_same(*both_paths(lambda: combine(None, inputs)))

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_hive_partial_aggregate_matches_tagged(self, data):
        from repro.engines.hive.ast_nodes import Column, FuncCall, Star
        from repro.engines.hive.fragments import partial_aggregate
        keys = data.draw(key_batches)
        rows = [{"a": k, "x": data.draw(_values)} for k in keys]
        x = Column(None, "x")
        aggs = [FuncCall("count", [Star()]), FuncCall("count", [x]),
                FuncCall("sum", [x]), FuncCall("avg", [x]),
                FuncCall("min", [x]), FuncCall("max", [x]),
                FuncCall("count", [x], distinct=True)]
        group = [("a", Column(None, "a"))]
        assert_same(*both_paths(lambda: partial_aggregate(rows, group, aggs)))

    @given(key_batches, key_batches, st.sampled_from(["inner", "left"]))
    @settings(max_examples=150, deadline=None)
    def test_hive_local_hash_join_matches_tagged(self, build, probe, how):
        """Two probe batches against one cached broadcast table: the
        second may carry keys of other tags than the cached keying."""
        from repro.engines.hive.ast_nodes import Column
        from repro.engines.hive.fragments import InputLeaf, _local_hash_join
        from repro.engines.hive.plan import Join

        class Ctx:
            def __init__(self):
                self.cache = {}

            def cache_get(self, key):
                return self.cache.get(key)

            def cache_put(self, scope, key, value):
                self.cache[key] = value

        node = Join(InputLeaf("L"), InputLeaf("R", broadcast=True),
                    Column(None, "a"), Column(None, "b"), how)
        right = [{"b": k, "y": i} for i, k in enumerate(build)]
        batches = [[{"a": _equal_twin(k), "x": i}
                    for i, k in enumerate(build[::2])],
                   [{"a": k, "x": i} for i, k in enumerate(probe)]]

        def run():
            ctx = Ctx()
            return [_local_hash_join(node, left, right, ctx)
                    for left in batches]
        assert_same(*both_paths(run))


class TestHashPartitionerEquality:
    @given(_any_key, st.integers(1, 16))
    @settings(max_examples=300, deadline=None)
    def test_shuffle_equal_keys_share_a_partition(self, key, n):
        twin = _equal_twin(key)
        assert sort_key(key) == sort_key(twin)
        p = HashPartitioner()
        assert p.partition(key, n) == p.partition(twin, n)

    def test_int_float_twins(self):
        p = HashPartitioner()
        for a, b in [(-1, -1.0), (2 ** 61, float(2 ** 61)), (0, -0.0)]:
            assert p.partition(a, 16) == p.partition(b, 16)

    @given(st.one_of(st.text(), st.text("abé中", max_size=4)))
    @settings(max_examples=100, deadline=None)
    def test_str_hash_is_per_character_fnv(self, text):
        from repro.shuffle.partitioner import _stable_hash
        h = 2166136261
        for ch in text:
            h = ((h ^ ord(ch)) * 16777619) & 0xFFFFFFFF
        assert _stable_hash(text) == h & 0x7FFFFFFF
