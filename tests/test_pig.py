"""Pig engine tests: model validation + differential Tez/MR vs reference."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.engines.pig import PigRunner, PigScript
from repro.engines.pig.reference import agg_result, merge_aggregate_states

from helpers import make_sim

LOGS = [
    # (user, page, ms, status)
    ("u1", "/home", 120, 200),
    ("u2", "/home", 80, 200),
    ("u1", "/cart", 300, 500),
    ("u3", "/item", 40, 200),
    ("u2", "/item", 55, 404),
    ("u1", "/home", 95, 200),
    ("u4", "/cart", 210, 200),
    ("u3", "/home", 65, 200),
    ("u2", "/cart", 130, 500),
    ("u5", "/item", 20, 200),
]

USERS = [
    ("u1", "EU"), ("u2", "US"), ("u3", "EU"), ("u4", "APAC"),
]


@pytest.fixture
def env():
    sim = make_sim()
    sim.hdfs.write("/data/logs", LOGS, record_bytes=48)
    sim.hdfs.write("/data/users", USERS, record_bytes=24)
    return sim, PigRunner(sim)


def logs(script):
    return script.load("/data/logs",
                       ["user", "page", "ms", "status"])


def users(script):
    return script.load("/data/users", ["user", "region"])


def run_both(sim, runner, build):
    """Run the same script on reference and Tez; return both."""
    ref = runner.run(build(), backend="reference")
    tez = runner.run(build(), backend="tez")
    return ref, tez


def assert_outputs_match(a, b, ordered=False):
    assert set(a.outputs) == set(b.outputs)
    for path in a.outputs:
        rows_a, rows_b = a.outputs[path], b.outputs[path]
        if ordered:
            assert rows_a == rows_b
        else:
            assert sorted(rows_a, key=repr) == sorted(rows_b, key=repr)


def test_filter_foreach(env):
    sim, runner = env

    def build():
        s = PigScript("clean")
        ok = logs(s).filter(lambda r: r["status"] == 200)
        shaped = ok.foreach(
            lambda r: {"user": r["user"], "slow": r["ms"] > 100},
            ["user", "slow"],
        )
        shaped.store("/out/clean")
        return s

    ref, tez = run_both(sim, runner, build)
    assert_outputs_match(ref, tez)
    assert len(tez.outputs["/out/clean"]) == 7
    runner.close()


def test_aggregate_group(env):
    sim, runner = env

    def build():
        s = PigScript("agg")
        stats = logs(s).aggregate(
            ["page"],
            {"hits": ("count", None), "total_ms": ("sum", "ms"),
             "worst": ("max", "ms"), "avg_ms": ("avg", "ms")},
        )
        stats.store("/out/stats")
        return s

    ref, tez = run_both(sim, runner, build)
    assert_outputs_match(ref, tez)
    mr = runner.run(build(), backend="mr")
    assert_outputs_match(ref, mr)
    runner.close()


def test_group_bags(env):
    sim, runner = env

    def build():
        s = PigScript("bags")
        grouped = logs(s).group_by(["user"])
        counted = grouped.foreach(
            lambda r: {"user": r["group"], "n": len(r["bag"])},
            ["user", "n"],
        )
        counted.store("/out/bags")
        return s

    ref, tez = run_both(sim, runner, build)
    assert_outputs_match(ref, tez)
    mr = runner.run(build(), backend="mr")
    assert_outputs_match(ref, mr)
    runner.close()


def test_join_union_distinct(env):
    sim, runner = env

    def build():
        s = PigScript("mix")
        l = logs(s)
        u = users(s)
        joined = l.join(u, ["user"], ["user"])
        eu = joined.filter(lambda r: r["region"] == "EU")
        us = joined.filter(lambda r: r["region"] == "US")
        both = eu.union(us)
        pages = both.foreach(lambda r: {"page": r["page"]}, ["page"])
        pages.distinct().store("/out/pages")
        return s

    ref, tez = run_both(sim, runner, build)
    assert_outputs_match(ref, tez)
    mr = runner.run(build(), backend="mr")
    assert_outputs_match(ref, mr)
    runner.close()


def test_left_join(env):
    sim, runner = env

    def build():
        s = PigScript("left")
        joined = logs(s).join(users(s), ["user"], ["user"], how="left")
        joined.store("/out/left")
        return s

    ref, tez = run_both(sim, runner, build)
    assert_outputs_match(ref, tez)
    mr = runner.run(build(), backend="mr")
    assert_outputs_match(ref, mr)
    # u5 has no user row -> joined with None region.
    rows = dict()
    runner.close()


def test_order_by_sample_histogram(env):
    sim, runner = env

    def build():
        s = PigScript("order")
        ordered = logs(s).order_by(["ms"], ascending=True, parallel=3)
        ordered.store("/out/ordered")
        return s

    ref, tez = run_both(sim, runner, build)
    assert_outputs_match(ref, tez, ordered=True)
    mr = runner.run(build(), backend="mr")
    assert_outputs_match(ref, mr, ordered=True)
    runner.close()


def test_order_by_descending(env):
    sim, runner = env

    def build():
        s = PigScript("orderdesc")
        logs(s).order_by(["ms"], ascending=False, parallel=2) \
            .store("/out/desc")
        return s

    ref, tez = run_both(sim, runner, build)
    assert_outputs_match(ref, tez, ordered=True)
    mr = runner.run(build(), backend="mr")
    assert_outputs_match(ref, mr, ordered=True)
    runner.close()


# ORDER BY keys the shuffle orders by type tag: None, then numbers,
# then strings. Raw comparison of them raises TypeError.
MIXED_KEYS = [
    (f"u{i % 7}" if i % 5 else None if i % 3 else i % 4, i)
    for i in range(400)
]


@pytest.mark.parametrize("ascending", [True, False])
def test_order_by_none_and_mixed_type_keys(env, ascending):
    sim, runner = env
    sim.hdfs.write("/data/mixed", MIXED_KEYS, record_bytes=16)

    def build():
        s = PigScript("ordermixed")
        s.load("/data/mixed", ["user", "n"]) \
            .order_by(["user"], ascending=ascending, parallel=3) \
            .store("/out/ordermixed")
        return s

    ref, tez = run_both(sim, runner, build)
    mr = runner.run(build(), backend="mr")
    expected = ref.outputs["/out/ordermixed"]
    assert len(expected) == len(MIXED_KEYS)
    for other in (tez, mr):
        rows = other.outputs["/out/ordermixed"]
        # Ties may arrive in any order; the key sequence may not.
        assert [r[0] for r in rows] == [r[0] for r in expected]
        assert sorted(rows, key=repr) == sorted(expected, key=repr)
    runner.close()


def test_skewed_join_on_none_and_mixed_type_keys(env):
    sim, runner = env
    dims = [(None, "none"), (0, "zero"), ("u1", "one"), ("u6", "six")]
    sim.hdfs.write("/data/mixed", MIXED_KEYS, record_bytes=16)
    sim.hdfs.write("/data/mixeddims", dims, record_bytes=16)

    def build():
        s = PigScript("skewmixed")
        facts = s.load("/data/mixed", ["k", "v"])
        d = s.load("/data/mixeddims", ["k", "label"])
        facts.join(d, ["k"], ["k"], skewed=True).store("/out/skewmixed")
        return s

    ref, tez = run_both(sim, runner, build)
    assert ref.outputs["/out/skewmixed"]
    assert_outputs_match(ref, tez)
    runner.close()


def test_skewed_join(env):
    sim, runner = env
    # Heavily skewed key distribution.
    skewed = [("hot", i) for i in range(50)] + [("cold", 1), ("warm", 2)]
    dims = [("hot", "H"), ("cold", "C"), ("warm", "W")]
    sim.hdfs.write("/data/skewed", skewed, record_bytes=16)
    sim.hdfs.write("/data/dims", dims, record_bytes=16)

    def build():
        s = PigScript("skew")
        facts = s.load("/data/skewed", ["k", "v"])
        d = s.load("/data/dims", ["k", "label"])
        joined = facts.join(d, ["k"], ["k"], skewed=True)
        joined.store("/out/skewjoin")
        return s

    ref, tez = run_both(sim, runner, build)
    assert_outputs_match(ref, tez)
    assert len(tez.outputs["/out/skewjoin"]) == 52
    runner.close()


def test_multi_store_shared_relation(env):
    sim, runner = env

    def build():
        s = PigScript("multi")
        ok = logs(s).filter(lambda r: r["status"] == 200)
        by_user = ok.aggregate(["user"], {"n": ("count", None)})
        by_page = ok.aggregate(["page"], {"n": ("count", None)})
        by_user.store("/out/by_user")
        by_page.store("/out/by_page")
        return s

    ref, tez = run_both(sim, runner, build)
    assert_outputs_match(ref, tez)
    mr = runner.run(build(), backend="mr")
    assert_outputs_match(ref, mr)
    # Tez executes the whole thing as one DAG; MR needs several jobs.
    assert tez.jobs == 1
    assert mr.jobs >= 3
    runner.close()


def test_flatten(env):
    sim, runner = env

    def build():
        s = PigScript("flat")
        words = logs(s).flatten(
            lambda r: [{"c": ch} for ch in r["page"].strip("/")],
            ["c"],
        )
        counts = words.aggregate(["c"], {"n": ("count", None)})
        counts.store("/out/chars")
        return s

    ref, tez = run_both(sim, runner, build)
    assert_outputs_match(ref, tez)
    runner.close()


NUMS = [(i, i % 7, i * 0.25) for i in range(600)]   # 4 HDFS blocks


def _nums(script):
    return script.load("/data/nums", ["i", "m", "f"])


def _tagged_batch(calls):
    """A row-wise batch UDF that logs each batch's size."""
    def fn(rows):
        calls.append(len(rows))
        return [{"i": r["i"], "tag": f"{r['m']}:{r['f'] * 3}"}
                for r in rows]
    return fn


def test_foreach_batch_matches_reference_on_every_backend(env):
    sim, runner = env
    sim.hdfs.write("/data/nums", NUMS, record_bytes=24)
    results, calls = {}, {}
    for backend in ("reference", "mr", "tez"):
        calls[backend] = []
        s = PigScript("batch")
        tagged = _nums(s).filter(lambda r: r["i"] % 5).foreach_batch(
            _tagged_batch(calls[backend]), ["i", "tag"])
        tagged.store(f"/out/tagged_{backend}")
        tagged.aggregate(["tag"], {"n": ("count", None)}) \
            .store(f"/out/tag_counts_{backend}")
        out = runner.run(s, backend=backend).outputs
        results[backend] = [sorted(rows, key=repr)
                            for _path, rows in sorted(out.items())]
    assert results["reference"] == results["mr"] == results["tez"]
    kept = sum(1 for i, _m, _f in NUMS if i % 5)
    assert calls["reference"] == [kept]
    for backend in ("mr", "tez"):
        # Once per task: the input spans several HDFS blocks.
        assert len(calls[backend]) > 1
        assert sum(calls[backend]) == kept
    runner.close()


@pytest.mark.parametrize("backend", ["reference", "mr", "tez"])
def test_foreach_batch_wrong_length_fails_naming_relation(env, backend):
    sim, runner = env
    sim.hdfs.write("/data/nums", NUMS, record_bytes=24)
    s = PigScript("short")
    dropped = _nums(s).foreach_batch(lambda rows: rows[1:],
                                     ["i", "m", "f"])
    dropped.store("/out/short")
    with pytest.raises((ValueError, RuntimeError)) as info:
        runner.run(s, backend=backend)
    message = f"{info.typename}: {info.value}"
    assert "ValueError" in message
    assert f"{dropped.name}: foreach_batch UDF returned" in message
    runner.close()


def _agg_combine(func, a, b):
    """Two partial states merged by string dispatch on ``func``."""
    if func == "count":
        return a + b
    if func == "avg":
        return (a[0] + b[0], a[1] + b[1])
    if a is None:
        return b
    if b is None:
        return a
    if func == "sum":
        return a + b
    if func == "min":
        return min(a, b)
    if func == "max":
        return max(a, b)
    raise ValueError(func)


def _merge_by_combine_loop(grouped, keys, aggs):
    """``merge_aggregate_states`` as one ``_agg_combine`` call per state
    and aggregate: the reference ``merge_aggregate_states`` must equal."""
    agg_items = list(aggs.items())
    out = []
    for key_values, states in grouped:
        merged = list(states[0])
        for state in states[1:]:
            merged = [
                _agg_combine(func, m, s)
                for (_o, (func, _f)), m, s in zip(agg_items, merged, state)
            ]
        row = dict(zip(keys, key_values))
        for (out_name, (func, _f)), state in zip(agg_items, merged):
            row[out_name] = agg_result(func, state)
        out.append(row)
    return out


_NUMBER = st.one_of(
    st.integers(-10**6, 10**6),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.sampled_from([0.1, 0.2, 0.3, 1e16, -1e16, -0.0]),
)
_STATE_OF = {
    "count": st.integers(0, 50),
    "sum": st.one_of(st.none(), _NUMBER),
    "avg": st.tuples(_NUMBER, st.integers(0, 50)),
    "min": st.one_of(st.none(), _NUMBER),
    "max": st.one_of(st.none(), _NUMBER),
}


@st.composite
def _grouped_states(draw):
    funcs = draw(st.lists(st.sampled_from(sorted(_STATE_OF)), max_size=6))
    aggs = {f"a{i}": (func, None if func == "count" else "v")
            for i, func in enumerate(funcs)}
    state = st.tuples(*(_STATE_OF[func] for func in funcs))
    grouped = draw(st.lists(
        st.tuples(st.tuples(st.integers(0, 3)),
                  st.lists(state, min_size=1, max_size=5)),
        max_size=4,
    ))
    return grouped, aggs


@settings(max_examples=300, deadline=None)
@given(_grouped_states())
def test_merge_aggregate_states_equals_combine_loop(case):
    grouped, aggs = case
    assert repr(merge_aggregate_states(grouped, ["k"], aggs)) == \
        repr(_merge_by_combine_loop(grouped, ["k"], aggs))


def test_limit(env):
    sim, runner = env

    def build():
        s = PigScript("lim")
        logs(s).order_by(["ms"], parallel=2).limit(3) \
            .store("/out/top3")
        return s

    ref, tez = run_both(sim, runner, build)
    assert len(tez.outputs["/out/top3"]) == 3
    assert_outputs_match(ref, tez, ordered=True)
    runner.close()


def test_tez_beats_mr_on_multistage_script(env):
    sim, runner = env

    def build():
        s = PigScript("perf")
        ok = logs(s).filter(lambda r: r["status"] == 200)
        joined = ok.join(users(s), ["user"], ["user"])
        stats = joined.aggregate(
            ["region"], {"n": ("count", None), "ms": ("sum", "ms")}
        )
        stats.order_by(["region"], parallel=2).store("/out/perf")
        return s

    tez = runner.run(build(), backend="tez")
    mr = runner.run(build(), backend="mr")
    assert_outputs_match(tez, mr, ordered=True)
    assert tez.elapsed < mr.elapsed
    runner.close()


class TestModelValidation:
    def test_store_required(self):
        s = PigScript("empty")
        s.load("/x", ["a"])
        with pytest.raises(ValueError):
            s.validate()

    def test_union_schema_mismatch(self):
        s = PigScript("u")
        a = s.load("/x", ["a"])
        b = s.load("/y", ["b"])
        with pytest.raises(ValueError):
            a.union(b)

    def test_unknown_group_key(self):
        s = PigScript("g")
        a = s.load("/x", ["a"])
        with pytest.raises(ValueError):
            a.group_by(["nope"])

    def test_join_arity_mismatch(self):
        s = PigScript("j")
        a = s.load("/x", ["a"])
        b = s.load("/y", ["b"])
        with pytest.raises(ValueError):
            a.join(b, ["a"], [])

    def test_cross_script_store_rejected(self):
        s1, s2 = PigScript("one"), PigScript("two")
        a = s1.load("/x", ["a"])
        with pytest.raises(ValueError):
            s2.store(a, "/out")

    def test_bad_aggregate(self):
        s = PigScript("a")
        a = s.load("/x", ["a"])
        with pytest.raises(ValueError):
            a.aggregate(["a"], {"x": ("median", "a")})
