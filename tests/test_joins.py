"""J1-J5 join primitives (SURVEY.md §2.4)."""

import pandas as pd
import pyarrow as pa
import ray.data as rd

from wsid_catalog.stages.joins import broadcast_join, hash_join, semi_join


def ds_of(**cols):
    return rd.from_arrow(pa.table(cols))


def test_hash_join_inner():
    left = ds_of(k=["a", "b", "c", "a"], x=[1, 2, 3, 4])
    right = ds_of(k=["a", "b", "d"], y=[10, 20, 40])
    out = hash_join(left, right, on=["k"], num_buckets=4).to_pandas()
    got = sorted(map(tuple, out[["k", "x", "y"]].itertuples(index=False)))
    assert got == [("a", 1, 10), ("a", 4, 10), ("b", 2, 20)]


def test_hash_join_left():
    left = ds_of(k=["a", "z"], x=[1, 2])
    right = ds_of(k=["a"], y=[10])
    out = hash_join(left, right, on=["k"], how="left",
                    num_buckets=4).to_pandas()
    assert len(out) == 2
    z = out[out["k"] == "z"]
    assert z["y"].isna().all()


def test_hash_join_left_schema_stable_int64():
    """ADVICE r03: every bucket of a left join must emit ONE schema —
    right-side int64 survives as int64+null in buckets with unmatched
    left rows instead of flapping to float64."""
    import pyarrow as pa
    import ray.data as rd

    from wsid_catalog.stages.joins import hash_join
    left = rd.from_arrow(pa.table({
        "k": pa.array([f"k{i}" for i in range(40)], type=pa.string()),
        "x": pa.array(range(40), type=pa.int64())}))
    right = rd.from_arrow(pa.table({
        "k": pa.array(["k0", "k7"], type=pa.string()),
        "y": pa.array([100, 700], type=pa.int64())}))
    out = hash_join(left, right, on=["k"], how="left", num_buckets=8)
    sch = out.schema()
    assert dict(zip(sch.names, map(str, sch.types)))["y"] == "int64"
    df = out.to_pandas()
    assert len(df) == 40
    assert df.loc[df["k"] == "k7", "y"].iloc[0] == 700
    assert df["y"].isna().sum() == 38


def test_anti_join_drops_null_keys():
    """ADVICE r03: SQL NOT IN semantics — a null key is never kept by
    the anti join (and never by the semi join either)."""
    import pyarrow as pa
    import ray.data as rd

    from wsid_catalog.stages.joins import semi_join
    big = rd.from_arrow(pa.table({
        "k": pa.array(["a", None, "b"], type=pa.string()),
        "x": pa.array([1, 2, 3], type=pa.int64())}))
    anti = semi_join(big, {"a"}, "k", anti=True).to_pandas()
    assert list(anti["k"]) == ["b"]
    semi = semi_join(big, {"a"}, "k").to_pandas()
    assert list(semi["k"]) == ["a"]


def test_broadcast_join():
    big = ds_of(k=["a", "b", "a"], x=[1, 2, 3])
    small = pd.DataFrame({"k": ["a", "b"], "name": ["A", "B"]})
    out = broadcast_join(big, small, on=["k"]).to_pandas()
    assert list(out.sort_values("x")["name"]) == ["A", "B", "A"]


def test_semi_and_anti_join():
    big = ds_of(k=["a", "b", "c"], x=[1, 2, 3])
    semi = semi_join(big, {"a", "c"}, "k").to_pandas()
    assert sorted(semi["k"]) == ["a", "c"]
    anti = semi_join(big, {"a", "c"}, "k", anti=True).to_pandas()
    assert list(anti["k"]) == ["b"]


def test_hash_join_single_bucket():
    """num_buckets=1 regression: _split_block must return a bare table
    (a 1-tuple would reach the join task unwrapped under num_returns=1)."""
    import pandas as pd
    import ray.data as rd
    from wsid_catalog.stages.joins import hash_join
    left = rd.from_pandas(pd.DataFrame({"k": [1, 2], "a": ["x", "y"]}))
    right = rd.from_pandas(pd.DataFrame({"k": [2, 3], "b": ["p", "q"]}))
    out = hash_join(left, right, on=["k"], num_buckets=1).to_pandas()
    assert out.to_dict("records") == [{"k": 2, "a": "y", "b": "p"}]


def test_bucketed_pair_apply_range_self_join():
    """Generic co-partitioned non-equi apply: trailing-window self-join."""
    import numpy as np

    from wsid_catalog.stages.joins import bucketed_pair_apply

    ts = pd.to_datetime(
        ["2024-01-01 10:00", "2024-01-01 10:30", "2024-01-01 12:00",
         "2024-01-01 10:05"])
    ev = ds_of(event_id=[1, 2, 3, 4], user=[7, 7, 7, 7],
               ts=pa.array(ts, type=pa.timestamp("us")))

    def fn(ldf, rdf):
        m = ldf.merge(rdf, on="user", suffixes=("", "_o"))
        keep = ((m["ts_o"] < m["ts"])
                & (m["ts_o"] >= m["ts"] - pd.Timedelta(hours=1)))
        m = m[keep]
        g = m.groupby("event_id", as_index=False).agg(
            n=("event_id_o", "size"))
        g["n"] = g["n"].astype("int64")
        return g[["event_id", "n"]]

    schema = pa.schema([("event_id", pa.int64()), ("n", pa.int64())])
    out = bucketed_pair_apply(ev, ev, on_left=["user"], on_right=["user"],
                              fn=fn, out_schema=schema,
                              num_buckets=4).to_pandas()
    got = dict(zip(out["event_id"], out["n"]))
    # event 2 sees events 1 and 4; event 4 sees event 1; events 1/3 none
    assert got == {2: 2, 4: 1}


def test_customer_running_total_small():
    sf = "/root/testdata/sf0.001"
    import duckdb

    from wsid_catalog.pipelines.analytics import customer_running_total

    out = customer_running_total(sf).to_pandas() \
        .sort_values(["o_custkey", "rn"], ignore_index=True)
    con = duckdb.connect()
    exp = con.sql(f"""
        WITH c AS (SELECT o_orderkey, o_custkey, o_orderdate,
                          CAST(floor(o_totalprice*100+0.5) AS BIGINT)
                              AS cents
                   FROM read_parquet('{sf}/orders.parquet'))
        SELECT o_orderkey, o_custkey,
               CAST(row_number() OVER win AS BIGINT) AS rn,
               CAST(SUM(cents) OVER win AS BIGINT) AS cum_cents
        FROM c WINDOW win AS (PARTITION BY o_custkey
                              ORDER BY o_orderdate, o_orderkey)
        ORDER BY o_custkey, rn
    """).df()
    pd.testing.assert_frame_equal(out, exp)


def test_bloom_semi_join_exact_despite_false_positives():
    """m_log2=8 (256 bits) over 60 keys forces Bloom false positives;
    the exact join must remove every one."""
    import pyarrow as pa
    import ray.data as rd

    from wsid_catalog.stages.joins import bloom_semi_join

    big = rd.from_arrow(pa.table({
        "k": pa.array(list(range(1000)), type=pa.int64()),
        "v": pa.array(range(1000), type=pa.int64())}))
    keys = rd.from_arrow(pa.table({
        "k": pa.array([i * 17 for i in range(60)], type=pa.int64())}))
    out = bloom_semi_join(big, keys, "k", m_log2=8,
                          num_buckets=4).to_pandas()
    want = sorted(i * 17 for i in range(60) if i * 17 < 1000)
    assert sorted(out["k"]) == want
    assert list(out.columns) == ["k", "v"]


def test_bloom_anti_join_exact_despite_false_positives():
    """m_log2=8 forces Bloom false positives; the exact residual join
    must recover every one into the anti output."""
    import pyarrow as pa
    import ray.data as rd

    from wsid_catalog.stages.joins import bloom_anti_join

    big = rd.from_arrow(pa.table({
        "k": pa.array(list(range(1000)), type=pa.int64()),
        "v": pa.array(range(1000), type=pa.int64())}))
    keys = rd.from_arrow(pa.table({
        "k": pa.array([i * 17 for i in range(60)], type=pa.int64())}))
    out = bloom_anti_join(big, keys, "k", m_log2=8,
                          num_buckets=4).to_pandas()
    members = {i * 17 for i in range(60)}
    want = sorted(k for k in range(1000) if k not in members)
    assert sorted(out["k"]) == want
    assert sorted(out.columns) == ["k", "v"]


def test_hash_join_runs_each_input_plan_once():
    """A hash_join of two lazy inputs executes each input's plan once:
    2 Ray Data executions, not the 4 of ``Dataset.to_arrow_refs``, which
    runs a plan a second time to fetch its schema."""
    import pyarrow.compute as pc

    from tools.plan_count import counting

    def lazy(n, col):
        return rd.range(n).map_batches(
            lambda t: pa.table({"k": pc.cast(t["id"], pa.string()),
                                col: t["id"]}),
            batch_format="pyarrow")

    with counting() as c:
        out = hash_join(lazy(20, "x"), lazy(10, "y"), on=["k"],
                        num_buckets=2)
    assert c["executions"] == 2, c
    assert sorted(out.to_pandas()["k"].astype(int)) == list(range(10))
