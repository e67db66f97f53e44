"""Bucketed shuffle engine (stages/groups.py): per-key colocation and
sums that match pandas."""

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from wsid_ray.stages.groups import bucketed_group_apply, distinct


def make_ds(n=5000, keys=200, blocks=8):
    rng = np.random.RandomState(7)
    t = pa.table({
        "k": [f"key{i:03d}" for i in rng.randint(0, keys, n)],
        "v": rng.randint(0, 100, n).astype(np.int64),
    })
    return rd.from_arrow(t).repartition(blocks), t


def expected_sum(t):
    df = t.to_pandas()
    return df.groupby("k", as_index=False)["v"].sum().sort_values("k") \
             .reset_index(drop=True)


def test_bucketed_sum_matches_pandas():
    ds, t = make_ds()

    def comb(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("k", sort=False, as_index=False)["v"].sum()

    out = bucketed_group_apply(ds, ["k"], comb, num_buckets=16).to_pandas()
    out = out.sort_values("k").reset_index(drop=True)
    pd.testing.assert_frame_equal(out, expected_sum(t), check_dtype=False)


def test_empty_buckets_ok():
    # fewer keys than buckets -> some buckets are empty
    ds = rd.from_arrow(pa.table({"k": ["a", "a", "b"], "v": [1, 2, 3]}))

    def comb(df):
        return df.groupby("k", sort=False, as_index=False)["v"].sum()

    out = bucketed_group_apply(ds, ["k"], comb, num_buckets=16).to_pandas()
    assert sorted(map(tuple, out.itertuples(index=False))) == [
        ("a", 3), ("b", 3)]


def test_all_empty_input_typed_by_build_probe():
    """VERDICT r03 item 8: with no out_schema, an all-empty input must
    still emit the bucket_fn's OUTPUT schema (derived once at build by
    probing fn on a typed empty frame) — not the input schema, not
    null-typed columns."""
    ds = rd.from_arrow(pa.table({
        "k": pa.array([], type=pa.string()),
        "v": pa.array([], type=pa.int64())}))

    def comb(df):
        out = df.groupby("k", sort=False, as_index=False)["v"].sum()
        out["n"] = out["v"].astype("int64")
        return out

    out = bucketed_group_apply(ds, ["k"], comb, num_buckets=4)
    sch = out.schema()
    assert sch.names == ["k", "v", "n"]
    assert [str(t) for t in sch.types] == ["string", "int64", "int64"]
    assert out.count() == 0


def test_bucket_count_derived_from_input(monkeypatch):
    """With no num_buckets the shuffle sizes itself from its input's row
    count: 5,000 rows fit one bucket (one reduce, one output block); at
    500 rows per bucket the same input spreads over several, with the
    same sums."""
    from wsid_ray.stages import groups

    def comb(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("k", sort=False, as_index=False)["v"].sum()

    ds, t = make_ds()
    assert len(bucketed_group_apply(ds, ["k"], comb).to_arrow_refs()) == 1
    monkeypatch.setattr(groups, "ROWS_PER_BUCKET", 500)
    out = bucketed_group_apply(ds, ["k"], comb)
    assert len(out.to_arrow_refs()) > 1
    got = out.to_pandas().sort_values("k").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, expected_sum(t), check_dtype=False)


def test_split_inputs_coalesce_under_ref_cap(monkeypatch):
    """Past the slice-ref bound the split tasks each take a run of
    consecutive blocks, so the driver holds at most _TASKS_MAX_REFS slice
    refs; no Ray Data groupby runs, and the sums are unchanged."""
    from wsid_ray.stages import groups

    B = 4
    launches = []
    real = groups._split_block

    class Spy:
        def options(self, **kw):
            launched = real.options(**kw)

            class Launch:
                def remote(self, *a):
                    launches.append(kw["num_returns"])
                    return launched.remote(*a)
            return Launch()

    def no_groupby(*a, **kw):
        raise AssertionError("Ray Data groupby ran")

    def comb(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("k", sort=False, as_index=False)["v"].sum()

    monkeypatch.setattr(groups, "_TASKS_MAX_REFS", 10)
    monkeypatch.setattr(groups, "_split_block", Spy())
    monkeypatch.setattr(rd.Dataset, "groupby", no_groupby)
    ds, t = make_ds(blocks=8)
    assert 8 * B > groups._TASKS_MAX_REFS
    out = bucketed_group_apply(ds, ["k"], comb, num_buckets=B).to_pandas()
    got = out.sort_values("k").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, expected_sum(t), check_dtype=False)
    assert launches and all(r == B for r in launches)
    assert len(launches) * B <= groups._TASKS_MAX_REFS


def test_compact_blocks_drops_empty_blocks_without_tasks():
    """compact_blocks drops empty blocks using the row counts in the block
    metadata of its one execution: no task runs but the output dataset's
    metadata tasks.  An all-empty input keeps one typed block.  A shuffle
    over the kept blocks takes its row counts from its reduce tasks: they
    equal the rows of the blocks they came with."""
    import ray

    from tools.plan_count import counting
    from wsid_ray.stages.groups import Blocks, shuffle
    from wsid_ray.util import compact_blocks

    t = pa.table({"k": ["a", "b", "c"], "v": [1, 2, 3]})
    empty = t.slice(0, 0)
    for tables, n_rows in (([empty, t.slice(0, 2), empty, t.slice(2)], 3),
                           ([empty, empty, empty], 0)):
        ds = rd.from_arrow_refs([ray.put(x) for x in tables])
        with counting() as c:
            out = compact_blocks(ds)
        assert set(c["tasks"]) <= {"get_table_block_metadata_schema"}, c
        blocks = ray.get(out.to_arrow_refs())
        assert sum(b.num_rows for b in blocks) == n_rows
        assert all(b.schema == t.schema for b in blocks)
        if n_rows:
            assert all(b.num_rows for b in blocks)
            assert pa.concat_tables(blocks).sort_by("k").equals(t)
        else:
            assert len(blocks) == 1
        got = shuffle(Blocks.of(ds), ["k"], lambda df: df, num_buckets=4,
                      out_schema=t.schema)
        assert got.rows == [b.num_rows for b in ray.get(got.refs)]
        assert got.num_rows == n_rows
        assert all(got.rows) or len(got.refs) == 1


def test_distinct():
    ds = rd.from_arrow(pa.table({
        "a": ["x", "x", "y", "y", "x"],
        "b": [1, 1, 2, 2, 9],
    }))
    out = distinct(ds, ["a", "b"], num_buckets=4).to_pandas()
    assert sorted(map(tuple, out.itertuples(index=False))) == [
        ("x", 1), ("x", 9), ("y", 2)]


def test_combiner_in_split_tasks_matches_one_bucket(monkeypatch):
    """With the bucket count forced above 1, dedup_triples and distinct
    equal their one-bucket results (first provenance included), and each
    split task ships only distinct keys per bucket slice."""
    import datetime

    import ray

    from wsid_ray.stages import groups
    from wsid_ray.stages.triples import dedup_triples

    ts = datetime.datetime(2026, 1, 1)

    def block(turns):
        spo = [("a", "p", "b"), ("a", "p", "c"), ("d", "q", "b")]
        rows = [(s, p, o, "c1", t) for t in turns for s, p, o in spo]
        return pa.table({
            "subj": [r[0] for r in rows], "pred": [r[1] for r in rows],
            "obj": [r[2] for r in rows], "conv_id": [r[3] for r in rows],
            "turn_idx": pa.array([r[4] for r in rows], pa.int32()),
            "ts": pa.array([ts] * len(rows), pa.timestamp("us"))})

    blocks = [block([5, 3]), block([2, 7, 2]), block([4])]
    spo_blocks = [b.select(["subj", "pred", "obj"]) for b in blocks]

    def rows(ds):
        return sorted(tuple(r.values()) for r in ds.take_all())

    want = rows(dedup_triples(rd.from_arrow(blocks)))
    want_distinct = rows(distinct(rd.from_arrow(spo_blocks),
                                  ["subj", "pred", "obj"]))
    assert [r[4] for r in want] == [2, 2, 2]
    assert len(want_distinct) == 3

    slices = []
    real = groups._split_block

    class Spy:
        def options(self, **kw):
            task = real.options(**kw)

            class Launch:
                def remote(self, *a, **kw):
                    refs = task.remote(*a, **kw)
                    slices.extend(refs)
                    return refs
            return Launch()

    monkeypatch.setattr(groups, "_split_block", Spy())
    monkeypatch.setattr(groups, "ROWS_PER_BUCKET", 4)
    assert rows(dedup_triples(rd.from_arrow(blocks))) == want
    assert rows(distinct(rd.from_arrow(spo_blocks),
                         ["subj", "pred", "obj"])) == want_distinct
    assert len(slices) > 2 * len(blocks)  # B > 1, one split per block
    shipped = 0
    for t in ray.get(slices):
        keys = list(zip(*(t[c].to_pylist()
                          for c in ("subj", "pred", "obj"))))
        assert len(keys) == len(set(keys)), keys
        shipped += len(keys)
    # each split ships its block's 3 distinct keys, for both calls
    assert shipped == 2 * 3 * len(blocks)


def test_events_rollup_levels():
    import duckdb

    from wsid_catalog.pipelines.analytics import events_rollup

    sf = "/root/testdata/sf0.001"
    out = events_rollup(sf).to_pandas()
    lvl = out.groupby("lvl").size().to_dict()
    con = duckdb.connect()
    exp = con.sql(f"""
        SELECT CAST(GROUPING(event_type, date_trunc('day', ts)) AS BIGINT)
                   AS lvl, count(*) AS c
        FROM read_parquet('{sf}/events.parquet')
        GROUP BY ROLLUP(event_type, date_trunc('day', ts))
    """).df().groupby("lvl")["c"].size().to_dict()
    assert lvl == exp
    # grand total equals the sum of subtotals
    g = out[out["lvl"] == 3]
    assert len(g) == 1
    assert g["n"].iloc[0] == out[out["lvl"] == 1]["n"].sum()


def test_user_event_pivot_row_sums():
    import duckdb

    from wsid_catalog.pipelines.analytics import user_event_pivot

    sf = "/root/testdata/sf0.001"
    out = user_event_pivot(sf).to_pandas()
    cols = [c for c in out.columns if c.startswith("n_")]
    con = duckdb.connect()
    per_user = con.sql(f"""
        SELECT user_id, count(*) AS n
        FROM read_parquet('{sf}/events.parquet') GROUP BY user_id
    """).df()
    m = out.merge(per_user, on="user_id")
    assert (m[cols].sum(axis=1) == m["n"]).all()
    assert len(out) == len(per_user)


def test_order_price_histo_brackets_exact():
    """Each histogram quantile upper bound must sit within one bin width
    above the exact quantile, and cum-rank semantics must hold: at least
    ceil(q*n) orders are <= the reported bound, fewer than that are
    below bound - bin_width."""
    import duckdb

    from wsid_catalog.pipelines.analytics import _HISTO_QS, order_price_histo

    sf = "/root/testdata/sf0.001"
    W = 100_000
    out = order_price_histo(sf, bin_cents=W).to_pandas()
    con = duckdb.connect()
    cents = con.sql(f"""
        SELECT o_orderstatus,
               CAST(floor(o_totalprice*100 + 0.5) AS BIGINT) AS c
        FROM read_parquet('{sf}/orders.parquet')
    """).df()
    assert len(out) == cents["o_orderstatus"].nunique()
    for _, row in out.iterrows():
        x = cents[cents["o_orderstatus"] == row["o_orderstatus"]]["c"]
        n = len(x)
        assert row["n_orders"] == n
        for name, num, den in _HISTO_QS:
            ub = row[f"{name}_ub_cents"]
            k = (num * n + den - 1) // den
            assert (x < ub).sum() >= k        # bound reaches rank k
            assert (x < ub - W).sum() < k     # previous bin does not


def test_bit_length_u64_exact():
    """Exact everywhere np.log2 would be wrong: 2^56 - 1 rounds UP to
    2^56 in float64, so a log-based bit length overshoots at exactly
    the register boundaries HLL reads."""
    import numpy as np

    from wsid_catalog.stages.sketches import _bit_length_u64

    vals = [0, 1, 2, 3, (1 << 56) - 1, 1 << 56, (1 << 55) - 1,
            (1 << 64) - 1, 12345678901234567]
    got = _bit_length_u64(np.array(vals, dtype=np.uint64))
    assert list(got) == [v.bit_length() for v in vals]


def test_hll_estimate_accuracy():
    """Registers over sf0.001 events must estimate the exact distinct
    user count within the ~3 sigma HLL error band (1.04/sqrt(256) ~ 6.5%
    per sigma at p=8)."""
    import duckdb

    from wsid_ray.sources.pqclean import read_parquet_clean
    from wsid_catalog.stages.sketches import hll_estimate, hll_registers

    sf = "/root/testdata/sf0.001"
    regs = hll_registers(
        read_parquet_clean(f"{sf}/events.parquet", columns=["user_id"]),
        "user_id").to_pandas()
    est = hll_estimate(regs)
    exact = duckdb.sql(f"""
        SELECT count(DISTINCT user_id)
        FROM read_parquet('{sf}/events.parquet')
    """).fetchone()[0]
    assert abs(est - exact) / exact < 0.20, (est, exact)


def test_hll_grouped_estimates():
    """Grouped registers: each event_type's estimate must land within
    the HLL error band of its exact distinct-user count."""
    import duckdb

    from wsid_ray.sources.pqclean import read_parquet_clean
    from wsid_catalog.stages.sketches import hll_estimate, hll_registers

    sf = "/root/testdata/sf0.001"
    regs = hll_registers(
        read_parquet_clean(f"{sf}/events.parquet",
                           columns=["event_type", "user_id"]),
        "user_id", group_cols=["event_type"]).to_pandas()
    exact = dict(duckdb.sql(f"""
        SELECT event_type, count(DISTINCT user_id)
        FROM read_parquet('{sf}/events.parquet') GROUP BY event_type
    """).fetchall())
    assert set(regs["event_type"]) == set(exact)
    for et, g in regs.groupby("event_type"):
        est = hll_estimate(g)
        assert abs(est - exact[et]) / exact[et] < 0.25, (et, est,
                                                        exact[et])


def test_order_price_ntile_balanced_and_monotone():
    """NTILE invariants: per status, tile sizes differ by at most 1,
    earlier tiles get the extras, and tiles are monotone in price."""
    from wsid_catalog.pipelines.analytics import order_price_ntile

    out = order_price_ntile("/root/testdata/sf0.001").to_pandas()
    import duckdb
    px = dict(duckdb.sql("""
        SELECT o_orderkey, CAST(floor(o_totalprice*100+0.5) AS BIGINT)
        FROM read_parquet('/root/testdata/sf0.001/orders.parquet')
    """).fetchall())
    for status, g in out.groupby("o_orderstatus"):
        sizes = g.groupby("quartile").size()
        assert set(sizes.index) <= {1, 2, 3, 4}
        assert sizes.max() - sizes.min() <= 1
        assert (sizes.sort_index().diff().dropna() <= 0).all()
        g = g.assign(c=g["o_orderkey"].map(px)).sort_values(
            ["c", "o_orderkey"], kind="mergesort")
        assert (g["quartile"].diff().dropna() >= 0).all()


def test_order_price_ntile_skewed_partition(tmp_path):
    """VERDICT r03 item 2: exact NTILE must survive a deliberately skewed
    partition key — 90% of rows in one status, with heavy price ties —
    because the two-pass rank shuffles on (status, price bin), never
    co-locating a whole partition.  Exactness checked against DuckDB's
    NTILE window on the same file."""
    import duckdb
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from wsid_catalog.pipelines.analytics import order_price_ntile

    rng = np.random.default_rng(7)
    n = 4000
    status = np.where(np.arange(n) % 10 == 0, "P", "F")  # 90% 'F'
    # heavy ties: prices drawn from just 40 distinct values so single
    # bins carry many rows
    price = rng.choice(np.arange(40) * 137.5 + 10.0, size=n)
    pq.write_table(pa.table({
        "o_orderkey": pa.array(np.arange(n), type=pa.int64()),
        "o_orderstatus": pa.array(status.tolist(), type=pa.string()),
        "o_totalprice": pa.array(price, type=pa.float64()),
    }), str(tmp_path / "orders.parquet"))

    out = order_price_ntile(str(tmp_path)).to_pandas()
    exp = duckdb.sql(f"""
        SELECT o_orderkey, o_orderstatus,
               CAST(NTILE(4) OVER (PARTITION BY o_orderstatus
                    ORDER BY CAST(floor(o_totalprice*100+0.5) AS BIGINT),
                             o_orderkey) AS BIGINT) AS quartile
        FROM read_parquet('{tmp_path}/orders.parquet')
    """).df()
    merged = out.merge(exp, on=["o_orderkey", "o_orderstatus"],
                       suffixes=("", "_exp"))
    assert len(merged) == n == len(out)
    assert (merged["quartile"] == merged["quartile_exp"]).all()
