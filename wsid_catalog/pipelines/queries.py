"""Engine-side implementations of the catalogue queries
(wsid_catalog.entry.queries()).  Each function takes the driver's
``sf_dir`` and returns a Dataset / DataFrame / Arrow table whose column
NAMES AND TYPES match the oracle SQL in wsid_catalog.entry.oracle_sql
exactly (values are hashed after sorting columns by name).
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from wsid_ray.sources.pqclean import read_parquet_clean
from ray.data.aggregate import Sum

from wsid_ray.config import DEFAULT_CONFIG, GAZETTEER
from wsid_ray.sources.transcripts import read_transcripts
from wsid_catalog.stages.dedup import jaccard_pairs, minhash_candidates
from wsid_catalog.stages.knn import knn_topk, read_embeddings
from wsid_catalog.stages.textstats import (fingerprint_batch, langid_batch,
                                           quality_batch, read_documents,
                                           simhash_batch, token_counts_batch)
from wsid_ray.stages.tokenize import tokenize_batch, tokenize_column
from wsid_catalog.pipelines import analytics
from wsid_ray.pipelines.queries import q_unigram_counts

CFG = DEFAULT_CONFIG


def q_source_gram_overlap(sf_dir: str) -> rd.Dataset:
    """Cross-feed contamination panel: for every source pair, the
    number of DISTINCT 5-gram hashes both feeds contain — the signal
    that two ingestion feeds ship the same boilerplate or mirrored
    content.  Per-batch (gram, source) dedup (the batch holds its own
    doc→source map, no join needed), one bucketed exact distinct, then
    pair expansion inside per-gram groups — pairs are bounded by
    sources² per gram, never docs²."""
    from wsid_catalog.stages.dedup import gram_rows
    from wsid_ray.stages.groups import (bucketed_group_apply, bucketed_sum,
                                        distinct)

    docs = read_documents(sf_dir, columns=["doc_id", "source", "text"])

    def to_pairs(t: pa.Table) -> pd.DataFrame:
        g = gram_rows(t.select(["doc_id", "text"])).to_pandas()
        src = dict(zip(t["doc_id"].to_pylist(),
                       t["source"].to_pylist()))
        g["source"] = g["doc_id"].map(src)
        return g[["g", "source"]].drop_duplicates()

    gs = distinct(docs.map_batches(to_pairs, batch_format="pyarrow"),
                  ["g", "source"], num_buckets=16)

    def expand(df: pd.DataFrame) -> pd.DataFrame:
        # vectorised pair expansion: in-bucket self-merge on the gram
        # key (C join), canonical order via the < filter — no per-gram
        # Python loop even with millions of distinct grams per bucket
        m = df.merge(df, on="g", suffixes=("_a", "_b"))
        m = m[m["source_a"] < m["source_b"]]
        out = m.groupby(["source_a", "source_b"], as_index=False) \
               .size().rename(columns={"size": "n_shared"})
        out["n_shared"] = out["n_shared"].astype("int64")
        return out

    partials = bucketed_group_apply(gs, ["g"], expand, num_buckets=16)
    agg = bucketed_sum(partials, ["source_a", "source_b"],
                       ["n_shared"], num_buckets=2)
    out_schema = pa.schema([("source_a", pa.string()),
                            ("source_b", pa.string()),
                            ("n_shared", pa.int64())])
    return agg.map_batches(
        lambda t: t.select(["source_a", "source_b", "n_shared"])
                   .cast(out_schema), batch_format="pyarrow")


def q_user_first_last_events(sf_dir: str) -> rd.Dataset:
    """Per-user first/last panel (the session-boundary feature row):
    first and last event id + type in (ts, event_id) order, plus the
    event count.  Per-batch partials prune each user to two candidate
    rows + a count; ONE bucketed fold recomputes the arg-extremes."""
    from wsid_ray.stages.groups import bucketed_group_apply, bucketed_sum

    ds = read_parquet_clean(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "ts", "user_id", "event_type"])

    def part(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts", "event_id"],
                            kind="mergesort", ignore_index=True)
        g = df.groupby("user_id", sort=False)
        first = g.head(1).rename(columns={
            "ts": "first_ts", "event_id": "first_event_id",
            "event_type": "first_type"})
        last = g.tail(1).rename(columns={
            "ts": "last_ts", "event_id": "last_event_id",
            "event_type": "last_type"})
        n = g.size().rename("n").reset_index()
        out = first.merge(last, on="user_id").merge(n, on="user_id")
        out["n"] = out["n"].astype("int64")
        return out[["user_id", "first_ts", "first_event_id",
                    "first_type", "last_ts", "last_event_id",
                    "last_type", "n"]]

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        f = df.sort_values(["user_id", "first_ts", "first_event_id"],
                           kind="mergesort").drop_duplicates(
            "user_id", keep="first")
        l = df.sort_values(["user_id", "last_ts", "last_event_id"],
                           kind="mergesort").drop_duplicates(
            "user_id", keep="last")
        n = df.groupby("user_id", as_index=False)["n"].sum()
        out = f[["user_id", "first_event_id", "first_type"]].merge(
            l[["user_id", "last_event_id", "last_type"]],
            on="user_id").merge(n, on="user_id")
        out["n"] = out["n"].astype("int64")
        return out

    out_schema = pa.schema([
        ("user_id", pa.int64()), ("first_event_id", pa.int64()),
        ("first_type", pa.string()), ("last_event_id", pa.int64()),
        ("last_type", pa.string()), ("n", pa.int64())])
    return bucketed_group_apply(
        ds.map_batches(part, batch_format="pandas"),
        ["user_id"], fold, num_buckets=16, out_schema=out_schema)


def q_orders_weighted_sample_by_status(sf_dir: str) -> "pa.Table":
    """Stratified deterministic weighted sampling: k smallest priority
    keys per order status (pipelines/analytics.py)."""
    return analytics.orders_weighted_sample_by_status(sf_dir)


def q_doc_readability_percentile(sf_dir: str) -> rd.Dataset:
    """Quantile normalisation: PERCENT_RANK of each doc's Flesch score
    in micro-units, on the exact two-pass rank machinery
    (pipelines/analytics.py)."""
    return analytics.doc_readability_percentile(sf_dir)


def q_source_quality_rollup(sf_dir: str) -> rd.Dataset:
    """Curation dashboard: per document source, doc count, C4-filter
    pass count and the pass rate in integer micro-units — the per-feed
    health row a corpus operator watches.  Quality signals and filter
    thresholds are the already-mirrored quality_batch /
    quality_filter_batch rules; per-batch partials, one tiny bucketed
    sum keyed on source."""
    from wsid_ray.stages.groups import bucketed_group_apply, bucketed_sum

    docs = read_documents(sf_dir, columns=["doc_id", "source", "text"])

    def part(t: pa.Table) -> pd.DataFrame:
        q = quality_batch(t)
        keep = pc.and_(pc.and_(
            pc.greater_equal(q["n_chars"], 80),
            pc.greater_equal(q["alpha_ratio"], 0.6)),
            pc.less_equal(q["stop_ratio"], 0.5))
        df = pd.DataFrame({
            "source": t["source"].to_pandas(),
            "passed": keep.to_pandas().astype("int64")})
        g = df.groupby("source", as_index=False).agg(
            n_docs=("passed", "size"), n_pass=("passed", "sum"))
        g["n_docs"] = g["n_docs"].astype("int64")
        g["n_pass"] = g["n_pass"].astype("int64")
        return g

    agg = bucketed_sum(docs.map_batches(part, batch_format="pyarrow"),
                       ["source"], ["n_docs", "n_pass"], num_buckets=2)

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["pass_micro"] = (df["n_pass"] * 1_000_000
                            // df["n_docs"]).astype("int64")
        return df[["source", "n_docs", "n_pass", "pass_micro"]]

    out_schema = pa.schema([("source", pa.string()),
                            ("n_docs", pa.int64()),
                            ("n_pass", pa.int64()),
                            ("pass_micro", pa.int64())])
    return agg.map_batches(finish, batch_format="pandas").map_batches(
        lambda t: t.cast(out_schema), batch_format="pyarrow")


def q_embedding_dim_stats(sf_dir: str) -> rd.Dataset:
    """Vector-health audit: per embedding dimension, exact micro-unit
    value sum, min, max and count — the drift/NaN panel a feature store
    monitors.  Per-block (dim, sum, min, max, n) partials fold in one
    tiny bucketed pass (dimension count is model-bounded)."""
    from wsid_ray.stages.groups import bucketed_group_apply
    from wsid_catalog.stages.knn import read_embeddings

    emb = read_embeddings(sf_dir)

    def part(t: pa.Table) -> pd.DataFrame:
        col = t["embedding"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        flat = col.flatten().to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        q = np.floor(flat * 1_000_000 + 0.5).astype(np.int64)
        n = len(col)
        dim = len(q) // max(n, 1)
        dims = np.tile(np.arange(dim, dtype=np.int64), n)
        df = pd.DataFrame({"dim": dims, "q": q})
        g = df.groupby("dim", as_index=False).agg(
            sum_micro=("q", "sum"), min_micro=("q", "min"),
            max_micro=("q", "max"), n=("q", "size"))
        g["n"] = g["n"].astype("int64")
        return g

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("dim", as_index=False).agg(
            sum_micro=("sum_micro", "sum"), min_micro=("min_micro", "min"),
            max_micro=("max_micro", "max"), n=("n", "sum"))

    out_schema = pa.schema([("dim", pa.int64()),
                            ("sum_micro", pa.int64()),
                            ("min_micro", pa.int64()),
                            ("max_micro", pa.int64()),
                            ("n", pa.int64())])
    return bucketed_group_apply(
        emb.map_batches(part, batch_format="pyarrow"),
        ["dim"], fold, num_buckets=2, out_schema=out_schema)


def q_conv_turn_taking(sf_dir: str) -> rd.Dataset:
    """Dialog-structure panel: per conversation, turn count, role-switch
    count (role differs from the previous turn in turn_idx order) and
    distinct role count — the turn-taking signal conversational-data
    curation filters on.  One bucketed shuffle keyed on conv_id, the
    in-bucket scan vectorised (sort + shift compare)."""
    from wsid_ray.stages.groups import bucketed_group_apply

    ds = read_transcripts(sf_dir).select_columns(
        ["conv_id", "turn_idx", "role"])

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["conv_id", "turn_idx"], kind="mergesort",
                            ignore_index=True)
        g = df.groupby("conv_id", sort=False)
        prev = g["role"].shift(1)
        switch = prev.notna() & (df["role"] != prev)
        out = pd.DataFrame({
            "conv_id": df["conv_id"], "switch": switch,
            "role": df["role"]})
        agg = out.groupby("conv_id", sort=False).agg(
            n_turns=("role", "size"), n_switches=("switch", "sum"),
            n_roles=("role", "nunique")).reset_index()
        for c in ("n_turns", "n_switches", "n_roles"):
            agg[c] = agg[c].astype("int64")
        return agg

    out_schema = pa.schema([("conv_id", pa.string()),
                            ("n_turns", pa.int64()),
                            ("n_switches", pa.int64()),
                            ("n_roles", pa.int64())])
    return bucketed_group_apply(ds, ["conv_id"], fold, num_buckets=16,
                                out_schema=out_schema)


def q_term_trend_daily(sf_dir: str) -> rd.Dataset:
    """Temporal KG signal: gazetteer mention counts per term per
    calendar day — the trend line entity monitoring reads.  The mention
    stream (single and multi-word spans) folds to (term, day) partials
    per batch; ONE bucketed sum."""
    from wsid_ray.stages.groups import bucketed_group_apply, bucketed_sum
    from wsid_ray.pipelines.flagship import detect_mentions

    turns = read_transcripts(sf_dir).map_batches(tokenize_batch,
                                                 batch_format="pyarrow")
    mentions = detect_mentions(turns, CFG).select_columns(["term", "ts"])

    def part(df: pd.DataFrame) -> pd.DataFrame:
        day = df["ts"].astype("datetime64[us]").dt.floor("D")
        g = pd.DataFrame({"term": df["term"], "day": day})
        out = g.groupby(["term", "day"], as_index=False).size() \
               .rename(columns={"size": "n"})
        out["n"] = out["n"].astype("int64")
        return out

    out = bucketed_sum(
        mentions.map_batches(part, batch_format="pandas"),
        ["term", "day"], ["n"], num_buckets=8)
    out_schema = pa.schema([("term", pa.string()),
                            ("day", pa.timestamp("us")),
                            ("n", pa.int64())])
    return out.map_batches(
        lambda t: t.select(["term", "day", "n"]).cast(out_schema),
        batch_format="pyarrow")


def q_term_trend_mk(sf_dir: str) -> rd.Dataset:
    """Mann-Kendall trend test per gazetteer term over its DENSE daily
    mention counts — the nonparametric "is this entity rising or
    fading" screen (Mann 1945 / Kendall 1975): S = Σ_{i<j}
    sign(x_j − x_i) over the zero-filled day series between the term's
    first and last mention; S > 0 trends up, S < 0 down.  Pure integer
    (no rounding contract); n_days rides along for the caller's
    normal-approximation step.

    Scale: rides the same ONE bucketed (term, day) fold as
    term_trend_daily; the pairwise pass is per-term D² over the
    span-bounded dense day count — gazetteer × span work, never
    corpus-shaped."""
    from wsid_ray.stages.groups import bucketed_group_apply, bucketed_sum
    from wsid_ray.pipelines.flagship import detect_mentions

    turns = read_transcripts(sf_dir).map_batches(tokenize_batch,
                                                 batch_format="pyarrow")
    mentions = detect_mentions(turns, CFG).select_columns(["term", "ts"])

    def part(df: pd.DataFrame) -> pd.DataFrame:
        day = df["ts"].astype("datetime64[us]").dt.floor("D")
        g = pd.DataFrame({"term": df["term"], "day": day})
        out = g.groupby(["term", "day"], as_index=False).size() \
               .rename(columns={"size": "n"})
        out["n"] = out["n"].astype("int64")
        return out

    td = bucketed_sum(
        mentions.map_batches(part, batch_format="pandas"),
        ["term", "day"], ["n"], num_buckets=8)

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        terms, nds, ss = [], [], []
        for term, g in df.groupby("term", sort=True):
            g = g.groupby("day", as_index=False)["n"].sum()
            days = pd.date_range(g["day"].min(), g["day"].max(),
                                 freq="D", unit="us")
            x = g.set_index("day")["n"].reindex(days, fill_value=0) \
                 .to_numpy().astype(np.int64)
            sgn = np.sign(x[None, :] - x[:, None])
            s = int(sgn[np.triu_indices(len(x), k=1)].sum())
            terms.append(term); nds.append(len(x)); ss.append(s)
        return pd.DataFrame({
            "term": pd.Series(terms, dtype="object"),
            "n_days": pd.Series(nds, dtype="int64"),
            "s_stat": pd.Series(ss, dtype="int64")})

    out_schema = pa.schema([("term", pa.string()),
                            ("n_days", pa.int64()),
                            ("s_stat", pa.int64())])
    return bucketed_group_apply(td, ["term"], fold, num_buckets=4,
                                out_schema=out_schema)



def q_lang_vocab_stats(sf_dir: str) -> "pa.Table":
    """Heaps-law vocabulary panel: per language, document count, total
    token occurrences, distinct token types.  Doc/token counts fold per
    batch; the type count is one bucketed exact distinct over per-batch-
    deduped (lang, token) pairs — languages are few, so the final table
    is driver-small by construction."""
    from wsid_ray.stages.groups import bucketed_sum, distinct, partial_count
    from wsid_ray.util import collect_rows

    docs = read_documents(sf_dir, columns=["doc_id", "lang", "text"])

    def tok_rows(t: pa.Table) -> pa.Table:
        toks = tokenize_column(t["text"])
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        n = pc.list_value_length(toks).cast(pa.int64())
        return pa.table({"lang": t["lang"], "n_toks": n})

    def cpart(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("lang", as_index=False).agg(
            n_docs=("n_toks", "size"), n_tokens=("n_toks", "sum"))
        g["n_docs"] = g["n_docs"].astype("int64")
        g["n_tokens"] = g["n_tokens"].astype("int64")
        return g

    counts = collect_rows(bucketed_sum(
        docs.map_batches(tok_rows, batch_format="pyarrow")
            .map_batches(cpart, batch_format="pandas"),
        ["lang"], ["n_docs", "n_tokens"], num_buckets=2))

    def pair_rows(t: pa.Table) -> pa.Table:
        toks = tokenize_column(t["text"])
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        lang_col = t["lang"].take(pc.list_parent_indices(toks))
        return pa.table({"lang": lang_col, "tok": toks.flatten()})

    pairs = docs.map_batches(pair_rows, batch_format="pyarrow") \
                .map_batches(lambda df: df.drop_duplicates(),
                             batch_format="pandas")
    types = collect_rows(bucketed_sum(
        partial_count(distinct(pairs, ["lang", "tok"], num_buckets=16),
                      ["lang"], out_name="n_types"),
        ["lang"], ["n_types"], num_buckets=2))
    tmap = {r["lang"]: int(r["n_types"]) for r in types}

    counts = sorted(counts, key=lambda r: r["lang"])
    return pa.table({
        "lang": pa.array([r["lang"] for r in counts], pa.string()),
        "n_docs": pa.array([int(r["n_docs"]) for r in counts], pa.int64()),
        "n_tokens": pa.array([int(r["n_tokens"]) for r in counts],
                             pa.int64()),
        "n_types": pa.array([tmap.get(r["lang"], 0) for r in counts],
                            pa.int64())})


def q_orders_benford(sf_dir: str) -> rd.Dataset:
    """Benford first-digit forensics over order values — the
    fraud/synthetic-data screen: counts and micro-unit share per
    leading digit of the integer cents.  Stateless digit extraction,
    one 9-row bounded sum; the share divides by a broadcast total."""
    from wsid_catalog.pipelines.analytics import _cents
    from wsid_ray.stages.groups import bucketed_sum

    ds = read_parquet_clean(f"{sf_dir}/orders.parquet",
                            columns=["o_totalprice"])

    def part(df: pd.DataFrame) -> pd.DataFrame:
        cents = _cents(df["o_totalprice"].to_numpy())
        digit = pd.Series(cents).astype(str).str[0].astype("int64")
        out = pd.DataFrame({"digit": digit}).groupby(
            "digit", as_index=False).size() \
            .rename(columns={"size": "n"})
        out["n"] = out["n"].astype("int64")
        return out

    agg = bucketed_sum(ds.map_batches(part, batch_format="pandas"),
                       ["digit"], ["n"], num_buckets=2).to_pandas()
    total = int(agg["n"].sum())
    agg = agg.sort_values("digit", ignore_index=True)
    agg["share_micro"] = (agg["n"] * 1_000_000 // total).astype("int64")
    return rd.from_arrow(pa.Table.from_pandas(
        agg[["digit", "n", "share_micro"]], preserve_index=False))


def q_conv_response_latency(sf_dir: str) -> rd.Dataset:
    """Dialog responsiveness panel: per conversation, the count and
    exact summed microseconds of assistant turns that directly follow
    a user turn (turn_idx order) — the response-latency signal
    conversational curation thresholds on.  Sum and count stay two
    int64 columns (no float mean); one bucketed shuffle on conv_id."""
    from wsid_ray.stages.groups import bucketed_group_apply

    ds = read_transcripts(sf_dir).select_columns(
        ["conv_id", "turn_idx", "role", "ts"])

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["conv_id", "turn_idx"], kind="mergesort",
                            ignore_index=True)
        g = df.groupby("conv_id", sort=False)
        prev_role = g["role"].shift(1)
        tsi = df["ts"].astype("datetime64[us]").astype("int64")
        prev_ts = pd.Series(tsi).astype("Int64") \
            .groupby(df["conv_id"], sort=False).shift(1)
        hit = (df["role"] == "assistant") & (prev_role == "user")
        gap = (tsi - prev_ts).where(hit)
        out = pd.DataFrame({"conv_id": df["conv_id"],
                            "hit": hit.astype("int64"),
                            "gap": gap.fillna(0).astype("int64")})
        agg = out.groupby("conv_id", as_index=False).agg(
            n_responses=("hit", "sum"), sum_gap_us=("gap", "sum"))
        agg["n_responses"] = agg["n_responses"].astype("int64")
        agg["sum_gap_us"] = agg["sum_gap_us"].astype("int64")
        return agg

    out_schema = pa.schema([("conv_id", pa.string()),
                            ("n_responses", pa.int64()),
                            ("sum_gap_us", pa.int64())])
    return bucketed_group_apply(ds, ["conv_id"], fold, num_buckets=16,
                                out_schema=out_schema)



# ---------------------------------------------------------------------------
# generic relational operators (TPC-H-ish tables; SQL-checked)
# ---------------------------------------------------------------------------

def q_orders_by_status(sf_dir: str) -> rd.Dataset:
    return analytics.orders_by_status(sf_dir)


def q_pricing_summary(sf_dir: str) -> rd.Dataset:
    return analytics.pricing_summary(sf_dir)


def q_top_customers(sf_dir: str) -> pd.DataFrame:
    return analytics.top_customers(sf_dir)


def q_events_hourly(sf_dir: str) -> rd.Dataset:
    return analytics.events_hourly(sf_dir)


def q_segment_revenue(sf_dir: str) -> rd.Dataset:
    return analytics.segment_revenue(sf_dir)


def q_top_orders_per_status(sf_dir: str) -> rd.Dataset:
    return analytics.top_orders_per_status(sf_dir)


def q_status_distinct_custkeys(sf_dir: str) -> rd.Dataset:
    return analytics.status_distinct_custkeys(sf_dir)


def q_order_price_quantiles(sf_dir: str) -> rd.Dataset:
    return analytics.order_price_quantiles(sf_dir)


def q_order_price_histo(sf_dir: str) -> rd.Dataset:
    return analytics.order_price_histo(sf_dir)


def q_order_price_ntile(sf_dir: str) -> rd.Dataset:
    return analytics.order_price_ntile(sf_dir)


def q_corpus_heavy_hitters(sf_dir: str) -> rd.Dataset:
    from wsid_ray.sources.pqclean import read_parquet_clean
    from wsid_catalog.stages.lm import cms_heavy_hitters
    docs = read_parquet_clean(f"{sf_dir}/documents.parquet",
                              columns=["doc_id", "text"])
    return cms_heavy_hitters(docs, threshold=500)


def q_event_type_hll_registers(sf_dir: str) -> rd.Dataset:
    from wsid_ray.sources.pqclean import read_parquet_clean
    from wsid_catalog.stages.sketches import hll_registers
    ds = read_parquet_clean(f"{sf_dir}/events.parquet",
                            columns=["event_type", "user_id"])
    return hll_registers(ds, "user_id", group_cols=["event_type"])


def q_flagged_lineitem_revenue(sf_dir: str) -> rd.Dataset:
    """Per-returnflag lineitem revenue restricted to status-'F' orders —
    exercised through the Bloom-prefiltered semi join (stages/joins.py):
    the order-key filter is a 128 KiB broadcast bitmap, so only matching
    lineitems (plus Bloom false positives the exact join removes) ever
    reach the shuffle."""
    import pyarrow.compute as pc

    from wsid_ray.sources.pqclean import read_parquet_clean
    from wsid_catalog.stages.joins import bloom_semi_join
    from wsid_catalog.pipelines.analytics import _cents
    from wsid_ray.stages.groups import bucketed_sum

    big = read_parquet_clean(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_returnflag", "l_extendedprice"])

    def f_keys(t):
        t = t.filter(pc.equal(t["o_orderstatus"], "F"))
        return t.select(["o_orderkey"]).rename_columns(["l_orderkey"])

    keys = read_parquet_clean(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderstatus"]).map_batches(
            f_keys, batch_format="pyarrow")
    sj = bloom_semi_join(big, keys, "l_orderkey")

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = pd.DataFrame({
            "l_returnflag": df["l_returnflag"],
            "revenue_cents": _cents(df["l_extendedprice"].to_numpy())})
        out = g.groupby("l_returnflag", as_index=False).agg(
            n_items=("revenue_cents", "size"),
            revenue_cents=("revenue_cents", "sum"))
        return out.astype({"n_items": "int64", "revenue_cents": "int64"})

    partials = sj.map_batches(partial, batch_format="pandas")
    return bucketed_sum(partials, ["l_returnflag"],
                        ["n_items", "revenue_cents"], num_buckets=4)


def q_segment_customers_without_orders(sf_dir: str) -> rd.Dataset:
    """Per-segment count of customers with no open ('O') orders —
    through the Bloom anti join: bloom-negative customers are definite
    non-members (zero shuffle); only the bloom-positive residue takes
    the exact left join."""
    import pyarrow.compute as pc

    from wsid_ray.sources.pqclean import read_parquet_clean
    from wsid_catalog.stages.joins import bloom_anti_join
    from wsid_ray.stages.groups import partial_count

    cust = read_parquet_clean(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_mktsegment"])

    def f_keys(t):
        t = t.filter(pc.equal(t["o_orderstatus"], "O"))
        return t.select(["o_custkey"]).rename_columns(["c_custkey"])

    keys = read_parquet_clean(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey", "o_orderstatus"]).map_batches(
            f_keys, batch_format="pyarrow")
    aj = bloom_anti_join(cust, keys, "c_custkey")
    return partial_count(aj, ["c_mktsegment"], out_name="n_customers")


def q_user_hll_registers(sf_dir: str) -> rd.Dataset:
    from wsid_ray.sources.pqclean import read_parquet_clean
    from wsid_catalog.stages.sketches import hll_registers
    ds = read_parquet_clean(f"{sf_dir}/events.parquet",
                            columns=["user_id"])
    return hll_registers(ds, "user_id")


def q_events_hopping(sf_dir: str) -> rd.Dataset:
    return analytics.events_hopping(sf_dir)


# ---------------------------------------------------------------------------
# training-data operators (documents / embeddings; SQL-checked where
# expressible)
# ---------------------------------------------------------------------------

def q_doc_token_counts(sf_dir: str) -> rd.Dataset:
    return read_documents(sf_dir).map_batches(token_counts_batch,
                                              batch_format="pyarrow")


def q_doc_token_counts_jsonl(sf_dir: str) -> rd.Dataset:
    """Same token-count operator over the JSONL ingest path — source-layer
    parity check (hash-matches the parquet-view oracle)."""
    from wsid_catalog.sources.textfiles import read_documents_jsonl
    return read_documents_jsonl(sf_dir, columns=["doc_id", "text"]) \
        .map_batches(token_counts_batch, batch_format="pyarrow")


def q_doc_token_counts_orc(sf_dir: str) -> rd.Dataset:
    """Same token-count operator over the ORC ingest path (columnar
    pruning at the source) — third source-format parity check."""
    from wsid_catalog.sources.textfiles import read_documents_orc
    return read_documents_orc(sf_dir, columns=["doc_id", "text"]) \
        .map_batches(token_counts_batch, batch_format="pyarrow")


def q_doc_quality_csv(sf_dir: str) -> rd.Dataset:
    """Quality scoring over the CSV ingest path — source-layer parity
    check (hash-matches the parquet-view oracle)."""
    from wsid_catalog.sources.textfiles import read_documents_csv
    return read_documents_csv(sf_dir, columns=["doc_id", "text"]) \
        .map_batches(quality_batch, batch_format="pyarrow")


def q_doc_quality(sf_dir: str) -> rd.Dataset:
    return read_documents(sf_dir).map_batches(quality_batch,
                                              batch_format="pyarrow")


def q_doc_fingerprint(sf_dir: str) -> rd.Dataset:
    return read_documents(sf_dir).map_batches(fingerprint_batch,
                                              batch_format="pyarrow")


_TFIDF_EMB_DIM = 32


def q_doc_tfidf_embedding(sf_dir: str) -> rd.Dataset:
    """Corpus-trained TF-IDF hashed embeddings (wsid_ray/embedmodel.py)
    through the actor-pool model path, exploded to (vec_id, bucket, val)
    int64 rows — hash-exact vs an oracle reading the same integer IDF
    artifact.  Zero-sum buckets dropped on both sides (sign
    cancellation), so only touched, informative cells ship."""
    from wsid_catalog.artifacts import ensure
    from wsid_catalog.embedmodel import TfidfHashEmbedder
    from wsid_catalog.stages.embed import embed_documents

    model = TfidfHashEmbedder(ensure(sf_dir)["idf"], dim=_TFIDF_EMB_DIM)
    emb = embed_documents(read_documents(sf_dir), dim=_TFIDF_EMB_DIM,
                          model=model)

    def explode(t: pa.Table) -> pa.Table:
        n = t.num_rows
        if n == 0:
            return pa.table({"vec_id": pa.array([], pa.int64()),
                             "bucket": pa.array([], pa.int64()),
                             "val": pa.array([], pa.int64())})
        vecs = t["embedding"]
        if isinstance(vecs, pa.ChunkedArray):
            vecs = vecs.combine_chunks()
        M = vecs.flatten().to_numpy(zero_copy_only=False).reshape(
            n, _TFIDF_EMB_DIM)
        vid = np.repeat(t["vec_id"].to_numpy(zero_copy_only=False),
                        _TFIDF_EMB_DIM)
        bucket = np.tile(np.arange(_TFIDF_EMB_DIM, dtype=np.int64), n)
        val = M.ravel()
        keep = val != 0
        return pa.table({
            "vec_id": pa.array(vid[keep], pa.int64()),
            "bucket": pa.array(bucket[keep], pa.int64()),
            "val": pa.array(val[keep].astype(np.int64), pa.int64())})

    return emb.map_batches(explode, batch_format="pyarrow")


def q_doc_tfidf_near_dup(sf_dir: str) -> rd.Dataset:
    """End-to-end near-dup with the TRAINED model (r5): documents ->
    TfidfHashEmbedder actor pool (IDF artifact loaded once per worker) ->
    integer-exact block-pair cosine near-dup at cos > 4/5.  Output is
    (vec_a, vec_b, dot, na2, nb2) exact int64 — no float score — so the
    DuckDB mirror (sparse bucket self-join + HUGEINT cross-multiplied
    threshold) is hash-exact by construction."""
    from wsid_catalog.artifacts import ensure
    from wsid_catalog.embedmodel import TfidfHashEmbedder
    from wsid_catalog.stages.embed import embed_documents
    from wsid_catalog.stages.knn import near_dup_pairs_exact_int

    model = TfidfHashEmbedder(ensure(sf_dir)["idf"], dim=_TFIDF_EMB_DIM)
    emb = embed_documents(read_documents(sf_dir), dim=_TFIDF_EMB_DIM,
                          model=model)
    return near_dup_pairs_exact_int(emb, tau_num=4, tau_den=5)


def q_bpe_merges(sf_dir: str) -> pa.Table:
    """Distributed BPE tokenizer-vocabulary training (stages/bpe.py,
    Sennrich et al. 2016): 6 merge rounds over the corpus word-type
    table; returns the tiny (rnd, lft, rgt, merged, cnt) merge table —
    hash-exact vs the unrolled-CTE DuckDB mirror."""
    from wsid_catalog.stages.bpe import train_bpe
    return train_bpe(read_documents(sf_dir), rounds=6)


_TRAIN_ORDER_SHARDS = 8


def q_doc_training_order(sf_dir: str) -> rd.Dataset:
    """Deterministic global training order WITHOUT a global sort or RNG
    (the training-data writer step): every doc gets (shard, pos) where
    shard = h63 % 8 and pos = exact ROW_NUMBER within the shard by
    (h63, doc_id), h63 = md5(doc_id) first-8-bytes-LE >> 1.  Hash order
    is a uniform permutation, so concatenating shards (or interleaving
    by pos) is a reproducible full shuffle; ranks come from the shared
    exact two-pass histogram machinery — no shard is ever co-located in
    one task."""
    import hashlib

    from wsid_catalog.pipelines.analytics import exact_partitioned_ranks

    def pairs(t: pa.Table) -> pd.DataFrame:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        h63 = np.fromiter(
            (int.from_bytes(hashlib.md5(str(i).encode()).digest()[:8],
                            "little") >> 1 for i in ids.tolist()),
            dtype=np.int64, count=len(ids))
        return pd.DataFrame({"shard": h63 % _TRAIN_ORDER_SHARDS,
                             "h63": h63, "doc_id": ids})

    src = read_documents(sf_dir, columns=["doc_id"]).map_batches(
        pairs, batch_format="pyarrow")
    schema = pa.schema([("doc_id", pa.int64()), ("shard", pa.int64()),
                        ("pos", pa.int64())])

    def emit(g: pd.DataFrame, start: int, n: int) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": g["doc_id"].to_numpy(),
            "shard": g["shard"].to_numpy().astype("int64"),
            "pos": start + np.arange(len(g), dtype=np.int64) + 1})

    return exact_partitioned_ranks(src, "shard", "h63", "doc_id",
                                   bin_width=1 << 53, emit=emit,
                                   out_schema=schema)


def q_training_order_mix(sf_dir: str) -> rd.Dataset:
    """Training-batch diversity audit over the deterministic global
    training order: the writer's round-robin interleave of the 8 hash
    shards is chunked into 256-doc batches (batch_id =
    ((pos−1)·S + shard) // B, a pure function of the order — no global
    sort materialises), and each batch reports its doc count, distinct
    source feeds, the biggest single-source count and its share — the
    "did the shuffle actually mix the corpus" gate before training.

    All-integer; share is an exact // in micro-units.

    Scale: rides the training order's two-pass rank machinery with the
    source column carried along; batch partial counts fold on
    (batch, source) — batches × sources rows, never doc-shaped."""
    import hashlib

    from wsid_ray.stages.groups import bucketed_group_apply, bucketed_sum
    from wsid_catalog.pipelines.analytics import exact_partitioned_ranks

    S, B = _TRAIN_ORDER_SHARDS, 256

    def pairs(t: pa.Table) -> pd.DataFrame:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        h63 = np.fromiter(
            (int.from_bytes(hashlib.md5(str(i).encode()).digest()[:8],
                            "little") >> 1 for i in ids.tolist()),
            dtype=np.int64, count=len(ids))
        return pd.DataFrame({"shard": h63 % S, "h63": h63,
                             "doc_id": ids,
                             "source": t["source"].to_numpy(
                                 zero_copy_only=False)})

    src = read_documents(sf_dir, columns=["doc_id", "source"]) \
        .map_batches(pairs, batch_format="pyarrow")
    schema = pa.schema([("batch_id", pa.int64()),
                        ("source", pa.string()), ("c", pa.int64())])

    def emit(g: pd.DataFrame, start: int, n: int) -> pd.DataFrame:
        pos = start + np.arange(len(g), dtype=np.int64) + 1
        bid = ((pos - 1) * S + g["shard"].to_numpy()) // B
        out = pd.DataFrame({"batch_id": bid, "source": g["source"]}) \
            .groupby(["batch_id", "source"], as_index=False).size() \
            .rename(columns={"size": "c"})
        return out.astype({"batch_id": "int64", "c": "int64"})

    sc = bucketed_sum(
        exact_partitioned_ranks(src, "shard", "h63", "doc_id",
                                bin_width=1 << 53, emit=emit,
                                out_schema=schema),
        ["batch_id", "source"], ["c"], num_buckets=4)

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        df = df.groupby(["batch_id", "source"], as_index=False)["c"] \
            .sum()
        g = df.groupby("batch_id", as_index=False).agg(
            n_docs=("c", "sum"), n_src=("source", "nunique"),
            max_src_n=("c", "max"))
        g["top_share_micro"] = (g["max_src_n"] * 1_000_000
                                // g["n_docs"])
        return g.astype({"n_docs": "int64", "n_src": "int64",
                         "max_src_n": "int64",
                         "top_share_micro": "int64"})

    out_schema = pa.schema([("batch_id", pa.int64()),
                            ("n_docs", pa.int64()),
                            ("n_src", pa.int64()),
                            ("max_src_n", pa.int64()),
                            ("top_share_micro", pa.int64())])
    return bucketed_group_apply(sc, ["batch_id"], fold, num_buckets=4,
                                out_schema=out_schema)


def q_bpe_fertility_by_lang(sf_dir: str) -> rd.Dataset:
    """Tokenizer fertility per language under the trained 6-round BPE
    vocab — subwords emitted per word, THE tokenizer-evaluation metric
    multilingual training reads before committing a vocab.

    Train once (tiny merge table, broadcast in the task closure), then
    one corpus pass: per-batch word-TYPE encode (unique words encoded
    once, freq-weighted), per-lang partial sums, one tiny lang-keyed
    shuffle, micro ratio at the end."""
    from wsid_catalog.stages.bpe import _MAX_WORD_LEN, encode_words, train_bpe
    from wsid_ray.stages.tokenize import tokenize_column
    from wsid_ray.stages.groups import bucketed_sum

    mt = train_bpe(read_documents(sf_dir), rounds=6)
    merges = list(zip(mt["lft"].to_pylist(), mt["rgt"].to_pylist()))

    def partial(t: pa.Table) -> pd.DataFrame:
        import pyarrow.compute as pc

        from wsid_ray.util import list_row_indices
        toks = tokenize_column(t["text"])
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = toks.flatten()
        row_of = list_row_indices(toks)
        ok = pc.less_equal(pc.utf8_length(flat), _MAX_WORD_LEN) \
            .to_numpy(zero_copy_only=False).astype(bool)
        langs = np.asarray(t["lang"].to_pylist(), dtype=object)
        df = pd.DataFrame({
            "lang": langs[row_of[ok]],
            "word": flat.to_numpy(zero_copy_only=False)[ok]})
        if not len(df):
            return pd.DataFrame({"lang": [], "n_words": [],
                                 "n_subwords": []}).astype(
                {"n_words": "int64", "n_subwords": "int64"})
        freq = df.groupby(["lang", "word"], as_index=False).size() \
                 .rename(columns={"size": "freq"})
        uniq = freq["word"].drop_duplicates()
        n_sub = dict(zip(uniq,
                         encode_words(uniq, merges).str.len()))
        ns = freq["word"].map(n_sub).to_numpy(dtype=np.int64)
        f = freq["freq"].to_numpy(dtype=np.int64)
        out = pd.DataFrame({"lang": freq["lang"], "n_words": f,
                            "n_subwords": f * ns})
        return out.groupby("lang", as_index=False).sum().astype(
            {"n_words": "int64", "n_subwords": "int64"})

    agg = bucketed_sum(
        read_documents(sf_dir, columns=["lang", "text"])
        .map_batches(partial, batch_format="pyarrow"),
        ["lang"], ["n_words", "n_subwords"], num_buckets=2)

    def ratio(t: pa.Table) -> pa.Table:
        ws = t["n_words"].to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        ss = t["n_subwords"].to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        fm = np.floor(ss / ws * 1e6 + 0.5).astype(np.int64)
        return t.append_column("fertility_micro",
                               pa.array(fm, pa.int64()))

    return agg.map_batches(ratio, batch_format="pyarrow")


def q_doc_bpe_subword_counts(sf_dir: str) -> rd.Dataset:
    """Train the 6-round BPE vocab, then tokenize the corpus with it:
    (subword, n) frequency table — the end-to-end train→encode chain,
    hash-exact vs the oracle's s6 symbol explosion."""
    from wsid_catalog.stages.bpe import subword_counts, train_bpe
    merges_tbl = train_bpe(read_documents(sf_dir), rounds=6)
    merges = list(zip(merges_tbl["lft"].to_pylist(),
                      merges_tbl["rgt"].to_pylist()))
    return subword_counts(read_documents(sf_dir), merges)


def q_doc_exact_substrings(sf_dir: str) -> rd.Dataset:
    """Suffix-granularity exact-substring duplicated spans (Lee et al.
    2022 exact variant): maximal covered runs with arbitrary boundaries,
    text-verified (stages/dedup.exact_substrings)."""
    from wsid_catalog.stages.dedup import exact_substrings
    return exact_substrings(read_documents(sf_dir), min_len=5)


def q_doc_langid(sf_dir: str) -> rd.Dataset:
    from wsid_catalog.stages.textstats import langid_documents
    return langid_documents(read_documents(sf_dir))


def q_doc_langid_model(sf_dir: str) -> rd.Dataset:
    """Per-doc language via the corpus-trained trigram profile model
    (wsid_ray/langprofile.py) through the actor-pool model path —
    LangIdScorer resolves the model once per actor; only the artifact
    path ships.  SQL mirror reads the identical profile parquet."""
    from wsid_catalog.stages.textstats import langid_documents
    from wsid_catalog.pipelines.mlstats import corpus_langid_model
    model = corpus_langid_model(sf_dir)
    return langid_documents(read_documents(sf_dir), model=model)


def q_doc_quality_filter(sf_dir: str) -> rd.Dataset:
    """C4-style filter, reported as the kept doc ids (+ n_chars)."""
    from wsid_catalog.stages.textstats import (quality_batch,
                                               quality_filter_batch)
    kept = read_documents(sf_dir).map_batches(quality_filter_batch,
                                              batch_format="pyarrow")
    return kept.map_batches(
        lambda t: quality_batch(t).select(["doc_id", "n_chars"]),
        batch_format="pyarrow")


def q_doc_split_counts(sf_dir: str) -> rd.Dataset:
    """Deterministic train/val split assignment, aggregated to counts."""
    from wsid_catalog.stages.textstats import split_assign_batch
    assigned = read_documents(sf_dir).map_batches(split_assign_batch,
                                                  batch_format="pyarrow")
    return analytics.partial_count(assigned, ["split"])


def q_doc_repetition(sf_dir: str) -> rd.Dataset:
    """Gopher-style repetition signals (distinct-token ratio + top-bigram
    fraction) per document."""
    from wsid_catalog.stages.textstats import repetition_batch
    return read_documents(sf_dir).map_batches(repetition_batch,
                                              batch_format="pyarrow")


def q_doc_stratified_sample(sf_dir: str) -> rd.Dataset:
    """Deterministic per-language stratified hash sample (kept rows)."""
    from wsid_catalog.stages.textstats import stratified_sample_batch
    return read_documents(sf_dir, columns=["doc_id", "lang"]) \
        .map_batches(stratified_sample_batch, batch_format="pyarrow")


def _source_token_counts(sf_dir: str) -> rd.Dataset:
    """(source, token, c) whitespace-token counts — one bucketed shuffle
    of per-batch partials; shared by the domain-KL and keyness panels."""
    from wsid_ray.stages.groups import bucketed_sum

    def partial(t: pa.Table) -> pd.DataFrame:
        from wsid_catalog.stages.textstats import _word_rows
        row_of, nonempty, flat, _n = _word_rows(t)
        srcs = np.asarray(t["source"].to_pylist(), dtype=object)
        df = pd.DataFrame({
            "source": srcs[row_of[nonempty]],
            "token": flat.to_numpy(zero_copy_only=False)[nonempty]})
        out = df.groupby(["source", "token"], as_index=False).size()
        return out.rename(columns={"size": "c"}).astype({"c": "int64"})

    return bucketed_sum(
        read_documents(sf_dir, columns=["source", "text"])
        .map_batches(partial, batch_format="pyarrow"),
        ["source", "token"], ["c"], num_buckets=8)


def q_source_unigram_kl(sf_dir: str) -> pa.Table:
    """Per-source domain shift: KL(P_source ‖ P_corpus) over unigram
    distributions, in integer micro-nats — the DSIR-flavoured domain
    distance a mixture planner reads next to mixture_plan.

    Contract mirrors bigram_lm_score: per-(source, token) counts (one
    bucketed shuffle of partials), a partitioned join to the corpus
    token counts, per-term int64 micro quantisation of
    c·ln(c·N / (N_s·c_w)), exact integer sums, one float division at
    the end — order-free, hash-exact vs DuckDB.  Only the
    source-bounded final table reaches the driver."""
    import math

    from wsid_catalog.stages.joins import hash_join
    from wsid_ray.util import collect_rows
    from wsid_ray.stages.groups import bucketed_sum

    st = _source_token_counts(sf_dir)
    ct = bucketed_sum(
        st.map_batches(lambda t: t.select(["token", "c"])
                       .rename_columns(["token", "cw"]),
                       batch_format="pyarrow"),
        ["token"], ["cw"], num_buckets=8)
    ns_rows = collect_rows(bucketed_sum(
        st.map_batches(lambda t: t.select(["source", "c"])
                       .rename_columns(["source", "n_tokens"]),
                       batch_format="pyarrow"),
        ["source"], ["n_tokens"], num_buckets=2))
    n_of = {r["source"]: int(r["n_tokens"]) for r in ns_rows}
    N = float(sum(n_of.values()))

    j = hash_join(st, ct, on=["token"], num_buckets=8)

    def terms(t: pa.Table) -> pd.DataFrame:
        c = t["c"].to_numpy(zero_copy_only=False).astype(np.float64)
        cw = t["cw"].to_numpy(zero_copy_only=False).astype(np.float64)
        srcs = t["source"].to_pylist()
        ns = np.fromiter((n_of[s] for s in srcs), dtype=np.float64,
                         count=len(srcs))
        sc = np.floor(c * np.log((c * N) / (ns * cw)) * 1e6
                      + 0.5).astype(np.int64)
        return pd.DataFrame({"source": srcs, "sc": sc}) \
            .groupby("source", as_index=False)["sc"].sum()

    sums = collect_rows(bucketed_sum(
        j.map_batches(terms, batch_format="pyarrow"),
        ["source"], ["sc"], num_buckets=2))
    rows = sorted(sums, key=lambda r: r["source"])
    return pa.table({
        "source": pa.array([r["source"] for r in rows], pa.string()),
        "n_tokens": pa.array([n_of[r["source"]] for r in rows],
                             pa.int64()),
        "kl_micro": pa.array(
            [int(math.floor((int(r["sc"]) / 1e6) / n_of[r["source"]]
                            * 1e6 + 0.5)) for r in rows], pa.int64())})


_WINNOW_W, _WINNOW_K = 4, 3


def q_doc_winnowing(sf_dir: str) -> rd.Dataset:
    """Winnowing fingerprint selection (Schleimer et al. 2003 — the
    MOSS local fingerprinting algorithm): over each doc's k-gram hash
    sequence, every window of w consecutive hashes selects its minimum
    (ties: rightmost); the selected (doc_id, pos, fp) set is the
    position-robust fingerprint used for overlap detection.

    Contract shared with the SQL mirror via the window decomposition:
    pos j is selected iff for SOME split a ∈ [0, w-1] the previous a
    hashes are all ≥ h_j AND the next w-1-a hashes are all > h_j, with
    the window fully inside the doc (docs with fewer than w k-grams
    emit nothing).  Embarrassingly parallel — per-doc numpy sliding
    minima, no shuffle; hashes are 63-bit md5 so int64 order == the
    mirror's unsigned order."""
    import hashlib

    import pyarrow.compute as pc

    w, k = _WINNOW_W, _WINNOW_K
    INF = np.iinfo(np.int64).max

    def select(h: np.ndarray) -> np.ndarray:
        n = len(h)
        if n < w:
            return np.zeros(0, dtype=np.int64)
        sel = np.zeros(n, dtype=bool)
        j = np.arange(n)
        for a in range(w):
            b = w - 1 - a
            pm = np.full(n, INF, dtype=np.int64)
            if a:
                sw = np.lib.stride_tricks.sliding_window_view(h, a)
                pm[a:] = sw[:n - a].min(axis=1)
            nm = np.full(n, INF, dtype=np.int64)
            if b:
                sw = np.lib.stride_tricks.sliding_window_view(h, b)
                nm[:n - b] = sw[1:].min(axis=1)
            sel |= ((pm >= h) & (nm > h)
                    & (j >= a) & (j <= n - 1 - b))
        return np.nonzero(sel)[0].astype(np.int64)

    def fingerprints(t: pa.Table) -> pd.DataFrame:
        words = pc.split_pattern_regex(t["text"], pattern=r"\s+")
        ids, poss, fps = [], [], []
        for did, ws in zip(t["doc_id"].to_pylist(), words.to_pylist()):
            ts = [x for x in ws if x]
            n = len(ts) - k + 1
            if n < 1:
                continue
            h = np.fromiter(
                (int.from_bytes(hashlib.md5(
                    " ".join(ts[i:i + k]).encode()).digest()[:8],
                    "little") >> 1 for i in range(n)),
                dtype=np.int64, count=n)
            sel = select(h)
            ids.append(np.full(len(sel), did, dtype=np.int64))
            poss.append(sel)
            fps.append(h[sel])
        cat = (lambda xs: np.concatenate(xs) if xs
               else np.zeros(0, dtype=np.int64))
        return pd.DataFrame({"doc_id": cat(ids), "pos": cat(poss),
                             "fp": cat(fps)})

    return read_documents(sf_dir, columns=["doc_id", "text"]) \
        .map_batches(fingerprints, batch_format="pyarrow")


def q_winnow_overlap_pairs(sf_dir: str) -> rd.Dataset:
    """MOSS-style overlap candidates: doc pairs sharing ≥ 2 winnowing
    fingerprints, with the shared-count — what the plagiarism/overlap
    detector reports.  Posting lists per fingerprint (distinct docs,
    hot fingerprints over 1000 docs skipped — the shared posting cap),
    per-fp pair expansion inside one bucketed shuffle, then a pair-keyed
    count; never an all-pairs stage."""
    from wsid_ray.stages.groups import bucketed_group_apply, bucketed_sum

    fps = q_doc_winnowing(sf_dir)
    pair_schema = pa.schema([("doc_a", pa.int64()),
                             ("doc_b", pa.int64()),
                             ("c", pa.int64())])

    def dedup(df: pd.DataFrame) -> pd.DataFrame:
        return df[["doc_id", "fp"]].drop_duplicates()

    d = fps.map_batches(dedup, batch_format="pandas")

    def expand(df: pd.DataFrame) -> pd.DataFrame:
        outs_a, outs_b = [], []
        for _, g in df.drop_duplicates(["doc_id", "fp"]) \
                      .groupby("fp", sort=False):
            ids = np.sort(g["doc_id"].to_numpy())
            if not (2 <= len(ids) <= 1000):
                continue
            ia, ib = np.triu_indices(len(ids), k=1)
            outs_a.append(ids[ia])
            outs_b.append(ids[ib])
        cat = (lambda xs: np.concatenate(xs) if xs
               else np.zeros(0, dtype=np.int64))
        a = cat(outs_a)
        return pd.DataFrame({"doc_a": a, "doc_b": cat(outs_b),
                             "c": np.ones(len(a), dtype=np.int64)})

    pairs = bucketed_group_apply(d, ["fp"], expand, num_buckets=8,
                                 out_schema=pair_schema)
    summed = bucketed_sum(pairs, ["doc_a", "doc_b"], ["c"],
                          num_buckets=8)

    def final(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        t = t.filter(pc.greater_equal(t["c"], 2))
        return t.rename_columns(["doc_a", "doc_b", "n_shared"])

    return summed.map_batches(final, batch_format="pyarrow")


_MANIFEST_SHARDS = 16


def q_corpus_shard_manifest(sf_dir: str) -> rd.Dataset:
    """Corpus integrity manifest: per doc-hash shard, the doc count,
    token mass and an order-canonical content checksum (md5 over the
    per-doc fingerprints concatenated in doc_id order) — what a 100 TB
    ingest publishes so a later run can detect changed/dropped shards
    in O(shards) instead of re-reading the corpus.

    Per-doc fingerprints are batch-parallel; each shard's fold happens
    inside one bucketed group (order restored by an explicit sort, so
    any upstream blocking yields the same digest)."""
    import hashlib

    from wsid_ray.stages.groups import bucketed_group_apply
    from wsid_catalog.stages.textstats import (fingerprint_batch,
                                               token_counts_batch)

    S = _MANIFEST_SHARDS

    def rows(t: pa.Table) -> pd.DataFrame:
        fp = fingerprint_batch(t)
        tc = token_counts_batch(t)
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        return pd.DataFrame({
            "shard": (ids % S).astype(np.int64),
            "doc_id": ids,
            "fingerprint": fp["fingerprint"].to_pandas(),
            "n_ws_tokens": tc["n_ws_tokens"].to_numpy(
                zero_copy_only=False)})

    schema = pa.schema([("shard", pa.int64()), ("n_docs", pa.int64()),
                        ("n_tokens", pa.int64()),
                        ("checksum", pa.string())])

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for s, g in df.groupby("shard", sort=True):
            g = g.sort_values("doc_id", kind="mergesort")
            digest = hashlib.md5(
                "".join(g["fingerprint"]).encode()).hexdigest()
            outs.append((int(s), len(g),
                         int(g["n_ws_tokens"].sum()), digest))
        return pd.DataFrame(outs, columns=["shard", "n_docs",
                                           "n_tokens", "checksum"])

    parts = read_documents(sf_dir, columns=["doc_id", "text"]) \
        .map_batches(rows, batch_format="pyarrow")
    return bucketed_group_apply(parts, ["shard"], fold, num_buckets=4,
                                out_schema=schema)


_WSAMPLE_K = 64


def q_doc_weighted_sample_topk(sf_dir: str) -> rd.Dataset:
    """Weighted sampling without replacement, RNG-free (Efraimidis &
    Spirakis 2006 A-Res): each doc gets key u^(1/w) with w = n_chars
    and u a deterministic 53-bit md5 uniform; the top-64 keys ARE the
    weighted sample — longer docs proportionally likelier, any rerun or
    repartition reproduces the same set.

    Ordering rides ln(u)/w quantised to int64 nano units (engine and
    mirror share the exact double: (h>>11 + 0.5)/2^53 is exactly
    representable), ties by doc_id.  Per-batch partial top-64, then one
    single-group fold — never a global sort."""
    import hashlib

    from wsid_ray.stages.groups import bucketed_group_apply

    K = _WSAMPLE_K

    def keys(t: pa.Table) -> pd.DataFrame:
        ids = t["doc_id"].to_pylist()
        h = np.fromiter(
            (int.from_bytes(hashlib.md5(str(i).encode()).digest()[:8],
                            "little") for i in ids),
            dtype=np.uint64, count=len(ids))
        u = ((h >> np.uint64(11)).astype(np.float64) + 0.5) / 2.0 ** 53
        w = t["n_chars"].to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        lnk = np.floor(np.log(u) / w * 1e9 + 0.5).astype(np.int64)
        df = pd.DataFrame({
            "g": np.zeros(len(ids), dtype=np.int64),
            "doc_id": t["doc_id"].to_numpy(zero_copy_only=False),
            "n_chars": t["n_chars"].to_numpy(zero_copy_only=False),
            "lnkey_nano": lnk})
        df = df.sort_values(["lnkey_nano", "doc_id"],
                            ascending=[False, True], kind="mergesort")
        return df.head(K)

    schema = pa.schema([("doc_id", pa.int64()), ("n_chars", pa.int64()),
                        ("lnkey_nano", pa.int64()), ("rnk", pa.int64())])

    def final(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["lnkey_nano", "doc_id"],
                            ascending=[False, True],
                            kind="mergesort").head(K)
        return pd.DataFrame({
            "doc_id": df["doc_id"].to_numpy(),
            "n_chars": df["n_chars"].to_numpy(),
            "lnkey_nano": df["lnkey_nano"].to_numpy(),
            "rnk": np.arange(1, len(df) + 1, dtype=np.int64)})

    parts = read_documents(sf_dir, columns=["doc_id", "n_chars"]) \
        .map_batches(keys, batch_format="pyarrow")
    return bucketed_group_apply(parts, ["g"], final, num_buckets=1,
                                out_schema=schema)


_AMS_ROWS, _AMS_BUCKETS = 5, 64


def q_corpus_f2_sketch(sf_dir: str) -> pa.Table:
    """AMS second-frequency-moment sketch (Alon-Matias-Szegedy 1996)
    over the corpus unigram distribution, audited against the exact F2
    — the self-join-size / skew estimator of the streaming literature.

    Fully integer-exact: per (sketch row, token) the bucket and ±1 sign
    come from the shared md5 integer (b = h % B, sign from the next
    bit), counters are exact int64 sums of signed counts, each row's
    estimate is Σ counter², and the only float op is the final relative
    error.  Token counts are one bucketed shuffle; the sketch itself is
    R×B rows; only R audit rows reach the driver.  (int64 counter bound:
    |ctr| ≤ F1 — requantise to HUGEINT-style python ints past ~3e9.)"""
    from wsid_ray.util import collect_rows
    from wsid_ray.stages.groups import bucketed_sum

    def tok_partial(t: pa.Table) -> pd.DataFrame:
        from wsid_catalog.stages.textstats import _word_rows
        _row_of, nonempty, flat, _n = _word_rows(t)
        toks = flat.to_numpy(zero_copy_only=False)[nonempty]
        df = pd.DataFrame({"token": toks})
        out = df.groupby("token", as_index=False).size()
        return out.rename(columns={"size": "c"}).astype({"c": "int64"})

    tokc = bucketed_sum(
        read_documents(sf_dir, columns=["text"])
        .map_batches(tok_partial, batch_format="pyarrow"),
        ["token"], ["c"], num_buckets=8)

    R, B = _AMS_ROWS, _AMS_BUCKETS

    def sketch_partial(t: pa.Table) -> pd.DataFrame:
        import hashlib
        toks = t["token"].to_pylist()
        c = t["c"].to_numpy(zero_copy_only=False)
        rows, buckets, vals, sq = [], [], [], np.int64(0)
        sq = (c.astype(np.int64) ** 2).sum()
        for r in range(R):
            h = np.fromiter(
                (int.from_bytes(hashlib.md5(
                    f"{r}:{w}".encode()).digest()[:8], "little")
                 for w in toks), dtype=np.uint64, count=len(toks))
            rows.append(np.full(len(toks), r, dtype=np.int64))
            buckets.append((h % B).astype(np.int64))
            sign = np.where((h // B) % 2 == 0, 1, -1).astype(np.int64)
            vals.append(sign * c)
        df = pd.DataFrame({
            "r": np.concatenate(rows), "b": np.concatenate(buckets),
            "ctr": np.concatenate(vals)})
        out = df.groupby(["r", "b"], as_index=False)["ctr"].sum()
        # ride the exact-F2 partial on row -1 bucket 0
        out = pd.concat([out, pd.DataFrame(
            {"r": [-1], "b": [0], "ctr": [int(sq)]})],
            ignore_index=True)
        return out.astype({"ctr": "int64"})

    cnt = collect_rows(bucketed_sum(
        tokc.map_batches(sketch_partial, batch_format="pyarrow"),
        ["r", "b"], ["ctr"], num_buckets=2))
    f2_exact = sum(int(x["ctr"]) for x in cnt if x["r"] == -1)
    est = {}
    for x in cnt:
        if x["r"] >= 0:
            est[x["r"]] = est.get(x["r"], 0) + int(x["ctr"]) ** 2
    rows = sorted(est)
    import math
    return pa.table({
        "sketch_row": pa.array(rows, pa.int64()),
        "f2_est": pa.array([est[r] for r in rows], pa.int64()),
        "f2_exact": pa.array([f2_exact] * len(rows), pa.int64()),
        "err_micro": pa.array(
            [int(math.floor(abs(est[r] - f2_exact) / f2_exact
                            * 1e6 + 0.5)) for r in rows], pa.int64())})


# C4-style blocklist (the "bad words" filter shape); fixed config so
# engine and oracle share it verbatim
_BLOCKLIST = ("dup", "boiler", "spam")


def q_doc_blocklist_hits(sf_dir: str) -> rd.Dataset:
    """C4-family blocklist filter: the DROP list — docs containing any
    blocklisted token, with the hit count (the transparency report a
    filtered release ships).  Vectorised Arrow is_in over the flat
    token stream + bincount per doc; stateless, shuffle-free."""
    import pyarrow.compute as pc

    from wsid_catalog.stages.textstats import _word_rows

    bl = pa.array(sorted(_BLOCKLIST), type=pa.string())

    def hits(t: pa.Table) -> pa.Table:
        row_of, nonempty, flat, n = _word_rows(t)
        mask = pc.is_in(flat, value_set=bl) \
            .to_numpy(zero_copy_only=False).astype(bool) & nonempty
        nh = np.bincount(row_of[mask], minlength=n).astype(np.int64)
        keep = nh > 0
        return pa.table({
            "doc_id": pc.take(t["doc_id"], pa.array(
                np.nonzero(keep)[0], type=pa.int64())),
            "n_hits": pa.array(nh[keep], pa.int64())})

    return read_documents(sf_dir, columns=["doc_id", "text"]) \
        .map_batches(hits, batch_format="pyarrow")


def q_source_neardup_matrix(sf_dir: str) -> rd.Dataset:
    """Cross-source near-duplicate matrix: verified near-dup pairs
    (the SQL-checked LSH → Jaccard chain) rolled up by unordered source
    pair — the syndication / mirror-feed diagnostic a curation run
    reads to find feeds republishing each other.  Two partitioned
    doc→source joins on the pair-bounded list, one tiny source-pair
    count shuffle."""
    from wsid_catalog.stages.dedup import jaccard_pairs
    from wsid_catalog.stages.joins import hash_join
    from wsid_ray.stages.groups import bucketed_sum

    pairs = jaccard_pairs(read_documents(sf_dir), threshold=0.5,
                          shingle_k=3)
    srcs = read_documents(sf_dir, columns=["doc_id", "source"])

    a = hash_join(
        pairs.map_batches(lambda t: pa.table({
            "doc_id": t["doc_a"], "doc_b": t["doc_b"]}),
            batch_format="pyarrow"),
        srcs, on=["doc_id"], num_buckets=8)
    b = hash_join(
        a.map_batches(lambda t: pa.table({
            "doc_id": t["doc_b"], "sa": t["source"]}),
            batch_format="pyarrow"),
        srcs, on=["doc_id"], num_buckets=8)

    def partial(t: pa.Table) -> pd.DataFrame:
        sa = t["sa"].to_pandas()
        sb = t["source"].to_pandas()
        df = pd.DataFrame({
            "src_a": np.minimum(sa, sb),
            "src_b": np.maximum(sa, sb),
            "n_pairs": np.ones(t.num_rows, dtype=np.int64)})
        return df.groupby(["src_a", "src_b"], as_index=False).sum() \
                 .astype({"n_pairs": "int64"})

    return bucketed_sum(b.map_batches(partial, batch_format="pyarrow"),
                        ["src_a", "src_b"], ["n_pairs"], num_buckets=2)


def q_winnow_containment(sf_dir: str) -> rd.Dataset:
    """MOSS containment per candidate pair: n_shared over the SMALLER
    doc's fingerprint-set size, in micro units — the asymmetric "is A
    contained in B" score the overlap report ranks by.  Two partitioned
    joins of the pair list to the per-doc distinct-fingerprint counts;
    everything pair-bounded."""
    from wsid_catalog.stages.joins import hash_join
    from wsid_ray.stages.groups import bucketed_sum

    pairs = q_winnow_overlap_pairs(sf_dir)
    fps = q_doc_winnowing(sf_dir)

    # per-batch distinct is NOT exact across batches for counts — count
    # distinct fps per doc via one fp-level dedup shuffle first
    def pre(df: pd.DataFrame) -> pd.DataFrame:
        out = df[["doc_id", "fp"]].drop_duplicates()
        return out.assign(c=np.int64(1))

    uniq = bucketed_sum(fps.map_batches(pre, batch_format="pandas"),
                        ["doc_id", "fp"], ["c"], num_buckets=8)
    nfp = bucketed_sum(
        uniq.map_batches(
            lambda df: pd.DataFrame({"doc_id": df["doc_id"],
                                     "nfp": np.ones(len(df),
                                                    dtype=np.int64)}),
            batch_format="pandas"),
        ["doc_id"], ["nfp"], num_buckets=8)

    a = hash_join(
        pairs.map_batches(lambda t: t.rename_columns(
            ["doc_id", "doc_b", "n_shared"]), batch_format="pyarrow"),
        nfp, on=["doc_id"], num_buckets=8).map_batches(
        lambda t: t.rename_columns(["doc_a", "doc_b", "n_shared",
                                    "nfp_a"]), batch_format="pyarrow")
    ab = hash_join(
        a.map_batches(lambda t: pa.table({
            "doc_id": t["doc_b"], "doc_a": t["doc_a"],
            "n_shared": t["n_shared"], "nfp_a": t["nfp_a"]}),
            batch_format="pyarrow"),
        nfp, on=["doc_id"], num_buckets=8)

    def score(t: pa.Table) -> pa.Table:
        ns = t["n_shared"].to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        na = t["nfp_a"].to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        nb = t["nfp"].to_numpy(zero_copy_only=False).astype(np.float64)
        cm = np.floor(ns / np.minimum(na, nb) * 1e6 + 0.5) \
            .astype(np.int64)
        return pa.table({
            "doc_a": t["doc_a"],
            "doc_b": t["doc_id"],
            "n_shared": t["n_shared"],
            "containment_micro": pa.array(cm, pa.int64())})

    return ab.map_batches(score, batch_format="pyarrow")


def q_source_distinct_ngrams(sf_dir: str) -> rd.Dataset:
    """Distinct-n lexical diversity per source (Li et al. 2016
    distinct-1/2/3): distinct n-grams vs total n-grams and the micro
    ratio — the degenerate-generation / templated-boilerplate signal a
    curation dashboard reads per feed.

    Gram rows are (source, n, gram)-keyed partial counts (dedup class
    machinery — same comprehension shape as the MinHash shingler), one
    bucketed shuffle, then a tiny (source, n) rollup; no distinct ever
    materialises corpus-wide state in one task."""
    import pyarrow.compute as pc

    from wsid_ray.stages.groups import bucketed_sum

    def partial(t: pa.Table) -> pd.DataFrame:
        words = pc.split_pattern_regex(t["text"], pattern=r"\s+")
        srcs = t["source"].to_pylist()
        counts: dict = {}
        for s, ws in zip(srcs, words.to_pylist()):
            ts = [w for w in ws if w]
            for n in (1, 2, 3):
                for i in range(len(ts) - n + 1):
                    key = (s, n, " ".join(ts[i:i + n]))
                    counts[key] = counts.get(key, 0) + 1
        if not counts:
            return pd.DataFrame({"source": [], "n": [], "gram": [],
                                 "c": []}).astype(
                {"n": "int64", "c": "int64"})
        ks = list(counts)
        return pd.DataFrame({
            "source": [k[0] for k in ks],
            "n": np.array([k[1] for k in ks], dtype=np.int64),
            "gram": [k[2] for k in ks],
            "c": np.fromiter((counts[k] for k in ks), dtype=np.int64,
                             count=len(ks))})

    grams = bucketed_sum(
        read_documents(sf_dir, columns=["source", "text"])
        .map_batches(partial, batch_format="pyarrow"),
        ["source", "n", "gram"], ["c"], num_buckets=8)

    def rollup(t: pa.Table) -> pd.DataFrame:
        df = t.select(["source", "n", "c"]).to_pandas()
        g = df.groupby(["source", "n"], as_index=False).agg(
            distinct_ngrams=("c", "size"), total_ngrams=("c", "sum"))
        return g.astype({"distinct_ngrams": "int64",
                         "total_ngrams": "int64"})

    agg = bucketed_sum(grams.map_batches(rollup, batch_format="pyarrow"),
                       ["source", "n"],
                       ["distinct_ngrams", "total_ngrams"],
                       num_buckets=2)

    def ratio(t: pa.Table) -> pa.Table:
        d = t["distinct_ngrams"].to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        tt = t["total_ngrams"].to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        rm = np.floor(d / tt * 1e6 + 0.5).astype(np.int64)
        return t.append_column("ratio_micro", pa.array(rm, pa.int64()))

    return agg.map_batches(ratio, batch_format="pyarrow")


def q_source_keyness_topk(sf_dir: str) -> rd.Dataset:
    """Keyness panel: each source's 10 most characteristic tokens by
    smoothed log-odds vs the rest of the corpus (the "Fightin' Words"
    family, Monroe et al. 2008, +1-smoothed form) — what a curation
    dashboard shows per feed.

    delta = ln((c+1)/(N_s−c+1)) − ln((c_r+1)/(N_r−c_r+1)) with c_r/N_r
    the rest-of-corpus count/total, micro-quantised so the rank order
    is integer-deterministic (ties: token ASC).  Per-batch partial
    top-10 before the final per-source fold — the vocab never
    co-locates."""
    from wsid_ray.stages.groups import bucketed_group_apply, bucketed_sum
    from wsid_catalog.stages.joins import hash_join
    from wsid_ray.util import collect_rows

    st = _source_token_counts(sf_dir)
    ct = bucketed_sum(
        st.map_batches(lambda t: t.select(["token", "c"])
                       .rename_columns(["token", "cw"]),
                       batch_format="pyarrow"),
        ["token"], ["cw"], num_buckets=8)
    ns_rows = collect_rows(bucketed_sum(
        st.map_batches(lambda t: t.select(["source", "c"])
                       .rename_columns(["source", "n_tokens"]),
                       batch_format="pyarrow"),
        ["source"], ["n_tokens"], num_buckets=2))
    n_of = {r["source"]: int(r["n_tokens"]) for r in ns_rows}
    N = float(sum(n_of.values()))

    j = hash_join(st, ct, on=["token"], num_buckets=8)

    def delta(t: pa.Table) -> pd.DataFrame:
        c = t["c"].to_numpy(zero_copy_only=False).astype(np.float64)
        cw = t["cw"].to_numpy(zero_copy_only=False).astype(np.float64)
        srcs = t["source"].to_pylist()
        ns = np.fromiter((n_of[s] for s in srcs), dtype=np.float64,
                         count=len(srcs))
        d = (np.log((c + 1.0) / (ns - c + 1.0))
             - np.log((cw - c + 1.0) / (N - ns - (cw - c) + 1.0)))
        df = pd.DataFrame({
            "source": srcs,
            "token": t["token"].to_pandas(),
            "c": t["c"].to_numpy(zero_copy_only=False),
            "delta_micro": np.floor(d * 1e6 + 0.5).astype(np.int64)})
        # partial top-10 per source inside the batch
        df = df.sort_values(["source", "delta_micro", "token"],
                            ascending=[True, False, True],
                            kind="mergesort")
        return df.groupby("source", sort=False).head(10)

    schema = pa.schema([("source", pa.string()), ("token", pa.string()),
                        ("c", pa.int64()), ("delta_micro", pa.int64()),
                        ("rnk", pa.int64())])

    def final(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["source", "delta_micro", "token"],
                            ascending=[True, False, True],
                            kind="mergesort")
        df = df.groupby("source", sort=False).head(10)
        df["rnk"] = df.groupby("source", sort=False).cumcount() \
                      .to_numpy() + 1
        return df.astype({"rnk": "int64"})

    return bucketed_group_apply(
        j.map_batches(delta, batch_format="pyarrow"),
        ["source"], final, num_buckets=4, out_schema=schema)


# temperature-based mixture resampling (Conneau & Lample 2019 / mT5
# shape): target share q_s ∝ n_s^(1/2), token budget = half the corpus
_MIX_BUDGET_NUM, _MIX_BUDGET_DEN = 1, 2


def _mixture_rates(sf_dir: str) -> list[dict]:
    """Per-source acceptance rates for the temperature-sampled mixture,
    computed with an EXACT integer contract so the SQL mirror is
    hash-identical: n_s = whitespace-token count per source (distributed
    partial sums, one tiny source-keyed shuffle), s_s = half-up micro
    sqrt(n_s) (IEEE sqrt is correctly rounded, so numpy == DuckDB),
    rate_micro_s = min(1e6, B·s_s·1e6 // (Σs·n_s)) in arbitrary-precision
    ints with B = Σn // 2.  Only the source-bounded count table ever
    reaches the driver."""
    import math

    from wsid_catalog.stages.textstats import token_counts_batch
    from wsid_ray.util import collect_rows
    from wsid_ray.stages.groups import bucketed_sum

    def partial(t: pa.Table) -> pd.DataFrame:
        tc = token_counts_batch(t)
        df = pd.DataFrame({
            "source": t["source"].to_pandas(),
            "n_tokens": tc["n_ws_tokens"].to_numpy()})
        return df.groupby("source", as_index=False)["n_tokens"].sum()

    counts = collect_rows(bucketed_sum(
        read_documents(sf_dir, columns=["doc_id", "source", "text"])
        .map_batches(partial, batch_format="pyarrow"),
        ["source"], ["n_tokens"], num_buckets=4))
    total = sum(int(r["n_tokens"]) for r in counts)
    budget = total * _MIX_BUDGET_NUM // _MIX_BUDGET_DEN
    rows = []
    for r in counts:
        n = int(r["n_tokens"])
        rows.append({"source": r["source"], "n_tokens": n,
                     "s_micro": math.floor(math.sqrt(n) * 1e6 + 0.5)})
    s_sum = sum(r["s_micro"] for r in rows)
    for r in rows:
        r["rate_micro"] = min(
            1_000_000,
            budget * r["s_micro"] * 1_000_000
            // (s_sum * r["n_tokens"]))
    return sorted(rows, key=lambda r: r["source"])


def q_mixture_plan(sf_dir: str) -> pa.Table:
    """The per-source mixture plan itself: token mass, micro-sqrt target
    weight and the exact-integer acceptance rate."""
    rows = _mixture_rates(sf_dir)
    return pa.table({
        "source": pa.array([r["source"] for r in rows], pa.string()),
        "n_tokens": pa.array([r["n_tokens"] for r in rows], pa.int64()),
        "s_micro": pa.array([r["s_micro"] for r in rows], pa.int64()),
        "rate_micro": pa.array([r["rate_micro"] for r in rows],
                               pa.int64())})


def q_doc_mixture_resample(sf_dir: str) -> rd.Dataset:
    """Temperature-based data-mixing resampler: the kept documents under
    the per-source rates of q_mixture_plan, accepted by the deterministic
    content-stable hash test md5(doc_id) % 1e6 < rate_micro — no RNG, no
    shuffle; the tiny rate map ships to every task."""
    import hashlib

    rate = {r["source"]: r["rate_micro"] for r in _mixture_rates(sf_dir)}

    def keep(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_pylist()
        h = np.fromiter(
            (int.from_bytes(hashlib.md5(str(i).encode()).digest()[:8],
                            "little") % 1_000_000 for i in ids),
            dtype=np.int64, count=len(ids))
        srcs = t["source"].to_pylist()
        rm = np.fromiter((rate[s] for s in srcs), dtype=np.int64,
                         count=len(srcs))
        out = pa.table({"doc_id": t["doc_id"], "source": t["source"],
                        "rate_micro": pa.array(rm, pa.int64())})
        return out.filter(pa.array(h < rm))

    return read_documents(sf_dir, columns=["doc_id", "source"]) \
        .map_batches(keep, batch_format="pyarrow")


def q_bigram_lm_score(sf_dir: str) -> rd.Dataset:
    """Corpus bigram-LM quality scores (CCNet-style), add-one smoothing;
    counts + partitioned joins only — no broadcast model."""
    from wsid_catalog.stages.lm import bigram_lm_scores
    return bigram_lm_scores(read_documents(sf_dir))


def q_doc_ppl_buckets(sf_dir: str) -> rd.Dataset:
    """CCNet-style perplexity partition (Wenzek et al. 2020): each
    language's documents split into head/middle/tail tertiles of the
    corpus bigram-LM score (higher score = lower perplexity = "head").

    Plan: the SQL-mirrored bigram-LM score, a partitioned hash join to
    the doc's lang, then the shared exact two-pass NTILE machinery
    (exact_partitioned_ranks — histogram pass + per-(lang, bin) emit, no
    language ever co-located in one task).  Ordering key is the int64
    micro-unit score with doc_id tie-break, so engine and oracle agree
    bit-for-bit."""
    from wsid_catalog.stages.joins import hash_join
    from wsid_catalog.stages.lm import bigram_lm_scores
    from wsid_catalog.pipelines.analytics import (exact_partitioned_ranks,
                                                  ntile_emit)

    scores = bigram_lm_scores(read_documents(sf_dir)).select_columns(
        ["doc_id", "lm_score"])
    langs = read_documents(sf_dir, columns=["doc_id", "lang"])
    j = hash_join(scores, langs, on=["doc_id"])

    def pairs(t: pa.Table) -> pd.DataFrame:
        s = t["lm_score"].to_numpy(zero_copy_only=False)
        return pd.DataFrame({
            "lang": t["lang"].to_pandas(),
            "lm_micro": np.floor(s * 1e6 + 0.5).astype(np.int64),
            "doc_id": t["doc_id"].to_numpy(zero_copy_only=False)})

    src = j.map_batches(pairs, batch_format="pyarrow")
    schema = pa.schema([("doc_id", pa.int64()), ("lang", pa.string()),
                        ("ppl_tertile", pa.int64()),
                        ("bucket", pa.string())])
    labels = np.array(["tail", "middle", "head"])

    def emit(g: pd.DataFrame, start: int, n: int) -> pd.DataFrame:
        rank = start + np.arange(len(g), dtype=np.int64)
        tile = ntile_emit(3, rank, n).astype("int64")
        return pd.DataFrame({
            "doc_id": g["doc_id"].to_numpy(),
            "lang": g["lang"].to_numpy(),
            "ppl_tertile": tile,
            "bucket": labels[tile - 1]})

    return exact_partitioned_ranks(src, "lang", "lm_micro", "doc_id",
                                   bin_width=1 << 20, emit=emit,
                                   out_schema=schema)


def q_doc_pack_sequences(sf_dir: str) -> rd.Dataset:
    """Greedy next-fit sequence packing (256-token budget per pack,
    per-lang partitions, doc_id order)."""
    from wsid_catalog.stages.packing import pack_sequences
    return pack_sequences(
        read_documents(sf_dir, columns=["doc_id", "lang", "text"]))


def q_doc_importance_sample(sf_dir: str) -> rd.Dataset:
    """DSIR-style quality-proportional sampling: acceptance rate is a
    monotone map of the bigram-LM score, acceptance is the deterministic
    doc_id hash test."""
    from wsid_catalog.stages.lm import importance_sample
    return importance_sample(read_documents(sf_dir))


def q_doc_tfidf_topk(sf_dir: str) -> rd.Dataset:
    """Top-5 tf-idf tokens per document (smooth idf; deterministic
    tie-break score DESC, token ASC)."""
    from wsid_catalog.stages.lm import tfidf_topk
    return tfidf_topk(read_documents(sf_dir))


def q_doc_pipeline_summary(sf_dir: str) -> rd.Dataset:
    """End-to-end training-data curation chain, one query: C4 quality
    filter -> language ID -> exact dedup (first doc_id wins per content
    fingerprint) -> deterministic train/val split -> per-(lang, split)
    corpus summary.  The four per-doc stages FUSE into a single
    map_batches (stateless, no barrier between them); only the dedup and
    the final aggregate shuffle — and both move tiny derived rows, never
    text."""
    from wsid_ray.stages.groups import bucketed_group_apply
    from wsid_catalog.stages.textstats import (fingerprint_batch,
                                               langid_batch, quality_batch,
                                               quality_filter_batch,
                                               split_assign_batch)

    def per_doc(t: pa.Table) -> pa.Table:
        kept = quality_filter_batch(t)
        return pa.table({
            "doc_id": kept["doc_id"],
            "n_chars": quality_batch(kept)["n_chars"],
            "lang_pred": langid_batch(kept)["lang_pred"],
            "fingerprint": fingerprint_batch(kept)["fingerprint"],
            "split": split_assign_batch(kept)["split"],
        })

    rows = read_documents(sf_dir).map_batches(per_doc,
                                              batch_format="pyarrow")

    def keep_first(df: pd.DataFrame) -> pd.DataFrame:
        return (df.sort_values(["fingerprint", "doc_id"], kind="mergesort")
                  .drop_duplicates(subset=["fingerprint"], keep="first"))

    schema = pa.schema([("doc_id", pa.int64()), ("n_chars", pa.int64()),
                        ("lang_pred", pa.string()),
                        ("fingerprint", pa.string()),
                        ("split", pa.string())])
    # partial first-wins per batch, then the keyed combine — same shape
    # as groups.distinct but with the doc_id tie-break made explicit
    partial = rows.map_batches(keep_first, batch_format="pandas")
    deduped = bucketed_group_apply(partial, ["fingerprint"], keep_first,
                                   num_buckets=16, out_schema=schema)

    def agg(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["lang_pred", "split"], sort=True).agg(
            n_docs=("n_chars", "size"),
            sum_chars=("n_chars", "sum")).reset_index()
        g["n_docs"] = g["n_docs"].astype("int64")
        g["sum_chars"] = g["sum_chars"].astype("int64")
        return g

    partials = deduped.map_batches(agg, batch_format="pandas")
    return analytics.bucketed_sum(partials, ["lang_pred", "split"],
                                  ["n_docs", "sum_chars"], num_buckets=4)


def q_doc_url_domains(sf_dir: str) -> rd.Dataset:
    """Corpus URL-domain counts over deterministic planted URLs
    (stages/pii.url_domain_stats)."""
    from wsid_catalog.stages.pii import url_domain_stats
    return url_domain_stats(read_documents(sf_dir))


def q_doc_dup_ngrams(sf_dir: str) -> rd.Dataset:
    """MassiveText-style duplicated-5-gram count/fraction per document."""
    from wsid_catalog.stages.dedup import dup_ngram_stats
    return dup_ngram_stats(read_documents(sf_dir))


def q_doc_decontaminate(sf_dir: str) -> rd.Dataset:
    """Benchmark decontamination: train docs sharing 5-grams with the
    deterministic benchmark slice."""
    from wsid_catalog.stages.dedup import decontaminate
    return decontaminate(read_documents(sf_dir))


def q_doc_pii_redact(sf_dir: str) -> rd.Dataset:
    """PII redaction over documents with deterministic planted PII
    (stages/pii.py — counts + placeholder rewrite, md5-pinned)."""
    from wsid_catalog.stages.pii import plant_pii_batch, redact_batch
    return (read_documents(sf_dir)
            .map_batches(plant_pii_batch, batch_format="pyarrow")
            .map_batches(redact_batch, batch_format="pyarrow"))


def q_asof_user_order(sf_dir: str) -> rd.Dataset:
    """As-of join: each event -> the user's latest order at event time."""
    return analytics.asof_user_order(sf_dir)


def q_event_props_k_stats(sf_dir: str) -> rd.Dataset:
    """JSON-ish field extraction + per-type aggregate over events.props."""
    return analytics.event_props_k_stats(sf_dir)


def q_user_event_pivot(sf_dir: str) -> rd.Dataset:
    """Pivot events to a wide per-user feature row (one count column per
    event_type)."""
    return analytics.user_event_pivot(sf_dir)


def q_events_rollup(sf_dir: str) -> rd.Dataset:
    """GROUP BY ROLLUP(event_type, day): fine level + subtotals + grand
    total, one raw-event scan."""
    return analytics.events_rollup(sf_dir)


def q_customer_running_total(sf_dir: str) -> rd.Dataset:
    """Partitioned window function: per-customer running order total."""
    return analytics.customer_running_total(sf_dir)


def q_event_recent_activity(sf_dir: str) -> rd.Dataset:
    """Range join: per event, the user's other events in the trailing
    6 hours."""
    return analytics.event_recent_activity(sf_dir)


def q_user_event_gaps(sf_dir: str) -> rd.Dataset:
    """LAG window: exact microsecond gap to the same user's previous
    event (pipelines/sequences.py)."""
    from wsid_catalog.pipelines.sequences import user_event_gaps
    return user_event_gaps(sf_dir)


def q_orders_above_cust_avg(sf_dir: str) -> rd.Dataset:
    """Correlated-subquery filter, decorrelated: orders priced above
    their own customer's average (pipelines/relational_ext.py)."""
    from wsid_catalog.pipelines.relational_ext import orders_above_cust_avg
    return orders_above_cust_avg(sf_dir)


def q_lineitem_loo_stats(sf_dir: str) -> rd.Dataset:
    """Leave-one-out per-order aggregate in exact integer cents
    (pipelines/relational_ext.py)."""
    from wsid_catalog.pipelines.relational_ext import lineitem_loo_stats
    return lineitem_loo_stats(sf_dir)


def q_status_top_prices_dense(sf_dir: str) -> rd.Dataset:
    """Ties-kept dense_rank top-3 price values per status
    (pipelines/relational_ext.py)."""
    from wsid_catalog.pipelines.relational_ext import status_top_prices_dense
    return status_top_prices_dense(sf_dir)


def q_user_event_types_list(sf_dir: str) -> rd.Dataset:
    """string_agg(DISTINCT … ORDER BY …): per-user sorted distinct
    event-type list (pipelines/relational_ext.py)."""
    from wsid_catalog.pipelines.relational_ext import user_event_types_list
    return user_event_types_list(sf_dir)


def q_orders_profile(sf_dir: str) -> "pa.Table":
    """Data-quality intake profile of the orders table: per column, row
    count, null count, exact distinct count (stages/profile.py)."""
    from wsid_catalog.stages.profile import profile_table
    ds = read_parquet_clean(f"{sf_dir}/orders.parquet")
    return profile_table(ds, ["o_orderkey", "o_custkey", "o_orderstatus",
                              "o_totalprice", "o_orderdate",
                              "o_orderpriority"])


def q_user_event_unpivot(sf_dir: str) -> rd.Dataset:
    """Round-trip of the wide pivot back to long rows: melt the per-user
    event_type count columns (stages/profile.unpivot), keep non-zero
    counts — equals the plain grouped count."""
    from wsid_catalog.stages.profile import unpivot
    wide = analytics.user_event_pivot(sf_dir)
    long = unpivot(wide, ["user_id"], "event_type", "n")

    def fix(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["n"] > 0].copy()
        df["event_type"] = df["event_type"].str.removeprefix("n_")
        df["n"] = df["n"].astype("int64")
        return df

    return long.map_batches(fix, batch_format="pandas")


def q_user_purchase_carry(sf_dir: str) -> rd.Dataset:
    """Conditional fill-forward: time since each user's most recent
    purchase event (pipelines/sequences.py)."""
    from wsid_catalog.pipelines.sequences import user_purchase_carry
    return user_purchase_carry(sf_dir)


def q_customer_rolling_orders(sf_dir: str) -> rd.Dataset:
    """ROWS-frame sliding window: trailing-7-order integer-cent sum and
    count per customer (pipelines/sequences.py)."""
    from wsid_catalog.pipelines.sequences import customer_rolling_orders
    return customer_rolling_orders(sf_dir)


_HLL_ALPHA_M2 = 0.7213 / (1 + 1.079 / 256) * 65536.0


def q_token_zipf_fit(sf_dir: str) -> "pa.Table":
    """Zipf-law fit: least-squares slope/intercept of log(freq) against
    log(rank) over the corpus unigram distribution — the
    natural-language sanity check run on every new corpus.  The
    regression is an INTEGER contract (new machinery family): both log
    columns quantise to micro-units (numpy-vs-DuckDB ln parity already
    proven by the NPMI chain), all five regression sums run in exact
    python ints (HUGEINT mirror), and the two final divisions are the
    only floats, each rounded once.  The count table is model-shaped
    (vocabulary-bounded), so the driver fold is the same size class as
    the inventory fit."""
    from wsid_ray.util import collect_rows

    counts = collect_rows(q_unigram_counts(sf_dir))
    counts.sort(key=lambda r: (-int(r["n"]), r["token"]))
    lx, ly = [], []
    for i, r in enumerate(counts):
        lx.append(int(np.floor(np.log(float(i + 1)) * 1e6 + 0.5)))
        ly.append(int(np.floor(np.log(float(r["n"])) * 1e6 + 0.5)))
    nn = len(counts)
    sx, sy = sum(lx), sum(ly)
    sxy = sum(a * b for a, b in zip(lx, ly))
    sxx = sum(a * a for a in lx)
    slope = float(nn * sxy - sx * sy) / float(nn * sxx - sx * sx)
    intercept = (float(sy) - slope * float(sx)) / float(nn)
    return pa.table({
        "n_types": pa.array([nn], pa.int64()),
        "slope_micro": pa.array([int(np.floor(slope * 1e6 + 0.5))],
                                pa.int64()),
        "intercept_micro": pa.array(
            [int(np.floor(intercept + 0.5))], pa.int64())})


def q_event_type_hll_estimate(sf_dir: str) -> "pa.Table":
    """Sketch-quality audit #2 (after doc_minhash_est): per event type,
    the HyperLogLog cardinality ESTIMATE derived from the already
    hash-exact registers beside the exact distinct count, plus the
    absolute error — Flajolet et al. 2007 with the small-range linear
    counting branch.  The indicator sum Σ2^-r runs in exact python ints
    scaled by 2^57 (mirror: HUGEINT) so the only floats are the final
    two (division and the optional ln), each rounded once."""
    from wsid_ray.stages.groups import bucketed_sum, distinct, partial_count
    from wsid_ray.util import collect_rows

    regs = collect_rows(q_event_type_hll_registers(sf_dir))
    exact = collect_rows(bucketed_sum(
        partial_count(
            distinct(read_parquet_clean(
                f"{sf_dir}/events.parquet",
                columns=["event_type", "user_id"]),
                ["event_type", "user_id"], num_buckets=8),
            ["event_type"], out_name="n_exact"),
        ["event_type"], ["n_exact"], num_buckets=2))
    n_of = {r["event_type"]: int(r["n_exact"]) for r in exact}

    by_type: dict[str, list[int]] = {}
    for r in regs:
        by_type.setdefault(r["event_type"], []).append(int(r["r"]))

    rows = []
    for et in sorted(n_of):
        rs = by_type.get(et, [])
        npres = len(rs)
        zeros = 256 - npres
        s_e57 = zeros * (1 << 57) + sum(1 << (57 - r) for r in rs)
        raw = (_HLL_ALPHA_M2 * float(2 ** 57)) / float(s_e57)
        if raw <= 640.0 and zeros > 0:
            est = 256.0 * np.log(256.0 / zeros)
        else:
            est = raw
        est_i = int(np.floor(est + 0.5))
        rows.append((et, n_of[et], est_i, abs(est_i - n_of[et])))
    return pa.table({
        "event_type": pa.array([r[0] for r in rows], pa.string()),
        "n_exact": pa.array([r[1] for r in rows], pa.int64()),
        "est": pa.array([r[2] for r in rows], pa.int64()),
        "err": pa.array([r[3] for r in rows], pa.int64())})


def q_status_gini(sf_dir: str, bin_cents: int = 100_000) -> "pa.Table":
    """Exact Gini coefficient of order value per status — the
    inequality/concentration metric, computed from the sorted-rank
    identity G = (2·Σi·xᵢ − (n+1)·Σx) / (n·Σx) on the generic two-pass
    rank machinery (no status co-located).  Per-bin Σrank·x partials
    carry as decimal strings (python-int exact past int64, the PCA
    precedent); the single float division happens once at the end,
    rounded to micro-units."""
    from wsid_ray.util import collect_rows
    from wsid_catalog.pipelines.analytics import (_cents,
                                                  exact_partitioned_ranks)

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "o_orderstatus": df["o_orderstatus"],
            "cents": _cents(df["o_totalprice"].to_numpy()),
            "o_orderkey": df["o_orderkey"].astype("int64")})

    src = read_parquet_clean(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderstatus", "o_totalprice"])
    pr = src.map_batches(pairs, batch_format="pandas")

    part_schema = pa.schema([("o_orderstatus", pa.string()),
                             ("n_g", pa.int64()), ("sx", pa.int64()),
                             ("sixi", pa.string()), ("n", pa.int64())])

    def emit(g: pd.DataFrame, start: int, n: int) -> pd.DataFrame:
        ranks = start + np.arange(len(g), dtype=np.int64) + 1
        x = g["cents"].to_numpy()
        sixi = sum(int(r) * int(v) for r, v in zip(ranks, x))
        return pd.DataFrame({
            "o_orderstatus": [g["o_orderstatus"].iloc[0]],
            "n_g": [int(len(g))], "sx": [int(x.sum())],
            "sixi": [str(sixi)], "n": [int(n)]})

    parts = collect_rows(exact_partitioned_ranks(
        pr, "o_orderstatus", "cents", "o_orderkey", bin_cents, emit,
        part_schema, num_buckets=8))
    agg: dict[str, dict] = {}
    for r in parts:
        a = agg.setdefault(r["o_orderstatus"],
                           {"sx": 0, "sixi": 0, "n": int(r["n"])})
        a["sx"] += int(r["sx"])
        a["sixi"] += int(r["sixi"])
    rows = []
    for st in sorted(agg):
        a = agg[st]
        n, sx, sixi = a["n"], a["sx"], a["sixi"]
        num = 2 * sixi - (n + 1) * sx
        g = float(num) / float(n * sx)
        rows.append((st, n, sx,
                     int(np.floor(g * 1e6 + 0.5))))
    return pa.table({
        "o_orderstatus": pa.array([r[0] for r in rows], pa.string()),
        "n": pa.array([r[1] for r in rows], pa.int64()),
        "sum_cents": pa.array([r[2] for r in rows], pa.int64()),
        "gini_micro": pa.array([r[3] for r in rows], pa.int64())})


def q_doc_containment_pairs(sf_dir: str,
                            threshold: float = 0.8) -> rd.Dataset:
    """Asymmetric shingle CONTAINMENT (Broder): per LSH candidate pair,
    |A∩B|/|A| and |A∩B|/|B| in micro-units, kept where either side is
    >= threshold — the detector for truncation/prefix dups that
    symmetric Jaccard under-scores (a doc cut to 80% of another has
    containment ~1.0 but Jaccard ~0.8).  Same joins as jaccard_pairs;
    integer micro-unit contract."""
    from wsid_catalog.stages.dedup import _shingle_strings, minhash_candidates
    from wsid_catalog.stages.joins import hash_join
    from wsid_ray.stages.tokenize import tokenize_column

    docs = read_documents(sf_dir)
    cands = minhash_candidates(docs, shingle_k=3)

    def to_sets(name: str):
        def fn(t: pa.Table) -> pa.Table:
            toks = tokenize_column(t["text"]).to_pylist()
            return pa.table({
                name: t["doc_id"],
                f"sh_{name}": pa.array(
                    [_shingle_strings(ts, 3) for ts in toks],
                    type=pa.list_(pa.string()))})
        return fn

    joined = hash_join(
        hash_join(cands, docs.map_batches(to_sets("doc_a"),
                                          batch_format="pyarrow"),
                  on=["doc_a"], num_buckets=16),
        docs.map_batches(to_sets("doc_b"), batch_format="pyarrow"),
        on=["doc_b"], num_buckets=16)

    def verify(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for a, b, sa, sb in zip(df["doc_a"], df["doc_b"],
                                df["sh_doc_a"], df["sh_doc_b"]):
            A, B = set(sa), set(sb)
            if not A or not B:
                continue
            inter = len(A & B)
            ca = int(np.floor(inter / len(A) * 1e6 + 0.5))
            cb = int(np.floor(inter / len(B) * 1e6 + 0.5))
            if max(ca, cb) >= int(threshold * 1e6):
                rows.append((a, b, ca, cb))
        return pd.DataFrame(rows, columns=["doc_a", "doc_b",
                                           "cont_a_micro",
                                           "cont_b_micro"]) \
            .astype({"doc_a": "int64", "doc_b": "int64",
                     "cont_a_micro": "int64", "cont_b_micro": "int64"})

    return joined.map_batches(verify, batch_format="pandas")


def q_tool_usage_stats(sf_dir: str) -> rd.Dataset:
    """Transcript tool-usage panel: per non-empty tool tag, turn count,
    distinct conversations and distinct roles — the agent-trace
    telemetry rollup.  Per-batch (tool, conv, role) dedup partials,
    one bucketed fold keyed on the tool."""
    from wsid_ray.stages.groups import bucketed_group_apply

    ds = read_transcripts(sf_dir).select_columns(
        ["conv_id", "role", "tool"])

    def part(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["tool"] != ""]
        g = df.groupby(["tool", "conv_id", "role"], as_index=False) \
              .size().rename(columns={"size": "n"})
        g["n"] = g["n"].astype("int64")
        return g

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        df = df.groupby(["tool", "conv_id", "role"],
                        as_index=False)["n"].sum()
        g = df.groupby("tool", as_index=False).agg(
            n_turns=("n", "sum"), n_convs=("conv_id", "nunique"),
            n_roles=("role", "nunique"))
        for c in ("n_turns", "n_convs", "n_roles"):
            g[c] = g[c].astype("int64")
        return g

    out_schema = pa.schema([("tool", pa.string()),
                            ("n_turns", pa.int64()),
                            ("n_convs", pa.int64()),
                            ("n_roles", pa.int64())])
    return bucketed_group_apply(
        ds.map_batches(part, batch_format="pandas"),
        ["tool"], fold, num_buckets=2, out_schema=out_schema)


def q_purchase_click_attribution(sf_dir: str,
                                 window_us: int = 3_600_000_000
                                 ) -> rd.Dataset:
    """Attribution-window as-of join (the ads/analytics staple): each
    purchase matched to the SAME user's most recent click within the
    trailing hour — backward as-of with a tolerance bound, equal-ts
    ties to the greatest click id.  Same co-partitioned sorted-merge
    plan as asof_user_order, with the lookback enforced inside the C
    merge (stages/joins.asof_join tolerance)."""
    from wsid_catalog.stages.joins import asof_join

    ev = read_parquet_clean(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "ts", "user_id", "event_type"])
    purchases = ev.map_batches(
        lambda df: df[df["event_type"] == "purchase"]
        [["event_id", "ts", "user_id"]]
        .rename(columns={"event_id": "purchase_id"}),
        batch_format="pandas")
    clicks = ev.map_batches(
        lambda df: df[df["event_type"] == "click"]
        [["event_id", "ts", "user_id"]]
        .rename(columns={"event_id": "click_id",
                         "user_id": "c_user", "ts": "c_ts"}),
        batch_format="pandas")
    j = asof_join(purchases, clicks, by_left="user_id",
                  by_right="c_user", on_left="ts", on_right="c_ts",
                  tie_right="click_id", num_buckets=16,
                  tolerance=pd.Timedelta(microseconds=window_us))

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        gap = (df["ts"].astype("datetime64[us]").astype("int64")
               - df["c_ts"].astype("datetime64[us]").astype("int64"))
        return pd.DataFrame({
            "purchase_id": df["purchase_id"].astype("int64"),
            "user_id": df["user_id"].astype("int64"),
            "click_id": df["click_id"].astype("int64"),
            "gap_us": gap.astype("int64")})

    out_schema = pa.schema([("purchase_id", pa.int64()),
                            ("user_id", pa.int64()),
                            ("click_id", pa.int64()),
                            ("gap_us", pa.int64())])
    return j.map_batches(finish, batch_format="pandas").map_batches(
        lambda t: t.cast(out_schema), batch_format="pyarrow")


def q_events_dow_hour_heatmap(sf_dir: str) -> rd.Dataset:
    """Calendar-feature heatmap: event counts by (ISO day-of-week,
    hour) — the seasonality panel; exercises the date-part kernel
    family.  Per-batch partials, one tiny bucketed sum (the key space
    is 7 x 24)."""
    from wsid_ray.stages.groups import bucketed_sum

    ds = read_parquet_clean(f"{sf_dir}/events.parquet", columns=["ts"])

    def part(df: pd.DataFrame) -> pd.DataFrame:
        ts = df["ts"].astype("datetime64[us]")
        g = pd.DataFrame({
            "dow": (ts.dt.dayofweek + 1).astype("int64"),   # ISO 1=Mon
            "hour": ts.dt.hour.astype("int64")})
        out = g.groupby(["dow", "hour"], as_index=False).size() \
               .rename(columns={"size": "n"})
        out["n"] = out["n"].astype("int64")
        return out

    agg = bucketed_sum(ds.map_batches(part, batch_format="pandas"),
                       ["dow", "hour"], ["n"], num_buckets=2)
    out_schema = pa.schema([("dow", pa.int64()), ("hour", pa.int64()),
                            ("n", pa.int64())])
    return agg.map_batches(
        lambda t: t.select(["dow", "hour", "n"]).cast(out_schema),
        batch_format="pyarrow")


def q_user_median_gap(sf_dir: str,
                      bin_us: int = 3_600_000_000) -> rd.Dataset:
    """Per-user MEDIAN inter-event gap (percentile_disc(0.5) order
    statistic) on the generic exact two-pass rank machinery — thousands
    of user partitions, none co-located; the gap column reuses the
    already-mirrored LAG contract."""
    from wsid_catalog.pipelines.analytics import exact_partitioned_ranks
    from wsid_catalog.pipelines.sequences import user_event_gaps

    gaps = user_event_gaps(sf_dir)

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["gap_us"].notna()]
        return pd.DataFrame({
            "user_id": df["user_id"].astype("int64"),
            "gap_us": df["gap_us"].astype("int64"),
            "event_id": df["event_id"].astype("int64")})

    pr = gaps.map_batches(pairs, batch_format="pandas")
    out_schema = pa.schema([("user_id", pa.int64()), ("n", pa.int64()),
                            ("median_gap_us", pa.int64())])

    def emit(g: pd.DataFrame, start: int, n: int) -> pd.DataFrame:
        rn = start + np.arange(len(g), dtype=np.int64) + 1
        hit = g[rn == (n * 50 + 99) // 100]
        if not len(hit):
            return out_schema.empty_table().to_pandas()
        return pd.DataFrame({
            "user_id": hit["user_id"].to_numpy(),
            "n": np.int64(n),
            "median_gap_us": hit["gap_us"].to_numpy()})

    # pin: the LAG-gap upstream is itself a bucketed shuffle — run once
    return exact_partitioned_ranks(pr, "user_id", "gap_us", "event_id",
                                   bin_us, emit, out_schema,
                                   num_buckets=8, pin=True)


def q_event_type_transitions(sf_dir: str) -> rd.Dataset:
    """Markov transition counts (prev_type -> type within each user's
    (ts, event_id) order) — the bigram prior sequence models start
    from.  Per-user transitions materialise inside the bucket, fold to
    (prev, type) partial counts there, and ONE tiny bucketed sum
    finishes: the second shuffle moves at most |types|^2 rows per
    bucket."""
    from wsid_ray.stages.groups import bucketed_group_apply, bucketed_sum

    ds = read_parquet_clean(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "ts", "user_id", "event_type"])

    def part(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts", "event_id"],
                            kind="mergesort", ignore_index=True)
        prev = df.groupby("user_id", sort=False)["event_type"].shift(1)
        out = pd.DataFrame({"prev_type": prev,
                            "event_type": df["event_type"]})
        out = out[prev.notna()]
        g = out.groupby(["prev_type", "event_type"],
                        as_index=False).size() \
               .rename(columns={"size": "n"})
        g["n"] = g["n"].astype("int64")
        return g

    partials = bucketed_group_apply(ds, ["user_id"], part,
                                    num_buckets=16)
    agg = bucketed_sum(partials, ["prev_type", "event_type"], ["n"],
                       num_buckets=2)
    out_schema = pa.schema([("prev_type", pa.string()),
                            ("event_type", pa.string()),
                            ("n", pa.int64())])
    return agg.map_batches(
        lambda t: t.select(["prev_type", "event_type", "n"])
                   .cast(out_schema), batch_format="pyarrow")


def q_dup_component_sizes(sf_dir: str) -> rd.Dataset:
    """Dedup-analytics rollup: histogram of near-dup component sizes
    (component_size, n_components) over the simhash connected
    components — the chart that tells you whether duplication is
    pairwise noise or giant mirror clusters."""
    from wsid_ray.stages.groups import bucketed_sum, partial_count

    comp = q_doc_dup_components(sf_dir)
    sizes = partial_count(comp, ["canon_id"], out_name="sz")

    def rename(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"component_size": df["sz"].astype("int64")})

    hist = bucketed_sum(
        partial_count(sizes.map_batches(rename, batch_format="pandas"),
                      ["component_size"], out_name="n_components"),
        ["component_size"], ["n_components"], num_buckets=2)
    out_schema = pa.schema([("component_size", pa.int64()),
                            ("n_components", pa.int64())])
    return hist.map_batches(
        lambda t: t.select(["component_size", "n_components"])
                   .cast(out_schema), batch_format="pyarrow")


def q_user_cum_distinct_types(sf_dir: str) -> rd.Dataset:
    """Running distinct-count window (count(DISTINCT) OVER rewrite via
    first-occurrence flags) — pipelines/sequences.py."""
    from wsid_catalog.pipelines.sequences import user_cum_distinct_types
    return user_cum_distinct_types(sf_dir)


def q_user_daily_dense(sf_dir: str) -> rd.Dataset:
    """Time-series densification: per user, every calendar day between
    first and last activity, zero-filled (pipelines/sequences.py)."""
    from wsid_catalog.pipelines.sequences import user_daily_dense
    return user_daily_dense(sf_dir)


def q_event_user_skew(sf_dir: str) -> "pa.Table":
    """Key-skew diagnostic over per-user event counts
    (pipelines/sequences.py)."""
    from wsid_catalog.pipelines.sequences import event_user_skew
    return event_user_skew(sf_dir)


def q_user_event_path(sf_dir: str) -> rd.Dataset:
    """Ordered string aggregation: per-user event_type funnel path."""
    from wsid_catalog.pipelines.sequences import user_event_path
    return user_event_path(sf_dir)


def q_user_top_event_type(sf_dir: str) -> rd.Dataset:
    """Grouped mode/argmax: each user's most frequent event type."""
    from wsid_catalog.pipelines.sequences import user_top_event_type
    return user_top_event_type(sf_dir)


def q_customer_order_event_recon(sf_dir: str) -> rd.Dataset:
    """FULL OUTER join: per-key order totals vs event totals."""
    from wsid_catalog.pipelines.relational_ext import (
        customer_order_event_recon)
    return customer_order_event_recon(sf_dir)


def q_repeat_buyers(sf_dir: str) -> rd.Dataset:
    """INTERSECT: customers ordering in both 1995 and 1996."""
    from wsid_catalog.pipelines.relational_ext import repeat_buyers
    return repeat_buyers(sf_dir)


def q_orders_cube(sf_dir: str) -> rd.Dataset:
    """GROUP BY CUBE(status, year): all four grouping sets, one scan."""
    from wsid_catalog.pipelines.relational_ext import orders_cube
    return orders_cube(sf_dir)


def q_lineitem_moments(sf_dir: str) -> rd.Dataset:
    """Single-pass distributed moments + 6dp Pearson corr per flag."""
    from wsid_catalog.pipelines.relational_ext import lineitem_moments
    return lineitem_moments(sf_dir)


def q_part_name_fuzzy_pairs(sf_dir: str) -> rd.Dataset:
    """Levenshtein<=1 near-match pairs over distinct part names via
    deletion-neighborhood blocking (stages/fuzzy.py — candidates only,
    never all-pairs; the SQL oracle is the all-pairs definition)."""
    from wsid_catalog.stages.fuzzy import fuzzy_pairs_lev1
    parts = read_parquet_clean(f"{sf_dir}/part.parquet",
                               columns=["p_name"])
    return fuzzy_pairs_lev1(parts, "p_name")


def q_doc_entropy(sf_dir: str) -> rd.Dataset:
    """Per-doc unigram entropy in integer micro-nats (quality signal)."""
    from wsid_catalog.stages.textstats import entropy_batch
    return read_documents(sf_dir).map_batches(entropy_batch,
                                              batch_format="pyarrow")


def q_lapsed_buyers(sf_dir: str) -> rd.Dataset:
    """EXCEPT: customers ordering in 1995 but never in 1996."""
    from wsid_catalog.pipelines.relational_ext import lapsed_buyers
    return lapsed_buyers(sf_dir)


def q_nation_region_cross(sf_dir: str) -> rd.Dataset:
    """CROSS JOIN: broadcast nested-loop cartesian of two small tables."""
    from wsid_catalog.pipelines.relational_ext import nation_region_cross
    return nation_region_cross(sf_dir)


def q_order_price_rank(sf_dir: str) -> rd.Dataset:
    """Exact distributed ROW_NUMBER / RANK / PERCENT_RANK per status."""
    return analytics.order_price_rank(sf_dir)


def q_lineitem_price_zscore(sf_dir: str) -> rd.Dataset:
    """Per-group z-score standardisation from exact integer moments."""
    from wsid_catalog.pipelines.relational_ext import lineitem_price_zscore
    return lineitem_price_zscore(sf_dir)


def q_embedding_quantize_stats(sf_dir: str) -> rd.Dataset:
    """Int8 scalar quantization of the embedding column (ANN memory
    scale path), emitted as verifiable per-vector stats."""
    from wsid_catalog.stages.knn import quantize_stats
    return quantize_stats(read_embeddings(sf_dir))


def q_session_conversions(sf_dir: str) -> rd.Dataset:
    """Sessionized funnel conversion: sessions with a view -> purchase
    sequence, per user (stages/sessions.session_conversions)."""
    from wsid_catalog.stages.sessions import session_conversions
    ev = read_parquet_clean(f"{sf_dir}/events.parquet",
                            columns=["user_id", "ts", "event_id",
                                     "event_type"])
    return session_conversions(ev)


def q_order_next_event(sf_dir: str) -> rd.Dataset:
    """Forward as-of join: each order -> the customer's next event."""
    return analytics.order_next_event(sf_dir)


def q_all_actor_keys(sf_dir: str) -> rd.Dataset:
    """UNION (distinct) of two key streams — completes the set-op family
    beside INTERSECT/EXCEPT: order customers union event users."""
    from wsid_ray.stages.groups import distinct
    orders = read_parquet_clean(f"{sf_dir}/orders.parquet",
                                columns=["o_custkey"]).map_batches(
        lambda df: df.rename(columns={"o_custkey": "k"}),
        batch_format="pandas")
    events = read_parquet_clean(f"{sf_dir}/events.parquet",
                                columns=["user_id"]).map_batches(
        lambda df: df.rename(columns={"user_id": "k"}),
        batch_format="pandas")
    return distinct(orders.union(events), ["k"], num_buckets=8)


def q_region_revenue(sf_dir: str) -> rd.Dataset:
    """Multi-hop join chain (TPC-H Q5 shape): revenue per region with
    re-aggregation before every hop."""
    from wsid_catalog.pipelines.relational_ext import region_revenue
    return region_revenue(sf_dir)


def q_lang_top_tokens(sf_dir: str, k: int = 3) -> rd.Dataset:
    """Grouped top-k over text: the k most frequent whitespace tokens
    per language (ties to the lexicographically smallest token).  Two
    shuffles of shrinking aggregates: per-batch (lang, token) partials
    -> bucketed sum keyed on (lang, token) -> per-lang head keyed on
    lang alone."""
    from wsid_ray.stages.groups import bucketed_group_apply

    docs = read_documents(sf_dir, columns=["lang", "text"])

    def partial(t: pa.Table) -> pd.DataFrame:
        words = pc.split_pattern_regex(t["text"], pattern=r"\s+")
        if isinstance(words, pa.ChunkedArray):
            words = words.combine_chunks()
        from wsid_ray.util import list_row_indices
        flat = words.flatten()
        row_of = list_row_indices(words)
        ne = pc.not_equal(flat, "").to_numpy(zero_copy_only=False) \
            .astype(bool)
        lang = t["lang"].to_numpy(zero_copy_only=False)
        df = pd.DataFrame({
            "lang": lang[row_of[ne]],
            "tok": flat.filter(pa.array(ne)).to_numpy(
                zero_copy_only=False)})
        g = df.groupby(["lang", "tok"], sort=True).size() \
              .rename("n").reset_index()
        g["n"] = g["n"].astype("int64")
        return g

    counts = analytics.bucketed_sum(
        docs.map_batches(partial, batch_format="pyarrow"),
        ["lang", "tok"], ["n"], num_buckets=16)

    def head(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["lang", "n", "tok"],
                            ascending=[True, False, True],
                            kind="mergesort", ignore_index=True)
        df["rk"] = df.groupby("lang", sort=False).cumcount() + 1
        out = df[df["rk"] <= k].copy()
        out["rk"] = out["rk"].astype("int64")
        return out[["lang", "tok", "n", "rk"]]

    out_schema = pa.schema([("lang", pa.string()), ("tok", pa.string()),
                            ("n", pa.int64()), ("rk", pa.int64())])
    return bucketed_group_apply(counts, ["lang"], head, num_buckets=4,
                                out_schema=out_schema)


def q_cooc_pagerank(sf_dir: str) -> rd.Dataset:
    """Integer-contract PageRank over the per-term pruned NPMI graphs
    (stages/pagerank.py) — ranks the context words of each gazetteer
    term's ego network; the third iterative algorithm with an unrolled
    CTE mirror (after k-means and Chinese Whispers)."""
    from wsid_ray.stages.cooc import cooc_edges
    from wsid_catalog.stages.pagerank import pagerank_micro
    from wsid_ray.pipelines.flagship import detect_mentions

    turns = read_transcripts(sf_dir).map_batches(tokenize_batch,
                                                 batch_format="pyarrow")
    mentions = detect_mentions(turns, CFG)
    edges = cooc_edges(mentions, CFG.cooc_min_count, CFG.npmi_min)
    return pagerank_micro(edges, rounds=5)


def q_user_event_neighbors(sf_dir: str) -> rd.Dataset:
    """LAG + LEAD: previous/next event ids per user."""
    from wsid_catalog.pipelines.sequences import user_event_neighbors
    return user_event_neighbors(sf_dir)


def q_lineitem_cube3(sf_dir: str) -> rd.Dataset:
    """3-dim CUBE: all 8 grouping sets from one raw scan."""
    from wsid_catalog.pipelines.relational_ext import lineitem_cube3
    return lineitem_cube3(sf_dir)


def q_cooc_pagerank_weighted(sf_dir: str) -> rd.Dataset:
    """Weighted PageRank: NPMI edge weights in micro-units drive the
    per-edge contributions (r*w)//W_u — the weighted-graph contract of
    stages/pagerank.pagerank_micro."""
    from wsid_ray.stages.cooc import cooc_edges
    from wsid_catalog.stages.pagerank import pagerank_micro
    from wsid_ray.pipelines.flagship import detect_mentions

    turns = read_transcripts(sf_dir).map_batches(tokenize_batch,
                                                 batch_format="pyarrow")
    mentions = detect_mentions(turns, CFG)
    edges = cooc_edges(mentions, CFG.cooc_min_count, CFG.npmi_min)

    def quantize(t: pa.Table) -> pa.Table:
        wq = np.floor(t["npmi"].to_numpy(zero_copy_only=False)
                      * 1e6 + 0.5).astype(np.int64)
        return pa.table({"term": t["term"], "w": t["w"], "v": t["v"],
                         "wq": pa.array(wq, type=pa.int64())})

    return pagerank_micro(edges.map_batches(quantize,
                                            batch_format="pyarrow"),
                          rounds=5, weight_col="wq")


def q_user_activity_deciles(sf_dir: str) -> rd.Dataset:
    """NTILE(10) cohort segmentation over per-user event counts, on the
    generic exact two-pass rank machinery."""
    return analytics.user_activity_deciles(sf_dir)


def q_status_priciest_order(sf_dir: str) -> rd.Dataset:
    """max_by aggregate: per status, the order achieving the maximum
    price (ties to the smallest orderkey) — per-batch partial argmax
    rows, ONE bucketed shuffle, per-bucket argmax combine."""
    from wsid_ray.stages.groups import bucketed_group_apply

    ds = read_parquet_clean(f"{sf_dir}/orders.parquet",
                            columns=["o_orderkey", "o_orderstatus",
                                     "o_totalprice"])

    def argmax(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["o_orderstatus", "max_cents", "o_orderkey"],
                            ascending=[True, False, True],
                            kind="mergesort", ignore_index=True)
        return df.drop_duplicates("o_orderstatus", keep="first")

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        from wsid_catalog.pipelines.analytics import _cents
        g = pd.DataFrame({"o_orderstatus": df["o_orderstatus"],
                          "o_orderkey": df["o_orderkey"],
                          "max_cents": _cents(df["o_totalprice"]
                                              .to_numpy())})
        return argmax(g)

    out_schema = pa.schema([("o_orderstatus", pa.string()),
                            ("o_orderkey", pa.int64()),
                            ("max_cents", pa.int64())])
    return bucketed_group_apply(
        ds.map_batches(partial, batch_format="pandas"),
        ["o_orderstatus"], argmax, num_buckets=2,
        out_schema=out_schema)


def q_cooc_triangles(sf_dir: str) -> rd.Dataset:
    """Triangle count + global clustering coefficient per term graph
    (stages/pagerank.triangle_stats) — completes the graph-analytics
    trio beside connected components and PageRank."""
    from wsid_ray.stages.cooc import cooc_edges
    from wsid_catalog.stages.pagerank import triangle_stats
    from wsid_ray.pipelines.flagship import detect_mentions

    turns = read_transcripts(sf_dir).map_batches(tokenize_batch,
                                                 batch_format="pyarrow")
    mentions = detect_mentions(turns, CFG)
    edges = cooc_edges(mentions, CFG.cooc_min_count, CFG.npmi_min)
    edges3 = edges.map_batches(lambda t: t.select(["term", "w", "v"]),
                               batch_format="pyarrow")
    return triangle_stats(edges3)


def q_knn_quantized_topk(sf_dir: str) -> rd.Dataset:
    """Cosine top-k over the int8-quantized-at-rest embedding stream
    (dequantize -> same exact scorer).  Unlike IVF/LSH this approximate
    path is fully SQL-checkable: the quantize->dequantize round trip is
    deterministic on both sides, so the driver hash-checks the actual
    hit lists, not just a recall summary."""
    from wsid_catalog.artifacts import ANN_QUERY_IDS
    from wsid_catalog.stages.knn import (dequantize_batch,
                                         dequantized_queries, knn_topk)
    ds = read_embeddings(sf_dir).map_batches(dequantize_batch,
                                             batch_format="pyarrow")
    return knn_topk(ds, dequantized_queries(sf_dir, ANN_QUERY_IDS), k=10)


def q_knn_quantized_recall(sf_dir: str) -> pa.Table:
    """recall@10 of the int8-quantized path vs the exact float top-k —
    both sides computed in-engine AND mirrored in SQL, so the quality
    number itself is hash-checked (stronger than the IVF/LSH rows-only
    treatment, possible because quantization is deterministic)."""
    from wsid_catalog.artifacts import ANN_QUERY_IDS, ann_queries
    from wsid_catalog.stages.knn import (dequantize_batch,
                                         dequantized_queries, knn_topk)
    from wsid_ray.util import collect_table

    et = collect_table(knn_topk(read_embeddings(sf_dir),
                                ann_queries(sf_dir), k=10))
    dq = read_embeddings(sf_dir).map_batches(dequantize_batch,
                                             batch_format="pyarrow")
    qt = collect_table(knn_topk(dq, dequantized_queries(
        sf_dir, ANN_QUERY_IDS), k=10))
    exact = set(zip(et["query_id"].to_pylist(), et["vec_id"].to_pylist()))
    quant = set(zip(qt["query_id"].to_pylist(), qt["vec_id"].to_pylist()))
    denom = len(ANN_QUERY_IDS) * 10
    rec = np.floor(len(exact & quant) * 1.0 / denom * 1e6 + 0.5) / 1e6
    return pa.table({"method": pa.array(["int8"], type=pa.string()),
                     "recall_at_10": pa.array([rec], type=pa.float64())})


def q_cooc_degree_stats(sf_dir: str) -> rd.Dataset:
    """Graph shape of the flagship's NPMI ego networks: per term, edge
    count and distinct node count of the pruned co-occurrence graph —
    the inventory-health diagnostic a WSID user runs first."""
    from wsid_ray.stages.cooc import cooc_edges
    from wsid_catalog.stages.joins import hash_join
    from wsid_ray.pipelines.flagship import detect_mentions

    turns = read_transcripts(sf_dir).map_batches(tokenize_batch,
                                                 batch_format="pyarrow")
    mentions = detect_mentions(turns, CFG)
    edges = cooc_edges(mentions, CFG.cooc_min_count, CFG.npmi_min)

    ec = analytics.partial_count(edges, ["term"], out_name="n_edges")

    def node_rows(t: pa.Table) -> pa.Table:
        tt = pa.concat_tables([
            pa.table({"term": t["term"], "nd": t["w"]}),
            pa.table({"term": t["term"], "nd": t["v"]})])
        return tt.group_by(["term", "nd"]).aggregate([])  # batch dedup

    from wsid_ray.stages.groups import distinct
    nodes = distinct(edges.map_batches(node_rows, batch_format="pyarrow"),
                     ["term", "nd"], num_buckets=8)
    nc = analytics.partial_count(nodes, ["term"], out_name="n_nodes")
    return hash_join(ec, nc, on=["term"], num_buckets=4)


def q_doc_simhash(sf_dir: str) -> rd.Dataset:
    return read_documents(sf_dir).map_batches(simhash_batch,
                                              batch_format="pyarrow")


def q_simhash_near_dup(sf_dir: str) -> rd.Dataset:
    from wsid_catalog.stages.dedup import simhash_near_dup
    return simhash_near_dup(read_documents(sf_dir), max_hamming=3)


def q_doc_near_dup_keep_longest(sf_dir: str) -> rd.Dataset:
    """Quality-aware retention policy for the near-dup chain (the Lee
    et al. 2022 / BigCode "keep the longest" variant): same LSH →
    Jaccard-verify → connected-components chain as doc_near_dup_drops,
    but within each component the KEEPER is the doc with the most
    characters (tie: smaller doc_id) instead of the smallest id.

    Components come from the shared bucketed machinery; the retention
    pick is one more bucketed shuffle of tiny (comp, n_chars, doc_id)
    rows with a fully-vectorised per-bucket argmax."""
    import pyarrow.compute as pc

    from wsid_catalog.stages.dedup import jaccard_pairs
    from wsid_ray.stages.groups import bucketed_group_apply
    from wsid_catalog.stages.joins import hash_join
    from wsid_ray.stages.unionfind import connected_components

    pairs = jaccard_pairs(read_documents(sf_dir), threshold=0.5,
                          shingle_k=3)

    def to_edges(t: pa.Table) -> pa.Table:
        def pad(col):
            return pc.utf8_lpad(pc.cast(t[col], pa.string()), 20, "0")
        return pa.table({"u": pad("doc_a"), "v": pad("doc_b")})

    comp = connected_components(
        pairs.map_batches(to_edges, batch_format="pyarrow"))

    def to_int(t: pa.Table) -> pa.Table:
        return pa.table({"doc_id": pc.cast(t["node"], pa.int64()),
                         "comp_id": pc.cast(t["comp"], pa.int64())})

    members = comp.map_batches(to_int, batch_format="pyarrow")
    lens = read_documents(sf_dir, columns=["doc_id", "n_chars"])
    j = hash_join(members, lens, on=["doc_id"], num_buckets=8)
    schema = pa.schema([("doc_id", pa.int64()), ("kept_by", pa.int64())])

    def drop_rows(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["comp_id", "n_chars", "doc_id"],
                            ascending=[True, False, True],
                            kind="mergesort")
        keeper = df.groupby("comp_id", sort=False)["doc_id"] \
                   .transform("first")
        mask = df["doc_id"].to_numpy() != keeper.to_numpy()
        return pd.DataFrame({
            "doc_id": df["doc_id"].to_numpy()[mask],
            "kept_by": keeper.to_numpy()[mask]})

    return bucketed_group_apply(j, ["comp_id"], drop_rows,
                                num_buckets=8, out_schema=schema)


def q_doc_dup_components(sf_dir: str) -> rd.Dataset:
    """Connected components over simhash near-dup pairs via the
    DISTRIBUTED hash-to-min union-find rounds (D3) — doc ids are
    zero-padded so lexicographic min == numeric min.  SQL oracle:
    recursive CTE reachability + min label."""
    from wsid_catalog.stages.dedup import simhash_near_dup
    from wsid_ray.stages.unionfind import connected_components

    pairs = simhash_near_dup(read_documents(sf_dir), max_hamming=3)

    def to_edges(t: pa.Table) -> pa.Table:
        return pa.table({
            "u": pa.array([f"{x:012d}" for x in t["doc_a"].to_pylist()],
                          type=pa.string()),
            "v": pa.array([f"{x:012d}" for x in t["doc_b"].to_pylist()],
                          type=pa.string()),
        })

    comps = connected_components(
        pairs.map_batches(to_edges, batch_format="pyarrow"))
    return comps.map_batches(
        lambda t: pa.table({
            "doc_id": pa.array([int(x) for x in t["node"].to_pylist()],
                               type=pa.int64()),
            "canon_id": pa.array([int(x) for x in t["comp"].to_pylist()],
                                 type=pa.int64()),
        }), batch_format="pyarrow")


def q_doc_minhash_candidates(sf_dir: str) -> rd.Dataset:
    return minhash_candidates(read_documents(sf_dir))


def q_doc_jaccard_pairs(sf_dir: str) -> rd.Dataset:
    return jaccard_pairs(read_documents(sf_dir), threshold=0.5, shingle_k=3)


def q_doc_minhash_est(sf_dir: str) -> rd.Dataset:
    """Sketch-quality audit: MinHash Jaccard estimate vs exact per LSH
    candidate pair, integer micro-units (stages/dedup.py)."""
    from wsid_catalog.stages.dedup import minhash_jaccard_estimate
    return minhash_jaccard_estimate(read_documents(sf_dir))


def q_doc_lsh_bucket_stats(sf_dir: str) -> rd.Dataset:
    """LSH band-bucket size histogram — the banding-health monitor
    (stages/dedup.py)."""
    from wsid_catalog.stages.dedup import lsh_bucket_stats
    return lsh_bucket_stats(read_documents(sf_dir))


def q_doc_near_dup_drops(sf_dir: str) -> rd.Dataset:
    """Composed end-to-end MinHash dedup: LSH candidates -> exact
    Jaccard verify -> connected components -> drop list (keep smallest
    doc_id per component)."""
    from wsid_catalog.stages.dedup import near_dup_drop_list
    return near_dup_drop_list(read_documents(sf_dir), threshold=0.5,
                              shingle_k=3)


def q_doc_near_dup_drops_checkpointed(sf_dir: str) -> rd.Dataset:
    """Same drop list as doc_near_dup_drops, via the RESUMABLE
    checkpointed chain (pipelines/neardup_ckpt.py): per-shard sketch
    manifests, candidates/verify/CC replayed from the persisted rows —
    shares the doc_near_dup_drops oracle (shard layout cannot change
    the result)."""
    import tempfile

    from wsid_catalog.pipelines.neardup_ckpt import (drops_dataset,
                                                     run_neardup_checkpointed)
    out = os.path.join(tempfile.gettempdir(), "wsid_ray_neardup_ckpt",
                       os.path.basename(str(sf_dir).rstrip("/")))
    run_neardup_checkpointed(sf_dir, out, threshold=0.5, shingle_k=3,
                             num_shards=4)
    return drops_dataset(out)


def q_doc_embed_near_dup_checkpointed(sf_dir: str) -> rd.Dataset:
    """Same pair list as doc_embed_near_dup, via the RESUMABLE
    checkpointed embedding pass (pipelines/embed_ckpt.py): per-shard
    inference manifests, the block-pair cosine join replayed from the
    persisted vectors — shares the doc_embed_near_dup oracle (shard
    layout cannot change the result)."""
    import tempfile

    from wsid_catalog.pipelines.embed_ckpt import (pairs_dataset,
                                                   run_embed_checkpointed)
    out = os.path.join(tempfile.gettempdir(), "wsid_ray_embed_ckpt",
                       os.path.basename(str(sf_dir).rstrip("/")))
    run_embed_checkpointed(sf_dir, out, dim=32, threshold=0.99,
                           num_shards=4)
    return pairs_dataset(out)


def q_user_sessions(sf_dir: str) -> rd.Dataset:
    """Gap-based sessionization of the events stream (30-min gap)."""
    from wsid_catalog.stages.sessions import sessionize
    ev = read_parquet_clean(f"{sf_dir}/events.parquet",
                         columns=["user_id", "ts", "event_id"])
    return sessionize(ev, gap_minutes=30)


def q_knn_ivf_topk(sf_dir: str) -> rd.Dataset:
    """IVF approximate cosine top-k (rows-only: approximate by design;
    recall vs the exact brute force is asserted in tests)."""
    import pyarrow.parquet as pq

    from wsid_catalog.stages.knn import ivf_topk
    t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    wanted = {0, 1, 2, 3, 4}
    queries = {r["vec_id"]: np.asarray(r["embedding"], dtype=np.float64)
               for r in t.to_pylist() if r["vec_id"] in wanted}
    return ivf_topk(read_embeddings(sf_dir), queries, k=10)


def q_knn_lsh_topk(sf_dir: str) -> rd.Dataset:
    """Random-hyperplane LSH ANN (rows-only: approximate by design;
    recall vs exact brute force asserted in tests/test_sessions_ivf.py)."""
    import pyarrow.parquet as pq

    from wsid_catalog.stages.knn import lsh_topk
    t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    wanted = {0, 1, 2, 3, 4}
    queries = {r["vec_id"]: np.asarray(r["embedding"], dtype=np.float64)
               for r in t.to_pylist() if r["vec_id"] in wanted}
    return lsh_topk(read_embeddings(sf_dir), queries, k=10)


def q_knn_recall(sf_dir: str) -> pa.Table:
    """recall@10 of the approximate ANN paths (IVF, LSH) vs the exact
    distributed brute-force top-k.  The approximate hits are the engine's
    own deterministic seeded artifacts (wsid_ray/artifacts.py — the same
    parquet the SQL oracle reads); the EXACT side is computed here by the
    distributed scorer and independently in SQL, so the driver hash-checks
    both the recall arithmetic and the exact top-k it is measured
    against."""
    import pyarrow.parquet as pq

    from wsid_catalog.artifacts import (ANN_K, ANN_QUERY_IDS, ann_queries,
                                        ensure)
    from wsid_ray.util import collect_table
    paths = ensure(sf_dir)
    q = ann_queries(sf_dir)
    et = collect_table(knn_topk(read_embeddings(sf_dir), q, k=ANN_K))
    exact_pairs = set(zip(et["query_id"].to_pylist(),
                          et["vec_id"].to_pylist()))
    denom = len(ANN_QUERY_IDS) * ANN_K
    methods, recalls = [], []
    for method in ("ivf", "lsh"):
        t = pq.read_table(paths[f"{method}_topk"],
                          columns=["query_id", "vec_id"])
        approx = set(zip(t["query_id"].to_pylist(),
                         t["vec_id"].to_pylist()))
        hits = len(approx & exact_pairs)
        methods.append(method)
        recalls.append(np.floor(hits * 1.0 / denom * 1e6 + 0.5) / 1e6)
    return pa.table({
        "method": pa.array(methods, type=pa.string()),
        "recall_at_10": pa.array(recalls, type=pa.float64()),
    })


def q_kmeans_clusters(sf_dir: str) -> rd.Dataset:
    """Distributed k-means over the embeddings table — final (vec_id,
    cluster, dist) assignment after 3 integer-exact Lloyd rounds."""
    from wsid_catalog.stages.kmeans import kmeans_assign
    from wsid_catalog.stages.knn import read_embeddings
    return kmeans_assign(read_embeddings(sf_dir), k=4, iters=3)


def q_semdedup_drops(sf_dir: str) -> rd.Dataset:
    """SemDeDup: within-k-means-cluster near-identical vectors dropped
    (vec_id, smallest witness, similar-neighbour count)."""
    from wsid_catalog.stages.kmeans import semantic_dedup
    from wsid_catalog.stages.knn import read_embeddings
    return semantic_dedup(read_embeddings(sf_dir), k=4, iters=3, tau=0.35)


def q_doc_embed_near_dup(sf_dir: str) -> rd.Dataset:
    """End-to-end text near-dup via embeddings: documents -> batched
    'model inference' actor pool (deterministic fake embedder) -> exact
    block-pair cosine near-dup.  Hash-checked against a SQL mirror of the
    whole path."""
    from wsid_catalog.stages.embed import embed_documents
    from wsid_catalog.stages.knn import near_dup_pairs
    return near_dup_pairs(embed_documents(read_documents(sf_dir)),
                          threshold=0.99)


def q_embedding_near_dup(sf_dir: str) -> rd.Dataset:
    from wsid_catalog.stages.knn import near_dup_pairs
    return near_dup_pairs(read_embeddings(sf_dir), threshold=0.4)


def q_media_features(sf_dir: str) -> rd.Dataset:
    """Multimodal decode + featurize over real container payloads
    (PNG/JPEG/PGM/WAV/Y4M) through the actor-pool codec stage.
    SQL-checked since r5: the oracle computes the same features from the
    fixture-side expected-decode artifact (encoder bodies / JPEG encoder
    reconstruction), so a wrong decode hash-mismatches."""
    from wsid_catalog.stages.multimodal import featurize, media_dataset
    return featurize(media_dataset(n=300))


def q_session_length_histogram(sf_dir: str) -> rd.Dataset:
    """Session-length distribution: (events-per-session, n_sessions)
    over the gap-based sessionization — the engagement-shape chart."""
    from wsid_ray.stages.groups import bucketed_sum, partial_count

    sess = q_user_sessions(sf_dir).select_columns(["n_events"])

    def rename(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"session_len": df["n_events"].astype("int64")})

    hist = bucketed_sum(
        partial_count(sess.map_batches(rename, batch_format="pandas"),
                      ["session_len"], out_name="n_sessions"),
        ["session_len"], ["n_sessions"], num_buckets=2)
    out_schema = pa.schema([("session_len", pa.int64()),
                            ("n_sessions", pa.int64())])
    return hist.map_batches(
        lambda t: t.select(["session_len", "n_sessions"])
                   .cast(out_schema), batch_format="pyarrow")


def q_doc_tfidf_novelty(sf_dir: str) -> rd.Dataset:
    """Per-doc distinctiveness score: count and micro-unit sum/mean of
    the doc's top-5 tf-idf scores (truncating integer mean) — the
    cheap 'how unusual is this doc' column built on the mirrored
    tf-idf."""
    from wsid_catalog.stages.lm import tfidf_topk
    from wsid_ray.stages.groups import bucketed_sum

    top = tfidf_topk(read_documents(sf_dir)).select_columns(
        ["doc_id", "score"])

    def part(df: pd.DataFrame) -> pd.DataFrame:
        micro = np.floor(df["score"].to_numpy() * 1e6
                         + 0.5).astype("int64")
        g = pd.DataFrame({"doc_id": df["doc_id"], "m": micro}) \
            .groupby("doc_id", as_index=False).agg(
                n_terms=("m", "size"), sum_score_micro=("m", "sum"))
        g["n_terms"] = g["n_terms"].astype("int64")
        return g

    agg = bucketed_sum(top.map_batches(part, batch_format="pandas"),
                       ["doc_id"], ["n_terms", "sum_score_micro"],
                       num_buckets=8)

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["mean_score_micro"] = (df["sum_score_micro"]
                                  // df["n_terms"]).astype("int64")
        return df[["doc_id", "n_terms", "sum_score_micro",
                   "mean_score_micro"]]

    out_schema = pa.schema([("doc_id", pa.int64()),
                            ("n_terms", pa.int64()),
                            ("sum_score_micro", pa.int64()),
                            ("mean_score_micro", pa.int64())])
    return agg.map_batches(finish, batch_format="pandas").map_batches(
        lambda t: t.cast(out_schema), batch_format="pyarrow")


def q_pack_efficiency(sf_dir: str, cap: int = 256) -> rd.Dataset:
    """Training-batch efficiency dashboard: per language, how well the
    greedy next-fit packing fills its 256-token budget — doc count,
    pack count, total tokens and the fill rate in micro-units (can
    exceed 1e6 only via single docs longer than the cap).  Rolls up
    the already-mirrored packing assignment."""
    from wsid_ray.stages.groups import bucketed_group_apply, bucketed_sum
    from wsid_catalog.stages.packing import pack_sequences

    packed = pack_sequences(
        read_documents(sf_dir, columns=["doc_id", "lang", "text"]),
        cap=cap)

    def part(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("lang", as_index=False).agg(
            n_docs=("doc_id", "size"), n_tokens=("nt", "sum"),
            max_pack=("pack_id", "max"))
        g["n_docs"] = g["n_docs"].astype("int64")
        g["n_tokens"] = g["n_tokens"].astype("int64")
        g["max_pack"] = g["max_pack"].astype("int64")
        return g

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("lang", as_index=False).agg(
            n_docs=("n_docs", "sum"), n_tokens=("n_tokens", "sum"),
            max_pack=("max_pack", "max"))
        g["n_packs"] = (g["max_pack"] + 1).astype("int64")
        g["fill_micro"] = (g["n_tokens"] * 1_000_000
                           // (g["n_packs"] * cap)).astype("int64")
        return g[["lang", "n_docs", "n_packs", "n_tokens",
                  "fill_micro"]]

    out_schema = pa.schema([("lang", pa.string()),
                            ("n_docs", pa.int64()),
                            ("n_packs", pa.int64()),
                            ("n_tokens", pa.int64()),
                            ("fill_micro", pa.int64())])
    return bucketed_group_apply(
        packed.map_batches(part, batch_format="pandas"),
        ["lang"], fold, num_buckets=2, out_schema=out_schema)


def q_role_token_stats(sf_dir: str) -> rd.Dataset:
    """Role verbosity panel: per transcript role, turn count and total
    token count (the user-vs-assistant balance check run before
    training on dialog data).  Token counts fold per batch; the final
    table is role-cardinality-bounded."""
    from wsid_ray.stages.groups import bucketed_sum

    ds = read_transcripts(sf_dir).select_columns(["role", "text"])

    def part(t: pa.Table) -> pd.DataFrame:
        toks = tokenize_column(t["text"])
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        n = pc.list_value_length(toks).cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        df = pd.DataFrame({"role": t["role"].to_pandas(), "n_toks": n})
        g = df.groupby("role", as_index=False).agg(
            n_turns=("n_toks", "size"), n_tokens=("n_toks", "sum"))
        g["n_turns"] = g["n_turns"].astype("int64")
        g["n_tokens"] = g["n_tokens"].astype("int64")
        return g

    agg = bucketed_sum(ds.map_batches(part, batch_format="pyarrow"),
                       ["role"], ["n_turns", "n_tokens"], num_buckets=2)
    out_schema = pa.schema([("role", pa.string()),
                            ("n_turns", pa.int64()),
                            ("n_tokens", pa.int64())])
    return agg.map_batches(
        lambda t: t.select(["role", "n_turns", "n_tokens"])
                   .cast(out_schema), batch_format="pyarrow")


def q_user_burstiness(sf_dir: str) -> rd.Dataset:
    """Dispersion panel: per user, the Fano factor (variance-to-mean
    ratio) of their DENSE daily event counts — burstiness > 1 separates
    bursty users from Poisson-like ones; silent days count as zeros via
    the densified series.  Integer contract: F = (d·Σc² − (Σc)²) /
    (d·Σc) with exact int sums, one float division, micro-rounded.
    Users with a single active day drop (F undefined on d=1? no — d is
    the span, F defined; drop only Σc=0, impossible here)."""
    from wsid_ray.stages.groups import bucketed_group_apply
    from wsid_catalog.pipelines.sequences import user_daily_dense

    dense = user_daily_dense(sf_dir).select_columns(
        ["user_id", "n_events"])

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("user_id")["n_events"]
        d = g.size().astype("int64")
        sc = g.sum().astype("int64")
        sc2 = g.apply(lambda s: int((s.astype("int64") ** 2).sum())) \
            .astype("int64")
        num = (d * sc2 - sc * sc).astype("float64")
        den = (d * sc).astype("float64")
        fano = num / den
        out = pd.DataFrame({
            "user_id": d.index.astype("int64"),
            "n_days": d.to_numpy(),
            "n_events": sc.to_numpy(),
            "fano_micro": np.floor(fano.to_numpy() * 1e6
                                   + 0.5).astype("int64")})
        return out.reset_index(drop=True)

    out_schema = pa.schema([("user_id", pa.int64()),
                            ("n_days", pa.int64()),
                            ("n_events", pa.int64()),
                            ("fano_micro", pa.int64())])
    return bucketed_group_apply(dense, ["user_id"], fold,
                                num_buckets=8, out_schema=out_schema)



def q_key_uniqueness_report(sf_dir: str) -> "pa.Table":
    """Data-contract validation: per declared primary key, row count,
    distinct key count and duplicate-key count (expected 0) — the
    assertion report an ingest pipeline gates on.  Each table's
    distinct rides the bucketed exact-distinct; the report is
    key-cardinality-bounded."""
    from wsid_ray.stages.groups import distinct

    keys = [("orders", "o_orderkey"), ("events", "event_id"),
            ("customer", "c_custkey"), ("part", "p_partkey"),
            ("supplier", "s_suppkey"), ("documents", "doc_id"),
            ("embeddings", "vec_id")]
    rows = []
    for tbl, key in keys:
        ds = read_parquet_clean(f"{sf_dir}/{tbl}.parquet",
                                columns=[key])
        n_rows = ds.count()
        n_keys = distinct(ds, [key], num_buckets=8).count()
        rows.append((tbl, key, n_rows, n_keys, n_rows - n_keys))
    return pa.table({
        "table_name": pa.array([r[0] for r in rows], pa.string()),
        "key_col": pa.array([r[1] for r in rows], pa.string()),
        "n_rows": pa.array([r[2] for r in rows], pa.int64()),
        "n_keys": pa.array([r[3] for r in rows], pa.int64()),
        "n_dup_keys": pa.array([r[4] for r in rows], pa.int64())})



def q_nation_segment_entropy(sf_dir: str) -> "pa.Table":
    """Grouped Shannon entropy: per customer nation, the segment-mix
    entropy in micro-nats — the diversity/concentration panel (0 =
    single-segment nation).  Counts fold distributed; the entropy
    H = ln(n) − Σc·ln(c)/n runs once per nation on the model-shaped
    (nation, segment) count table, micro-rounded (ln parity per the
    NPMI/entropy precedents)."""
    from wsid_ray.util import collect_rows
    from wsid_ray.stages.groups import partial_count

    rows = collect_rows(partial_count(
        read_parquet_clean(f"{sf_dir}/customer.parquet",
                           columns=["c_nationkey", "c_mktsegment"]),
        ["c_nationkey", "c_mktsegment"]))
    by_nation: dict[int, list[int]] = {}
    for r in rows:
        by_nation.setdefault(int(r["c_nationkey"]), []).append(
            int(r["n"]))
    out = []
    for nk in sorted(by_nation):
        cs = by_nation[nk]
        n = sum(cs)
        # doc_entropy integer contract: per-count quantised c·ln(c)
        # micro-terms, exact int sum, truncating division — order-free
        s = sum(int(np.floor(c * np.log(c) * 1e6 + 0.5)) for c in cs)
        ent = int(np.floor(np.log(n) * 1e6 + 0.5)) - s // n
        out.append((nk, n, len(cs), ent))
    return pa.table({
        "c_nationkey": pa.array([r[0] for r in out], pa.int64()),
        "n_customers": pa.array([r[1] for r in out], pa.int64()),
        "n_segments": pa.array([r[2] for r in out], pa.int64()),
        "entropy_micro": pa.array([r[3] for r in out], pa.int64())})


def q_source_dedup_impact(sf_dir: str) -> rd.Dataset:
    """Curation impact by feed: per document source, how many docs the
    end-to-end near-dup chain (LSH → Jaccard verify → connected
    components → first-wins) would drop, and the keep rate in
    micro-units — the before/after panel a curation run reports.  The
    drop list is near-dup-bounded, so it broadcasts as a key set; the
    documents stream is never shuffled."""
    from wsid_catalog.stages.dedup import near_dup_drop_list
    from wsid_ray.util import collect_rows
    from wsid_ray.stages.groups import bucketed_sum

    drops = {r["doc_id"] for r in collect_rows(
        near_dup_drop_list(read_documents(sf_dir)))}
    d_ref = ray.put(drops)

    docs = read_documents(sf_dir, columns=["doc_id", "source"])

    def part(df: pd.DataFrame) -> pd.DataFrame:
        dd = ray.get(d_ref)
        df = df.assign(dropped=df["doc_id"].isin(dd).astype("int64"))
        g = df.groupby("source", as_index=False).agg(
            n_docs=("dropped", "size"), n_dropped=("dropped", "sum"))
        g["n_docs"] = g["n_docs"].astype("int64")
        return g

    agg = bucketed_sum(docs.map_batches(part, batch_format="pandas"),
                       ["source"], ["n_docs", "n_dropped"],
                       num_buckets=2)

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["keep_micro"] = ((df["n_docs"] - df["n_dropped"])
                            * 1_000_000 // df["n_docs"]).astype("int64")
        return df[["source", "n_docs", "n_dropped", "keep_micro"]]

    out_schema = pa.schema([("source", pa.string()),
                            ("n_docs", pa.int64()),
                            ("n_dropped", pa.int64()),
                            ("keep_micro", pa.int64())])
    return agg.map_batches(finish, batch_format="pandas").map_batches(
        lambda t: t.cast(out_schema), batch_format="pyarrow")


def q_term_association_rules(sf_dir: str) -> rd.Dataset:
    """Association rules at CONVERSATION granularity (the market-basket
    view of the KG, complementing the token-window cooc): for every
    gazetteer term pair, co-occurrence support and LIFT =
    P(a,b)/(P(a)P(b)) over conversations, in integer micro-units with
    one final float division.  Distinct (conv, term) rows from the
    mention stream (per-batch dedup + bucketed distinct), pair
    expansion inside per-conv groups (bounded by |gazetteer|² per
    conv), term/conv totals broadcast."""
    import ray as _ray

    from wsid_ray.stages.groups import (bucketed_group_apply, bucketed_sum,
                                        distinct, partial_count)
    from wsid_ray.util import collect_rows
    from wsid_ray.pipelines.flagship import detect_mentions

    turns = read_transcripts(sf_dir).map_batches(tokenize_batch,
                                                 batch_format="pyarrow")
    mentions = detect_mentions(turns, CFG).select_columns(
        ["conv_id", "term"])
    ct = distinct(mentions.map_batches(
        lambda df: df.drop_duplicates(), batch_format="pandas"),
        ["conv_id", "term"], num_buckets=8)

    term_n = {r["term"]: int(r["n"]) for r in collect_rows(
        partial_count(ct, ["term"]))}
    n_convs = read_transcripts(sf_dir).select_columns(["conv_id"]) \
        .map_batches(lambda df: df.drop_duplicates(),
                     batch_format="pandas")
    n_convs = distinct(n_convs, ["conv_id"], num_buckets=4).count()
    tn_ref = _ray.put((term_n, int(n_convs)))

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        m = df.merge(df, on="conv_id", suffixes=("_a", "_b"))
        m = m[m["term_a"] < m["term_b"]]
        g = m.groupby(["term_a", "term_b"], as_index=False).size() \
             .rename(columns={"size": "n_both"})
        g["n_both"] = g["n_both"].astype("int64")
        return g

    both = bucketed_sum(
        bucketed_group_apply(ct, ["conv_id"], pairs, num_buckets=8),
        ["term_a", "term_b"], ["n_both"], num_buckets=2)

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        tn, nc = _ray.get(tn_ref)
        na = df["term_a"].map(tn).astype("int64")
        nb = df["term_b"].map(tn).astype("int64")
        lift = (df["n_both"].to_numpy().astype(np.float64) * nc
                / (na.to_numpy().astype(np.float64)
                   * nb.to_numpy()))
        return pd.DataFrame({
            "term_a": df["term_a"], "term_b": df["term_b"],
            "n_both": df["n_both"].astype("int64"),
            "n_a": na, "n_b": nb,
            "n_convs": np.int64(nc),
            "lift_micro": np.floor(lift * 1e6 + 0.5).astype("int64")})

    out_schema = pa.schema([
        ("term_a", pa.string()), ("term_b", pa.string()),
        ("n_both", pa.int64()), ("n_a", pa.int64()),
        ("n_b", pa.int64()), ("n_convs", pa.int64()),
        ("lift_micro", pa.int64())])
    return both.map_batches(finish, batch_format="pandas").map_batches(
        lambda t: t.select(out_schema.names).cast(out_schema),
        batch_format="pyarrow")


def q_supplier_part_stats(sf_dir: str) -> rd.Dataset:
    """Supplier scorecard (first consumer of the supplier table): per
    supplier, distinct parts shipped, line count, exact revenue cents,
    and the name broadcast-joined from the small dimension (J1
    pattern).  Distinct parts ride a per-batch-deduped bucketed
    distinct; the scalar sums are plain partials."""
    import pyarrow.parquet as pq

    from wsid_ray.stages.groups import (bucketed_group_apply, bucketed_sum,
                                        distinct, partial_count)
    from wsid_catalog.pipelines.analytics import _cents

    li = read_parquet_clean(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_suppkey", "l_partkey", "l_extendedprice"])

    def part(df: pd.DataFrame) -> pd.DataFrame:
        g = pd.DataFrame({
            "s_suppkey": df["l_suppkey"],
            "cents": _cents(df["l_extendedprice"].to_numpy())})
        out = g.groupby("s_suppkey", as_index=False).agg(
            n_lines=("cents", "size"), revenue_cents=("cents", "sum"))
        out["n_lines"] = out["n_lines"].astype("int64")
        return out

    sums = bucketed_sum(li.map_batches(part, batch_format="pandas"),
                        ["s_suppkey"], ["n_lines", "revenue_cents"],
                        num_buckets=8)
    parts_per = partial_count(
        distinct(li.map_batches(
            lambda df: df[["l_suppkey", "l_partkey"]].drop_duplicates()
            .rename(columns={"l_suppkey": "s_suppkey"}),
            batch_format="pandas"), ["s_suppkey", "l_partkey"],
            num_buckets=8),
        ["s_suppkey"], out_name="n_parts")

    from wsid_catalog.stages.joins import hash_join
    joined = hash_join(sums, parts_per, on=["s_suppkey"], num_buckets=8)

    names = pq.read_table(f"{sf_dir}/supplier.parquet",
                          columns=["s_suppkey", "s_name"])
    names_ref = ray.put(dict(zip(names["s_suppkey"].to_pylist(),
                                 names["s_name"].to_pylist())))

    def attach(df: pd.DataFrame) -> pd.DataFrame:
        nm = ray.get(names_ref)
        df = df.copy()
        df["s_name"] = df["s_suppkey"].map(nm)
        return df[["s_suppkey", "s_name", "n_parts", "n_lines",
                   "revenue_cents"]]

    out_schema = pa.schema([("s_suppkey", pa.int64()),
                            ("s_name", pa.string()),
                            ("n_parts", pa.int64()),
                            ("n_lines", pa.int64()),
                            ("revenue_cents", pa.int64())])
    return joined.map_batches(attach, batch_format="pandas") \
        .map_batches(lambda t: t.cast(out_schema),
                     batch_format="pyarrow")


def q_nation_supplier_balance(sf_dir: str) -> rd.Dataset:
    """Per-nation supplier panel: count and exact account-balance cents
    (sum/min/max) joined to the nation name — the second supplier-table
    consumer; dimension-sized, one bounded fold."""
    from wsid_ray.stages.groups import bucketed_group_apply

    sup = read_parquet_clean(
        f"{sf_dir}/supplier.parquet",
        columns=["s_suppkey", "s_nationkey", "s_acctbal"])
    import pyarrow.parquet as pq

    from wsid_catalog.pipelines.analytics import _cents
    nat = pq.read_table(f"{sf_dir}/nation.parquet",
                        columns=["n_nationkey", "n_name"])
    nmap_ref = ray.put(dict(zip(nat["n_nationkey"].to_pylist(),
                                nat["n_name"].to_pylist())))

    def part(df: pd.DataFrame) -> pd.DataFrame:
        g = pd.DataFrame({
            "n_nationkey": df["s_nationkey"].astype("int64"),
            "bal": _cents(df["s_acctbal"].to_numpy())})
        out = g.groupby("n_nationkey", as_index=False).agg(
            n_suppliers=("bal", "size"), bal_cents=("bal", "sum"),
            min_bal_cents=("bal", "min"), max_bal_cents=("bal", "max"))
        out["n_suppliers"] = out["n_suppliers"].astype("int64")
        return out

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("n_nationkey", as_index=False).agg(
            n_suppliers=("n_suppliers", "sum"),
            bal_cents=("bal_cents", "sum"),
            min_bal_cents=("min_bal_cents", "min"),
            max_bal_cents=("max_bal_cents", "max"))
        nm = ray.get(nmap_ref)
        g["n_name"] = g["n_nationkey"].map(nm)
        return g[["n_nationkey", "n_name", "n_suppliers", "bal_cents",
                  "min_bal_cents", "max_bal_cents"]]

    out_schema = pa.schema([("n_nationkey", pa.int64()),
                            ("n_name", pa.string()),
                            ("n_suppliers", pa.int64()),
                            ("bal_cents", pa.int64()),
                            ("min_bal_cents", pa.int64()),
                            ("max_bal_cents", pa.int64())])
    return bucketed_group_apply(
        sup.map_batches(part, batch_format="pandas"),
        ["n_nationkey"], fold, num_buckets=2, out_schema=out_schema)


def q_mutual_knn_degree(sf_dir: str) -> rd.Dataset:
    """Mutual-kNN graph degree histogram: edges where a is in b's
    top-k AND b in a's (the graph clustering/HDBSCAN substrate), rolled
    to (degree, n_nodes).  Composes the exact self-join hit list; the
    mutual check is one in-bucket self-merge on the undirected pair
    key."""
    from wsid_ray.stages.groups import (bucketed_group_apply, bucketed_sum,
                                        partial_count)

    hits = q_knn_self_topk(sf_dir).select_columns(
        ["query_id", "vec_id"])

    def canon(df: pd.DataFrame) -> pd.DataFrame:
        a = df[["query_id", "vec_id"]].to_numpy()
        lo = a.min(axis=1)
        hi = a.max(axis=1)
        return pd.DataFrame({"u": lo.astype("int64"),
                             "v": hi.astype("int64")})

    pairs = hits.map_batches(canon, batch_format="pandas")

    def mutual(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["u", "v"], as_index=False).size()
        return g[g["size"] == 2][["u", "v"]]

    edges = bucketed_group_apply(pairs, ["u", "v"], mutual,
                                 num_buckets=8)

    def degrees(t: pa.Table) -> pd.DataFrame:
        df = t.to_pandas()
        return pd.DataFrame({"node": pd.concat([df["u"], df["v"]],
                                               ignore_index=True)
                             .astype("int64")})

    deg = partial_count(
        edges.map_batches(degrees, batch_format="pyarrow"),
        ["node"], out_name="degree")

    def rename(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"degree": df["degree"].astype("int64")})

    hist = bucketed_sum(
        partial_count(deg.map_batches(rename, batch_format="pandas"),
                      ["degree"], out_name="n_nodes"),
        ["degree"], ["n_nodes"], num_buckets=2)
    out_schema = pa.schema([("degree", pa.int64()),
                            ("n_nodes", pa.int64())])
    return hist.map_batches(
        lambda t: t.select(["degree", "n_nodes"]).cast(out_schema),
        batch_format="pyarrow")


def q_knn_self_topk(sf_dir: str, k: int = 5) -> rd.Dataset:
    """Full k-NN SELF-join: every vector's exact cosine top-k
    neighbours (self excluded) — the workload behind SemDeDup/graph
    building, completing the ANN family beyond the bounded query set.
    Runs the brute scorer with the whole table broadcast as the query
    matrix — exact and fine at audit scale; at 100 TB the self-join
    must go through the IVF bucketing (stages/knn.ivf_topk) so only
    same-cluster pairs score, which is exactly what semdedup_drops
    already does."""
    import pyarrow.parquet as pq
    t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    queries = {r["vec_id"]: np.asarray(r["embedding"], dtype=np.float64)
               for r in t.to_pylist()}
    return knn_topk(read_embeddings(sf_dir), queries, k=k)


def q_knn_cosine_topk(sf_dir: str) -> rd.Dataset:
    import pyarrow.parquet as pq
    t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    wanted = {0, 1, 2, 3, 4}
    queries = {}
    for r in t.to_pylist():
        if r["vec_id"] in wanted:
            queries[r["vec_id"]] = np.asarray(r["embedding"],
                                              dtype=np.float64)
    return knn_topk(read_embeddings(sf_dir), queries, k=10)


# Registry order matters: the driver's correctness sweep may be
# time-bounded (CORRECTNESS_r03 recorded the FIRST 50 of 68 entries), so
# the queries that were not in the previous round's artifact run FIRST
# (VERDICT r03 item 5), followed by the long-covered ones in their
# historical order.
def _cooc_edge_stream(sf_dir: str) -> rd.Dataset:
    """Shared front end of the graph-analytics queries: the pruned NPMI
    edge set (term, w, v) from the flagship cooc chain."""
    from wsid_ray.stages.cooc import cooc_edges
    from wsid_ray.pipelines.flagship import detect_mentions

    turns = read_transcripts(sf_dir).map_batches(tokenize_batch,
                                                 batch_format="pyarrow")
    mentions = detect_mentions(turns, CFG)
    edges = cooc_edges(mentions, CFG.cooc_min_count, CFG.npmi_min)
    return edges.map_batches(lambda t: t.select(["term", "w", "v"]),
                             batch_format="pyarrow")


def q_cooc_edge_jaccard(sf_dir: str) -> rd.Dataset:
    """Per-edge embeddedness + open-neighbourhood Jaccard (SCAN-style
    structural similarity) over the NPMI ego graphs."""
    from wsid_catalog.stages.pagerank import edge_jaccard
    return edge_jaccard(_cooc_edge_stream(sf_dir))


def q_cooc_kcore(sf_dir: str) -> rd.Dataset:
    """3-core membership after 8 bounded peel rounds per term graph —
    the 4th fixed-round iterative contract (k-means/CW/PageRank
    precedents), unrolled identically in the SQL mirror."""
    from wsid_catalog.stages.pagerank import kcore
    return kcore(_cooc_edge_stream(sf_dir))


def q_term_profile_cosine(sf_dir: str, num_buckets: int = 8) -> "pa.Table":
    """Second-order distributional similarity between gazetteer terms
    (Schütze 1998): cosine over each term's context-window unigram
    profile, weights quantised to micro-share wq = (n_w·1e6)//nn
    (truncating // — the DuckDB-native tdiv contract), zero-share
    rows dropped in both engines.

    Physical plan: the window/unary/total counts come from the SAME
    distributed partial-combine pass the flagship fit uses
    (stages/cooc.aggregate_counts, materialised once here and read
    twice); totals are gazetteer-bounded and broadcast; the pairwise
    dot is a token-keyed posting-list self-join expanding to
    |gaz|²-bounded partial products (the source_profile_cosine
    shape), folded in one bucketed sum; norms are the diagonal.  One
    float chain per pair at 6 dp, identical HUGEINT→DOUBLE op order
    in the oracle."""
    from wsid_ray.stages.cooc import aggregate_counts
    from wsid_ray.stages.groups import bucketed_group_apply, bucketed_sum
    from wsid_ray.util import collect_rows
    from wsid_ray.pipelines.flagship import detect_mentions

    turns = read_transcripts(sf_dir).map_batches(tokenize_batch,
                                                 batch_format="pyarrow")
    mentions = detect_mentions(turns, CFG)
    counts = aggregate_counts(mentions).materialize()

    def tot_part(df: pd.DataFrame) -> pd.DataFrame:
        return df.loc[df["w"] == "", ["term", "n"]]

    nn = {r["term"]: int(r["n"]) for r in collect_rows(
        counts.map_batches(tot_part, batch_format="pandas"))}
    nn_ref = ray.put(nn)

    def profile(df: pd.DataFrame) -> pd.DataFrame:
        d = ray.get(nn_ref)
        df = df[(df["v"] == "") & (df["w"] != "")]
        wq = (df["n"].to_numpy(np.int64) * 1_000_000) \
            // df["term"].map(d).to_numpy(np.int64)
        out = pd.DataFrame({"term": df["term"].to_numpy(),
                            "tok": df["w"].to_numpy(), "wq": wq})
        return out[out["wq"] > 0]

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        m = df.merge(df, on="tok")
        m = m[m["term_x"] <= m["term_y"]]
        m["dot"] = m["wq_x"] * m["wq_y"]
        return m.groupby(["term_x", "term_y"], as_index=False)["dot"] \
            .sum().rename(columns={"term_x": "term_a",
                                   "term_y": "term_b"}) \
            .astype({"dot": "int64"})

    part_schema = pa.schema([("term_a", pa.string()),
                             ("term_b", pa.string()),
                             ("dot", pa.int64())])
    folded = collect_rows(bucketed_sum(
        bucketed_group_apply(
            counts.map_batches(profile, batch_format="pandas"),
            ["tok"], pairs, num_buckets=num_buckets,
            out_schema=part_schema),
        ["term_a", "term_b"], ["dot"], num_buckets=4))
    norm = {r["term_a"]: int(r["dot"]) for r in folded
            if r["term_a"] == r["term_b"]}
    rows = sorted((r for r in folded if r["term_a"] < r["term_b"]),
                  key=lambda r: (r["term_a"], r["term_b"]))
    cos = [int(np.floor(float(int(r["dot"]))
                        / np.sqrt(float(norm[r["term_a"]])
                                  * float(norm[r["term_b"]]))
                        * 1e6 + 0.5)) for r in rows]
    return pa.table({
        "term_a": pa.array([r["term_a"] for r in rows], pa.string()),
        "term_b": pa.array([r["term_b"] for r in rows], pa.string()),
        "dot": pa.array([int(r["dot"]) for r in rows], pa.int64()),
        "cos_micro": pa.array(cos, pa.int64())})


def q_cooc_hub_paths(sf_dir: str) -> rd.Dataset:
    """Bounded-round weighted Bellman–Ford from each ego-graph hub over
    integer NPMI costs (1e6 − wq) — cheapest ≤4-edge paths."""
    from wsid_ray.stages.cooc import cooc_edges
    from wsid_catalog.stages.pagerank import hub_cheapest_paths
    from wsid_ray.pipelines.flagship import detect_mentions

    turns = read_transcripts(sf_dir).map_batches(tokenize_batch,
                                                 batch_format="pyarrow")
    mentions = detect_mentions(turns, CFG)
    edges = cooc_edges(mentions, CFG.cooc_min_count, CFG.npmi_min)
    return hub_cheapest_paths(edges, rounds=4)


def q_cooc_stress(sf_dir: str) -> rd.Dataset:
    """Bounded-hop (≤3) Shimbel stress centrality per ego graph —
    exact integer shortest-path counts through each interior node."""
    from wsid_catalog.stages.pagerank import stress_centrality
    return stress_centrality(_cooc_edge_stream(sf_dir))


def q_cooc_bfs_hops(sf_dir: str) -> rd.Dataset:
    """Hop distance from each term graph's hub node within 4 BFS
    rounds (stages/pagerank.bfs_hops) — the 6th bounded-iteration
    contract, unrolled as frontier/label CTE pairs in the mirror."""
    from wsid_catalog.stages.pagerank import bfs_hops
    return bfs_hops(_cooc_edge_stream(sf_dir))


def q_embedding_pca_projection(sf_dir: str) -> rd.Dataset:
    """Integer-contract PCA power iteration: distributed micro-unit Gram
    partials (python-int combine), 8 exact power rounds on the driver's
    dim x dim matrix, broadcast direction, per-vector projections."""
    from wsid_catalog.stages.pca import pca_projection_query
    return pca_projection_query(sf_dir)


def q_doc_pipeline_spans_summary(sf_dir: str) -> rd.Dataset:
    """Composed curation chain v2: duplicate-SPAN removal + language ID
    joined per doc, rolled up per language — how much text each
    language loses to cross-doc boilerplate.  Spans and langid run as
    independent streams; the join and the rollup shuffle tiny derived
    rows (never text beyond dedup_spans' single reconstruction pass)."""
    from wsid_catalog.stages.dedup import dedup_spans
    from wsid_ray.stages.groups import bucketed_group_apply
    from wsid_catalog.stages.joins import hash_join

    docs = read_documents(sf_dir)
    spans = dedup_spans(docs).map_batches(
        lambda t: t.select(["doc_id", "n_tokens", "n_removed"]),
        batch_format="pyarrow")
    tagged = read_documents(sf_dir, columns=["doc_id", "text", "lang"])

    def lang_rows(t: pa.Table) -> pa.Table:
        return pa.table({"doc_id": t["doc_id"], "lang": t["lang"],
                         "lang_pred": langid_batch(t)["lang_pred"]})

    lang = tagged.map_batches(lang_rows, batch_format="pyarrow")
    j = hash_join(spans, lang, on=["doc_id"], num_buckets=8)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.assign(touched=(df["n_removed"] > 0).astype("int64"),
                      one=np.int64(1))
        out = g.groupby(["lang", "lang_pred"], as_index=False).agg(
            n_docs=("one", "sum"), n_docs_touched=("touched", "sum"),
            sum_tokens=("n_tokens", "sum"),
            sum_removed=("n_removed", "sum"))
        return out.astype({c: "int64" for c in out.columns
                           if c not in ("lang", "lang_pred")})

    return analytics.bucketed_sum(
        j.map_batches(partial, batch_format="pandas"),
        ["lang", "lang_pred"],
        ["n_docs", "n_docs_touched", "sum_tokens", "sum_removed"],
        num_buckets=2)


def q_monthly_revenue_yoy(sf_dir: str) -> "pa.Table":
    """Monthly revenue + same-month-last-year growth in micro-units."""
    from wsid_catalog.pipelines.relational_ext import monthly_revenue_yoy
    return monthly_revenue_yoy(sf_dir)


def q_status_revenue_share(sf_dir: str) -> "pa.Table":
    """Percent-of-total per status in exact integer micro-units."""
    from wsid_catalog.pipelines.relational_ext import status_revenue_share
    return status_revenue_share(sf_dir)


def q_doc_readability(sf_dir: str) -> rd.Dataset:
    """Flesch Reading Ease from exact RE2 counts (words / sentence
    runs / vowel-group syllable proxy)."""
    from wsid_catalog.stages.textstats import readability_batch
    return read_documents(sf_dir).map_batches(readability_batch,
                                              batch_format="pyarrow")


def q_daily_trailing_active_users(sf_dir: str) -> rd.Dataset:
    """7-day rolling distinct users per event day: distinct (day, user)
    pairs fan out to <= 7 report days, window-length-bounded."""
    return analytics.trailing_active_users(sf_dir)


def q_embedding_nearest_centroid(sf_dir: str) -> rd.Dataset:
    """Nearest-centroid assignment by exact integer squared distance,
    broadcast labels x dim centroid matrix."""
    from wsid_catalog.stages.pca import nearest_centroid_query
    return nearest_centroid_query(sf_dir)


def q_doc_chunks(sf_dir: str) -> rd.Dataset:
    """RAG chunking: stride-48 / window-64 whitespace-token windows,
    per-chunk md5 fingerprint; stateless map, no shuffle."""
    from wsid_catalog.stages.chunking import doc_chunks
    return doc_chunks(read_documents(sf_dir))


def q_orders_cdc_merge(sf_dir: str) -> rd.Dataset:
    """CDC last-wins upsert: base + derived change stream, per-key max
    version via partial argmax before one bucketed shuffle."""
    from wsid_catalog.pipelines.relational_ext import orders_cdc_merge
    return orders_cdc_merge(sf_dir)


def q_order_price_percentile_cont(sf_dir: str) -> "pa.Table":
    """Interpolated percentiles (percentile_cont) per status in exact
    integer centi-cents via the two-pass rank machinery."""
    return analytics.order_price_percentile_cont(sf_dir)


def q_customer_cohort_retention(sf_dir: str) -> rd.Dataset:
    """Retention triangle: first-order-month cohorts x months-since,
    distinct customers per cell."""
    return analytics.customer_cohort_retention(sf_dir)


def q_embedding_label_centroids(sf_dir: str) -> rd.Dataset:
    """Per-label micro-unit centroids of the quantised embeddings —
    one bucketed shuffle of labels x dim partial-sum rows."""
    from wsid_catalog.stages.pca import label_centroids_query
    return label_centroids_query(sf_dir)


def q_doc_tfidf_pair_sim(sf_dir: str) -> rd.Dataset:
    """Inverted-index all-pairs cosine over top-5 tf-idf vectors:
    integer milli-unit dots/norms, capped posting lists."""
    from wsid_catalog.stages.lm import tfidf_pair_sim
    return tfidf_pair_sim(read_documents(sf_dir))


def q_doc_dedup_spans(sf_dir: str) -> rd.Dataset:
    """Exact duplicate-span removal: tokens covered by any cross-doc
    duplicated 5-gram drop from every copy; per-doc kept fingerprint."""
    from wsid_catalog.stages.dedup import dedup_spans
    return dedup_spans(read_documents(sf_dir))


def q_lineitem_mad(sf_dir: str) -> "pa.Table":
    """Per-returnflag exact median + MAD via two passes of the
    distributed order-statistic machinery."""
    return analytics.lineitem_mad(sf_dir)


def q_orders_weighted_sample(sf_dir: str) -> "pa.Table":
    """Deterministic weighted priority sample: global k smallest
    (md5_64 >> 34) * 1e6 // w_cents keys, per-block partial top-k."""
    return analytics.orders_weighted_sample(sf_dir)


def q_lineitem_winsorized(sf_dir: str) -> rd.Dataset:
    """Winsorized per-returnflag price sum: exact p05/p95 order-statistic
    cutoffs via the two-pass rank machinery, then clip + sum."""
    return analytics.lineitem_winsorized(sf_dir)


def q_orders_skyline(sf_dir: str) -> pa.Table:
    """Pareto frontier of orders on (price, recency) — per-block local
    skylines merged once on the driver (algebraic operator)."""
    from wsid_catalog.pipelines.relational_ext import orders_skyline
    return orders_skyline(sf_dir)


def q_order_brand_pairs(sf_dir: str) -> rd.Dataset:
    """Market-basket brand pair counts: lineitem ⋈ part, distinct
    (order, brand), vectorised per-order pair fan-out, bucketed sum."""
    from wsid_catalog.pipelines.relational_ext import order_brand_pairs
    return order_brand_pairs(sf_dir)


def q_doc_normalized_dedup(sf_dir: str) -> rd.Dataset:
    """Normalized exact dedup over the planted-duplicate corpus
    (stages/setsim.py module docstring): texts equal after
    (lower, collapse-whitespace, trim) form one group; emits every
    member of a group with n_group > 1 plus its first-wins canonical."""
    from wsid_catalog.stages.setsim import normalized_dedup, planted_docs
    return normalized_dedup(planted_docs(sf_dir))


def q_doc_setsim_join(sf_dir: str) -> rd.Dataset:
    """Exact Jaccard >= 1/2 shingle-set self-join via SSJoin/PPJoin
    prefix filtering over the planted-duplicate corpus — candidates
    from rare-shingle prefixes only (never all pairs), verified with
    exact integer cross-multiplication.  The oracle is the ALL-PAIRS
    ground truth, so a hash match proves the prefix filter complete."""
    from wsid_catalog.stages.setsim import planted_docs, setsim_pairs
    return setsim_pairs(planted_docs(sf_dir))


def q_lineitem_group_ols(sf_dir: str) -> rd.Dataset:
    """Grouped OLS regression (price-on-quantity per returnflag) from
    the exact integer moment sums — slope/intercept/R² micro-rounded."""
    from wsid_catalog.pipelines.mlstats import lineitem_group_ols
    return lineitem_group_ols(sf_dir)


def q_event_value_outliers(sf_dir: str) -> "pa.Table":
    """Tukey-fence IQR anomaly panel per event_type: exact interpolated
    q1/q3 via the two-pass rank machinery + integral fence counts."""
    from wsid_catalog.pipelines.mlstats import event_value_outliers
    return event_value_outliers(sf_dir)


def q_knn_label_accuracy(sf_dir: str) -> rd.Dataset:
    """kNN-classifier eval: top-5 majority vote vs own label, per-label
    accuracy in truncating micro-units."""
    from wsid_catalog.pipelines.mlstats import knn_label_accuracy
    return knn_label_accuracy(sf_dir)


def q_embedding_silhouette(sf_dir: str) -> rd.Dataset:
    """Simplified silhouette per label (centroid form, milli-unit
    integer contract, truncating divisions)."""
    from wsid_catalog.pipelines.mlstats import embedding_silhouette
    return embedding_silhouette(sf_dir)


def q_customer_rfm(sf_dir: str) -> rd.Dataset:
    """RFM segmentation: recency/frequency/monetary quartile codes via
    three exact NTILE passes over customer-cardinality rows."""
    from wsid_catalog.pipelines.mlstats import customer_rfm
    return customer_rfm(sf_dir)


def q_customer_order_streaks(sf_dir: str) -> rd.Dataset:
    """Gap-and-islands: consecutive active-month streaks per customer
    (count, longest, earliest longest start)."""
    from wsid_catalog.pipelines.sequences import customer_order_streaks
    return customer_order_streaks(sf_dir)


def q_cooc_adamic_adar(sf_dir: str) -> rd.Dataset:
    """Adamic–Adar link prediction over the NPMI ego graphs: scored
    non-adjacent wedge pairs, per-z terms quantised before the sum."""
    from wsid_catalog.stages.pagerank import adamic_adar
    return adamic_adar(_cooc_edge_stream(sf_dir))


def q_doc_bm25_topk(sf_dir: str) -> rd.Dataset:
    """Top-5 BM25 tokens per document (Okapi k1=1.2 b=0.75,
    Lucene idf), exact-integer inputs + one float chain at 6 dp."""
    from wsid_catalog.stages.lm import bm25_topk
    return bm25_topk(read_documents(sf_dir))


def q_source_token_kl(sf_dir: str) -> "pa.Table":
    """Domain-drift KL(source ‖ corpus) over token unigrams —
    per-term micro-nat quantisation before the order-free sum."""
    from wsid_catalog.pipelines.mlstats import source_token_kl
    return source_token_kl(sf_dir)



def q_orders_scd2_history(sf_dir: str) -> rd.Dataset:
    """SCD Type-2 history over the CDC stream: validity rows with
    valid_to = next version − 1 and the is_current flag."""
    from wsid_catalog.pipelines.relational_ext import orders_scd2_history
    return orders_scd2_history(sf_dir)


def q_order_price_cume(sf_dir: str) -> rd.Dataset:
    """CUME_DIST per status from the exact two-pass rank machinery
    (ties share; 6 dp half-up)."""
    return analytics.order_price_cume(sf_dir)



def q_source_lang_mi(sf_dir: str) -> "pa.Table":
    """Mutual information cells between source feed and language
    (micro-nat integer contract, driver-small contingency)."""
    from wsid_catalog.pipelines.mlstats import source_lang_mi
    return source_lang_mi(sf_dir)


def q_segment_target_encoding(sf_dir: str) -> "pa.Table":
    """Smoothed target (mean) encoding of market segment vs order
    price — exact bigint finish over distributed partial sums."""
    from wsid_catalog.pipelines.mlstats import segment_target_encoding
    return segment_target_encoding(sf_dir)


def q_langid_confusion(sf_dir: str) -> rd.Dataset:
    """Langid confusion matrix (model pred vs fixture label) — fused
    per-batch scoring, |langs|²-bounded exchange."""
    from wsid_catalog.pipelines.mlstats import langid_confusion
    return langid_confusion(sf_dir)


def q_langid_eval(sf_dir: str) -> "pa.Table":
    """Per-language P/R/F1 of the langid model — exact micro-int
    truncating finish over the confusion matrix."""
    from wsid_catalog.pipelines.mlstats import langid_eval
    return langid_eval(sf_dir)


def q_status_theil_index(sf_dir: str) -> "pa.Table":
    """Theil T inequality of order value per status — quantised-ln
    integer contract, decimal-string partial sums."""
    from wsid_catalog.pipelines.mlstats import status_theil_index
    return status_theil_index(sf_dir)


def q_session_type_pmi(sf_dir: str) -> "pa.Table":
    """PMI between event types sharing a gap session — one user-keyed
    shuffle, types²-bounded fold."""
    from wsid_catalog.pipelines.mlstats import session_type_pmi
    return session_type_pmi(sf_dir)


def q_dup_source_matrix(sf_dir: str) -> rd.Dataset:
    """Near-dup pair counts per unordered source-feed pair — rides the
    LSH→verify chain plus two partitioned source joins."""
    from wsid_catalog.pipelines.mlstats import dup_source_matrix
    return dup_source_matrix(sf_dir)


def q_priority_price_mwu(sf_dir: str) -> "pa.Table":
    """Mann–Whitney U (urgent vs low priority on price) — exact
    average-rank integers on the two-pass rank machinery."""
    from wsid_catalog.pipelines.mlstats import priority_price_mwu
    return priority_price_mwu(sf_dir)


def q_order_value_median_test(sf_dir: str) -> "pa.Table":
    """Mood's median test across order statuses — pooled exact median
    by two-pass selection, nano-quantised integer χ² cell terms."""
    from wsid_catalog.pipelines.mlstats import order_value_median_test
    return order_value_median_test(sf_dir)


def q_user_churn_logrank(sf_dir: str) -> "pa.Table":
    """Log-rank test between click-first and other user cohorts'
    churn curves — exact integer-quantised E/V terms, one χ² chain."""
    from wsid_catalog.pipelines.mlstats import user_churn_logrank
    return user_churn_logrank(sf_dir)


def q_order_value_kruskal(sf_dir: str) -> "pa.Table":
    """Kruskal–Wallis H across order statuses — exact pooled-rank
    integers, tie-corrected single-rational finish."""
    from wsid_catalog.pipelines.mlstats import order_value_kruskal
    return order_value_kruskal(sf_dir)


def q_dup_quality_auc(sf_dir: str) -> "pa.Table":
    """AUC of the quality score vs near-dup membership — exact
    distinct-score-count identity, score-cardinality-bounded finish."""
    from wsid_catalog.pipelines.mlstats import dup_quality_auc
    return dup_quality_auc(sf_dir)


def q_lang_source_hhi(sf_dir: str) -> "pa.Table":
    """Herfindahl concentration of source mix per language — exact
    integer shares."""
    from wsid_catalog.pipelines.mlstats import lang_source_hhi
    return lang_source_hhi(sf_dir)


def q_doc_edit_pairs(sf_dir: str) -> rd.Dataset:
    """Levenshtein distance on LSH candidate pairs (200-char heads) —
    the fuzzy-match verifier."""
    from wsid_catalog.pipelines.mlstats import doc_edit_pairs
    return doc_edit_pairs(sf_dir)


def q_ann_ndcg(sf_dir: str) -> "pa.Table":
    """nDCG@10 of IVF/LSH vs the exact top-k — quantised position
    weights, integer dcg/idcg."""
    from wsid_catalog.pipelines.mlstats import ann_ndcg
    return ann_ndcg(sf_dir)


def q_qty_price_spearman(sf_dir: str) -> "pa.Table":
    """Distributed exact Spearman (quantity vs price) — average-rank
    integers from two rank passes joined on the row id."""
    from wsid_catalog.pipelines.mlstats import qty_price_spearman
    return qty_price_spearman(sf_dir)


def q_source_profile_cosine(sf_dir: str) -> "pa.Table":
    """Cosine between source unigram-count profiles — exact integer
    dot/norm sums, one token-keyed shuffle."""
    from wsid_catalog.pipelines.mlstats import source_profile_cosine
    return source_profile_cosine(sf_dir)


def q_customer_revenue_pareto(sf_dir: str) -> "pa.Table":
    """Revenue-concentration deciles (Pareto/Lorenz panel) — exact
    NTILE over per-customer revenue, integer shares."""
    from wsid_catalog.pipelines.mlstats import customer_revenue_pareto
    return customer_revenue_pareto(sf_dir)


def q_embedding_jl_projection(sf_dir: str) -> rd.Dataset:
    """JL ±1 sign projection to 8 dims — md5-parity signs, integer
    matmul, stateless."""
    from wsid_catalog.pipelines.mlstats import embedding_jl_projection
    return embedding_jl_projection(sf_dir)


def q_cooc_assortativity(sf_dir: str) -> rd.Dataset:
    """Per-term degree assortativity of the NPMI ego graphs — exact
    integer moments, one term-keyed shuffle."""
    from wsid_catalog.stages.pagerank import degree_assortativity
    return degree_assortativity(_cooc_edge_stream(sf_dir))


def q_priority_price_ks(sf_dir: str) -> "pa.Table":
    """Two-sample KS D (urgent vs low on price) — exact integer ECDF
    numerator, two-level bin prefix, nothing co-located."""
    from wsid_catalog.pipelines.mlstats import priority_price_ks
    return priority_price_ks(sf_dir)


def q_langid_kappa(sf_dir: str) -> "pa.Table":
    """Cohen's kappa of langid vs fixture label — exact int identity
    over the confusion matrix."""
    from wsid_catalog.pipelines.mlstats import langid_kappa
    return langid_kappa(sf_dir)


def q_dup_score_lift(sf_dir: str) -> "pa.Table":
    """Decile lift of the quality score vs near-dup membership — exact
    NTILE + integer lift."""
    from wsid_catalog.pipelines.mlstats import dup_score_lift
    return dup_score_lift(sf_dir)


def q_qty_line_kendall(sf_dir: str) -> "pa.Table":
    """Kendall tau-b (quantity vs line number) — exact cell-pair
    concordance with tie corrections."""
    from wsid_catalog.pipelines.mlstats import qty_line_kendall
    return qty_line_kendall(sf_dir)


def q_status_trimmed_mean(sf_dir: str) -> "pa.Table":
    """10%-trimmed mean per status — exact rank-trimmed integer sums on
    the two-pass machinery."""
    from wsid_catalog.pipelines.mlstats import status_trimmed_mean
    return status_trimmed_mean(sf_dir)


def q_doc_feature_hash(sf_dir: str) -> rd.Dataset:
    """Hashing-trick bag-of-words: 64-bucket md5-parity token folds per
    document in COO rows — stateless, shuffle-free."""
    from wsid_catalog.stages.textstats import (feature_hash_batch,
                                               read_documents)
    return read_documents(sf_dir, columns=["doc_id", "text"]) \
        .map_batches(feature_hash_batch, batch_format="pyarrow")


def q_user_negative_types(sf_dir: str) -> rd.Dataset:
    """Negative-sampling panel: per user the never-interacted catalog
    types (count + sorted list) — broadcast small-side anti join."""
    from wsid_catalog.pipelines.mlstats import user_negative_types
    return user_negative_types(sf_dir)


def q_user_rolling_median7(sf_dir: str) -> rd.Dataset:
    """Rolling 7-day window MEDIAN over the dense daily series (exact:
    int or dyadic half on both sides)."""
    from wsid_catalog.pipelines.sequences import user_rolling_median7
    return user_rolling_median7(sf_dir)


def q_event_type_markov_stationary(sf_dir: str) -> "pa.Table":
    """Markov stationary distribution: 8 exact integer power rounds
    over the transition counts (unrolled identically in the mirror)."""
    from wsid_catalog.pipelines.mlstats import event_type_markov_stationary
    return event_type_markov_stationary(sf_dir)


def q_event_type_cosine(sf_dir: str) -> "pa.Table":
    """Item-item cosine over per-user engagement vectors (exact int
    dot/norms, one float chain at 6 dp)."""
    from wsid_catalog.pipelines.mlstats import event_type_cosine
    return event_type_cosine(sf_dir)


def q_doc_hash_shard_balance(sf_dir: str) -> "pa.Table":
    """Shard-balance audit: md5-contract doc shards, per-shard count +
    signed truncating micro deviation from uniform."""
    from wsid_catalog.pipelines.mlstats import doc_hash_shard_balance
    return doc_hash_shard_balance(sf_dir)


def q_embedding_pq_codes(sf_dir: str) -> rd.Dataset:
    """Product quantization: 4 subspace × 4-centroid integer-contract
    Lloyd fits; per (vector, subspace) the code and exact quantised
    reconstruction error."""
    from wsid_catalog.stages.kmeans import pq_codes
    return pq_codes(read_embeddings(sf_dir))


def q_pq_adc_topk(sf_dir: str) -> rd.Dataset:
    """PQ asymmetric-distance top-10 per fixed query (vec_id < 5):
    integer-contract subspace codebooks, exact int64 LUT scoring."""
    from wsid_catalog.stages.kmeans import pq_adc_topk
    return pq_adc_topk(read_embeddings(sf_dir))


def q_user_kmv_registers(sf_dir: str) -> "pa.Table":
    """KMV distinct sketch registers (k=32 smallest 63-bit md5 hashes
    of user_id) — hash-checkable like the HLL registers."""
    from wsid_catalog.stages.sketches import kmv_registers
    ds = read_parquet_clean(f"{sf_dir}/events.parquet",
                            columns=["user_id"])
    return kmv_registers(ds, "user_id")


def q_user_kmv_estimate(sf_dir: str) -> "pa.Table":
    """KMV estimate-vs-exact audit: integer (k−1)·2^63//h_k estimator
    beside the exact distinct count and signed micro error."""
    from wsid_catalog.stages.sketches import kmv_estimate
    ds = read_parquet_clean(f"{sf_dir}/events.parquet",
                            columns=["user_id"])
    return kmv_estimate(ds, "user_id")


def q_user_inactivity_churn(sf_dir: str) -> rd.Dataset:
    """Churn panel: last active day, exact inactivity days vs corpus
    max, churned flag (>7 silent days)."""
    from wsid_catalog.pipelines.mlstats import user_inactivity_churn
    return user_inactivity_churn(sf_dir)


def q_status_priority_chisq(sf_dir: str) -> "pa.Table":
    """Chi-square independence over status x priority — exact integer
    micro-unit cell terms, order-free sum, zero cells included."""
    from wsid_catalog.pipelines.mlstats import status_priority_chisq
    return status_priority_chisq(sf_dir)


def q_priority_price_welch(sf_dir: str) -> "pa.Table":
    """Welch t-test panel over all order-priority pairs (exact integer
    moments, one shared float chain, 6 dp)."""
    from wsid_catalog.pipelines.mlstats import priority_price_welch
    return priority_price_welch(sf_dir)


def q_supplier_acctbal_anova(sf_dir: str) -> "pa.Table":
    """One-way ANOVA F across nations on supplier balance — SSB/SSW in
    exact cents² integers, float only in the final F chain."""
    from wsid_catalog.pipelines.mlstats import supplier_acctbal_anova
    return supplier_acctbal_anova(sf_dir)


def q_user_daily_ewma(sf_dir: str) -> rd.Dataset:
    """Truncated dyadic EWMA (alpha=1/2, 20 lags) over the dense daily
    series in exact Q20 fixed-point — no float anywhere."""
    from wsid_catalog.pipelines.sequences import user_daily_ewma
    return user_daily_ewma(sf_dir)


def q_purchase_nearby_clicks(sf_dir: str) -> rd.Dataset:
    """Range join within the event stream: clicks within ±30 min of
    each purchase — tol-bucketed band join with constant fan-out."""
    from wsid_catalog.pipelines.relational_ext import purchase_nearby_clicks
    return purchase_nearby_clicks(sf_dir)


def q_cooc_llr(sf_dir: str) -> rd.Dataset:
    """Dunning G² collocation significance + Dice per pruned NPMI edge
    — micro-nat cell quantisation over the 2×2 window contingency."""
    from wsid_ray.stages.cooc import aggregate_counts
    from wsid_catalog.stages.llr import llr_edges
    from wsid_ray.pipelines.flagship import detect_mentions

    turns = read_transcripts(sf_dir).map_batches(tokenize_batch,
                                                 batch_format="pyarrow")
    mentions = detect_mentions(turns, CFG)
    counts = aggregate_counts(mentions).materialize()
    return llr_edges(counts, CFG.cooc_min_count, CFG.npmi_min)


def q_term_context_drift(sf_dir: str) -> "pa.Table":
    """Semantic drift per gazetteer term: Jensen-Shannon divergence
    between the term's context-word distributions in the EARLY and
    LATE halves of the corpus timeline (split at the midpoint epoch
    day) — the "did this entity's meaning/usage shift" monitor a KG
    pipeline re-induces senses on.

    Same integer contract as source_js_divergence: per (term, token,
    side) contributions quantise to micro-nats before the exact sums;
    js_micro = tdiv(S_e, 2·N_e) + tdiv(S_l, 2·N_l) with truncating
    division.  Context tokens are per-window DISTINCT (the unicnt
    semantics of the cooc chain); terms mentioned in only one half are
    omitted (JS against an empty distribution is not informative).

    Scale: ONE pass over the fused mention stream (day bounds fold
    from per-batch partials first); (term, half, token) counts shuffle
    once on (term, token); per-(term, half) totals are
    gazetteer-bounded broadcasts."""
    from wsid_ray.stages.groups import bucketed_group_apply, bucketed_sum
    from wsid_ray.util import collect_rows
    from wsid_ray.pipelines.flagship import detect_mentions
    from wsid_catalog.pipelines.mlstats import _tdiv

    turns = read_transcripts(sf_dir).map_batches(tokenize_batch,
                                                 batch_format="pyarrow")
    mentions = detect_mentions(turns, CFG) \
        .select_columns(["term", "win_tokens", "ts"])

    US_PER_DAY = 86_400_000_000

    def day_part(df: pd.DataFrame) -> pd.DataFrame:
        d = (df["ts"].astype("datetime64[us]").astype("int64")
             // US_PER_DAY)
        return pd.DataFrame({"d0": [int(d.min())], "d1": [int(d.max())]})

    parts = collect_rows(mentions.map_batches(day_part,
                                              batch_format="pandas"))
    d0 = min(p["d0"] for p in parts)
    d1 = max(p["d1"] for p in parts)
    mid = (d0 + d1) // 2

    def tok_part(df: pd.DataFrame) -> pd.DataFrame:
        day = (df["ts"].astype("datetime64[us]").astype("int64")
               // US_PER_DAY).to_numpy()
        half = np.where(day <= mid, "early", "late")
        rows = {"term": [], "half": [], "tok": []}
        for t, h, ws in zip(df["term"], half, df["win_tokens"]):
            toks = sorted(set(ws))
            rows["term"].extend([t] * len(toks))
            rows["half"].extend([h] * len(toks))
            rows["tok"].extend(toks)
        g = pd.DataFrame(rows)
        out = g.groupby(["term", "half", "tok"], as_index=False) \
            .size().rename(columns={"size": "c"})
        return out.astype({"c": "int64"})

    st = bucketed_sum(
        mentions.map_batches(tok_part, batch_format="pandas"),
        ["term", "half", "tok"], ["c"], num_buckets=8)

    totals = collect_rows(bucketed_sum(
        st.map_batches(
            lambda df: df.groupby(["term", "half"], as_index=False)
            .agg(ns=("c", "sum")).astype({"ns": "int64"}),
            batch_format="pandas"),
        ["term", "half"], ["ns"], num_buckets=2))
    ns_of = {(r["term"], r["half"]): int(r["ns"]) for r in totals}
    ref = ray.put(ns_of)

    def js_part(df: pd.DataFrame) -> pd.DataFrame:
        ns = ray.get(ref)
        df = df.groupby(["term", "half", "tok"], as_index=False)["c"] \
            .sum()
        piv = df.pivot_table(index=["term", "tok"], columns="half",
                             values="c", fill_value=0, aggfunc="sum")
        for h in ("early", "late"):
            if h not in piv.columns:
                piv[h] = 0
        piv = piv.reset_index()
        terms = piv["term"].to_numpy()
        ca = piv["early"].to_numpy().astype(np.int64)
        cb = piv["late"].to_numpy().astype(np.int64)
        na = np.array([ns.get((t, "early"), 0) for t in terms],
                      dtype=np.int64)
        nb = np.array([ns.get((t, "late"), 0) for t in terms],
                      dtype=np.int64)
        keep = (na > 0) & (nb > 0)
        piv, ca, cb, na, nb = piv[keep], ca[keep], cb[keep], \
            na[keep], nb[keep]
        caf, cbf = ca.astype(np.float64), cb.astype(np.float64)
        den = caf * nb + cbf * na
        ta = np.zeros(len(ca), dtype=np.int64)
        tb = np.zeros(len(cb), dtype=np.int64)
        ma, mb = ca > 0, cb > 0
        ta[ma] = np.floor(ca[ma] * np.log((2 * caf[ma] * nb[ma])
                                          / den[ma]) * 1e6 + 0.5) \
            .astype(np.int64)
        tb[mb] = np.floor(cb[mb] * np.log((2 * cbf[mb] * na[mb])
                                          / den[mb]) * 1e6 + 0.5) \
            .astype(np.int64)
        out = pd.DataFrame({"term": piv["term"].to_numpy(),
                            "sa": ta, "sb": tb})
        return out.groupby("term", as_index=False).sum() \
            .astype({"sa": "int64", "sb": "int64"})

    out_schema = pa.schema([("term", pa.string()),
                            ("sa", pa.int64()), ("sb", pa.int64())])
    sums = collect_rows(bucketed_sum(
        bucketed_group_apply(st, ["term", "tok"], js_part,
                             num_buckets=8, out_schema=out_schema),
        ["term"], ["sa", "sb"], num_buckets=2))
    sums.sort(key=lambda r: r["term"])
    return pa.table({
        "term": pa.array([r["term"] for r in sums], pa.string()),
        "n_early": pa.array([ns_of[(r["term"], "early")]
                             for r in sums], pa.int64()),
        "n_late": pa.array([ns_of[(r["term"], "late")]
                            for r in sums], pa.int64()),
        "js_micro": pa.array(
            [_tdiv(int(r["sa"]), 2 * ns_of[(r["term"], "early")])
             + _tdiv(int(r["sb"]), 2 * ns_of[(r["term"], "late")])
             for r in sums], pa.int64())})


def q_term_burstiness(sf_dir: str) -> "pa.Table":
    """Church-Gale term burstiness: the Fano factor (variance-to-mean)
    of each gazetteer term's per-CONVERSATION mention counts over the
    WHOLE conv population (silent conversations enter as zeros) —
    fano ≈ 1 is Poisson scatter, ≫ 1 means mentions clump into few
    conversations (the bursty, topical entities a sense-induction pass
    benefits from most).

    Exact integers: per-(term, conv) counts, k/S/S2 moments, the total
    conv count N; fano_micro = floor((N·S2 − S²)/(N·S)·1e6 + 0.5) is
    the ONE float division (zeros contribute only through N).

    Scale: mention partials fold once on (term, conv); the conv count
    is a conv-cardinality fold; the per-term finish is
    gazetteer-bounded."""
    from wsid_ray.stages.groups import bucketed_group_apply, bucketed_sum
    from wsid_ray.util import collect_rows
    from wsid_ray.pipelines.flagship import detect_mentions

    turns = read_transcripts(sf_dir).map_batches(tokenize_batch,
                                                 batch_format="pyarrow")
    mentions = detect_mentions(turns, CFG) \
        .select_columns(["term", "conv_id"])

    def part(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby(["term", "conv_id"], as_index=False).size() \
            .rename(columns={"size": "c"})
        return out.astype({"c": "int64"})

    tc = bucketed_sum(mentions.map_batches(part, batch_format="pandas"),
                      ["term", "conv_id"], ["c"], num_buckets=8)

    # total conv count: dedupe on conv_id, then count
    convs = bucketed_sum(
        read_transcripts(sf_dir).select_columns(["conv_id"])
        .map_batches(lambda df: df.drop_duplicates()
                     .assign(one=np.int64(1)),
                     batch_format="pandas"),
        ["conv_id"], ["one"], num_buckets=8)
    n_convs = sum(
        int(r["k"]) for r in collect_rows(convs.map_batches(
            lambda df: pd.DataFrame({"k": [np.int64(len(df))]}),
            batch_format="pandas")))

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        df = df.groupby(["term", "conv_id"], as_index=False)["c"].sum()
        g = df.groupby("term", as_index=False).agg(
            k=("c", "size"), s=("c", "sum"),
            s2=("c", lambda x: int((x.to_numpy() ** 2).sum())))
        fano = np.floor(
            (n_convs * g["s2"].to_numpy() - g["s"].to_numpy() ** 2)
            .astype(np.float64)
            / (n_convs * g["s"].to_numpy()).astype(np.float64)
            * 1e6 + 0.5).astype(np.int64)
        return pd.DataFrame({
            "term": g["term"],
            "n_convs_with": g["k"].astype("int64"),
            "n_mentions": g["s"].astype("int64"),
            "fano_micro": fano})

    out_schema = pa.schema([("term", pa.string()),
                            ("n_convs_with", pa.int64()),
                            ("n_mentions", pa.int64()),
                            ("fano_micro", pa.int64())])
    return bucketed_group_apply(tc, ["term"], fold, num_buckets=4,
                                out_schema=out_schema)


_AUDIT_TABLES = ("region", "nation", "customer", "supplier", "part",
                 "orders", "lineitem", "events", "documents",
                 "embeddings")



def q_nation_revenue_share(sf_dir: str) -> "pa.Table":
    """Percent-of-parent revenue rollup: nation revenue, its integer
    micro-share of the region total, and rank within region."""
    from wsid_catalog.pipelines.relational_ext import nation_revenue_share
    return nation_revenue_share(sf_dir)


def q_customer_interorder_gap_median(sf_dir: str) -> rd.Dataset:
    """Median whole-day gap between consecutive orders per customer
    (≥ 2 orders) — int-or-dyadic-half exact on both sides."""
    from wsid_catalog.pipelines.sequences import customer_interorder_gap_median
    return customer_interorder_gap_median(sf_dir)


def q_order_price_psi(sf_dir: str) -> "pa.Table":
    """PSI drift panel for order prices between timeline halves —
    equal-width integer bins, one float chain per bin."""
    from wsid_catalog.pipelines.mlstats import order_price_psi
    return order_price_psi(sf_dir)


def q_user_survival_km(sf_dir: str) -> "pa.Table":
    """Kaplan-Meier retention curve over user lifetimes with censoring
    — log-space integer contract, no exp."""
    from wsid_catalog.pipelines.mlstats import user_survival_km
    return user_survival_km(sf_dir)


def q_corpus_lexical_panel(sf_dir: str) -> "pa.Table":
    """Vocabulary-richness panel (Yule's K, Simpson's D, TTR, hapax /
    dis legomena) over the document corpus — exact-integer contract."""
    from wsid_catalog.pipelines.mlstats import corpus_lexical_panel
    return corpus_lexical_panel(sf_dir)


def q_status_price_skewkurt(sf_dir: str) -> "pa.Table":
    """Skewness / excess-kurtosis shape panel per order status — exact
    HUGEINT-liftable power sums, one float chain per statistic."""
    from wsid_catalog.pipelines.mlstats import status_price_skewkurt
    return status_price_skewkurt(sf_dir)


def q_nb_lang_eval(sf_dir: str) -> "pa.Table":
    """Multinomial Naive Bayes langid + resubstitution accuracy —
    micro-nat integer weights, exact integer class scores."""
    from wsid_catalog.pipelines.mlstats import nb_lang_eval
    return nb_lang_eval(sf_dir)


def q_ann_rrf(sf_dir: str) -> "pa.Table":
    """Reciprocal-rank fusion of the IVF/LSH hit lists — pure-integer
    nano-unit weights, exact-top-k membership flag."""
    from wsid_catalog.pipelines.mlstats import ann_rrf
    return ann_rrf(sf_dir)


def q_daily_volume_seasonal_naive(sf_dir: str) -> "pa.Table":
    """Seasonal-naive (lag-7) backtest panel over dense daily event
    volume — exact integer errors."""
    from wsid_catalog.pipelines.sequences import daily_volume_seasonal_naive
    return daily_volume_seasonal_naive(sf_dir)


def q_embedding_dbscan(sf_dir: str) -> "pa.Table":
    """Exact DBSCAN over the embedding table — milli-int distance
    contract, block-pair eps-graph, hash-to-min core components."""
    from wsid_catalog.stages.dbscan import dbscan
    return dbscan(sf_dir)


def q_term_branching_entropy(sf_dir: str) -> "pa.Table":
    """Left/right branching entropy per gazetteer term (Harris 1955
    letter-successor variety, the termhood signal of unsupervised term
    extraction): the Shannon entropy of the distribution of the token
    IMMEDIATELY before / after each mention span within its turn —
    high both sides means the span is a free-standing unit, low means
    it is glued into a larger expression.

    Integer contract (KL-family): per (term, side, neighbour) count c
    with side total N the cell quantises to floor(c·ln(c/N)·1e6+0.5)
    micro-nats; the exact (negative) sum S finishes as
    h_micro = (−S) // N — a floor division on a non-negative numerator,
    identical in Python and DuckDB.  Boundary occurrences (span at
    turn start/end) contribute nothing on that side; multi-word spans
    use the token before span-start / after span-end.

    Scale: ONE pass over the fused tokenize stream emitting
    (term, side, neighbour) partials, one bucketed count fold, then a
    gazetteer-bounded entropy finish."""
    from wsid_ray.stages.groups import bucketed_group_apply, bucketed_sum
    from wsid_ray.stages.mentions import GazetteerMatcher
    from wsid_ray.util import list_row_indices

    matcher = GazetteerMatcher(GAZETTEER)
    turns = read_transcripts(sf_dir).map_batches(tokenize_batch,
                                                 batch_format="pyarrow")

    def nb_part(t: pa.Table) -> pa.Table:
        toks = t["tokens"].combine_chunks()
        flat = toks.flatten()
        start, m, term = matcher.match(toks)
        lens = pc.list_value_length(toks).to_numpy(
            zero_copy_only=False).astype(np.int64)
        first = np.concatenate(([0], np.cumsum(lens)))  # row offsets
        row = list_row_indices(toks)[start]
        # left neighbour: token before span start, same row; right
        # neighbour: token after span end, same row
        left = start > first[row]
        right = start + m < first[row + 1]
        nbs = pa.table({
            "term": matcher.terms.take(pa.array(
                np.concatenate((term[left], term[right])))),
            "side": pa.array(["left"] * int(left.sum())
                             + ["right"] * int(right.sum()),
                             type=pa.string()),
            "nb": flat.take(pa.array(np.concatenate(
                (start[left] - 1, (start + m)[right])))),
        })
        out = nbs.group_by(["term", "side", "nb"]).aggregate(
            [("term", "count")])
        return out.select(["term", "side", "nb", "term_count"]) \
            .rename_columns(["term", "side", "nb", "c"])

    bc = bucketed_sum(
        turns.map_batches(nb_part, batch_format="pyarrow"),
        ["term", "side", "nb"], ["c"], num_buckets=8)

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        df = df.groupby(["term", "side", "nb"],
                        as_index=False)["c"].sum()
        outs = []
        for (term, side), g in df.groupby(["term", "side"],
                                          sort=False):
            c = g["c"].to_numpy(np.int64)
            n = int(c.sum())
            s = int(np.floor(c * np.log(c.astype(np.float64) / n)
                             * 1e6 + 0.5).astype(np.int64).sum())
            outs.append({"term": term, "side": side, "n": n,
                         "n_distinct": len(c),
                         "h_micro": (-s) // n})
        return pd.DataFrame(outs)

    out_schema = pa.schema([("term", pa.string()),
                            ("side", pa.string()),
                            ("n", pa.int64()),
                            ("n_distinct", pa.int64()),
                            ("h_micro", pa.int64())])
    return bucketed_group_apply(bc, ["term", "side"], fold,
                                num_buckets=4, out_schema=out_schema)


def q_table_null_audit(sf_dir: str) -> "pa.Table":
    """Cross-table NULL audit: for every (table, column) of the ten
    corpus tables, the row count and NULL count — the ingest
    data-contract gate beside the primary-key uniqueness report (a
    clean fixture reads all zeros; any non-zero flags a broken feed).

    Scale: per-block null counts come from Arrow column METADATA
    (null_count — no data scan beyond the read itself); partials are
    one row per (block, column) and the fold is driver-small."""
    from wsid_ray.util import collect_rows

    out = {"tbl": [], "col": [], "n_rows": [], "n_nulls": []}
    for tbl in _AUDIT_TABLES:
        ds = read_parquet_clean(f"{sf_dir}/{tbl}.parquet")

        def part(t: pa.Table, _tbl=tbl) -> pd.DataFrame:
            return pd.DataFrame({
                "col": list(t.schema.names),
                "n_rows": np.int64(t.num_rows),
                "n_nulls": [np.int64(t.column(c).null_count)
                            for c in t.schema.names]})

        acc: dict[str, list[int]] = {}
        for r in collect_rows(ds.map_batches(part,
                                             batch_format="pyarrow")):
            a = acc.setdefault(r["col"], [0, 0])
            a[0] += int(r["n_rows"]); a[1] += int(r["n_nulls"])
        for c in sorted(acc):
            out["tbl"].append(tbl); out["col"].append(c)
            out["n_rows"].append(acc[c][0])
            out["n_nulls"].append(acc[c][1])
    return pa.table({
        "tbl": pa.array(out["tbl"], pa.string()),
        "col": pa.array(out["col"], pa.string()),
        "n_rows": pa.array(out["n_rows"], pa.int64()),
        "n_nulls": pa.array(out["n_nulls"], pa.int64())})


def q_doc_length_lognormal(sf_dir: str) -> "pa.Table":
    """Log-normal method-of-moments fit of doc lengths — micro-nat ln
    quantisation, exact integer moments, one sqrt float chain."""
    from wsid_catalog.pipelines.mlstats import doc_length_lognormal
    return doc_length_lognormal(sf_dir)


def q_click_purchase_xcorr(sf_dir: str) -> rd.Dataset:
    """Lagged cross-correlation of the daily click/purchase series —
    exact integer moments per lag, one shared float chain."""
    from wsid_catalog.pipelines.mlstats import click_purchase_xcorr
    return click_purchase_xcorr(sf_dir)


def q_daily_revenue_theilsen(sf_dir: str) -> "pa.Table":
    """Theil–Sen robust slope of daily revenue — median of pairwise
    slopes over the span-bounded day table."""
    from wsid_catalog.pipelines.mlstats import daily_revenue_theilsen
    return daily_revenue_theilsen(sf_dir)


def q_cooc_ppr(sf_dir: str) -> rd.Dataset:
    """Personalized PageRank per term graph — teleport mass pinned to
    the hub node; integer contract, unrolled CTE mirror."""
    from wsid_ray.stages.cooc import cooc_edges
    from wsid_catalog.stages.pagerank import ppr_micro
    from wsid_ray.pipelines.flagship import detect_mentions

    turns = read_transcripts(sf_dir).map_batches(tokenize_batch,
                                                 batch_format="pyarrow")
    mentions = detect_mentions(turns, CFG)
    edges = cooc_edges(mentions, CFG.cooc_min_count, CFG.npmi_min)
    return ppr_micro(edges, rounds=5)


def q_cooc_clustering_coef(sf_dir: str) -> rd.Dataset:
    """Local clustering coefficient per node of each term's NPMI ego
    graph — exact-integer triangle/degree ratio in micro-units."""
    from wsid_ray.stages.cooc import cooc_edges
    from wsid_catalog.stages.pagerank import clustering_coefficients
    from wsid_ray.pipelines.flagship import detect_mentions

    turns = read_transcripts(sf_dir).map_batches(tokenize_batch,
                                                 batch_format="pyarrow")
    mentions = detect_mentions(turns, CFG)
    edges = cooc_edges(mentions, CFG.cooc_min_count, CFG.npmi_min)
    return clustering_coefficients(edges)


def q_event_transition_entropy(sf_dir: str) -> "pa.Table":
    """Entropy rate of the event-type Markov chain — micro-nat cell
    quantisation over the transition counts, truncating finish."""
    from wsid_catalog.pipelines.mlstats import event_transition_entropy
    return event_transition_entropy(sf_dir)


def q_cooc_hits(sf_dir: str) -> rd.Dataset:
    """HITS hubs/authorities over the per-term NPMI ego graphs —
    L1-normalised integer power rounds (stages/pagerank.hits_micro),
    the 8th bounded-iteration algorithm with an unrolled CTE mirror."""
    from wsid_ray.stages.cooc import cooc_edges
    from wsid_catalog.stages.pagerank import hits_micro
    from wsid_ray.pipelines.flagship import detect_mentions

    turns = read_transcripts(sf_dir).map_batches(tokenize_batch,
                                                 batch_format="pyarrow")
    mentions = detect_mentions(turns, CFG)
    edges = cooc_edges(mentions, CFG.cooc_min_count, CFG.npmi_min)
    return hits_micro(edges, rounds=3)


def q_ann_rbo(sf_dir: str) -> "pa.Table":
    """Rank-biased overlap (p=0.9, truncated) of IVF/LSH vs the exact
    ranking — exact-rational integer lift, no float."""
    from wsid_catalog.pipelines.mlstats import ann_rbo
    return ann_rbo(sf_dir)


def q_source_js_divergence(sf_dir: str) -> "pa.Table":
    """Jensen-Shannon divergence between source unigram profiles —
    KL-family micro-nat quantisation, truncating integer finish."""
    from wsid_catalog.pipelines.mlstats import source_js_divergence
    return source_js_divergence(sf_dir)


def q_daily_volume_cusum(sf_dir: str) -> rd.Dataset:
    """All-integer CUSUM change-point panel over corpus daily event
    volume — dev = n·cum − rank·S, peak flag at argmax |dev|."""
    from wsid_catalog.pipelines.sequences import daily_volume_cusum
    return daily_volume_cusum(sf_dir)


def q_status_priority_cramers_v(sf_dir: str) -> "pa.Table":
    """Cramér's V effect size over the status × priority table — one
    shared float chain over the exact integer chi2_micro."""
    from wsid_catalog.pipelines.mlstats import status_priority_cramers_v
    return status_priority_cramers_v(sf_dir)


def q_user_daily_autocorr(sf_dir: str) -> rd.Dataset:
    """Lag-1 autocorrelation per user over the dense daily series —
    exact integer moments lifted by n², one float division at 6 dp."""
    from wsid_catalog.pipelines.sequences import user_daily_autocorr
    return user_daily_autocorr(sf_dir)


QUERIES = {
    # --- first: queries new this round (driver cut-off ordering) ---
    "user_daily_autocorr": q_user_daily_autocorr,
    "status_priority_cramers_v": q_status_priority_cramers_v,
    "daily_volume_cusum": q_daily_volume_cusum,
    "term_trend_mk": q_term_trend_mk,
    "source_js_divergence": q_source_js_divergence,
    "training_order_mix": q_training_order_mix,
    "ann_rbo": q_ann_rbo,
    "cooc_hits": q_cooc_hits,
    "event_transition_entropy": q_event_transition_entropy,
    "cooc_clustering_coef": q_cooc_clustering_coef,
    "cooc_ppr": q_cooc_ppr,
    "doc_length_lognormal": q_doc_length_lognormal,
    "click_purchase_xcorr": q_click_purchase_xcorr,
    "daily_revenue_theilsen": q_daily_revenue_theilsen,
    "cooc_llr": q_cooc_llr,
    "term_context_drift": q_term_context_drift,
    "term_burstiness": q_term_burstiness,
    "table_null_audit": q_table_null_audit,
    "corpus_lexical_panel": q_corpus_lexical_panel,
    "status_price_skewkurt": q_status_price_skewkurt,
    "nb_lang_eval": q_nb_lang_eval,
    "ann_rrf": q_ann_rrf,
    "daily_volume_seasonal_naive": q_daily_volume_seasonal_naive,
    "embedding_dbscan": q_embedding_dbscan,
    "term_branching_entropy": q_term_branching_entropy,
    "user_survival_km": q_user_survival_km,
    "order_price_psi": q_order_price_psi,
    "nation_revenue_share": q_nation_revenue_share,
    "customer_interorder_gap_median": q_customer_interorder_gap_median,
    "lineitem_group_ols": q_lineitem_group_ols,
    "event_value_outliers": q_event_value_outliers,
    "knn_label_accuracy": q_knn_label_accuracy,
    "embedding_silhouette": q_embedding_silhouette,
    "customer_rfm": q_customer_rfm,
    "customer_order_streaks": q_customer_order_streaks,
    "cooc_adamic_adar": q_cooc_adamic_adar,
    "doc_bm25_topk": q_doc_bm25_topk,
    "user_daily_ewma": q_user_daily_ewma,
    "purchase_nearby_clicks": q_purchase_nearby_clicks,
    "priority_price_welch": q_priority_price_welch,
    "supplier_acctbal_anova": q_supplier_acctbal_anova,
    "user_inactivity_churn": q_user_inactivity_churn,
    "status_priority_chisq": q_status_priority_chisq,
    "user_kmv_registers": q_user_kmv_registers,
    "user_kmv_estimate": q_user_kmv_estimate,
    "embedding_pq_codes": q_embedding_pq_codes,
    "pq_adc_topk": q_pq_adc_topk,
    "event_type_cosine": q_event_type_cosine,
    "doc_hash_shard_balance": q_doc_hash_shard_balance,
    "event_type_markov_stationary": q_event_type_markov_stationary,
    "user_rolling_median7": q_user_rolling_median7,
    "user_negative_types": q_user_negative_types,
    "source_lang_mi": q_source_lang_mi,
    "segment_target_encoding": q_segment_target_encoding,
    "doc_feature_hash": q_doc_feature_hash,
    "langid_confusion": q_langid_confusion,
    "langid_eval": q_langid_eval,
    "status_theil_index": q_status_theil_index,
    "session_type_pmi": q_session_type_pmi,
    "dup_source_matrix": q_dup_source_matrix,
    "priority_price_mwu": q_priority_price_mwu,
    "order_value_kruskal": q_order_value_kruskal,
    "user_churn_logrank": q_user_churn_logrank,
    "order_value_median_test": q_order_value_median_test,
    "dup_quality_auc": q_dup_quality_auc,
    "lang_source_hhi": q_lang_source_hhi,
    "doc_edit_pairs": q_doc_edit_pairs,
    "ann_ndcg": q_ann_ndcg,
    "qty_price_spearman": q_qty_price_spearman,
    "source_profile_cosine": q_source_profile_cosine,
    "customer_revenue_pareto": q_customer_revenue_pareto,
    "embedding_jl_projection": q_embedding_jl_projection,
    "cooc_assortativity": q_cooc_assortativity,
    "priority_price_ks": q_priority_price_ks,
    "langid_kappa": q_langid_kappa,
    "dup_score_lift": q_dup_score_lift,
    "qty_line_kendall": q_qty_line_kendall,
    "status_trimmed_mean": q_status_trimmed_mean,
    "orders_scd2_history": q_orders_scd2_history,
    "order_price_cume": q_order_price_cume,
    "source_token_kl": q_source_token_kl,
    "user_purchase_carry": q_user_purchase_carry,
    "customer_rolling_orders": q_customer_rolling_orders,
    "orders_profile": q_orders_profile,
    "user_event_unpivot": q_user_event_unpivot,
    "cooc_bfs_hops": q_cooc_bfs_hops,
    "cooc_stress": q_cooc_stress,
    "cooc_hub_paths": q_cooc_hub_paths,
    "term_profile_cosine": q_term_profile_cosine,
    "doc_minhash_est": q_doc_minhash_est,
    "doc_lsh_bucket_stats": q_doc_lsh_bucket_stats,
    "orders_above_cust_avg": q_orders_above_cust_avg,
    "lang_vocab_stats": q_lang_vocab_stats,
    "user_daily_dense": q_user_daily_dense,
    "event_user_skew": q_event_user_skew,
    "conv_turn_taking": q_conv_turn_taking,
    "term_trend_daily": q_term_trend_daily,
    "source_quality_rollup": q_source_quality_rollup,
    "embedding_dim_stats": q_embedding_dim_stats,
    "orders_weighted_sample_by_status": q_orders_weighted_sample_by_status,
    "doc_readability_percentile": q_doc_readability_percentile,
    "source_gram_overlap": q_source_gram_overlap,
    "user_first_last_events": q_user_first_last_events,
    "doc_token_counts_orc": q_doc_token_counts_orc,
    "user_cum_distinct_types": q_user_cum_distinct_types,
    "event_type_transitions": q_event_type_transitions,
    "dup_component_sizes": q_dup_component_sizes,
    "events_dow_hour_heatmap": q_events_dow_hour_heatmap,
    "user_median_gap": q_user_median_gap,
    "purchase_click_attribution": q_purchase_click_attribution,
    "doc_containment_pairs": q_doc_containment_pairs,
    "tool_usage_stats": q_tool_usage_stats,
    "event_type_hll_estimate": q_event_type_hll_estimate,
    "status_gini": q_status_gini,
    "token_zipf_fit": q_token_zipf_fit,
    "orders_benford": q_orders_benford,
    "conv_response_latency": q_conv_response_latency,
    "knn_self_topk": q_knn_self_topk,
    "supplier_part_stats": q_supplier_part_stats,
    "term_association_rules": q_term_association_rules,
    "source_dedup_impact": q_source_dedup_impact,
    "nation_segment_entropy": q_nation_segment_entropy,
    "key_uniqueness_report": q_key_uniqueness_report,
    "role_token_stats": q_role_token_stats,
    "user_burstiness": q_user_burstiness,
    "pack_efficiency": q_pack_efficiency,
    "session_length_histogram": q_session_length_histogram,
    "doc_tfidf_novelty": q_doc_tfidf_novelty,
    "nation_supplier_balance": q_nation_supplier_balance,
    "mutual_knn_degree": q_mutual_knn_degree,
    "lineitem_loo_stats": q_lineitem_loo_stats,
    "status_top_prices_dense": q_status_top_prices_dense,
    "user_event_types_list": q_user_event_types_list,
    "doc_normalized_dedup": q_doc_normalized_dedup,
    "doc_setsim_join": q_doc_setsim_join,
    "cooc_edge_jaccard": q_cooc_edge_jaccard,
    "cooc_kcore": q_cooc_kcore,
    "embedding_pca_projection": q_embedding_pca_projection,
    "doc_dedup_spans": q_doc_dedup_spans,
    "doc_tfidf_pair_sim": q_doc_tfidf_pair_sim,
    "embedding_label_centroids": q_embedding_label_centroids,
    "customer_cohort_retention": q_customer_cohort_retention,
    "order_price_percentile_cont": q_order_price_percentile_cont,
    "doc_chunks": q_doc_chunks,
    "orders_cdc_merge": q_orders_cdc_merge,
    "daily_trailing_active_users": q_daily_trailing_active_users,
    "embedding_nearest_centroid": q_embedding_nearest_centroid,
    "doc_pipeline_spans_summary": q_doc_pipeline_spans_summary,
    "monthly_revenue_yoy": q_monthly_revenue_yoy,
    "status_revenue_share": q_status_revenue_share,
    "doc_readability": q_doc_readability,
    "lineitem_mad": q_lineitem_mad,
    "orders_weighted_sample": q_orders_weighted_sample,
    "lineitem_winsorized": q_lineitem_winsorized,
    "orders_skyline": q_orders_skyline,
    "order_brand_pairs": q_order_brand_pairs,
    "user_event_gaps": q_user_event_gaps,
    "user_event_path": q_user_event_path,
    "user_top_event_type": q_user_top_event_type,
    "customer_order_event_recon": q_customer_order_event_recon,
    "repeat_buyers": q_repeat_buyers,
    "orders_cube": q_orders_cube,
    "lineitem_moments": q_lineitem_moments,
    "part_name_fuzzy_pairs": q_part_name_fuzzy_pairs,
    "doc_entropy": q_doc_entropy,
    "lapsed_buyers": q_lapsed_buyers,
    "nation_region_cross": q_nation_region_cross,
    "order_price_rank": q_order_price_rank,
    "lineitem_price_zscore": q_lineitem_price_zscore,
    "embedding_quantize_stats": q_embedding_quantize_stats,
    "session_conversions": q_session_conversions,
    "cooc_degree_stats": q_cooc_degree_stats,
    "order_next_event": q_order_next_event,
    "all_actor_keys": q_all_actor_keys,
    "region_revenue": q_region_revenue,
    "lang_top_tokens": q_lang_top_tokens,
    "knn_quantized_topk": q_knn_quantized_topk,
    "knn_quantized_recall": q_knn_quantized_recall,
    "cooc_pagerank": q_cooc_pagerank,
    "cooc_triangles": q_cooc_triangles,
    "user_activity_deciles": q_user_activity_deciles,
    "status_priciest_order": q_status_priciest_order,
    "cooc_pagerank_weighted": q_cooc_pagerank_weighted,
    "user_event_neighbors": q_user_event_neighbors,
    "lineitem_cube3": q_lineitem_cube3,
    # --- then: queries absent from CORRECTNESS_r03 (driver cut-off) ---
    "event_recent_activity": q_event_recent_activity,
    "events_rollup": q_events_rollup,
    "user_event_pivot": q_user_event_pivot,
    "doc_simhash": q_doc_simhash,
    "simhash_near_dup": q_simhash_near_dup,
    "doc_dup_components": q_doc_dup_components,
    "doc_minhash_candidates": q_doc_minhash_candidates,
    "doc_jaccard_pairs": q_doc_jaccard_pairs,
    "doc_near_dup_drops": q_doc_near_dup_drops,
    "doc_near_dup_drops_checkpointed": q_doc_near_dup_drops_checkpointed,
    "doc_embed_near_dup_checkpointed": q_doc_embed_near_dup_checkpointed,
    "doc_near_dup_keep_longest": q_doc_near_dup_keep_longest,
    "knn_cosine_topk": q_knn_cosine_topk,
    "knn_ivf_topk": q_knn_ivf_topk,
    "knn_lsh_topk": q_knn_lsh_topk,
    "knn_recall": q_knn_recall,
    "embedding_near_dup": q_embedding_near_dup,
    "kmeans_clusters": q_kmeans_clusters,
    "semdedup_drops": q_semdedup_drops,
    "doc_embed_near_dup": q_doc_embed_near_dup,
    "user_sessions": q_user_sessions,
    "media_features": q_media_features,
    "orders_by_status": q_orders_by_status,
    "pricing_summary": q_pricing_summary,
    "top_customers": q_top_customers,
    "events_hourly": q_events_hourly,
    "segment_revenue": q_segment_revenue,
    "top_orders_per_status": q_top_orders_per_status,
    "status_distinct_custkeys": q_status_distinct_custkeys,
    "order_price_quantiles": q_order_price_quantiles,
    "order_price_histo": q_order_price_histo,
    "order_price_ntile": q_order_price_ntile,
    "user_hll_registers": q_user_hll_registers,
    "flagged_lineitem_revenue": q_flagged_lineitem_revenue,
    "segment_customers_without_orders": q_segment_customers_without_orders,
    "corpus_heavy_hitters": q_corpus_heavy_hitters,
    "event_type_hll_registers": q_event_type_hll_registers,
    "events_hopping": q_events_hopping,
    "doc_token_counts": q_doc_token_counts,
    "doc_token_counts_jsonl": q_doc_token_counts_jsonl,
    "doc_quality_csv": q_doc_quality_csv,
    "doc_quality": q_doc_quality,
    "doc_quality_filter": q_doc_quality_filter,
    "doc_split_counts": q_doc_split_counts,
    "doc_fingerprint": q_doc_fingerprint,
    "doc_langid": q_doc_langid,
    "doc_langid_model": q_doc_langid_model,
    "doc_exact_substrings": q_doc_exact_substrings,
    "doc_tfidf_embedding": q_doc_tfidf_embedding,
    "doc_tfidf_near_dup": q_doc_tfidf_near_dup,
    "bpe_merges": q_bpe_merges,
    "doc_bpe_subword_counts": q_doc_bpe_subword_counts,
    "bpe_fertility_by_lang": q_bpe_fertility_by_lang,
    "doc_training_order": q_doc_training_order,
    "doc_repetition": q_doc_repetition,
    "doc_stratified_sample": q_doc_stratified_sample,
    "bigram_lm_score": q_bigram_lm_score,
    "doc_ppl_buckets": q_doc_ppl_buckets,
    "mixture_plan": q_mixture_plan,
    "source_unigram_kl": q_source_unigram_kl,
    "source_keyness_topk": q_source_keyness_topk,
    "source_neardup_matrix": q_source_neardup_matrix,
    "doc_blocklist_hits": q_doc_blocklist_hits,
    "corpus_f2_sketch": q_corpus_f2_sketch,
    "doc_weighted_sample_topk": q_doc_weighted_sample_topk,
    "corpus_shard_manifest": q_corpus_shard_manifest,
    "source_distinct_ngrams": q_source_distinct_ngrams,
    "doc_winnowing": q_doc_winnowing,
    "winnow_overlap_pairs": q_winnow_overlap_pairs,
    "winnow_containment": q_winnow_containment,
    "doc_mixture_resample": q_doc_mixture_resample,
    "doc_importance_sample": q_doc_importance_sample,
    "doc_pack_sequences": q_doc_pack_sequences,
    "doc_tfidf_topk": q_doc_tfidf_topk,
    "asof_user_order": q_asof_user_order,
    "event_props_k_stats": q_event_props_k_stats,
    "customer_running_total": q_customer_running_total,
    "doc_pii_redact": q_doc_pii_redact,
    "doc_dup_ngrams": q_doc_dup_ngrams,
    "doc_url_domains": q_doc_url_domains,
    "doc_pipeline_summary": q_doc_pipeline_summary,
    "doc_decontaminate": q_doc_decontaminate,
}
