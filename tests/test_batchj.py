"""Round-5 batch J: lag-1 autocorrelation, Cramér's V, CUSUM
change-point, Mann-Kendall trend, JS divergence, training-order mix,
RBO, HITS."""

import duckdb
import numpy as np
import pandas as pd

SF = "/root/testdata/sf0.001"


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    return df.sort_values(list(df.columns), kind="mergesort",
                          ignore_index=True)


def _duck(sql: str, tables=("documents",)) -> pd.DataFrame:
    con = duckdb.connect()
    try:
        for t in tables:
            con.sql(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{SF}/{t}.parquet')")
        return con.sql(sql).df()
    finally:
        con.close()


def test_autocorr_parity_and_recompute():
    import wsid_catalog.entry as E
    from wsid_catalog.pipelines.sequences import user_daily_autocorr
    got = _canon(user_daily_autocorr(SF).to_pandas())
    exp = _canon(_duck(E.oracle_sql()["user_daily_autocorr"],
                       tables=("events",)))
    got["ac1_micro"] = got["ac1_micro"].astype("float64")
    exp["ac1_micro"] = exp["ac1_micro"].astype("float64")
    pd.testing.assert_frame_equal(got, exp)
    # direct float recompute of the textbook acf(1) per user
    ev = pd.read_parquet(f"{SF}/events.parquet",
                         columns=["user_id", "ts"])
    ev["day"] = ev["ts"].dt.floor("D")
    byu = ev.groupby(["user_id", "day"]).size()
    checked = 0
    for uid, g in byu.groupby(level=0):
        days = pd.date_range(g.index.get_level_values(1).min(),
                             g.index.get_level_values(1).max(),
                             freq="D")
        x = g.droplevel(0).reindex(days, fill_value=0) \
            .to_numpy(dtype=np.float64)
        row = got[got["user_id"] == uid].iloc[0]
        assert row["n_days"] == len(x)
        d = x - x.mean()
        den = (d * d).sum()
        if len(x) < 2 or den == 0:
            assert pd.isna(row["ac1_micro"])
            continue
        r1 = (d[1:] * d[:-1]).sum() / den
        assert abs(row["ac1_micro"] / 1e6 - r1) < 2e-6
        checked += 1
    assert checked >= 10


def test_cramers_v_parity_and_definition():
    import wsid_catalog.entry as E
    from wsid_catalog.pipelines.mlstats import status_priority_cramers_v
    got = _canon(status_priority_cramers_v(SF).to_pandas())
    exp = _canon(_duck(E.oracle_sql()["status_priority_cramers_v"],
                       tables=("orders",)))
    pd.testing.assert_frame_equal(got, exp)
    # direct float recompute from the raw contingency table
    o = pd.read_parquet(f"{SF}/orders.parquet",
                        columns=["o_orderstatus", "o_orderpriority"])
    ct = pd.crosstab(o["o_orderstatus"], o["o_orderpriority"])
    obs = ct.to_numpy(dtype=np.float64)
    exp_cnt = np.outer(obs.sum(1), obs.sum(0)) / obs.sum()
    chi2 = ((obs - exp_cnt) ** 2 / exp_cnt).sum()
    k = min(ct.shape) - 1
    v = np.sqrt(chi2 / (obs.sum() * k))
    r = got.iloc[0]
    assert 0 <= r["v_micro"] <= 1_000_000
    assert abs(r["v_micro"] / 1e6 - v) < 2e-5


def test_cusum_parity_and_recompute():
    import wsid_catalog.entry as E
    from wsid_catalog.pipelines.sequences import daily_volume_cusum
    got = _canon(daily_volume_cusum(SF).to_pandas())
    exp = _canon(_duck(E.oracle_sql()["daily_volume_cusum"],
                       tables=("events",)))
    pd.testing.assert_frame_equal(got, exp)
    # direct integer recompute
    ev = pd.read_parquet(f"{SF}/events.parquet", columns=["ts"])
    dc = ev["ts"].dt.floor("D").value_counts().sort_index()
    c = dc.to_numpy(dtype=np.int64)
    n, s = len(c), int(c.sum())
    dev = n * np.cumsum(c) - np.arange(1, n + 1) * s
    g = got.sort_values("day", ignore_index=True)
    assert (g["dev"].to_numpy() == dev).all()
    assert g["is_peak"].sum() == 1
    assert (np.abs(g.loc[g["is_peak"] == 1, "dev"].to_numpy())
            == np.abs(dev).max()).all()


def test_mann_kendall_parity_and_recompute():
    import wsid_catalog.entry as E
    from wsid_catalog.pipelines.queries import (q_term_trend_daily,
                                                q_term_trend_mk)
    got = _canon(q_term_trend_mk(SF).to_pandas())
    sql = E.oracle_sql()["term_trend_mk"]
    # the oracle embeds the sf0.01 transcripts path; swap in SF's
    from wsid_ray.fixtures import transcripts_dir
    sql = sql.replace(transcripts_dir("sf0.01"), transcripts_dir(SF))
    exp = _canon(_duck(sql, tables=()))
    pd.testing.assert_frame_equal(got, exp)
    # direct recompute from the daily panel
    td = q_term_trend_daily(SF).to_pandas()
    checked = 0
    for term, g in td.groupby("term"):
        days = pd.date_range(g["day"].min(), g["day"].max(), freq="D")
        x = g.set_index("day")["n"].reindex(days, fill_value=0) \
            .to_numpy(dtype=np.int64)
        s = sum(int(np.sign(x[j] - x[i]))
                for i in range(len(x)) for j in range(i + 1, len(x)))
        row = got[got["term"] == term].iloc[0]
        assert row["n_days"] == len(x) and row["s_stat"] == s
        checked += 1
    assert checked >= 3


def test_js_divergence_parity_and_definition():
    import wsid_catalog.entry as E
    from wsid_catalog.pipelines.mlstats import source_js_divergence
    got = _canon(source_js_divergence(SF).to_pandas())
    exp = _canon(_duck(E.oracle_sql()["source_js_divergence"]))
    pd.testing.assert_frame_equal(got, exp)
    # direct float JS recompute per pair; symmetric, in [0, ln 2]
    d = pd.read_parquet(f"{SF}/documents.parquet",
                        columns=["source", "text"])
    cnt = {}
    for s, t in zip(d["source"], d["text"]):
        c = cnt.setdefault(s, {})
        for w in t.split():
            c[w] = c.get(w, 0) + 1
    checked = 0
    for _, r in got.head(8).iterrows():
        ca, cb = cnt[r["src_a"]], cnt[r["src_b"]]
        na, nb = sum(ca.values()), sum(cb.values())
        js = 0.0
        for w in set(ca) | set(cb):
            p, q = ca.get(w, 0) / na, cb.get(w, 0) / nb
            m = (p + q) / 2
            if p:
                js += 0.5 * p * np.log(p / m)
            if q:
                js += 0.5 * q * np.log(q / m)
        assert 0 <= r["js_micro"] <= int(np.log(2) * 1e6) + 2
        assert abs(r["js_micro"] / 1e6 - js) < 5e-5
        checked += 1
    assert checked == 8


def test_training_order_mix_parity_and_mass():
    import wsid_catalog.entry as E
    from wsid_catalog.pipelines.queries import q_training_order_mix
    got = _canon(q_training_order_mix(SF).to_pandas())
    exp = _canon(_duck(E.oracle_sql()["training_order_mix"]))
    pd.testing.assert_frame_equal(got, exp)
    d = pd.read_parquet(f"{SF}/documents.parquet", columns=["doc_id"])
    # every doc lands in exactly one batch
    assert got["n_docs"].sum() == len(d)
    assert (got["max_src_n"] <= got["n_docs"]).all()
    assert (got["n_src"] >= 1).all()
    # a hash shuffle should mix sources: full batches see many feeds
    full = got[got["n_docs"] == got["n_docs"].max()]
    assert (full["top_share_micro"] < 500_000).all()


def test_ann_rbo_parity_and_identity():
    from wsid_catalog.artifacts import ANN_K
    from wsid_catalog.pipelines.mlstats import ann_rbo
    got = ann_rbo(SF).to_pandas()
    assert (got["rbo_micro"] >= 0).all()
    assert (got["rbo_micro"] <= 1_000_000).all()
    # self-RBO identity: a list compared with itself scores exactly 1
    # under the truncated prefix form when o_d = d for every depth
    w = [9 ** (d - 1) * (2520 // d) * 10 ** (ANN_K - d)
         for d in range(1, ANN_K + 1)]
    den = 2520 * 10 ** ANN_K
    t_full = sum(d * w[d - 1] for d in range(1, ANN_K + 1))
    # truncated RBO of identical lists = 1 - p^k (p=0.9, k=10)
    assert t_full * 1_000_000 // den == int((1 - 0.9 ** ANN_K) * 1e6)
    assert (got["t_num"] <= t_full).all()
    # float recompute of the definition per row needs the rankings;
    # cross-check one method against a brute-force python RBO
    import pyarrow.parquet as pq
    from wsid_catalog.artifacts import ann_queries, ensure
    from wsid_catalog.stages.knn import knn_topk, read_embeddings
    from wsid_ray.util import collect_table
    paths = ensure(SF)
    et = collect_table(knn_topk(read_embeddings(SF),
                                ann_queries(SF), k=ANN_K)).to_pandas()
    et = et.sort_values(["query_id", "score", "vec_id"],
                        ascending=[True, False, True], kind="mergesort")
    t = pq.read_table(paths["ivf_topk"]).to_pandas()
    t = t.sort_values(["query_id", "score", "vec_id"],
                      ascending=[True, False, True], kind="mergesort")
    qid = int(et["query_id"].iloc[0])
    a = t[t["query_id"] == qid]["vec_id"].tolist()
    b = et[et["query_id"] == qid]["vec_id"].tolist()
    rbo = sum((len(set(a[:d]) & set(b[:d])) / d) * 0.1 * 0.9 ** (d - 1)
              for d in range(1, ANN_K + 1))
    row = got[(got["method"] == "ivf") & (got["query_id"] == qid)]
    assert abs(row["rbo_micro"].iloc[0] / 1e6 - rbo) < 2e-6


def test_hits_parity_and_float_band():
    import wsid_catalog.entry as E
    from wsid_ray.fixtures import transcripts_dir
    from wsid_catalog.pipelines.queries import q_cooc_hits
    got = _canon(q_cooc_hits(SF).to_pandas())
    sql = E.oracle_sql()["cooc_hits"]
    sql = sql.replace(transcripts_dir("sf0.01"), transcripts_dir(SF))
    exp = _canon(_duck(sql, tables=()))
    pd.testing.assert_frame_equal(got, exp)
    # L1 mass: per term, normalised scores sum to 1e6 minus bounded
    # truncation slack (one unit per node)
    for col in ("auth_micro", "hub_micro"):
        m = got.groupby("term")[col].agg(["sum", "count"])
        assert ((m["sum"] <= 1_000_000).all()
                and (m["sum"] >= 1_000_000 - m["count"]).all())
    # float HITS recompute band on one term's graph
    from wsid_ray.config import DEFAULT_CONFIG as CFG
    from wsid_ray.pipelines.flagship import detect_mentions
    from wsid_ray.pipelines.queries import read_transcripts
    from wsid_ray.stages.cooc import cooc_edges
    from wsid_ray.stages.tokenize import tokenize_batch
    turns = read_transcripts(SF).map_batches(tokenize_batch,
                                             batch_format="pyarrow")
    ed = cooc_edges(detect_mentions(turns, CFG), CFG.cooc_min_count,
                    CFG.npmi_min).to_pandas()
    term = got["term"].iloc[0]
    g = ed[ed["term"] == term]
    nodes = sorted(set(g["w"]) | set(g["v"]))
    idx = {n: i for i, n in enumerate(nodes)}
    A = np.zeros((len(nodes), len(nodes)))
    for w_, v_ in zip(g["w"], g["v"]):
        A[idx[w_], idx[v_]] = A[idx[v_], idx[w_]] = 1.0
    h = np.full(len(nodes), 1.0 / len(nodes))
    for _ in range(3):
        a = A @ h
        a /= a.sum()
        h = A @ a
        h /= h.sum()
    sub = got[got["term"] == term].set_index("node")
    for n in nodes:
        assert abs(sub.loc[n, "auth_micro"] / 1e6 - a[idx[n]]) < 2e-3
        assert abs(sub.loc[n, "hub_micro"] / 1e6 - h[idx[n]]) < 2e-3


def test_transition_entropy_parity_and_definition():
    import wsid_catalog.entry as E
    from wsid_catalog.pipelines.mlstats import event_transition_entropy
    got = _canon(event_transition_entropy(SF).to_pandas())
    exp = _canon(_duck(E.oracle_sql()["event_transition_entropy"],
                       tables=("events",)))
    pd.testing.assert_frame_equal(got, exp)
    ev = pd.read_parquet(f"{SF}/events.parquet",
                         columns=["user_id", "ts", "event_id",
                                  "event_type"])
    ev = ev.sort_values(["user_id", "ts", "event_id"],
                        kind="mergesort")
    ev["prev"] = ev.groupby("user_id")["event_type"].shift()
    tr = ev.dropna(subset=["prev"])
    cells = tr.groupby(["prev", "event_type"]).size()
    rt = cells.groupby(level=0).sum()
    n = cells.sum()
    h = -sum(c * np.log(c / rt[i]) for (i, _j), c in cells.items()) / n
    r = got.iloc[0]
    assert r["n_transitions"] == n
    assert abs(r["entropy_rate_micro"] / 1e6 - h) < 2e-5
    k = tr["event_type"].nunique()
    assert 0 <= r["entropy_rate_micro"] <= int(np.log(k) * 1e6) + 2


def test_clustering_coef_parity_and_recompute():
    import wsid_catalog.entry as E
    from wsid_ray.fixtures import transcripts_dir
    from wsid_catalog.pipelines.queries import q_cooc_clustering_coef
    got = _canon(q_cooc_clustering_coef(SF).to_pandas())
    sql = E.oracle_sql()["cooc_clustering_coef"]
    sql = sql.replace(transcripts_dir("sf0.01"), transcripts_dir(SF))
    exp = _canon(_duck(sql, tables=()))
    got["lcc_micro"] = got["lcc_micro"].astype("float64")
    exp["lcc_micro"] = exp["lcc_micro"].astype("float64")
    pd.testing.assert_frame_equal(got, exp)
    # direct recompute on one term via adjacency sets
    from wsid_ray.config import DEFAULT_CONFIG as CFG
    from wsid_ray.pipelines.flagship import detect_mentions
    from wsid_ray.pipelines.queries import read_transcripts
    from wsid_ray.stages.cooc import cooc_edges
    from wsid_ray.stages.tokenize import tokenize_batch
    turns = read_transcripts(SF).map_batches(tokenize_batch,
                                             batch_format="pyarrow")
    ed = cooc_edges(detect_mentions(turns, CFG), CFG.cooc_min_count,
                    CFG.npmi_min).to_pandas()
    term = got["term"].iloc[0]
    g = ed[ed["term"] == term]
    adj = {}
    for w_, v_ in zip(g["w"], g["v"]):
        adj.setdefault(w_, set()).add(v_)
        adj.setdefault(v_, set()).add(w_)
    sub = got[got["term"] == term].set_index("node")
    for n, nbrs in adj.items():
        t = sum(1 for a in nbrs for b in nbrs
                if a < b and b in adj[a])
        d = len(nbrs)
        row = sub.loc[n]
        assert row["deg"] == d and row["n_triangles"] == t
        if d < 2:
            assert pd.isna(row["lcc_micro"])
        else:
            assert row["lcc_micro"] == (2 * t * 1_000_000) \
                // (d * (d - 1))


def test_ppr_parity_and_float_band():
    import wsid_catalog.entry as E
    from wsid_ray.fixtures import transcripts_dir
    from wsid_catalog.pipelines.queries import q_cooc_ppr
    got = _canon(q_cooc_ppr(SF).to_pandas())
    sql = E.oracle_sql()["cooc_ppr"]
    sql = sql.replace(transcripts_dir("sf0.01"), transcripts_dir(SF))
    exp = _canon(_duck(sql, tables=()))
    pd.testing.assert_frame_equal(got, exp)
    # float PPR recompute band on one term graph
    from wsid_ray.config import DEFAULT_CONFIG as CFG
    from wsid_ray.pipelines.flagship import detect_mentions
    from wsid_ray.pipelines.queries import read_transcripts
    from wsid_ray.stages.cooc import cooc_edges
    from wsid_ray.stages.tokenize import tokenize_batch
    turns = read_transcripts(SF).map_batches(tokenize_batch,
                                             batch_format="pyarrow")
    ed = cooc_edges(detect_mentions(turns, CFG), CFG.cooc_min_count,
                    CFG.npmi_min).to_pandas()
    term = got["term"].iloc[0]
    g = ed[ed["term"] == term]
    nodes = sorted(set(g["w"]) | set(g["v"]))
    idx = {n: i for i, n in enumerate(nodes)}
    A = np.zeros((len(nodes), len(nodes)))
    for w_, v_ in zip(g["w"], g["v"]):
        A[idx[w_], idx[v_]] = A[idx[v_], idx[w_]] = 1.0
    deg = A.sum(1)
    seed = max(nodes, key=lambda n: (deg[idx[n]], )) \
        if len(nodes) else None
    # seed rule: deg desc, name asc
    seed = sorted(nodes, key=lambda n: (-deg[idx[n]], n))[0]
    r = np.zeros(len(nodes)); r[idx[seed]] = 1.0
    e = np.zeros(len(nodes)); e[idx[seed]] = 0.15
    for _ in range(5):
        r = e + 0.85 * (A @ (r / deg))
    sub = got[got["term"] == term].set_index("node")
    for n in nodes:
        assert abs(sub.loc[n, "ppr_micro"] / 1e6 - r[idx[n]]) < 2e-3
    # mass concentrates at the hub
    assert sub["ppr_micro"].idxmax() == seed


def test_lognormal_parity_and_recompute():
    import wsid_catalog.entry as E
    from wsid_catalog.pipelines.mlstats import doc_length_lognormal
    got = _canon(doc_length_lognormal(SF).to_pandas())
    exp = _canon(_duck(E.oracle_sql()["doc_length_lognormal"]))
    pd.testing.assert_frame_equal(got, exp)
    d = pd.read_parquet(f"{SF}/documents.parquet", columns=["n_chars"])
    lx = np.log(d["n_chars"].to_numpy(dtype=np.float64))
    r = got.iloc[0]
    assert r["n_docs"] == len(d)
    assert abs(r["mu_micro"] / 1e6 - lx.mean()) < 2e-5
    assert abs(r["sigma_micro"] / 1e6 - lx.std()) < 2e-5


def test_xcorr_parity_and_recompute():
    import wsid_catalog.entry as E
    from wsid_catalog.pipelines.mlstats import click_purchase_xcorr
    got = _canon(click_purchase_xcorr(SF).to_pandas())
    exp = _canon(_duck(E.oracle_sql()["click_purchase_xcorr"],
                       tables=("events",)))
    got["r_micro"] = got["r_micro"].astype("float64")
    exp["r_micro"] = exp["r_micro"].astype("float64")
    pd.testing.assert_frame_equal(got, exp)
    # numpy recompute at lag 0 and +1
    ev = pd.read_parquet(f"{SF}/events.parquet",
                         columns=["ts", "event_type"])
    ev = ev[ev["event_type"].isin(["click", "purchase"])]
    ev["day"] = ev["ts"].dt.floor("D")
    piv = ev.groupby(["day", "event_type"]).size().unstack(fill_value=0)
    days = pd.date_range(piv.index.min(), piv.index.max(), freq="D")
    piv = piv.reindex(days, fill_value=0)
    a = piv["click"].to_numpy(dtype=np.float64)
    b = piv["purchase"].to_numpy(dtype=np.float64)
    for lag, x, y in ((0, a, b), (1, a[:-1], b[1:])):
        r = np.corrcoef(x, y)[0, 1]
        row = got[got["lag"] == lag].iloc[0]
        assert row["n_overlap"] == len(x)
        assert abs(row["r_micro"] / 1e6 - r) < 2e-5


def test_theilsen_parity_and_recompute():
    import wsid_catalog.entry as E
    from wsid_catalog.pipelines.mlstats import daily_revenue_theilsen
    got = _canon(daily_revenue_theilsen(SF).to_pandas())
    exp = _canon(_duck(E.oracle_sql()["daily_revenue_theilsen"],
                       tables=("orders",)))
    pd.testing.assert_frame_equal(got, exp)
    o = pd.read_parquet(f"{SF}/orders.parquet",
                        columns=["o_orderdate", "o_totalprice"])
    o["day"] = o["o_orderdate"].dt.floor("D")
    o["cents"] = np.floor(o["o_totalprice"] * 100 + 0.5).astype(int)
    g = o.groupby("day")["cents"].sum().sort_index()
    d = (g.index.astype("datetime64[ns]").astype("int64")
         // 86_400_000_000_000).to_numpy()
    y = g.to_numpy(dtype=np.int64)
    sl = [(y[j] - y[i]) / (d[j] - d[i])
          for i in range(len(d)) for j in range(i + 1, len(d))]
    r = got.iloc[0]
    assert r["n_days"] == len(d)
    assert r["n_pairs"] == len(sl)
    assert abs(r["slope_micro"] / 1e6 - np.median(sl)) < 2e-6


def test_llr_parity_and_scipy_band():
    import wsid_catalog.entry as E
    from wsid_ray.fixtures import transcripts_dir
    from wsid_catalog.pipelines.queries import q_cooc_llr
    got = _canon(q_cooc_llr(SF).to_pandas())
    sql = E.oracle_sql()["cooc_llr"]
    sql = sql.replace(transcripts_dir("sf0.01"), transcripts_dir(SF))
    exp = _canon(_duck(sql, tables=()))
    pd.testing.assert_frame_equal(got, exp)
    assert (got["g2_micro"] >= 0).all() or \
        (got["g2_micro"] >= -8).all()  # per-cell rounding slack
    assert got["dice_micro"].between(0, 1_000_000).all()
    # float G2 recompute on a few edges from the raw window counts
    from wsid_ray.config import DEFAULT_CONFIG as CFG
    from wsid_ray.pipelines.flagship import detect_mentions
    from wsid_ray.pipelines.queries import read_transcripts
    from wsid_ray.stages.cooc import aggregate_counts
    from wsid_ray.stages.tokenize import tokenize_batch
    turns = read_transcripts(SF).map_batches(tokenize_batch,
                                             batch_format="pyarrow")
    counts = aggregate_counts(detect_mentions(turns, CFG)).take_all()
    tot = {r["term"]: r["n"] for r in counts if r["w"] == ""}
    uni = {(r["term"], r["w"]): r["n"] for r in counts
           if r["w"] != "" and r["v"] == ""}
    for _, r in got.head(5).iterrows():
        n, cw, cv = r["n"], uni[(r["term"], r["w"])], \
            uni[(r["term"], r["v"])]
        N = tot[r["term"]]
        g2 = 0.0
        for o, rt, ct in ((n, cw, cv), (cw - n, cw, N - cv),
                          (cv - n, N - cw, cv),
                          (N - cw - cv + n, N - cw, N - cv)):
            if o > 0:
                g2 += o * np.log(o * N / (rt * ct))
        g2 *= 2
        assert abs(r["g2_micro"] / 1e6 - g2) < 2e-5
        assert r["dice_micro"] == (2 * n * 1_000_000) // (cw + cv)


def test_context_drift_parity_and_bounds():
    import wsid_catalog.entry as E
    from wsid_ray.fixtures import transcripts_dir
    from wsid_catalog.pipelines.queries import q_term_context_drift
    got = _canon(q_term_context_drift(SF).to_pandas())
    sql = E.oracle_sql()["term_context_drift"]
    sql = sql.replace(transcripts_dir("sf0.01"), transcripts_dir(SF))
    exp = _canon(_duck(sql, tables=()))
    pd.testing.assert_frame_equal(got, exp)
    # JS bounded by ln 2 (plus per-token rounding slack)
    assert got["js_micro"].between(-8, int(np.log(2) * 1e6) + 8).all()
    assert (got["n_early"] > 0).all() and (got["n_late"] > 0).all()
    if not len(got):  # tiny fixtures may put every term in one half
        return
    # direct float JS recompute for one term from the mention stream
    from wsid_ray.config import DEFAULT_CONFIG as CFG
    from wsid_ray.pipelines.flagship import detect_mentions
    from wsid_ray.pipelines.queries import read_transcripts
    from wsid_ray.stages.tokenize import tokenize_batch
    turns = read_transcripts(SF).map_batches(tokenize_batch,
                                             batch_format="pyarrow")
    m = detect_mentions(turns, CFG) \
        .select_columns(["term", "win_tokens", "ts"]).to_pandas()
    day = (m["ts"].astype("datetime64[us]").astype("int64")
           // 86_400_000_000)
    mid = (day.min() + day.max()) // 2
    term = got["term"].iloc[0]
    sub = m[m["term"] == term]
    ce, cl = {}, {}
    for d, ws in zip(day[sub.index], sub["win_tokens"]):
        tgt = ce if d <= mid else cl
        for w in set(ws):
            tgt[w] = tgt.get(w, 0) + 1
    na, nb = sum(ce.values()), sum(cl.values())
    js = 0.0
    for w in set(ce) | set(cl):
        p, q = ce.get(w, 0) / na, cl.get(w, 0) / nb
        mm = (p + q) / 2
        if p:
            js += 0.5 * p * np.log(p / mm)
        if q:
            js += 0.5 * q * np.log(q / mm)
    row = got[got["term"] == term].iloc[0]
    assert row["n_early"] == na and row["n_late"] == nb
    assert abs(row["js_micro"] / 1e6 - js) < 5e-5


def test_term_burstiness_parity_and_recompute():
    import wsid_catalog.entry as E
    from wsid_ray.fixtures import transcripts_dir
    from wsid_catalog.pipelines.queries import q_term_burstiness
    got = _canon(q_term_burstiness(SF).to_pandas())
    sql = E.oracle_sql()["term_burstiness"]
    sql = sql.replace(transcripts_dir("sf0.01"), transcripts_dir(SF))
    exp = _canon(_duck(sql, tables=()))
    pd.testing.assert_frame_equal(got, exp)
    # direct recompute via the mention stream (zeros via total convs)
    from wsid_ray.config import DEFAULT_CONFIG as CFG
    from wsid_ray.pipelines.flagship import detect_mentions
    from wsid_ray.pipelines.queries import read_transcripts
    from wsid_ray.stages.tokenize import tokenize_batch
    turns = read_transcripts(SF)
    n_convs = turns.select_columns(["conv_id"]).to_pandas()[
        "conv_id"].nunique()
    m = detect_mentions(turns.map_batches(tokenize_batch,
                                          batch_format="pyarrow"),
                        CFG).select_columns(["term", "conv_id"]) \
        .to_pandas()
    for term, g in m.groupby("term"):
        c = g.groupby("conv_id").size().to_numpy(dtype=np.float64)
        full = np.concatenate([c, np.zeros(n_convs - len(c))])
        fano = full.var() / full.mean()
        row = got[got["term"] == term].iloc[0]
        assert row["n_convs_with"] == len(c)
        assert row["n_mentions"] == int(c.sum())
        assert abs(row["fano_micro"] / 1e6 - fano) < 2e-5


def test_null_audit_parity_and_fixture_clean():
    import wsid_catalog.entry as E
    from wsid_catalog.pipelines.queries import (_AUDIT_TABLES,
                                                q_table_null_audit)
    got = _canon(q_table_null_audit(SF).to_pandas())
    exp = _canon(_duck(E.oracle_sql()["table_null_audit"],
                       tables=_AUDIT_TABLES))
    pd.testing.assert_frame_equal(got, exp)
    # fixtures are clean; row counts match the parquet metadata
    assert (got["n_nulls"] == 0).all()
    import pyarrow.parquet as pq
    for tbl, g in got.groupby("tbl"):
        md = pq.read_metadata(f"{SF}/{tbl}.parquet")
        assert (g["n_rows"] == md.num_rows).all()


def test_km_parity_and_recompute():
    import wsid_catalog.entry as E
    from wsid_catalog.pipelines.mlstats import user_survival_km
    got = _canon(user_survival_km(SF).to_pandas())
    exp = _canon(_duck(E.oracle_sql()["user_survival_km"],
                       tables=("events",)))
    got["log_s_nano"] = got["log_s_nano"].astype("float64")
    exp["log_s_nano"] = exp["log_s_nano"].astype("float64")
    pd.testing.assert_frame_equal(got, exp)
    # direct KM recompute in float
    ev = pd.read_parquet(f"{SF}/events.parquet",
                         columns=["user_id", "ts"])
    d = ev["ts"].astype("datetime64[us]").astype("int64") \
        // 86_400_000_000
    g = pd.DataFrame({"u": ev["user_id"], "d": d}).groupby("u") \
        .agg(d0=("d", "min"), d1=("d", "max"))
    dmax = g["d1"].max()
    g["t"] = g["d1"] - g["d0"]
    g["e"] = (dmax - g["d1"]) > 7
    got = got.sort_values("t", ignore_index=True)
    at_risk, s = len(g), 1.0
    for _, row in got.iterrows():
        sub = g[g["t"] == row["t"]]
        dn, cn = int(sub["e"].sum()), int((~sub["e"]).sum())
        assert row["n_risk"] == at_risk
        assert row["n_events"] == dn and row["n_censored"] == cn
        if dn < at_risk:
            s *= (at_risk - dn) / at_risk
            if not pd.isna(row["log_s_nano"]):
                assert abs(row["log_s_nano"] / 1e9 - np.log(s)) < 1e-5
        at_risk -= dn + cn
    # mass conservation
    assert got["n_events"].sum() + got["n_censored"].sum() == len(g)


def test_psi_parity_and_recompute():
    import wsid_catalog.entry as E
    from wsid_catalog.pipelines.mlstats import order_price_psi
    got = _canon(order_price_psi(SF).to_pandas())
    exp = _canon(_duck(E.oracle_sql()["order_price_psi"],
                       tables=("orders",)))
    got["psi_term_micro"] = got["psi_term_micro"].astype("float64")
    exp["psi_term_micro"] = exp["psi_term_micro"].astype("float64")
    pd.testing.assert_frame_equal(got, exp)
    o = pd.read_parquet(f"{SF}/orders.parquet",
                        columns=["o_orderdate", "o_totalprice"])
    day = o["o_orderdate"].astype("datetime64[us]").astype("int64") \
        // 86_400_000_000
    cents = np.floor(o["o_totalprice"] * 100 + 0.5).astype(int)
    mid = (day.min() + day.max()) // 2
    mn, mx = cents.min(), cents.max()
    b = 1 + ((cents - mn) * 10) // (mx - mn + 1)
    early = b[day <= mid].value_counts()
    late = b[day > mid].value_counts()
    na, nb = early.sum(), late.sum()
    assert got["n_early"].sum() == na and got["n_late"].sum() == nb
    psi = 0.0
    for bb in range(1, 11):
        a, c = early.get(bb, 0), late.get(bb, 0)
        row = got[got["bin"] == bb].iloc[0]
        assert row["n_early"] == a and row["n_late"] == c
        if a and c:
            p, q = a / na, c / nb
            term = (p - q) * np.log(p / q)
            assert abs(row["psi_term_micro"] / 1e6 - term) < 2e-6
            psi += term
        else:
            assert pd.isna(row["psi_term_micro"])
    assert psi >= 0


def test_kg_growth_parity_and_identities():
    import __ray_entry__ as E
    from wsid_catalog.artifacts import ensure
    from wsid_ray.pipelines.queries import (q_kg_growth_daily,
                                            q_triple_support)
    got = _canon(q_kg_growth_daily(SF).to_pandas())
    sql = E.oracle_sql()["kg_growth_daily"]
    # swap the sf0.01 artifact paths for SF's
    a01, aSF = ensure("sf0.01"), ensure(SF)
    for k in ("inventory", "kb"):
        sql = sql.replace(a01[k], aSF[k])
    from wsid_ray.fixtures import transcripts_dir
    sql = sql.replace(transcripts_dir("sf0.01"), transcripts_dir(SF))
    exp = _canon(_duck(sql, tables=()))
    pd.testing.assert_frame_equal(got, exp)
    sup = q_triple_support(SF).to_pandas()
    # total growth equals the distinct-triple count, curve is monotone
    assert got["n_new"].sum() == len(sup)
    assert got["cum_triples"].iloc[-1] == len(sup)
    assert got.sort_values("day")["cum_triples"].is_monotonic_increasing


def test_nation_share_parity_and_mass():
    import wsid_catalog.entry as E
    from wsid_catalog.pipelines.relational_ext import nation_revenue_share
    got = _canon(nation_revenue_share(SF).to_pandas())
    exp = _canon(_duck(E.oracle_sql()["nation_revenue_share"],
                       tables=("lineitem", "orders", "customer",
                               "nation", "region")))
    pd.testing.assert_frame_equal(got, exp)
    # shares within a region sum to ~1e6 (minus truncation slack)
    for _, g in got.groupby("r_name"):
        assert 1_000_000 - len(g) <= g["share_micro"].sum() <= 1_000_000
        assert sorted(g["rnk"]) == list(range(1, len(g) + 1))


def test_interorder_gap_parity_and_recompute():
    import wsid_catalog.entry as E
    from wsid_catalog.pipelines.sequences import customer_interorder_gap_median
    got = _canon(customer_interorder_gap_median(SF).to_pandas())
    exp = _canon(_duck(E.oracle_sql()["customer_interorder_gap_median"],
                       tables=("orders",)))
    pd.testing.assert_frame_equal(got, exp)
    o = pd.read_parquet(f"{SF}/orders.parquet",
                        columns=["o_custkey", "o_orderdate"])
    d = o["o_orderdate"].astype("datetime64[us]").astype("int64") \
        // 86_400_000_000
    checked = 0
    for ck, g in pd.DataFrame({"c": o["o_custkey"], "d": d}) \
            .groupby("c"):
        if len(g) < 2:
            assert ck not in set(got["c_custkey"])
            continue
        gaps = np.diff(np.sort(g["d"].to_numpy()))
        row = got[got["c_custkey"] == ck].iloc[0]
        assert row["n_orders"] == len(g)
        assert row["med_gap_days"] == np.median(gaps)
        checked += 1
        if checked >= 50:
            break
    assert checked == 50
