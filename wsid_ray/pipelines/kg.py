"""KG query operators over the deduped triple store (round-4 batch E).

The flagship emits a canonical `(subj, pred, obj, conv_id, turn_idx,
ts)` triple table (stages/triples.py, first-provenance dedup).  A KG
consumer then *queries* that store — path traversal, entity degree
profiles, predicate co-occurrence.  These are the SPARQL-shaped reads
re-expressed as bucketed Ray Data plans; all three are SQL-checked via
the shared unrolled triple-chain mirror (__ray_entry__._sql_triples).

Scale notes: the triple store after dedup is entity-vocabulary bounded
(far smaller than the corpus), but none of these plans relies on that —
joins are bucketed on the join key, partial aggregates fold before
every shuffle, and no operator materializes the store on the driver.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from ..config import PRED_CO_MENTION
from ..stages.groups import bucketed_group_apply, bucketed_sum, partial_count
from ..util import collect_rows


def _co_mention_edges(triples: rd.Dataset) -> rd.Dataset:
    """Deduped entity→entity edges (pred == co_mentioned_with).

    Pyarrow map (VERDICT r04 item 6): arrow blocks stay schema-typed even
    at zero rows, so empty triple blocks no longer trip Ray's pandas
    object-column size estimator on the fused chain."""
    import pyarrow.compute as pc

    def fn(t: pa.Table) -> pa.Table:
        return t.filter(pc.equal(t["pred"], PRED_CO_MENTION)) \
                .select(["subj", "obj"])

    return triples.map_batches(fn, batch_format="pyarrow")


def kg_two_hop_paths(triples: rd.Dataset) -> rd.Dataset:
    """Two-hop path query a→mid→c over the deduped co-mention edges
    (a ≠ c): per (subj, obj) endpoint pair the number of distinct
    intermediate entities and the lexicographically first one — the
    basic SPARQL `?a p ?m . ?m p ?c` traversal.

    Distributed shape: both edge sides shuffle ONCE, bucketed on the
    join key `mid` (e1 by obj, e2 by subj), so each bucket holds every
    edge incident to its mids; the within-bucket cross product per mid
    emits (a, c, mid) rows that are globally distinct by construction
    (a mid lives in exactly one bucket and edges are pre-deduped), and
    the final fold on (a, c) counts them — no all-pairs stage, fan-out
    is bounded by per-mid degree (skew = a hub entity; at 100 TB cap
    per-mid degree upstream or salt the hub's bucket)."""
    edges = _co_mention_edges(triples)

    # one typed-arrow map per side (was three chained pandas lambdas —
    # empty object-dtype frames spammed Ray's size estimator)
    def side_fn(side: int):
        def fn(t: pa.Table) -> pa.Table:
            blank = pa.array([""] * t.num_rows, type=pa.string())
            sides = pa.array(np.full(t.num_rows, side, dtype=np.int64))
            if side == 0:
                return pa.table({"mid": t["obj"], "side": sides,
                                 "a": t["subj"], "c": blank})
            return pa.table({"mid": t["subj"], "side": sides,
                             "a": blank, "c": t["obj"]})
        return fn

    tagged = edges.map_batches(side_fn(0), batch_format="pyarrow").union(
        edges.map_batches(side_fn(1), batch_format="pyarrow"))

    def expand(df: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for _, g in df.groupby("mid", sort=False):
            la = g.loc[g["side"] == 0, "a"].drop_duplicates()
            rc = g.loc[g["side"] == 1, "c"].drop_duplicates()
            if la.empty or rc.empty:
                continue
            prod = pd.MultiIndex.from_product(
                [la, rc]).to_frame(index=False)
            prod.columns = ["a", "c"]
            prod = prod[prod["a"] != prod["c"]]
            if len(prod):
                outs.append(prod.assign(mid=g["mid"].iloc[0]))
        if not outs:
            return pd.DataFrame({"a": pd.Series(dtype=object),
                                 "c": pd.Series(dtype=object),
                                 "mid": pd.Series(dtype=object)})
        return pd.concat(outs, ignore_index=True)

    paths = bucketed_group_apply(
        tagged, ["mid"], expand,
        out_schema=pa.schema([("a", pa.string()), ("c", pa.string()),
                              ("mid", pa.string())]))

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["a", "c"], as_index=False).agg(
            n_paths=("mid", "size"), first_mid=("mid", "min"))
        g["n_paths"] = g["n_paths"].astype("int64")
        return g

    out_schema = pa.schema([("a", pa.string()), ("c", pa.string()),
                            ("n_paths", pa.int64()),
                            ("first_mid", pa.string())])
    return bucketed_group_apply(paths, ["a", "c"], fold,
                                out_schema=out_schema)


def kg_entity_degree(triples: rd.Dataset) -> rd.Dataset:
    """Per-entity degree profile over the deduped store: outgoing
    triple count, distinct outgoing predicates, incoming co-mention
    count, and distinct co-mention neighbours (union of both
    directions) — the node summary an entity-resolution or KG-quality
    pass ranks on.

    Partial per-batch dedup/count rows union into ONE bucketed fold on
    the entity; neighbour sets stay per-bucket (an entity's rows
    co-locate) and only distinct pairs ship."""

    # Both partial producers emit conformed Arrow (single map per branch,
    # typed empties — VERDICT r04 item 6): pandas work stays inside.
    tagged_schema = pa.schema([
        ("ent", pa.string()), ("kind", pa.int64()), ("n_out", pa.int64()),
        ("pred_list", pa.string()), ("nb", pa.string()),
        ("is_in", pa.int64())])
    cols = tagged_schema.names

    def out_rows(t: pa.Table) -> pa.Table:
        from .. import schemas
        df = t.select(["subj", "pred"]).to_pandas()
        g = df.groupby("subj", as_index=False).agg(n_out=("pred", "size"))
        g["n_out"] = g["n_out"].astype("int64")
        preds = df.drop_duplicates()
        g = g.merge(preds.groupby("subj", as_index=False)
                    .agg(pred_list=("pred", lambda s: "\x00".join(sorted(set(s))))),
                    on="subj")
        g = g.rename(columns={"subj": "ent"}).assign(
            kind=np.int64(0), nb="", is_in=np.int64(0))[cols]
        return schemas.conform(pa.Table.from_pandas(g, preserve_index=False),
                               tagged_schema)

    # neighbour rows: entity-valued edges only, both directions
    def nb_rows(t: pa.Table) -> pa.Table:
        from .. import schemas
        df = t.select(["subj", "pred", "obj"]).to_pandas()
        e = df[df["pred"] == PRED_CO_MENTION]
        a = pd.DataFrame({"ent": e["subj"], "nb": e["obj"],
                          "is_in": np.int64(0)})
        b = pd.DataFrame({"ent": e["obj"], "nb": e["subj"],
                          "is_in": np.int64(1)})
        g = pd.concat([a, b], ignore_index=True).drop_duplicates(
            subset=["ent", "nb", "is_in"]).assign(
                kind=np.int64(1), n_out=np.int64(0), pred_list="")[cols]
        return schemas.conform(pa.Table.from_pandas(g, preserve_index=False),
                               tagged_schema)

    tagged = triples.map_batches(out_rows, batch_format="pyarrow").union(
        triples.map_batches(nb_rows, batch_format="pyarrow"))

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for ent, g in df.groupby("ent", sort=True):
            o = g[g["kind"] == 0]
            n_out = int(o["n_out"].sum())
            preds: set[str] = set()
            for pl in o["pred_list"]:
                if pl:
                    preds.update(pl.split("\x00"))
            nbg = g[g["kind"] == 1].drop_duplicates(
                subset=["nb", "is_in"])
            n_in = int((nbg["is_in"] == 1).sum())
            rows.append((ent, n_out, len(preds), n_in,
                         int(nbg["nb"].nunique())))
        out = pd.DataFrame(rows, columns=["ent", "n_out", "n_preds_out",
                                          "n_in_co", "n_neighbors"])
        return out.astype({"n_out": "int64", "n_preds_out": "int64",
                           "n_in_co": "int64", "n_neighbors": "int64"})

    out_schema = pa.schema([("ent", pa.string()), ("n_out", pa.int64()),
                            ("n_preds_out", pa.int64()),
                            ("n_in_co", pa.int64()),
                            ("n_neighbors", pa.int64())])
    return bucketed_group_apply(tagged, ["ent"], fold,
                                out_schema=out_schema)


def kg_pred_cooc(triples: rd.Dataset) -> rd.Dataset:
    """Predicate co-occurrence: for every unordered predicate pair
    (pa < pb), how many distinct subjects carry both — the schema-
    discovery signal for predicate clustering / ontology inference.

    Distinct (subj, pred) partials bucket on subj (each subject's pair
    expansion is local, predicates-per-subject is tiny); pair partial
    counts fold in one final bucketed sum keyed on the pair."""
    def sp_fn(t: pa.Table) -> pa.Table:
        return t.select(["subj", "pred"]).group_by(
            ["subj", "pred"]).aggregate([])

    sp = triples.map_batches(sp_fn, batch_format="pyarrow")

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        df = df.drop_duplicates()
        outs = {"pred_a": [], "pred_b": []}
        for _, g in df.groupby("subj", sort=False):
            ps = sorted(set(g["pred"]))
            for i in range(len(ps)):
                for j in range(i + 1, len(ps)):
                    outs["pred_a"].append(ps[i])
                    outs["pred_b"].append(ps[j])
        out = pd.DataFrame(outs)
        out = out.groupby(["pred_a", "pred_b"], as_index=False).size() \
            .rename(columns={"size": "n_subjects"})
        out["n_subjects"] = out["n_subjects"].astype("int64")
        return out

    partials = bucketed_group_apply(
        sp, ["subj"], pairs,
        out_schema=pa.schema([("pred_a", pa.string()),
                              ("pred_b", pa.string()),
                              ("n_subjects", pa.int64())]))
    return bucketed_sum(partials, ["pred_a", "pred_b"], ["n_subjects"])


def kg_inverse_preds(triples: rd.Dataset) -> pa.Table:
    """Inverse/symmetric predicate detection over the deduped store
    (the RDFS/OWL `owl:inverseOf` mining signal): for every ORDERED
    predicate pair (p, q), the number of triple pairs where (s, p, o)
    and (o, q, s) both exist, the support base n_a = |triples with
    pred p|, and inv_score_micro = n_pairs * 1e6 // n_a — the diagonal
    (p == q) scores predicate SYMMETRY, off-diagonal cells score
    inversehood.  The full pred x pred grid is emitted (zeros
    included) so the result set is deterministic.

    Distributed shape: both sides of the reversed-endpoint self-join
    shuffle ONCE, bucketed on the unordered endpoint key; within a
    bucket the per-(s,o) pred-pair cross product is degree-bounded
    (the store is deduped on (s,p,o)); (pred_a, pred_b) partials fold
    to a preds^2-bounded finish on the driver."""
    def side_fn(side: int):
        def fn(t: pa.Table) -> pa.Table:
            sides = pa.array(np.full(t.num_rows, side, dtype=np.int64))
            if side == 0:
                return pa.table({"k1": t["subj"], "k2": t["obj"],
                                 "side": sides, "pred": t["pred"]})
            return pa.table({"k1": t["obj"], "k2": t["subj"],
                             "side": sides, "pred": t["pred"]})
        return fn

    tagged = triples.map_batches(side_fn(0), batch_format="pyarrow") \
        .union(triples.map_batches(side_fn(1), batch_format="pyarrow"))

    def expand(df: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for _, g in df.groupby(["k1", "k2"], sort=False):
            pa_ = g.loc[g["side"] == 0, "pred"]
            pb_ = g.loc[g["side"] == 1, "pred"]
            if pa_.empty or pb_.empty:
                continue
            prod = pd.MultiIndex.from_product(
                [pa_.to_numpy(), pb_.to_numpy()],
                names=["pred_a", "pred_b"]).to_frame(index=False)
            outs.append(prod)
        if not outs:
            return pd.DataFrame({"pred_a": pd.Series(dtype=object),
                                 "pred_b": pd.Series(dtype=object),
                                 "n_pairs": pd.Series(dtype="int64")})
        out = pd.concat(outs, ignore_index=True)
        out = out.groupby(["pred_a", "pred_b"], as_index=False).size() \
            .rename(columns={"size": "n_pairs"})
        return out.astype({"n_pairs": "int64"})

    pair_rows = collect_rows(bucketed_sum(
        bucketed_group_apply(
            tagged, ["k1", "k2"], expand,
            out_schema=pa.schema([("pred_a", pa.string()),
                                  ("pred_b", pa.string()),
                                  ("n_pairs", pa.int64())])),
        ["pred_a", "pred_b"], ["n_pairs"]))
    base_rows = collect_rows(partial_count(
        triples.select_columns(["pred"]), ["pred"], out_name="n"))

    n_of = {r["pred"]: int(r["n"]) for r in base_rows}
    pairs = {(r["pred_a"], r["pred_b"]): int(r["n_pairs"])
             for r in pair_rows}
    preds = sorted(n_of)
    out = {"pred_a": [], "pred_b": [], "n_pairs": [], "n_a": [],
           "inv_score_micro": []}
    for p in preds:
        for q in preds:
            k = pairs.get((p, q), 0)
            out["pred_a"].append(p); out["pred_b"].append(q)
            out["n_pairs"].append(k); out["n_a"].append(n_of[p])
            out["inv_score_micro"].append(k * 1_000_000 // n_of[p])
    return pa.table({
        "pred_a": pa.array(out["pred_a"], pa.string()),
        "pred_b": pa.array(out["pred_b"], pa.string()),
        "n_pairs": pa.array(out["n_pairs"], pa.int64()),
        "n_a": pa.array(out["n_a"], pa.int64()),
        "inv_score_micro": pa.array(out["inv_score_micro"],
                                    pa.int64())})
