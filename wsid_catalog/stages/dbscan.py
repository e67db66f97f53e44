"""Exact distributed DBSCAN over the embedding table (Ester et al.
1996) — density clustering with core / border / noise roles, the
classic complement to the integer-Lloyd k-means and the SemDeDup
centroid passes.

Determinism contract (hash-exact vs the DuckDB mirror in
wsid_catalog.entry.oracle_sql): coordinates quantise once to MILLI-unit
int64 (floor(x*1000+0.5), the silhouette contract) and every pairwise
squared distance is an EXACT integer (block matmuls run in float64,
which is exact for these magnitudes: |q| <= ~2000, dim-bounded dot
products << 2^53).  A point is CORE when its closed eps-neighbourhood
(|N_eps| including itself) reaches min_pts; clusters are the connected
components of the core-core eps-graph labelled by their smallest
vec_id; a BORDER point attaches to the smallest cluster id among its
core neighbours (the deterministic resolution of DBSCAN's classic
border-tie ambiguity); everything else is NOISE (cluster -1).

Distributed shape (100 TB design point): eps-pairs come from the same
block-pair triangle join as stages/knn.near_dup_pairs — O(n^2/B^2)
compute per task, O(n*B) movement, no driver collect; degrees and
border attachment are bucketed folds over the edge list; cluster
labelling is stages/components.connected_components (hash-to-min
rounds with a distributed convergence checksum).  At open scale the
quadratic pair stage is the bottleneck by design — swap in the LSH /
IVF bucket prefilter exactly as the ANN family does, at the cost of
exactness.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

DBSCAN_EPS_MILLI = 1150
DBSCAN_MIN_PTS = 4


def _quantise(t: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    vids = t["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    X = np.asarray(t["embedding"].to_pylist(), dtype=np.float64)
    Q = np.floor(X * 1000.0 + 0.5)
    return vids, Q


def eps_pairs(embeddings: rd.Dataset, eps_milli: int,
              num_blocks: int = 8) -> rd.Dataset:
    """(va < vb, d2) integer squared-milli-distance pairs within eps —
    block-pair triangle join, one task per unordered block pair."""
    B = num_blocks
    eps2 = int(eps_milli) ** 2

    def explode(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        n = t.num_rows
        vids = t["vec_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        blk = vids % B
        other = np.tile(np.arange(B, dtype=np.int64), n)
        blk_rep = np.repeat(blk, B)
        take = pa.array(np.repeat(np.arange(n), B), type=pa.int64())
        return pa.table({
            "pi": pa.array(np.minimum(blk_rep, other), pa.int32()),
            "pj": pa.array(np.maximum(blk_rep, other), pa.int32()),
            "blk": pa.array(blk_rep, pa.int32()),
            "vec_id": pc.take(t["vec_id"], take),
            "embedding": pc.take(t["embedding"], take)})

    exploded = embeddings.map_batches(explode, batch_format="pyarrow")

    def pairs_in_bucket(df: pd.DataFrame) -> pd.DataFrame:
        out_a, out_b, out_d = [], [], []
        for (pi, pj), g in df.groupby(["pi", "pj"], sort=True):
            g = g.drop_duplicates("vec_id")
            left = g[g["blk"] == pi]
            if not len(left) or (pi == pj and len(left) < 2):
                continue
            ids_l = left["vec_id"].to_numpy().astype(np.int64)
            L = np.floor(np.asarray(left["embedding"].tolist(),
                                    dtype=np.float64) * 1000.0 + 0.5)
            ln2 = (L * L).sum(1)
            if pi == pj:
                D2 = ln2[:, None] + ln2[None, :] - 2.0 * (L @ L.T)
                ia, ib = np.nonzero((D2 <= eps2)
                                    & (ids_l[:, None] < ids_l[None, :]))
                va, vb, d2 = ids_l[ia], ids_l[ib], D2[ia, ib]
            else:
                right = g[g["blk"] == pj]
                if not len(right):
                    continue
                ids_r = right["vec_id"].to_numpy().astype(np.int64)
                R = np.floor(np.asarray(right["embedding"].tolist(),
                                        dtype=np.float64)
                             * 1000.0 + 0.5)
                rn2 = (R * R).sum(1)
                D2 = ln2[:, None] + rn2[None, :] - 2.0 * (L @ R.T)
                ia, ib = np.nonzero(D2 <= eps2)
                va = np.minimum(ids_l[ia], ids_r[ib])
                vb = np.maximum(ids_l[ia], ids_r[ib])
                d2 = D2[ia, ib]
            out_a.append(va); out_b.append(vb); out_d.append(d2)
        if not out_a:
            return pd.DataFrame({"va": pd.Series(dtype="int64"),
                                 "vb": pd.Series(dtype="int64"),
                                 "d2": pd.Series(dtype="int64")})
        return pd.DataFrame({
            "va": np.concatenate(out_a).astype(np.int64),
            "vb": np.concatenate(out_b).astype(np.int64),
            "d2": np.concatenate(out_d).astype(np.int64)})

    from wsid_ray.stages.groups import bucketed_group_apply
    return bucketed_group_apply(
        exploded, ["pi", "pj"], pairs_in_bucket, num_buckets=8,
        out_schema=pa.schema([("va", pa.int64()), ("vb", pa.int64()),
                              ("d2", pa.int64())]))


def dbscan(sf_dir: str, eps_milli: int = DBSCAN_EPS_MILLI,
           min_pts: int = DBSCAN_MIN_PTS) -> pa.Table:
    """(vec_id, role, cluster) for every vector — role in
    {core, border, noise}; cluster = smallest member vec_id of the
    core component (-1 for noise)."""
    from wsid_ray.util import collect_rows
    from wsid_catalog.stages.knn import read_embeddings
    from wsid_catalog.stages.components import connected_components

    emb = read_embeddings(sf_dir)
    edges = eps_pairs(emb, eps_milli).materialize()

    # closed-neighbourhood degree per node (both edge directions + self)
    def deg_part(df: pd.DataFrame) -> pd.DataFrame:
        s = pd.concat([df["va"], df["vb"]], ignore_index=True)
        out = s.value_counts().rename_axis("vec_id") \
            .reset_index(name="deg")
        return out.astype({"vec_id": "int64", "deg": "int64"})

    from wsid_ray.stages.groups import bucketed_sum
    deg_rows = collect_rows(bucketed_sum(
        edges.map_batches(deg_part, batch_format="pandas"),
        ["vec_id"], ["deg"], num_buckets=8))
    deg_of = {int(r["vec_id"]): int(r["deg"]) for r in deg_rows}

    all_ids = sorted(
        int(v) for r in collect_rows(
            emb.select_columns(["vec_id"]))
        for v in [r["vec_id"]])
    core = {v for v in all_ids if deg_of.get(v, 0) + 1 >= min_pts}

    # core-core component labels via the distributed hash-to-min CC
    core_ref = set(core)

    core_arr = np.fromiter(sorted(core_ref), dtype=np.int64,
                           count=len(core_ref))

    def core_edges_fn(t: pa.Table) -> pa.Table:
        va = t["va"].to_numpy(zero_copy_only=False).astype(np.int64)
        vb = t["vb"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = np.isin(va, core_arr) & np.isin(vb, core_arr)
        return pa.table({
            "u": pa.array(np.char.zfill(
                va[keep].astype("U12"), 12), pa.string()),
            "v": pa.array(np.char.zfill(
                vb[keep].astype("U12"), 12), pa.string())})

    cc_rows = collect_rows(connected_components(
        edges.map_batches(core_edges_fn, batch_format="pyarrow")))
    cluster_of = {int(r["node"]): int(r["comp"]) for r in cc_rows}
    for v in core:           # isolated cores form singleton clusters
        cluster_of.setdefault(v, v)

    # border attachment: smallest cluster id among core neighbours —
    # one vectorised min-fold over the (edge-list-bounded) pair table
    ed = pd.DataFrame(collect_rows(edges.select_columns(["va", "vb"])))
    border_of: dict[int, int] = {}
    if len(ed):
        sym = pd.DataFrame({
            "x": pd.concat([ed["va"], ed["vb"]], ignore_index=True)
            .astype("int64"),
            "y": pd.concat([ed["vb"], ed["va"]], ignore_index=True)
            .astype("int64")})
        sym = sym[~sym["x"].isin(core_arr) & sym["y"].isin(core_arr)]
        if len(sym):
            sym["c"] = sym["y"].map(cluster_of)
            border_of = sym.groupby("x")["c"].min().astype(int) \
                .to_dict()

    roles, clusters = [], []
    for v in all_ids:
        if v in core_ref:
            roles.append("core"); clusters.append(cluster_of[v])
        elif v in border_of:
            roles.append("border"); clusters.append(border_of[v])
        else:
            roles.append("noise"); clusters.append(-1)
    return pa.table({
        "vec_id": pa.array(all_ids, pa.int64()),
        "role": pa.array(roles, pa.string()),
        "cluster": pa.array(clusters, pa.int64())})
