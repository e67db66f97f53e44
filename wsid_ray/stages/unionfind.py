"""D3 — distributed union-find / connected components (SURVEY.md §2.7).

BASELINE.json:6 mandates canonicalisation "via a distributed union-find
(groupby-aggregate merge rounds)".  Implemented join-free as the
hash-to-min connected-components algorithm (Rastogi et al., "Finding
Connected Components in Map-Reduce in Logarithmic Rounds", ICDE 2013 —
public algorithm): the cluster state is an edge list (node, member);
each round groups by node, computes m = min(members ∪ {node}) and re-emits
(m, x) and (x, m) for every member x.  Converges in O(log d) rounds; each
round is one groupby shuffle + one dedup shuffle, with a driver-side
early-exit on a stable checksum of the edge set.

Every node ends up connected to its component's minimum node, which serves
as the component label.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import ray
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
    from .groups import distinct
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
    from .groups import bucketed_group_apply
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


def driver_union_find(pairs: list[tuple[str, str]]) -> dict[str, str]:
    """Path-compressed union-find on the driver — the small-graph fast
    path.  {node: component_min_node}."""
    parent: dict[str, str] = {}

    def find(x: str) -> str:
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return {n: find(n) for n in list(parent)}


# Above this many edges the merge graph no longer belongs on the driver
# and the groupby-aggregate rounds take over.
DRIVER_EDGE_THRESHOLD = 1_000_000


def canonicalize(entity_kb_edges,
                 driver_threshold: int = DRIVER_EDGE_THRESHOLD):
    """(entity_id, kb_id) edges -> canon_map (entity_id, canon_id), as a
    Dataset or ``Blocks``, the kind of ``entity_kb_edges``.

    canon_id = lexicographically smallest *entity* node of the component
    (kb: nodes link components but are not canonical ids themselves).

    Size-aware plan: the distinct same-entity edge set is |entities|-
    bounded, orders of magnitude smaller than the corpus.  Below
    ``driver_threshold`` edges the O(α) sequential union-find on the
    driver wins outright (the distributed rounds pay ≥2 shuffles each);
    above it, the hash-to-min groupby-aggregate rounds
    (``connected_components``) run — same result, proven by
    tests/test_unionfind.py on both paths.  The edge count is the row
    count of the executed (or pinned) edges, with no pass of its own.
    """
    from ..util import collect_rows
    from .groups import Blocks, like, shuffle
    edges = Blocks.of(entity_kb_edges)
    if edges.num_rows <= driver_threshold:
        pairs = [(r["entity_id"], r["kb_id"]) for r in collect_rows(edges)]
        comp_of = driver_union_find(pairs)
        comps: dict[str, list[str]] = {}
        for node, comp in comp_of.items():
            comps.setdefault(comp, []).append(node)
        ent_col, canon_col = [], []
        for members in comps.values():
            entities = sorted(n for n in members if not n.startswith("kb:"))
            for e in entities:
                ent_col.append(e)
                canon_col.append(entities[0])
        canon = pa.table({
            "entity_id": pa.array(ent_col, type=pa.string()),
            "canon_id": pa.array(canon_col, type=pa.string()),
        })
        return like(entity_kb_edges,
                    Blocks([ray.put(canon)], [canon.num_rows]))

    comps = connected_components(
        edges.dataset().map_batches(
            lambda t: pa.table({"u": t["entity_id"], "v": t["kb_id"]}),
            batch_format="pyarrow"))

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        # vectorised: drop kb nodes, canon = min entity per component
        df = df[~df["node"].str.startswith("kb:")]
        canon = df.groupby("comp", sort=False)["node"].transform("min")
        return pd.DataFrame({"entity_id": df["node"].to_numpy(),
                             "canon_id": canon.to_numpy()})

    return like(entity_kb_edges, shuffle(
        Blocks.of(comps), ["comp"], per_bucket,
        out_schema=pa.schema([("entity_id", pa.string()),
                              ("canon_id", pa.string())])))
