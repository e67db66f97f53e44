"""G4/§2.5 — per-term sense induction (SHUFFLE 3, key=term).

``cooc_edges.groupby("term").map_groups(induce_group)``: each group is one
term's pruned NPMI graph (vocab-bounded, small by construction — the
corpus-scale work already collapsed into counts), clustered with the
deterministic Chinese Whispers in wsid_ray.cw, emitted long-form as
(term, sense_id, token, weight) rows.

Partitioning assumption: all edges of a term land in one group — guaranteed
by the groupby shuffle.  Terms are the parallelism unit here; with a large
gazetteer this stage scales out per term, and a single pathological term
graph is still vocab²-bounded, not corpus-bounded.
"""

from __future__ import annotations

import pandas as pd
import ray.data as rd

from ..config import SENSE_TOP_K
from ..cw import cluster_graph, sense_vectors


def induce_group(g: pd.DataFrame, top_k: int = SENSE_TOP_K,
                 algo: str = "cw") -> pd.DataFrame:
    term = g["term"].iloc[0]
    edges = list(zip(g["w"], g["v"], g["npmi"].astype(float)))
    nodes = sorted(set(g["w"]) | set(g["v"]))
    if not nodes:
        return pd.DataFrame(columns=["term", "sense_id", "token", "weight"])
    cluster_of = cluster_graph(nodes, edges, seed_key=term, algo=algo)
    vecs = sense_vectors(cluster_of, edges, top_k=top_k)
    rows = []
    for sense_id in sorted(vecs):
        for token, weight in sorted(vecs[sense_id].items(),
                                    key=lambda kv: (-kv[1], kv[0])):
            rows.append((term, sense_id, token, weight))
    out = pd.DataFrame(rows, columns=["term", "sense_id", "token", "weight"])
    out["sense_id"] = out["sense_id"].astype("int32")
    out["weight"] = out["weight"].astype("float64")
    return out


def induce_senses(edges: rd.Dataset, algo: str = "cw") -> rd.Dataset:
    """cooc_edges -> sense_inventory (term, sense_id, token, weight).

    Bucketed shuffle keyed hash(term): all edges of a term land in one
    bucket; the per-bucket fn loops over its terms (cheap — each term
    graph is vocab-bounded)."""
    import pandas as pd

    from .groups import bucketed_group_apply

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        outs = [induce_group(g, algo=algo)
                for _, g in df.groupby("term", sort=True)]
        if not outs:
            return pd.DataFrame(columns=["term", "sense_id", "token",
                                         "weight"])
        return pd.concat(outs, ignore_index=True)

    return bucketed_group_apply(edges, ["term"], per_bucket)


def sense_modularity(edges: rd.Dataset, algo: str = "cw") -> rd.Dataset:
    """Clustering-quality metric for the induced senses: weighted
    Newman modularity of each term's CW partition over its NPMI ego
    graph, computed in EXACT integers — with micro-unit edge weights
    wq, m = Σwq, per-cluster intra sum e_c and weighted degree d_c,
    Q·4m² = Σ_c (4m·e_c − d_c²) is a pure integer identity; the only
    float is the final division, 6 dp half-up.

    Same partitioning as induce_senses (all of a term's edges in one
    bucket, term graphs vocab-bounded); labels come from the identical
    cluster_graph call, so this metric scores exactly the shipped
    inventory's partition."""
    from ..cw import cluster_graph, quantize_weight
    from .groups import bucketed_group_apply

    def per_term(g: pd.DataFrame) -> list:
        term = g["term"].iloc[0]
        e = list(zip(g["w"], g["v"], g["npmi"].astype(float)))
        nodes = sorted(set(g["w"]) | set(g["v"]))
        if not nodes:
            return []
        lab = cluster_graph(nodes, e, seed_key=term, algo=algo)
        m = 0
        e_c: dict[int, int] = {}
        d_c: dict[int, int] = {}
        for u, v, w in e:
            q = quantize_weight(w)
            m += q
            cu, cv = lab[u], lab[v]
            d_c[cu] = d_c.get(cu, 0) + q
            d_c[cv] = d_c.get(cv, 0) + q
            if cu == cv:
                e_c[cu] = e_c.get(cu, 0) + q
        if m == 0:
            return []
        qnum = sum(4 * m * e_c.get(c, 0) - d * d
                   for c, d in d_c.items())
        import numpy as np
        q6 = float(np.floor(float(qnum) / float(4 * m * m) * 1e6
                            + 0.5) / 1e6)
        return [(term, len(nodes), len(set(lab.values())), m, q6)]

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for _, g in df.groupby("term", sort=True):
            rows.extend(per_term(g))
        out = pd.DataFrame(rows, columns=["term", "n_nodes", "n_senses",
                                          "m_micro", "q6"])
        return out.astype({"n_nodes": "int64", "n_senses": "int64",
                           "m_micro": "int64", "q6": "float64"})

    import pyarrow as pa
    out_schema = pa.schema([("term", pa.string()),
                            ("n_nodes", pa.int64()),
                            ("n_senses", pa.int64()),
                            ("m_micro", pa.int64()),
                            ("q6", pa.float64())])
    return bucketed_group_apply(edges, ["term"], per_bucket,
                                out_schema=out_schema)
