"""G4/§2.5 — the fit: count → NPMI → sense induction in the reduce of one
term-keyed shuffle.

``fit_senses`` sends the per-block count partials (stages/cooc.py)
through one shuffle keyed on ``term``.  Each reduce sums its terms'
counts, weighs and prunes their pairs (``cooc.npmi_pairs``, from the
bucket's own totals and unigrams), and clusters each term's NPMI graph
with the deterministic Chinese Whispers (or HyperLex) of wsid_ray.cw.
It emits one long table: the sense inventory rows (term, sense_id,
w = token, v = '', weight), plus the pruned edges (term, -1, w, v,
weight = npmi) when ``expand_cooc`` is on, the way
``count_windows_batch`` carries three count kinds in one table.
``model_tables`` splits it into the fitted model that every later layer
reads: an ``INVENTORY_SCHEMA`` table and an ``EDGE_SCHEMA`` table.

Partitioning assumption: all rows of a term land in one bucket —
guaranteed by the hash shuffle.  Terms are the parallelism unit here;
with a large gazetteer this stage scales out per term, and a single
term's graph is vocab²-bounded, not corpus-bounded (one hot term still
fills a whole reduce).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from ..config import PipelineConfig
from ..cw import cluster_graph, quantize_weight, sense_vectors
from .cooc import npmi_pairs, sum_counts, window_partials
from .groups import Blocks, bucketed_group_apply, shuffle

FIT_SCHEMA = pa.schema([("term", pa.string()), ("sense_id", pa.int32()),
                        ("w", pa.string()), ("v", pa.string()),
                        ("weight", pa.float64())])
# The fitted model: the sense inventory, rows sorted by (term, sense_id,
# weight desc, token), and the pruned NPMI edges (w < v).
INVENTORY_SCHEMA = pa.schema([("term", pa.string()),
                              ("sense_id", pa.int32()),
                              ("token", pa.string()),
                              ("weight", pa.float64())])
EDGE_SCHEMA = pa.schema([("term", pa.string()), ("w", pa.string()),
                         ("v", pa.string()), ("npmi", pa.float64())])


def inventory_from_rows(rows) -> pa.Table:
    """A table or a list of (term, sense_id, token, weight) dicts -> an
    ``INVENTORY_SCHEMA`` table (a stored int64 ``sense_id`` is cast)."""
    if not isinstance(rows, pa.Table):
        rows = pa.Table.from_pylist(list(rows), schema=INVENTORY_SCHEMA)
    return rows.select(INVENTORY_SCHEMA.names).cast(INVENTORY_SCHEMA)


def model_tables(fit: pa.Table | None, expand_cooc: bool):
    """The fit's long table (``FIT_SCHEMA``; None when it is empty) ->
    (inventory, edges with ``expand_cooc``, else None)."""
    fit = FIT_SCHEMA.empty_table() if fit is None else fit
    is_edge = pc.not_equal(fit["v"], "")
    inv = fit.filter(pc.invert(is_edge))
    inventory = pa.table([inv["term"], inv["sense_id"], inv["w"],
                          inv["weight"]], schema=INVENTORY_SCHEMA).sort_by(
        [("term", "ascending"), ("sense_id", "ascending"),
         ("weight", "descending"), ("token", "ascending")])
    if not expand_cooc:
        return inventory, None
    e = fit.filter(is_edge)
    return inventory, pa.table([e["term"], e["w"], e["v"], e["weight"]],
                               schema=EDGE_SCHEMA)


def _term_graph(g: pd.DataFrame):
    """One term's pruned edges -> (term, sorted nodes, [(w, v, npmi)])."""
    edges = list(zip(g["w"], g["v"], g["npmi"].astype(float)))
    return g["term"].iloc[0], sorted(set(g["w"]) | set(g["v"])), edges


def induce_group(g: pd.DataFrame, top_k: int, algo: str,
                 iterations: int) -> list[tuple]:
    """One term's pruned edges -> (term, sense_id, token, weight) rows,
    by sense_id, then weight desc, then token."""
    term, nodes, edges = _term_graph(g)
    cluster_of = cluster_graph(nodes, edges, seed_key=term, algo=algo,
                               iterations=iterations)
    vecs = sense_vectors(cluster_of, edges, top_k=top_k)
    return [(term, sense_id, token, weight)
            for sense_id in sorted(vecs)
            for token, weight in sorted(vecs[sense_id].items(),
                                        key=lambda kv: (-kv[1], kv[0]))]


def fit_senses(mentions, cfg: PipelineConfig) -> Blocks:
    """mentions (a Dataset or ``Blocks``) -> the fit's long table
    (``FIT_SCHEMA``, module docstring) as ``Blocks``: one term-keyed
    shuffle over the count partials."""
    def fit_bucket(df: pd.DataFrame) -> pd.DataFrame:
        edges = npmi_pairs(sum_counts(df), cfg.cooc_min_count, cfg.npmi_min)
        rows = [(t, s, tok, "", x)
                for _, g in edges.groupby("term", sort=True)
                for t, s, tok, x in induce_group(
                    g, cfg.sense_top_k, cfg.induce_algo, cfg.cw_iterations)]
        if cfg.expand_cooc:
            rows += zip(edges["term"], [-1] * len(edges), edges["w"],
                        edges["v"], edges["npmi"])
        return pd.DataFrame(rows, columns=FIT_SCHEMA.names)

    return shuffle(Blocks.of(window_partials(mentions)), ["term"],
                   fit_bucket, out_schema=FIT_SCHEMA)


def sense_modularity(edges: rd.Dataset, algo: str = "cw") -> rd.Dataset:
    """Clustering-quality metric for the induced senses: weighted
    Newman modularity of each term's CW partition over its NPMI ego
    graph, computed in EXACT integers — with micro-unit edge weights
    wq, m = Σwq, per-cluster intra sum e_c and weighted degree d_c,
    Q·4m² = Σ_c (4m·e_c − d_c²) is a pure integer identity; the only
    float is the final division, 6 dp half-up.

    Same partitioning as fit_senses (all of a term's edges in one
    bucket, term graphs vocab-bounded); labels come from the identical
    cluster_graph call, so this metric scores exactly the shipped
    inventory's partition."""
    def per_term(g: pd.DataFrame) -> list:
        term, nodes, e = _term_graph(g)
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

    out_schema = pa.schema([("term", pa.string()),
                            ("n_nodes", pa.int64()),
                            ("n_senses", pa.int64()),
                            ("m_micro", pa.int64()),
                            ("q6", pa.float64())])
    return bucketed_group_apply(edges, ["term"], per_bucket,
                                out_schema=out_schema)
