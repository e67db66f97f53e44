"""The flagship KG-construction pipeline (SURVEY.md §3.3) as one plan.
``run_flagship`` runs it over the whole input with no sink;
``pipelines/checkpointed.py`` runs the same steps per input shard.

1. ``read_mentions``: read → tokenize (M1/M2) → detect mentions + windows
   (A1/M4), one fused operator, so each input file is read once.
2. ``fit_model`` over the pinned mentions (text-free, ~0.6 rows/turn):
   distributed window counts (SHUFFLE 2), then NPMI + Chinese Whispers
   (M5/M6) on the driver → sense inventory broadcast.
3. ``linker``: disambiguate + entity-link (A2/A3) the same pinned
   mentions; the linked stream is pinned, as both later steps read it.
4. ``canon_map`` (union-find, D3), then triple assembly + dedup (M8/D1).
"""

from __future__ import annotations

from dataclasses import dataclass

import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from ..config import DEFAULT_CONFIG, PipelineConfig
from ..sources.transcripts import read_transcripts
from ..stages.cooc import cooc_edges
from ..stages.disambig import disambiguate, inventory_from_rows
from ..stages.induce import induce_senses
from ..stages.tokenize import tokenize_batch
from ..stages.triples import dedup_triples, triples_from_mentions
from ..stages.unionfind import canonicalize
from ..util import compact_blocks


@dataclass
class FlagshipArtifacts:
    sense_inventory_rows: list[dict]
    linked_mentions: rd.Dataset
    canon_map: dict[str, str]
    triples: rd.Dataset


def detect_mentions(turns: rd.Dataset, cfg: PipelineConfig) -> rd.Dataset:
    # batch_size stays UNSET: an explicit batch_size on any map blocks
    # Ray Data's read fusion and round-trips the decoded corpus through
    # the object store once per pass (~6 GB/pass at sf0.6, measured).
    # Unset, the plan fuses to ReadParquet->tokenize->detect(->score);
    # memory per task is bounded at the read (sources/transcripts.py).
    from ..stages.mentions import detect_batch
    return turns.map_batches(
        detect_batch,
        fn_kwargs=dict(window_size=cfg.window_size,
                       gazetteer=cfg.gazetteer),
        batch_format="pyarrow")


def read_mentions(sf_dir_or_scale: str, cfg: PipelineConfig,
                  files: list[str] | None = None) -> rd.Dataset:
    """Step 1: read → tokenize → detect, one fused operator per file."""
    turns = read_transcripts(sf_dir_or_scale, files=files).map_batches(
        tokenize_batch, batch_format="pyarrow")
    return detect_mentions(turns, cfg)


def induce_inventory(mentions: rd.Dataset, cfg: PipelineConfig) -> list[dict]:
    """mentions -> sense inventory rows via the fully distributed path
    (NPMI map + per-term groupby Chinese Whispers)."""
    from ..util import collect_rows
    edges = cooc_edges(mentions, cfg.cooc_min_count, cfg.npmi_min)
    return collect_rows(induce_senses(edges, algo=cfg.induce_algo))


# Above this many aggregated (term,w,v) rows the model no longer belongs
# on the driver and the distributed NPMI+induce path takes over.
DRIVER_FIT_THRESHOLD = 2_000_000


def fit_inventory(mentions: rd.Dataset, cfg: PipelineConfig) -> list[dict]:
    return fit_model(mentions, cfg)[0]


def fit_model(mentions: rd.Dataset, cfg: PipelineConfig):
    """mentions -> (sense inventory rows, {term: {(w,v): npmi}}), size-aware.

    Window counting is always distributed (partial per batch + one
    shuffle in aggregate_counts).  The aggregated counts are vocab-bounded
    (|gazetteer|·|window vocab|²), a model rather than data: below
    DRIVER_FIT_THRESHOLD rows NPMI + Chinese Whispers run on the driver
    through the sequential oracle's own formulas (wsid_ray.oracle
    npmi_edges/induce), above it the distributed induce path runs
    (tests/test_flagship.py::test_fit_paths_agree).

    Gate ordering: the path decision comes from a distributed
    ``counts.count()``; the driver collects counts only on the proven-small
    branch.  The expand_cooc edge-map collect has the same guard and
    raises above the threshold, where the broadcast expansion state would
    not fit one scorer (stages/disambig.py scale note).
    """
    from collections import Counter

    from ..oracle import induce as oracle_induce
    from ..oracle import npmi_edges as oracle_npmi
    from ..stages.cooc import aggregate_counts, cooc_edges_from_counts
    from ..util import collect_rows

    counts = aggregate_counts(mentions).materialize()
    if counts.count() > DRIVER_FIT_THRESHOLD:
        # distributed fit: the pinned counts feed both the NPMI weighting
        # (for induce) and the expansion edge maps
        edges = cooc_edges_from_counts(counts, cfg.cooc_min_count,
                                       cfg.npmi_min)
        edge_maps = None
        if cfg.expand_cooc:
            edges = edges.materialize()
            if edges.count() > DRIVER_FIT_THRESHOLD:
                raise ValueError(
                    "expand_cooc: pruned NPMI edge table exceeds "
                    f"DRIVER_FIT_THRESHOLD ({DRIVER_FIT_THRESHOLD}); shard "
                    "inventories by hash(term) or raise npmi_min")
            edge_maps = edge_maps_from_rows(collect_rows(edges))
        return (collect_rows(induce_senses(edges, algo=cfg.induce_algo)),
                edge_maps)
    totals: Counter = Counter()
    unis: Counter = Counter()
    pairs: Counter = Counter()
    for r in collect_rows(counts):
        if r["v"] != "":
            pairs[(r["term"], r["w"], r["v"])] = r["n"]
        elif r["w"] != "":
            unis[(r["term"], r["w"])] = r["n"]
        else:
            totals[r["term"]] = r["n"]
    edges = oracle_npmi(totals, unis, pairs, cfg)
    inventory = oracle_induce(edges, cfg)
    out = []
    for term in sorted(inventory):
        for sense_id in sorted(inventory[term]):
            for token, weight in sorted(inventory[term][sense_id].items(),
                                        key=lambda kv: (-kv[1], kv[0])):
                out.append({"term": term, "sense_id": sense_id,
                            "token": token, "weight": weight})
    edge_maps = {t: {(w, v): npmi for w, v, npmi in es}
                 for t, es in edges.items()}
    return out, edge_maps


def edge_maps_from_rows(rows: list[dict]) -> dict:
    """(term, w, v, npmi) rows -> {term: {(w, v): npmi}}."""
    edge_maps: dict = {}
    for r in rows:
        edge_maps.setdefault(r["term"], {})[(r["w"], r["v"])] = r["npmi"]
    return edge_maps


def linker(inventory_rows: list[dict], edge_maps: dict | None,
           cfg: PipelineConfig):
    """Broadcast the fitted model once; returns ``link(mentions)``, the
    linked mentions pinned with ``compact_blocks`` (not bare materialize,
    so no empty block reaches the downstream maps)."""
    inv_ref = ray.put(inventory_from_rows(inventory_rows))
    edge_ref = ray.put(edge_maps) if cfg.expand_cooc else None

    def link(mentions: rd.Dataset) -> rd.Dataset:
        return compact_blocks(disambiguate(
            mentions, inv_ref, edge_maps_ref=edge_ref,
            expand_gamma=cfg.expand_gamma, state_rows=len(inventory_rows)))
    return link


def entity_kb_edges(linked: rd.Dataset) -> rd.Dataset:
    def distinct_pairs(t: pa.Table) -> pa.Table:
        keep = pc.and_(pc.greater_equal(t["sense_id"], 0),
                       pc.not_equal(t["kb_id"], ""))
        t = t.filter(keep)
        return t.select(["entity_id", "kb_id"]).group_by(
            ["entity_id", "kb_id"]).aggregate([])
    pairs = linked.map_batches(distinct_pairs, batch_format="pyarrow")
    # global distinct (partial per batch above, final below)
    from ..stages.groups import distinct
    return distinct(pairs, ["entity_id", "kb_id"])


def canon_map(linked: rd.Dataset) -> dict[str, str]:
    """linked mentions -> {entity_id: canon_id}."""
    from ..util import collect_rows
    rows = collect_rows(canonicalize(entity_kb_edges(linked)))
    return {r["entity_id"]: r["canon_id"] for r in rows}


def run_flagship(sf_dir_or_scale: str,
                 cfg: PipelineConfig = DEFAULT_CONFIG,
                 files: list[str] | None = None) -> FlagshipArtifacts:
    """The plan over the whole input as one shard, with no sink."""
    mentions = compact_blocks(read_mentions(sf_dir_or_scale, cfg, files))
    inventory_rows, edge_maps = fit_model(mentions, cfg)
    linked = linker(inventory_rows, edge_maps, cfg)(mentions)
    canon = canon_map(linked)
    return FlagshipArtifacts(
        sense_inventory_rows=inventory_rows,
        linked_mentions=linked,
        canon_map=canon,
        triples=dedup_triples(triples_from_mentions(linked, canon)),
    )
