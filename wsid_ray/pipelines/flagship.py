"""The flagship KG-construction pipeline (SURVEY.md §3.3) as one plan.
``run_flagship`` runs it over the whole input with no sink;
``pipelines/checkpointed.py`` runs the same steps per input shard.

The read is the job's one Ray Data execution.  Every later step passes
the pinned Arrow blocks, with their row counts, through raw Ray tasks
(``stages/groups.Blocks``: ``map_blocks`` and the bucketed shuffle), so
no step pays the streaming executor's per-execution latency; a Dataset
is built only for the two returned artifacts, the linked mentions and
the triples.

1. ``read_mentions``: read → tokenize (M1/M2) → detect mentions + windows
   (A1/M4), one fused operator, so each input file is read once; its
   blocks are pinned (``Blocks.of``).
2. ``fit_model`` over the pinned mentions (text-free, ~0.6 rows/turn):
   per-block window counts (one task per block), then one term-keyed
   shuffle whose reduces sum the counts, weigh them (NPMI, M5/M6) and
   run Chinese Whispers; the driver collects the model as one Arrow
   table pair (the sense inventory, plus the pruned edges with
   ``expand_cooc``) and broadcasts it.
3. ``linker``: disambiguate + entity-link (A2/A3) the same pinned
   mentions, one task per block reading the broadcast scorer; both later
   steps read the linked blocks.
4. ``canon_map``: per-block distinct (entity_id, kb_id) pairs, then one
   kb_id-keyed shuffle whose reduces name each entity by the smallest
   entity_id sharing its kb_id (D3: the entity–KB graph is a star forest,
   ``stages/unionfind.py``); then two shuffles: one keyed on
   (conv_id, turn_idx) whose reduces emit every triple of their turns
   (M8), and the (subj, pred, obj) dedup (D1).
"""

from __future__ import annotations

from dataclasses import dataclass

import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from ..config import DEFAULT_CONFIG, PipelineConfig
from ..sources.transcripts import read_transcripts
from ..stages.disambig import disambiguate
from ..stages.groups import Blocks, map_blocks
from ..stages.induce import fit_senses, model_tables
from ..stages.tokenize import tokenize_batch
from ..stages.triples import dedup_triples, triples_from_mentions
from ..stages.unionfind import canonicalize


@dataclass
class FlagshipArtifacts:
    sense_inventory: pa.Table
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


# expand_cooc collects the pruned NPMI edges with the inventory and
# broadcasts them to every scorer: above this many fit rows that state
# would not fit one scorer (stages/disambig.py scale note).
EXPAND_STATE_MAX_ROWS = 2_000_000


def fit_model(mentions, cfg: PipelineConfig):
    """mentions (a Dataset or ``Blocks``) -> (inventory, edges): the
    fitted model as an ``INVENTORY_SCHEMA`` table and, with
    ``expand_cooc``, an ``EDGE_SCHEMA`` table of the pruned NPMI edges
    (else None).

    The per-block count partials feed one term-keyed shuffle whose
    reduces count, weigh and cluster (stages/induce.fit_senses).  The
    driver collects only what the reduces emit: the inventory, plus the
    pruned edges with ``expand_cooc``, refused above
    ``EXPAND_STATE_MAX_ROWS`` from the row counts the reduces report
    before any row is collected.
    """
    from ..util import collect_table

    model = fit_senses(mentions, cfg)
    if cfg.expand_cooc and model.num_rows > EXPAND_STATE_MAX_ROWS:
        raise ValueError(
            "expand_cooc: the fit's inventory and pruned NPMI edges exceed "
            f"EXPAND_STATE_MAX_ROWS ({EXPAND_STATE_MAX_ROWS}); shard "
            "inventories by hash(term) or raise npmi_min")
    return model_tables(collect_table(model), cfg.expand_cooc)


def linker(inventory: pa.Table, edges: pa.Table | None,
           cfg: PipelineConfig):
    """Broadcast the fitted model once; returns ``link(mentions)``, the
    linked mentions of the kind given (``disambiguate``).  Every ``link``
    call shares one scorer, built on the driver by the first."""
    inv_ref = ray.put(inventory)
    edge_ref = ray.put(edges) if cfg.expand_cooc else None

    def link(mentions):
        return disambiguate(mentions, inv_ref, edges_ref=edge_ref,
                            expand_gamma=cfg.expand_gamma)
    return link


def _kb_pairs(t: pa.Table) -> pa.Table:
    keep = pc.and_(pc.greater_equal(t["sense_id"], 0),
                   pc.not_equal(t["kb_id"], ""))
    t = t.filter(keep)
    return t.select(["entity_id", "kb_id"]).group_by(
        ["entity_id", "kb_id"]).aggregate([])


def entity_kb_edges(linked):
    """linked mentions -> their (entity_id, kb_id) pairs, distinct per
    block only (a Dataset or ``Blocks``, as given): canonicalize's
    reduces drop the duplicates."""
    return map_blocks(_kb_pairs, linked)


def canon_map(linked) -> dict[str, str]:
    """linked mentions -> {entity_id: canon_id}.  Raises ValueError for an
    entity linked to two kb_ids: the canon step assumes each entity has
    one (``stages/unionfind.py``)."""
    from ..util import collect_rows
    canon: dict[str, str] = {}
    for r in collect_rows(canonicalize(entity_kb_edges(linked))):
        if r["entity_id"] in canon:
            raise ValueError(f"entity {r['entity_id']!r} is linked to two "
                             "kb_ids; canon_map needs one kb_id per entity")
        canon[r["entity_id"]] = r["canon_id"]
    return canon


def run_flagship(sf_dir_or_scale: str,
                 cfg: PipelineConfig = DEFAULT_CONFIG,
                 files: list[str] | None = None) -> FlagshipArtifacts:
    """The plan over the whole input as one shard, with no sink."""
    mentions = Blocks.of(read_mentions(sf_dir_or_scale, cfg, files))
    inventory, edges = fit_model(mentions, cfg)
    linked = linker(inventory, edges, cfg)(mentions)
    canon = canon_map(linked)
    return FlagshipArtifacts(
        sense_inventory=inventory,
        linked_mentions=linked.dataset(),
        canon_map=canon,
        triples=dedup_triples(triples_from_mentions(linked, canon)).dataset(),
    )
