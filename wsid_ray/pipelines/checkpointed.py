"""Resumable flagship pipeline: the plan of ``pipelines/flagship.py`` with
a checkpointed sink.  Each partition is one manifest row with lineage and
throughput, timed over the work that builds it (BASELINE.json:6).

  senses, edges, canon   global: the fit's inventory (and its pruned
                         edges with expand_cooc) and the canon map
                         (one kb_id-keyed group-by, stages/unionfind.py)
  triples/part-<k>       input shard k: linked mentions → one turn-keyed
                         shuffle that assembles every triple → one
                         within-shard dedup shuffle, subj-bucketed (S3)

A fresh run reads each input file once, one Ray Data execution per
shard.  What is pinned: each shard's mentions, as Arrow blocks
(``stages/groups.Blocks``), for the fit and disambiguation, then its
linked mentions for the canon map and its triples.  The fit and the
canon map run as raw tasks over the pinned blocks of all shards, a
shard's triple shuffles over its own, and each partition write is one
more execution.  The global partitions are one unit: if any is missing
or stale, all are rebuilt from that one read.  Once they are done, a
resumed run reads only the shards whose triple partition is missing
(anti-join J5), each as one fused read→tokenize→detect→disambiguate
execution.  A triple partition's lineage covers its shard's files
(path, size and mtime, so an input rewritten in place recomputes) and
the global lineage; partitions past the last shard of a shrunk corpus
are retired.  Conversations must not span input files (the fixture
generator writes whole conversations per file).

Cross-shard duplicate triples are possible; ``triples_dataset`` applies
the global set-semantics dedup on read, so a resumed run yields the same
triple set as an uninterrupted one.  Its read tasks report their row
counts and feed that dedup's one shuffle directly: each partition is
already distinct within its shard.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.parquet as pq
import ray.data as rd

from ..config import DEFAULT_CONFIG, PipelineConfig
from ..fixtures import transcript_files
from ..stages.groups import Blocks
from ..stages.induce import inventory_from_rows
from ..stages.triples import (dedup_triples, read_triples_partitioned,
                               triples_from_mentions,
                               write_triples_partitioned)
from ..state.checkpoint import CheckpointManager, lineage_hash
from .flagship import canon_map, fit_model, linker, read_mentions


def _count_parquet(d: str) -> int:
    return sum(pq.read_metadata(os.path.join(root, f)).num_rows
               for root, _, fs in os.walk(d)
               for f in fs if f.endswith(".parquet"))


def _stamped(files: list[str]) -> list[str]:
    """``path:size:mtime_ns`` per file, so a lineage built from them
    changes when an input is rewritten in place."""
    stamps = []
    for f in files:
        st = os.stat(f)
        stamps.append(f"{f}:{st.st_size}:{st.st_mtime_ns}")
    return stamps


def _union(parts: list[Blocks]) -> Blocks:
    return Blocks([r for p in parts for r in p.refs],
                  [n for p in parts for n in p.rows])


def run_checkpointed(sf_dir_or_scale: str, out_dir: str,
                     cfg: PipelineConfig = DEFAULT_CONFIG,
                     shard_files: int = 1) -> CheckpointManager:
    """Run (or resume) the flagship pipeline with per-partition
    checkpoints.  ``shard_files`` = input files per triple partition."""
    files = transcript_files(sf_dir_or_scale)
    ckpt = CheckpointManager(out_dir)
    global_lineage = lineage_hash(_stamped(files), cfg.content_hash())
    shards = [files[i:i + shard_files]
              for i in range(0, len(files), shard_files)]
    for k in ckpt.completed_parts("triples"):
        if k >= len(shards):
            ckpt.retire_partition("triples", k)

    def write_global(stage: str, build):
        """``build() -> (result, table)`` runs inside the partition's
        timed write; returns the result."""
        got = []

        def write(tmp):
            result, table = build()
            got.append(result)
            pq.write_table(table, os.path.join(tmp, "part-0.parquet"))
            return table.num_rows
        ckpt.write_partition(stage, 0, global_lineage, write)
        return got[0]

    linked: dict[int, Blocks] = {}
    global_stages = ["senses", "canon"] + (["edges"] if cfg.expand_cooc
                                           else [])
    if all(ckpt.is_done(s, 0, global_lineage) for s in global_stages):
        def read(stage: str) -> pa.Table:
            return pq.read_table(ckpt.part_dir(stage, 0))
        inventory = inventory_from_rows(read("senses"))
        edges = read("edges") if cfg.expand_cooc else None
        t = read("canon")
        canon = dict(zip(t["entity_id"].to_pylist(),
                         t["canon_id"].to_pylist()))
        link = linker(inventory, edges, cfg)
    else:
        mentions: list[Blocks] = []

        def fit():
            mentions.extend(Blocks.of(read_mentions("", cfg, shard))
                            for shard in shards)
            model = fit_model(_union(mentions), cfg)
            return model, model[0]
        inventory, edges = write_global("senses", fit)
        if cfg.expand_cooc:
            write_global("edges", lambda: (None, edges))
        link = linker(inventory, edges, cfg)

        def canon_pass():
            linked.update(enumerate(link(m) for m in mentions))
            mentions.clear()
            c = canon_map(_union(list(linked.values())))
            return c, pa.table({"entity_id": list(c),
                                "canon_id": list(c.values())})
        canon = write_global("canon", canon_pass)

    for k, shard in enumerate(shards):
        lineage = lineage_hash(_stamped(shard), global_lineage)
        if ckpt.is_done("triples", k, lineage):
            continue

        def write(tmp, k=k, shard=shard):
            ln = (linked.pop(k) if k in linked
                  else Blocks.of(link(read_mentions("", cfg, shard))))
            write_triples_partitioned(dedup_triples(
                triples_from_mentions(ln, canon)).dataset(), tmp)
            return _count_parquet(tmp)
        ckpt.write_partition("triples", k, lineage, write)
    return ckpt


def triples_dataset(out_dir: str) -> rd.Dataset:
    """All completed triple partitions, with the global set-semantics
    dedup applied on read (see module docstring)."""
    ckpt = CheckpointManager(out_dir)
    return dedup_triples(read_triples_partitioned([
        sorted(os.path.join(root, f)
               for root, _, fs in os.walk(ckpt.part_dir("triples", p))
               for f in fs if f.endswith(".parquet"))
        for p in ckpt.completed_parts("triples")])).dataset()
