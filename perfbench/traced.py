"""Traced run: one span per call into a layer, with counts, from here.

For every job of the workload the traced run first times one untraced
``run_flagship`` job on the same input (the reference for
``trace.overhead_s``), then calls each layer's public function in turn
and materializes between layers:

    sources.transcripts  read_transcripts(...).materialize()
    stages.tokenize      tokenize_batch over the read blocks (in-process)
    stages.mentions      detect_batch over the tokenized blocks
    stages.cooc          count_windows_batch (partials, in-process);
                         aggregate_counts(...).materialize()
    pipelines.flagship   fit_model (driver NPMI + Chinese Whispers)
    stages.disambig      disambiguate(...) materialized
    stages.unionfind     canonicalize(entity_kb_edges(linked)) collected
    stages.triples       triples_from_mentions, dedup_triples, materialized
    state.checkpoint     manifest rows and files written by CheckpointManager

Materializing between layers breaks Ray Data's read→tokenize→detect
fusion, so the traced job is slower than the untraced one by design;
``trace.overhead_s`` reports the difference.  Spans are kept in memory
and written out as JSON when the run ends.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import time
from contextlib import contextmanager

import inputs
import workloads

# stages whose spans sum to trace.sum_s (the pipeline's own layers)
PIPELINE_LAYERS = ("sources.transcripts", "stages.tokenize",
                   "stages.mentions", "stages.cooc.partial",
                   "stages.cooc.aggregate", "pipelines.flagship.fit",
                   "stages.disambig", "stages.unionfind",
                   "stages.triples.assemble", "stages.triples.dedup")


class Tracer:
    """In-memory spans: name, trace id, parent span, start/end, counts."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, trace_id: str):
        rec = {"trace": trace_id, "id": len(self.spans) + 1,
               "parent": self._stack[-1] if self._stack else None,
               "name": name, "counts": {}}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.time()
        t0 = time.perf_counter()
        try:
            yield rec["counts"]
        finally:
            rec["dur_s"] = time.perf_counter() - t0
            rec["end"] = time.time()
            self._stack.pop()

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(self.spans, fh, indent=1)


def _rows(tables) -> int:
    return sum(t.num_rows for t in tables)


def traced_job(tr: Tracer, tid: str, files: list[str]):
    """All pipeline layers over ``files``; returns (layer values, triples
    dataset, triple set)."""
    import pyarrow.compute as pc
    import ray
    import ray.data as rd

    from wsid_ray.config import DEFAULT_CONFIG as cfg
    from wsid_ray.pipelines.flagship import entity_kb_edges, fit_model
    from wsid_ray.sources.transcripts import read_transcripts
    from wsid_ray.stages.cooc import aggregate_counts, count_windows_batch
    from wsid_ray.stages.disambig import disambiguate, inventory_from_rows
    from wsid_ray.stages.mentions import detect_batch
    from wsid_ray.stages.tokenize import tokenize_batch
    from wsid_ray.stages.triples import dedup_triples, triples_from_mentions
    from wsid_ray.stages.unionfind import canonicalize
    from wsid_ray.util import collect_rows, compact_blocks

    v: dict[str, float] = {}
    span = tr.span
    with span("job", tid):
        with span("sources.transcripts", tid) as c:
            ds = read_transcripts("", files=files).materialize()
            blocks = ray.get(ds.to_arrow_refs())
            c["rows"] = v["sources.rows"] = ds.count()
            c["bytes"] = v["sources.bytes"] = ds.size_bytes()
        with span("stages.tokenize", tid) as c:
            toks = [tokenize_batch(b) for b in blocks]
        c["tokens"] = v["tokenize.tokens"] = sum(
            len(t["tokens"].combine_chunks().flatten()) for t in toks)
        with span("stages.mentions", tid) as c:
            ments = [detect_batch(t, window_size=cfg.window_size,
                                  gazetteer=cfg.gazetteer) for t in toks]
        c["rows"] = v["mentions.rows"] = _rows(ments)
        v["mentions.per_turn"] = v["mentions.rows"] / v["sources.rows"]
        with span("stages.cooc.partial", tid) as c:
            partials = [count_windows_batch(m.select(["term", "win_tokens"]))
                        for m in ments]
        c["rows"] = v["cooc.partial_rows"] = _rows(partials)
        mentions = compact_blocks(rd.from_arrow(ments))
        with span("stages.cooc.aggregate", tid) as c:
            counts = aggregate_counts(mentions).materialize()
            c["rows"] = v["cooc.count_rows"] = counts.count()
        v["cooc.combine_ratio"] = v["cooc.count_rows"] / v["cooc.partial_rows"]
        with span("pipelines.flagship.fit", tid) as c:
            inv_rows, _ = fit_model(mentions, cfg)
        c["rows"] = v["fit.inventory_rows"] = len(inv_rows)
        with span("stages.disambig", tid) as c:
            linked = compact_blocks(disambiguate(
                mentions, ray.put(inventory_from_rows(inv_rows)),
                expand_gamma=cfg.expand_gamma, state_rows=len(inv_rows)))
        lt = ray.get(linked.to_arrow_refs())
        n_linked = sum(pc.sum(pc.greater_equal(t["sense_id"], 0)).as_py() or 0
                       for t in lt)
        c["linked"] = n_linked
        v["disambig.linked_rate"] = n_linked / max(1, _rows(lt))
        with span("stages.unionfind", tid) as c:
            edges = entity_kb_edges(linked).materialize()
            canon = {r["entity_id"]: r["canon_id"]
                     for r in collect_rows(canonicalize(edges))}
        c["edges"] = v["unionfind.edges"] = edges.count()
        c["entities"] = v["unionfind.entities"] = len(canon)
        with span("stages.triples.assemble", tid) as c:
            raw = triples_from_mentions(linked, canon).materialize()
            c["rows"] = v["triples.raw_rows"] = raw.count()
        with span("stages.triples.dedup", tid) as c:
            tri = dedup_triples(raw).materialize()
            c["rows"] = v["triples.rows"] = tri.count()
        v["triples.distinct_ratio"] = v["triples.rows"] / v["triples.raw_rows"]
    durs = {s["name"]: s["dur_s"] for s in tr.spans
            if s["trace"] == tid and s["name"] in PIPELINE_LAYERS}
    v.update({
        "sources.read_s": durs["sources.transcripts"],
        "tokenize.busy_s": durs["stages.tokenize"],
        "mentions.busy_s": durs["stages.mentions"],
        "cooc.partial_busy_s": durs["stages.cooc.partial"],
        "cooc.aggregate_s": durs["stages.cooc.aggregate"],
        "fit.s": durs["pipelines.flagship.fit"],
        "disambig.s": durs["stages.disambig"],
        "unionfind.s": durs["stages.unionfind"],
        "triples.assemble_s": durs["stages.triples.assemble"],
        "triples.dedup_s": durs["stages.triples.dedup"],
        "trace.sum_s": sum(durs.values()),
    })
    return v, tri, workloads.triple_set(tri.take_all())


def _out_dir_files(out: str) -> tuple[int, int]:
    n = size = 0
    for d, _, fs in os.walk(out):
        for f in fs:
            if f.endswith(".parquet"):
                n += 1
                size += os.path.getsize(os.path.join(d, f))
    return n, size


def _manifest(out: str) -> list[dict]:
    with open(os.path.join(out, "manifest.jsonl")) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _checkpoint_values(out: str, written: int, skipped: int) -> dict:
    files, size = _out_dir_files(out)
    part_s = [r["wall_s"] for r in _manifest(out) if r["stage"] == "triples"]
    return {"checkpoint.parts_written": written,
            "checkpoint.parts_skipped": skipped,
            "checkpoint.triples_part_s": statistics.median(part_s),
            "checkpoint.files": files, "checkpoint.bytes": size}


def persist_jobs(tr: Tracer, out: str, jobs: list) -> dict:
    """Checkpoint layer for ``incremental``: each batch's KG written as
    one triple partition, as the untraced workload does.  Nothing is
    resumed, so no partition is skipped."""
    shutil.rmtree(out, ignore_errors=True)
    for k, (files, tri) in enumerate(jobs):
        with tr.span("state.checkpoint.write", f"persist-{k}"):
            workloads.append_partition(out, k, files, tri)
    return _checkpoint_values(out, len(jobs), 0)


def checkpoint_resume(tr: Tracer, root: str, out: str,
                      tally: workloads.Tally) -> dict | None:
    """Checkpoint layer for ``resume``: an uninterrupted run, a simulated
    kill after half the triple partitions, and the resumed run."""
    scale = inputs.RESUME_SCALE
    oracle = inputs.load_oracle(root, 0)
    shutil.rmtree(out, ignore_errors=True)
    with tr.span("pipelines.checkpointed.full", "checkpoint"):
        if tally.attempt(workloads.checkpointed_job, scale, out, oracle) is None:
            return None
    full_rows = len(_manifest(out))
    workloads.simulate_kill(out)
    kept = len(_manifest(out))
    with tr.span("pipelines.checkpointed.resume", "checkpoint"):
        if tally.attempt(workloads.checkpointed_job, scale, out, oracle) is None:
            return None
    written = len(_manifest(out)) - kept
    return _checkpoint_values(out, full_rows + written, full_rows - written)


def run(workload: str, root: str, work: str, tally: workloads.Tally,
        trace_path: str) -> dict | None:
    n_jobs = inputs.SPECS[workload]["jobs"]
    tr = Tracer()
    per_job: list[dict] = []
    persisted = []
    for k in range(n_jobs):
        files = inputs.job_files(root, workload, k)
        oracle = inputs.load_oracle(root, k)
        ref = tally.attempt(workloads.flagship_job, files, oracle)
        got = tally.attempt(_checked, tr, f"job-{k}", files, oracle)
        if ref is None or got is None:
            continue
        v, tri = got
        v["trace.overhead_s"] = v["trace.sum_s"] - ref[0]
        per_job.append(v)
        persisted.append((files, tri))
    if len(per_job) < n_jobs:
        return None
    out = os.path.join(work, "ckpt")
    if workload == "resume":
        ck = checkpoint_resume(tr, root, out, tally)
    else:
        ck = persist_jobs(tr, out, persisted)
    tr.write(trace_path)
    if ck is None:
        return None
    values = {name: statistics.median(j[name] for j in per_job)
              for name in per_job[0]}
    values.update(ck)
    return values


def _checked(tr: Tracer, tid: str, files: list[str], oracle: set):
    v, tri, got = traced_job(tr, tid, files)
    return (v, tri) if got == oracle else None
