"""Timed end-to-end runs of the two workloads (tracing off).

Every job's triples are checked against the sequential oracle's set
(P = R = 1.0, i.e. equal sets).  A job that raises or fails the check
counts as failed; ``failed / attempted`` is the run's failed fraction.

Each run processes the workload's input, then repeats until ``seconds``
have passed and every timing has enough samples for a median:

* ``incremental``: a closed loop with one client: one ``run_flagship``
  job per fresh batch, back to back, each batch's KG then appended to a
  partitioned triple store; after the pass over the batches,
  ``triples_dataset(store).count()`` reads the accumulated KG back.  The
  flagship pipeline keeps no checkpoint, so a job resumed after a kill is
  a full rerun: every job is also a recovery sample.
* ``resume``: cycles (the workload's jobs) of an uninterrupted
  ``run_checkpointed`` into an empty out dir, a simulated kill after half
  the triple partitions, the resumed run and
  ``triples_dataset(out).count()``.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import inputs

now = time.perf_counter
# resume: cycles of run, kill, resume and read
MIN_CYCLES = 3


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def attempt(self, fn, *args):
        """Run one job; returns its result, or None if it raised or its
        output check failed (``fn`` returns None on a failed check)."""
        self.attempted += 1
        try:
            out = fn(*args)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            out = None
        if out is None:
            self.failed += 1
        return out


@dataclass
class Timings:
    wall: list[float] = field(default_factory=list)     # input -> KG
    turns: list[int] = field(default_factory=list)      # input of ``wall``
    jobs: list[float] = field(default_factory=list)     # every job
    recover: list[float] = field(default_factory=list)  # after a kill
    readback: list[float] = field(default_factory=list)

    def metrics(self) -> dict[str, float] | None:
        if not (self.wall and self.jobs and self.recover and self.readback):
            return None
        med = statistics.median
        return {
            "wall_s": med(self.wall),
            "turns_per_s": med(n / w for n, w in zip(self.turns, self.wall)),
            "job_p50_s": med(self.jobs),
            "resume_s": med(self.recover),
            "readback_s": med(self.readback),
        }


def triple_set(rows) -> set[tuple[str, str, str]]:
    return {(r["subj"], r["pred"], r["obj"]) for r in rows}


def count_turns(files: list[str]) -> int:
    import pyarrow.parquet as pq
    return sum(pq.read_metadata(f).num_rows for f in files)


def flagship_job(files: list[str], oracle: set):
    """(job seconds, triples dataset).  The job runs until the client
    holds the complete, checked triple set."""
    from wsid_ray.pipelines.flagship import run_flagship
    t0 = now()
    art = run_flagship("", files=files)
    got = triple_set(art.triples.take_all())
    wall = now() - t0
    return (wall, art.triples) if got == oracle else None


def append_partition(out: str, part: int, files: list[str], triples) -> None:
    """Write one job's KG as triple partition ``part`` of the store at
    ``out``, the layout ``run_checkpointed`` writes."""
    from wsid_ray.config import DEFAULT_CONFIG as cfg
    from wsid_ray.state.checkpoint import CheckpointManager, lineage_hash
    from wsid_ray.stages.triples import write_triples_partitioned

    def write(tmp):
        write_triples_partitioned(triples, tmp)
        return triples.count()

    CheckpointManager(out).write_partition(
        "triples", part, lineage_hash(files, cfg.content_hash()), write)


def incremental_job(files: list[str], oracle: set, out: str, part: int
                    ) -> float | None:
    r = flagship_job(files, oracle)
    if r is None:
        return None
    append_partition(out, part, files, r[1])
    return r[0]


def incremental(root: str, seconds: float, tally: Tally, out: str) -> Timings:
    t = Timings()
    shutil.rmtree(out, ignore_errors=True)
    kg: set[tuple[str, str, str]] = set()
    start = now()
    while not t.wall or now() - start < seconds:
        for k in range(inputs.INCREMENTAL["jobs"]):
            files = inputs.job_files(root, "incremental", k)
            oracle = inputs.load_oracle(root, k)
            wall = tally.attempt(incremental_job, files, oracle, out, k)
            if wall is None:
                return t
            kg |= oracle
            t.wall.append(wall)
            t.turns.append(count_turns(files))
            t.jobs.append(wall)
            t.recover.append(wall)
        rb = tally.attempt(readback_job, out, kg)
        if rb is None:
            return t
        t.readback.append(rb)
    return t


# ---- resume ---------------------------------------------------------------

def written_triples(out: str) -> set[tuple[str, str, str]]:
    """Union of the completed triple partitions, read directly."""
    import pyarrow.parquet as pq

    from wsid_ray.state.checkpoint import CheckpointManager
    ckpt = CheckpointManager(out)
    got = set()
    for p in ckpt.completed_parts("triples"):
        for d, _, fs in os.walk(ckpt.part_dir("triples", p)):
            for f in fs:
                if f.endswith(".parquet"):
                    t = pq.read_table(os.path.join(d, f),
                                      columns=["subj", "pred", "obj"])
                    got.update(zip(*(t[c].to_pylist() for c in t.column_names)))
    return got


def simulate_kill(out: str) -> None:
    """Leave ``out`` as a kill after half the triple partitions would:
    the global passes and the first half of the triple partitions done,
    the rest neither in the manifest nor on disk."""
    from wsid_ray.state.checkpoint import CheckpointManager
    path = os.path.join(out, "manifest.jsonl")
    with open(path) as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    parts = sorted({r["part"] for r in rows if r["stage"] == "triples"})
    lost = set(parts[len(parts) // 2:])
    ckpt = CheckpointManager(out)
    for p in lost:
        shutil.rmtree(ckpt.part_dir("triples", p), ignore_errors=True)
    kept = [r for r in rows
            if not (r["stage"] == "triples" and r["part"] in lost)]
    with open(path, "w") as fh:
        fh.writelines(json.dumps(r) + "\n" for r in kept)


def checkpointed_job(scale: str, out: str, expect: set) -> float | None:
    from wsid_ray.pipelines.checkpointed import run_checkpointed
    t0 = now()
    run_checkpointed(scale, out, shard_files=inputs.RESUME_SHARD_FILES)
    wall = now() - t0
    return wall if written_triples(out) == expect else None


def readback_job(out: str, expect: set) -> float | None:
    from wsid_ray.pipelines.checkpointed import triples_dataset
    t0 = now()
    n = triples_dataset(out).count()
    wall = now() - t0
    return wall if n == len(expect) else None


def resume(root: str, seconds: float, tally: Tally, out: str) -> Timings:
    scale = inputs.RESUME_SCALE
    oracle = inputs.load_oracle(root, 0)
    turns = count_turns(inputs.job_files(root, "resume", 0))
    t = Timings()
    start = now()
    while len(t.jobs) < MIN_CYCLES or now() - start < seconds:
        shutil.rmtree(out, ignore_errors=True)
        full = tally.attempt(checkpointed_job, scale, out, oracle)
        if full is None:
            break
        t.wall.append(full)
        t.turns.append(turns)
        simulate_kill(out)
        # checked against the oracle like the uninterrupted run, so the
        # resumed triple set equals the uninterrupted one
        resumed = tally.attempt(checkpointed_job, scale, out, oracle)
        if resumed is None:
            break
        t.recover.append(resumed)
        rb = tally.attempt(readback_job, out, oracle)
        if rb is None:
            break
        t.readback.append(rb)
        t.jobs.append(full + resumed + rb)
    return t
