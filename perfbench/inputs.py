"""Seeded workload inputs and their oracle triple sets, cached per seed.

Inputs come from ``wsid_ray.fixtures`` (the planted-sense generator the
tests use).  The sequential oracle (``wsid_ray.oracle.run_oracle``) runs
here too, once per input set, and its triple set is written next to the
inputs.  ``prepare`` does both in a child process, so neither generation
nor the oracle counts toward the benchmark driver's peak RSS, and the
result is reused by every later run with the same workload and seed.

Layout under ``root`` (one directory per workload and seed):

    spec.json                          # what was generated; cache key
    wsid_data/                         # WSID_RAY_DATA for this run
    job-<k>/transcripts/part-*.parquet # incremental inputs
    job-<k>/oracle.json                # sorted [subj, pred, obj] rows

Run as a script (``python perfbench/inputs.py <workload> <seed> <root>``)
it generates into ``root``; the parent sets ``WSID_RAY_DATA`` first.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

# Per-job input shape: ``files`` × ``convs_per_file`` conversations, half
# the sf0.01 shape (1,000 conversations over 8 files, ~12k turns; ~11.9
# turns per conversation, since every 100th is ~300 turns long).
INCREMENTAL = {"jobs": 3, "files": 8, "convs_per_file": 125}
# resume goes through run_checkpointed, which finds its corpus by scale
# name only: the fixtures' own sf0.001 scale (4 files, ~2.4k turns),
# generated with the run's seed under a seed-keyed WSID_RAY_DATA, in two
# triple partitions of two files each (a kill after half loses one).
RESUME_SCALE = "sf0.001"
RESUME_SHARD_FILES = 2
SKEW_EVERY = 100  # the fixtures' default: every 100th conversation is long

SPECS = {
    "incremental": {"kind": "files", **INCREMENTAL},
    "resume": {"kind": "scale", "scale": RESUME_SCALE, "jobs": 1},
}


def job_seed(seed: int, job: int) -> int:
    """Distinct generator seed per job, so every job's files differ."""
    return seed * 1009 + job


def job_dir(root: str, job: int) -> str:
    return os.path.join(root, f"job-{job}")


def spec_for(workload: str, seed: int) -> dict:
    from wsid_ray import fixtures
    return {"workload": workload, "seed": seed,
            "gen_version": fixtures._GEN_VERSION, **SPECS[workload]}


def job_files(root: str, workload: str, job: int) -> list[str]:
    if SPECS[workload]["kind"] == "scale":
        from wsid_ray.fixtures import transcript_files
        return transcript_files(SPECS[workload]["scale"])
    d = os.path.join(job_dir(root, job), "transcripts")
    return sorted(os.path.join(d, f) for f in os.listdir(d)
                  if f.endswith(".parquet"))


def load_oracle(root: str, job: int) -> set[tuple[str, str, str]]:
    with open(os.path.join(job_dir(root, job), "oracle.json")) as fh:
        return {tuple(t) for t in json.load(fh)}


def _generate(root: str, workload: str, seed: int) -> None:
    from wsid_ray import fixtures
    from wsid_ray.oracle import run_oracle

    spec = SPECS[workload]
    # the set-up warm-up job reads the tiny scale from WSID_RAY_DATA
    fixtures.generate("tiny")
    for job in range(spec["jobs"]):
        d = job_dir(root, job)
        if spec["kind"] == "scale":
            fixtures.generate(spec["scale"], seed=seed)
        else:
            os.makedirs(os.path.join(d, "transcripts"), exist_ok=True)
            n = spec["convs_per_file"]
            for f in range(spec["files"]):
                fixtures._gen_file((d, f, f * n, (f + 1) * n,
                                    job_seed(seed, job), SKEW_EVERY))
        os.makedirs(d, exist_ok=True)
        triples = run_oracle(job_files(root, workload, job))["triples"]
        with open(os.path.join(d, "oracle.json"), "w") as fh:
            json.dump(sorted(triples), fh)


def prepare(root: str, workload: str, seed: int) -> None:
    """Generate inputs and oracle for (workload, seed) unless cached."""
    spec = spec_for(workload, seed)
    marker = os.path.join(root, "spec.json")
    if os.path.exists(marker):
        with open(marker) as fh:
            if json.load(fh) == spec:
                return
    shutil.rmtree(root, ignore_errors=True)
    os.makedirs(root)
    subprocess.run([sys.executable, os.path.abspath(__file__),
                    workload, str(seed), root], check=True)
    with open(marker, "w") as fh:
        json.dump(spec, fh)


def page_warm(paths: list[str]) -> None:
    for p in paths:
        with open(p, "rb") as fh:
            while fh.read(1 << 22):
                pass


if __name__ == "__main__":
    sys.path.insert(0, os.getcwd())
    _generate(sys.argv[3], sys.argv[1], int(sys.argv[2]))
