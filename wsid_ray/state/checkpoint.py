"""S5/J5 — per-partition checkpoint manifest with lineage + throughput
(BASELINE.json:6: "Every stage checkpoints per-partition with lineage +
throughput metrics so a killed `ray job submit` run resumes without
recomputing completed partitions").

Layout under ``out_dir``:

    manifest.jsonl          # one JSON row per written or retired (stage, part)
    <stage>/part-<k>/       # that partition's parquet output (atomic)

Atomicity: partition output is written to ``<stage>/.tmp-<k>-<pid>`` and
``os.replace``d into place, THEN the manifest row is appended — a kill
between the two leaves a completed directory without a manifest row,
which a resume simply overwrites (idempotent stages).  A kill during the
append itself leaves a torn final row; it is dropped on load and that
partition recomputes.  A manifest row is only trusted when its
``lineage`` (input files + config hash) matches the current run, so
changing inputs or config invalidates stale partitions
(``run_checkpointed`` names each file by path, size and mtime, so an
input rewritten in place counts as changed).  A retired
partition (its input is gone) gets a ``done: false`` row and loses its
directory, so it is never served again.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time


# Bump when pipeline semantics change: lineage covers inputs + config +
# code version, so checkpoints written by older pipeline code are not
# silently served after an upgrade (ADVICE r01).
PIPELINE_CODE_VERSION = "r4.1"  # bump whenever pipeline SEMANTICS change
# (r4.1: cw.py v2 RNG-free integer-contract clustering changed the
# induced inventory, invalidating pre-r4 checkpoint partitions)


def lineage_hash(input_files: list[str], config_hash: str) -> str:
    payload = json.dumps([sorted(input_files), config_hash,
                          PIPELINE_CODE_VERSION])
    return hashlib.blake2b(payload.encode(), digest_size=8).hexdigest()


class CheckpointManager:
    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        os.makedirs(out_dir, exist_ok=True)
        self.manifest_path = os.path.join(out_dir, "manifest.jsonl")
        self._records: dict[tuple[str, int], dict] = {}
        if os.path.exists(self.manifest_path):
            self._load_manifest()

    def _load_manifest(self) -> None:
        with open(self.manifest_path, "rb") as f:
            data = f.read()
        lines = data.splitlines(keepends=True)
        if lines and not _complete_row(lines[-1]):
            # a kill mid-append tore the final row: drop it so the next
            # append starts on a fresh line; that partition recomputes
            # (stages are idempotent)
            with open(self.manifest_path, "r+b") as f:
                f.truncate(len(data) - len(lines.pop()))
        for line in lines:
            if line.strip():  # an unparsable earlier row still raises
                r = json.loads(line)
                self._records[(r["stage"], r["part"])] = r

    def part_dir(self, stage: str, part: int) -> str:
        return os.path.join(self.out_dir, stage, f"part-{part:04d}")

    def is_done(self, stage: str, part: int, lineage: str) -> bool:
        r = self._records.get((stage, part))
        return bool(r and r.get("done") and r.get("lineage") == lineage
                    and os.path.isdir(self.part_dir(stage, part)))

    def completed_parts(self, stage: str) -> list[int]:
        return sorted(p for (s, p), r in self._records.items()
                      if s == stage and r.get("done"))

    def write_partition(self, stage: str, part: int, lineage: str,
                        write_fn, rows: int | None = None) -> dict:
        """``write_fn(tmp_dir)`` writes parquet into tmp_dir; returns row
        count (or pass ``rows``).  Atomic rename + manifest append."""
        t0 = time.time()
        stage_dir = os.path.join(self.out_dir, stage)
        os.makedirs(stage_dir, exist_ok=True)
        tmp = os.path.join(stage_dir, f".tmp-{part}-{os.getpid()}")
        if os.path.exists(tmp):
            shutil.rmtree(tmp)
        os.makedirs(tmp)
        n = write_fn(tmp)
        if rows is not None:
            n = rows
        final = self.part_dir(stage, part)
        if os.path.exists(final):
            shutil.rmtree(final)
        os.replace(tmp, final)
        wall = time.time() - t0
        return self._append({
            "stage": stage, "part": part, "rows": int(n or 0),
            "wall_s": round(wall, 3),
            "rows_per_s": round((n or 0) / wall, 1) if wall > 0 else 0.0,
            "lineage": lineage, "done": True, "ts": time.time(),
        })

    def retire_partition(self, stage: str, part: int) -> None:
        """Stop serving a partition whose input is gone: a ``done: false``
        row first, then its directory is removed."""
        self._append({
            "stage": stage, "part": part, "rows": 0, "wall_s": 0.0,
            "rows_per_s": 0.0, "lineage": None, "done": False,
            "ts": time.time(),
        })
        shutil.rmtree(self.part_dir(stage, part), ignore_errors=True)

    def _append(self, rec: dict) -> dict:
        with open(self.manifest_path, "a") as f:
            f.write(json.dumps(rec) + "\n")
        self._records[(rec["stage"], rec["part"])] = rec
        return rec

    def stats(self) -> list[dict]:
        return [self._records[k] for k in sorted(self._records)]


def _complete_row(line: bytes) -> bool:
    if not line.endswith(b"\n"):
        return False
    try:
        json.loads(line)
    except ValueError:
        return False
    return True
