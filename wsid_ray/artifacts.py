"""Deterministic per-scale oracle artifacts (VERDICT r02 item 1/6).

The sense-induction step (Chinese Whispers) is genuinely not
SQL-expressible, but everything DOWNSTREAM of a fixed inventory is:
disambiguation scoring is a window-token ⋈ inventory join + argmax,
entity linking is an inventory ⋈ KB-profile join + argmax,
canonicalisation is recursive-CTE reachability over the (entity_id,
kb_id) edge set, and triple assembly is unary rules + a pair self-join.
So the engine's deterministic fit is materialised ONCE per scale to
parquet here (the sense inventory and the exploded KB candidate
profiles), and the DuckDB oracles for ``mentions_linked``,
``canon_map``, ``triples`` and the KG reads over them read these files —
turning the flagship chain's driver checks from rows-only into
hash-exact.

Everything written here is a pure function of the synthetic fixtures +
config (seeded CW, fixed iteration caps), so whichever side
triggers generation first (engine queries or oracle SQL), both see
identical bytes.  Writes are atomic (tmp dir + rename) and idempotent.
"""

from __future__ import annotations

import os
import shutil
import tempfile

import pyarrow as pa
import pyarrow.parquet as pq

from .config import DEFAULT_CONFIG, kb_profiles

_ART_VERSION = "a6"
_ROOT = os.path.join(tempfile.gettempdir(), "wsid_ray_artifacts",
                     _ART_VERSION)


def _scale_of(sf_dir_or_scale: str) -> str:
    return os.path.basename(str(sf_dir_or_scale).rstrip("/")) or "sf0.01"


def art_dir(sf_dir_or_scale: str) -> str:
    return os.path.join(_ROOT, _scale_of(sf_dir_or_scale))


def _write_sorted(tbl: pa.Table, path: str, sort_cols: list[str]) -> None:
    idx = pa.compute.sort_indices(
        tbl, sort_keys=[(c, "ascending") for c in sort_cols])
    pq.write_table(tbl.take(idx), path)


def ensure(sf_dir_or_scale: str) -> dict[str, str]:
    """Idempotently materialise the oracle artifacts for a scale; returns
    {name: parquet path}.  Ray must already be initialised (driver
    contract) — the fit is the engine's own pipeline."""
    d = art_dir(sf_dir_or_scale)
    paths = {
        "inventory": os.path.join(d, "inventory.parquet"),
        "kb": os.path.join(d, "kb.parquet"),
    }
    if os.path.exists(os.path.join(d, "_DONE")):
        return paths

    scale = _scale_of(sf_dir_or_scale)
    from .fixtures import generate
    generate(scale)

    os.makedirs(os.path.dirname(d), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"wsid_art_{scale}_",
                           dir=os.path.dirname(d))
    try:
        # --- sense inventory (full-precision weights; the scoring SQL
        # rounds sums, not inputs) -------------------------------------
        from .pipelines.flagship import detect_mentions, fit_model
        from .sources.transcripts import read_transcripts
        from .stages.tokenize import tokenize_batch
        cfg = DEFAULT_CONFIG
        turns = read_transcripts(scale).map_batches(
            tokenize_batch, batch_format="pyarrow")
        inventory, _ = fit_model(detect_mentions(turns, cfg), cfg)
        _write_sorted(inventory, os.path.join(tmp, "inventory.parquet"),
                      ["term", "sense_id", "token"])
        # --- KB candidate profiles (exploded, from config) -------------
        pq.write_table(kb_profiles(), os.path.join(tmp, "kb.parquet"))

        with open(os.path.join(tmp, "_DONE"), "w") as fh:
            fh.write(_ART_VERSION)
        if not os.path.exists(os.path.join(d, "_DONE")):
            try:
                os.rename(tmp, d)
            except OSError:
                pass  # concurrent creator won
    finally:
        if os.path.isdir(tmp):
            shutil.rmtree(tmp, ignore_errors=True)
    return paths
