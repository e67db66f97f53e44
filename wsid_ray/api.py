"""Reference-shaped convenience API (SURVEY.md §0/§3.1-3.2).

The reference library is called as plain functions over an in-memory
corpus: ``induce(texts, target, ...) -> sense inventory`` and
``disambiguate(context_tokens, inventory) -> (sense_id, score)``
[SURVEY.md §3.1/§3.2, reconstructed [R] — /root/reference was empty].
A user switching from the reference keeps those call shapes; internally
each call runs the same distributed stages the flagship pipeline uses
(from_items -> tokenize -> detect -> cooc/NPMI -> cluster), so behaviour
is identical to the engine's — and therefore to the sequential oracle
(P/R gate).

For corpora that live in Parquet at scale, use the pipeline surfaces
(pipelines/flagship.py, pipelines/checkpointed.py) instead; this module
is the small-corpus, reference-compatible front door.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from .config import DEFAULT_CONFIG, MIN_LINK_SCORE, PipelineConfig
from dataclasses import replace


def _corpus_dataset(texts: list[str]) -> rd.Dataset:
    return rd.from_arrow(pa.table({
        "conv_id": pa.array([f"doc{i:08d}" for i in range(len(texts))],
                            type=pa.string()),
        "turn_idx": pa.array([0] * len(texts), type=pa.int32()),
        "role": pa.array(["user"] * len(texts), type=pa.string()),
        "text": pa.array(texts, type=pa.string()),
        "tool": pa.array([""] * len(texts), type=pa.string()),
        "ts": pa.array([0] * len(texts), type=pa.timestamp("us")),
    }))


def induce(texts: list[str], target: str,
           window_size: int | None = None,
           cfg: PipelineConfig = DEFAULT_CONFIG,
           algo: str | None = None) -> list[dict[str, float]]:
    """Reference entry point 1: sense induction for one target term.

    Runs the engine's fit (tokenize -> windows around ``target`` ->
    hyperedge counts -> NPMI -> graph clustering) over ``texts`` and
    returns the induced senses as a list of {token: weight} vectors,
    ordered by sense_id — the reference's in-memory return shape.
    """
    from .pipelines.flagship import detect_mentions, fit_model
    from .stages.tokenize import tokenize_batch

    if window_size is not None:
        cfg = replace(cfg, window_size=window_size)
    cfg = replace(cfg, gazetteer=(target,),
                  induce_algo=algo or cfg.induce_algo)
    turns = _corpus_dataset(texts).map_batches(tokenize_batch,
                                               batch_format="pyarrow")
    inventory, _ = fit_model(detect_mentions(turns, cfg), cfg)
    senses = inventory.filter(pc.equal(inventory["term"], target)) \
        .group_by("sense_id", use_threads=False) \
        .aggregate([("token", "list"), ("weight", "list")]) \
        .sort_by("sense_id")
    return [dict(zip(toks, ws)) for toks, ws in
            zip(senses["token_list"].to_pylist(),
                senses["weight_list"].to_pylist())]


def disambiguate(context_tokens: list[str],
                 inventory: list[dict[str, float]]) -> tuple[int, float]:
    """Reference entry point 2: score a context window against each sense
    vector; argmax, ties -> lowest sense_id; (-1, 0.0) when nothing
    scores above MIN_LINK_SCORE.  Pure function (the reference's shape);
    the distributed equivalent is stages/disambig.SenseDisambiguator,
    whose scoring rule this restates (round-6 contract).
    """
    best_sid, best = -1, MIN_LINK_SCORE
    for sid, vec in enumerate(inventory):
        s = round(sum(vec.get(t, 0.0) for t in context_tokens), 6)
        if s > best:
            best_sid, best = sid, s
    return (best_sid, best if best_sid >= 0 else 0.0)


def tokenize(text: str, cfg: PipelineConfig = DEFAULT_CONFIG) -> list[str]:
    """Reference-style tokenizer over one string (engine rules)."""
    from .stages.tokenize import tokenize_column
    return tokenize_column(pa.array([text], type=pa.string()))[0].as_py()
