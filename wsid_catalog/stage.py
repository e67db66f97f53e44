"""U1 — user-extension surface: the Stage protocol + registry
(SURVEY.md §2.10).

The reference exposes plain Python functions over caller-provided corpora;
this engine exposes composable stages: a ``Stage`` names a transform,
declares its input/output contract, and builds ``Dataset -> Dataset``.
``pipeline()`` composes an ordered stage list; ``REGISTRY`` lets callers
(and the driver's ``queries()`` dict) reach every stage independently.
UDF hooks (U2): the tokenizer pattern, stopword list, predicate rules and
scoring constants are all config-driven (wsid_ray.config.PipelineConfig),
injected into stages at build time; ``StageConfig`` adds the knobs of the
sketch stages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import ray.data as rd

from wsid_ray.config import DEFAULT_CONFIG, PipelineConfig


@dataclass(frozen=True)
class Stage:
    name: str
    description: str
    build: Callable[[rd.Dataset, PipelineConfig], rd.Dataset]
    input_cols: tuple[str, ...] = ()
    output_cols: tuple[str, ...] = ()


@dataclass(frozen=True)
class StageConfig(PipelineConfig):
    """PipelineConfig plus the sketch-stage knobs
    (corpus_heavy_hitters / hll_registers)."""
    heavy_hitter_threshold: int = 500
    hll_col: str = "doc_id"


REGISTRY: dict[str, Stage] = {}


def register(stage: Stage) -> Stage:
    REGISTRY[stage.name] = stage
    return stage


def pipeline(ds: rd.Dataset, stage_names: list[str],
             cfg: PipelineConfig = DEFAULT_CONFIG) -> rd.Dataset:
    """Compose registered stages in order."""
    for name in stage_names:
        ds = REGISTRY[name].build(ds, cfg)
    return ds


def _register_builtins() -> None:
    from wsid_ray.stages.mentions import detect_batch
    from wsid_ray.stages.tokenize import tokenize_batch

    register(Stage(
        name="tokenize",
        description="M1/M2: regex tokenize + turn_uid (text untouched)",
        input_cols=("conv_id", "turn_idx", "text"),
        output_cols=("tokens", "turn_uid"),
        build=lambda ds, cfg: ds.map_batches(tokenize_batch,
                                             batch_format="pyarrow"),
    ))
    register(Stage(
        name="detect_mentions",
        description="M3/M4: gazetteer mention detection + W-token windows",
        input_cols=("tokens",),
        output_cols=("term", "span_start", "span_end", "win_tokens"),
        build=lambda ds, cfg: ds.map_batches(
            detect_batch,
            fn_kwargs=dict(window_size=cfg.window_size,
                           gazetteer=cfg.gazetteer),
            batch_format="pyarrow", batch_size=4096),
    ))

    # document-table (training-data) operators — all stateless map stages
    # except the near-dup candidate generators, which shuffle
    def _doc_map(fn_name: str):
        def build(ds, cfg):
            from wsid_catalog.stages import textstats
            return ds.map_batches(getattr(textstats, fn_name),
                                  batch_format="pyarrow")
        return build

    for name, fn_name, desc, out in (
        ("doc_token_counts", "token_counts_batch",
         "ws + BPE-ish token counts", ("n_ws_tokens", "n_bpe_tokens")),
        ("doc_quality", "quality_batch",
         "length/alpha/stopword/avg-len quality signals",
         ("n_chars", "alpha_ratio", "stop_ratio", "avg_token_len")),
        ("doc_langid", "langid_batch",
         "marker-word/CJK language id (deterministic heuristic)",
         ("lang_pred", "lang_score")),
        ("doc_fingerprint", "fingerprint_batch",
         "md5 fingerprint of the normalised token stream",
         ("fingerprint",)),
        ("doc_simhash", "simhash_batch",
         "64-bit SimHash signature (Charikar 2002)", ("simhash",)),
    ):
        register(Stage(name=name, description=desc,
                       input_cols=("doc_id", "text"), output_cols=out,
                       build=_doc_map(fn_name)))

    def _minhash(ds, cfg):
        from wsid_catalog.stages.dedup import minhash_candidates
        return minhash_candidates(ds)

    register(Stage(
        name="minhash_candidates",
        description="MinHash-LSH near-dup candidate pairs (banded shuffle)",
        input_cols=("doc_id", "text"), output_cols=("doc_a", "doc_b"),
        build=_minhash,
    ))

    def _simdup(ds, cfg):
        from wsid_catalog.stages.dedup import simhash_near_dup
        return simhash_near_dup(ds)

    register(Stage(
        name="simhash_near_dup",
        description="SimHash band-trick near-dup pairs (exact for "
                    "max_hamming < num_bands)",
        input_cols=("doc_id", "text"),
        output_cols=("doc_a", "doc_b", "hamming"),
        build=_simdup,
    ))

    def _hh(ds, cfg):
        from wsid_catalog.stages.lm import cms_heavy_hitters
        return cms_heavy_hitters(
            ds, threshold=getattr(cfg, "heavy_hitter_threshold", 500))

    register(Stage(
        name="corpus_heavy_hitters",
        description="Count-Min-gated exact heavy hitters (two passes, "
                    "full term set never shuffles)",
        input_cols=("doc_id", "text"), output_cols=("token", "n"),
        build=_hh,
    ))

    def _hll(ds, cfg):
        from wsid_catalog.stages.sketches import hll_registers
        return hll_registers(ds, getattr(cfg, "hll_col", "doc_id"))

    register(Stage(
        name="hll_registers",
        description="HyperLogLog distinct-count registers (max-merge, "
                    "256 ints per corpus)",
        input_cols=(), output_cols=("bucket", "r"),
        build=_hll,
    ))


_register_builtins()
