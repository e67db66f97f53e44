"""M1/M2 — tokenizer + turn normaliser (SURVEY.md §2.2).

Reference semantics [R, wsid/cooc.py]: regex word tokenizer over lowercased
text, stopword + short-token filtering.  Restated vectorised: the whole
batch is tokenised with Arrow kernels (``utf8_lower`` +
``split_pattern_regex``) and the element filter is numpy offset surgery —
no Python loop over rows, zero-copy `text` carry-through
(batch_format="pyarrow" end to end, BASELINE.json:15 text-equality
invariant).

The DuckDB oracle mirror of this tokenisation is
``regexp_split_to_array(lower(text), '[^a-z0-9_]+')`` — see
__ray_entry__.oracle_sql; keep both in sync with config.TOKEN_PATTERN.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..config import MIN_TOKEN_LEN, STOPWORDS
from ..util import filter_list_array, stable_hash_strings, turn_uid

_STOP_ARR = pa.array(sorted(STOPWORDS), type=pa.string())
_SPLIT_PATTERN = "[^a-z0-9_]+"  # complement of config.TOKEN_PATTERN


def tokenize_column(text: pa.ChunkedArray | pa.Array) -> pa.ListArray:
    """lower → regex split → drop '', short tokens, stopwords. Vectorised."""
    lowered = pc.utf8_lower(text)
    lists = pc.split_pattern_regex(lowered, pattern=_SPLIT_PATTERN)
    if isinstance(lists, pa.ChunkedArray):
        lists = lists.combine_chunks()
    flat = lists.flatten()
    keep = pc.and_(
        pc.greater_equal(pc.utf8_length(flat), MIN_TOKEN_LEN),
        pc.invert(pc.is_in(flat, value_set=_STOP_ARR)),
    )
    return filter_list_array(lists, keep)


def tokenize_batch(batch: pa.Table) -> pa.Table:
    """Append ``tokens:list<string>`` and ``turn_uid:int64``; text untouched."""
    tokens = tokenize_column(batch["text"])
    conv_hash = stable_hash_strings(
        batch["conv_id"].to_numpy(zero_copy_only=False))
    uids = turn_uid(conv_hash,
                    batch["turn_idx"].to_numpy(zero_copy_only=False))
    out = batch.append_column("tokens", tokens)
    return out.append_column("turn_uid", pa.array(uids, type=pa.int64()))
