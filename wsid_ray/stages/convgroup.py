"""O1/M7 + SHUFFLE 1 — per-conversation grouping with skew-safe partial
folds, stable turn ordering, and the per-turn text-equality guard
(SURVEY.md §2.6 O1, §2.2 M7, §4.3 skew row; BASELINE.json:6 "grouped per
conv_id via ray.data groupby with explicit repartitioning and salting for
skewed long conversations (preserving per-turn text equality under stable
turn_idx ordering)").

Skew: a long conversation never reaches the shuffle as one group of
turns.  Each batch folds every maximal dense turn_idx run of a
conversation into one fragment row (conv_id, start_turn, h) — the
order-safe form of salting, since turn_idx is unique per conversation,
so fragments never overlap and sorting them by start_turn restores exact
turn order however the turns were split across batches.  The shuffle
moves ~one fragment per (conversation x batch), and an order-sensitive
fold (the digest below) combines the fragments in start_turn order.

Text-equality guard: digest(conv) = md5(concat of md5(text) in turn_idx
order).  Computed on the raw input AND on any text-carrying stage output;
equality proves per-turn byte-identity under stable ordering
(BASELINE.json:15).  md5 (not blake2b) here because the DuckDB oracle must
reproduce it in SQL: md5(string_agg(md5(text), '' ORDER BY turn_idx)).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd


def _md5_hex_per_row(col: pa.Array | pa.ChunkedArray) -> list[str]:
    """md5 hexdigest per string row, reading utf-8 bytes straight off the
    Arrow buffers (no per-row Python string materialisation — the
    md5(memoryview) call is the only unavoidable per-row work)."""
    if isinstance(col, pa.ChunkedArray):
        chunks = col.chunks
    else:
        chunks = [col]
    out: list[str] = []
    for ch in chunks:
        if ch.type == pa.large_string():
            odt = np.int64
        else:
            odt = np.int32
        obuf, dbuf = ch.buffers()[1], ch.buffers()[2]
        offs = np.frombuffer(obuf, dtype=odt,
                             count=len(ch) + 1 + ch.offset)[ch.offset:]
        mv = memoryview(dbuf)
        md5 = hashlib.md5
        out.extend(md5(mv[offs[i]:offs[i + 1]]).hexdigest()
                   for i in range(len(ch)))
    return out


def conv_digest(ds: rd.Dataset) -> rd.Dataset:
    """(conv_id, digest) — md5 chain over per-turn md5s in turn order
    (mirrored in SQL as md5(string_agg(md5(text), '' ORDER BY turn_idx))).

    Two-level partial fold: each batch md5s its turns AND concatenates the
    digests of every dense turn_idx run into one fragment row (module
    doc), so the shuffle moves ~one row per (conversation × batch)
    instead of one per turn, and the per-bucket reduce folds a handful of
    fragments per conversation.  At 10^12-turn scale the fragments become
    their own shuffle level so a mega-conversation never has to fit one
    task.
    """
    from .groups import bucketed_group_apply

    def hash_fold(t: pa.Table) -> pa.Table:
        conv = t["conv_id"]
        if isinstance(conv, pa.ChunkedArray):
            conv = conv.combine_chunks()
        enc = pc.dictionary_encode(conv)
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        turn = t["turn_idx"].to_numpy(zero_copy_only=False).astype(np.int64)
        hs = _md5_hex_per_row(t["text"])
        order = np.lexsort((turn, codes))
        c = codes[order]
        tn = turn[order]
        if not len(c):
            return pa.table({"conv_id": pa.array([], type=pa.string()),
                             "start_turn": pa.array([], type=pa.int64()),
                             "h": pa.array([], type=pa.string())})
        new_frag = np.ones(len(c), dtype=bool)
        new_frag[1:] = (c[1:] != c[:-1]) | (tn[1:] != tn[:-1] + 1)
        starts = np.nonzero(new_frag)[0]
        ends = np.append(starts[1:], len(c))
        hs_sorted = [hs[i] for i in order]
        joined = ["".join(hs_sorted[a:b]) for a, b in zip(starts, ends)]
        return pa.table({
            "conv_id": pc.take(enc.dictionary, pa.array(c[starts])),
            "start_turn": pa.array(tn[starts], type=pa.int64()),
            "h": pa.array(joined, type=pa.string()),
        })

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["conv_id", "start_turn"], kind="mergesort")
        fin = (df.groupby("conv_id", sort=True)["h"].agg("".join)
                 .reset_index())
        return pd.DataFrame({
            "conv_id": fin["conv_id"].astype("string[pyarrow]"),
            "digest": pd.Series(
                [hashlib.md5(s.encode()).hexdigest() for s in fin["h"]],
                dtype="string[pyarrow]", index=fin.index),
        })

    hashed = ds.select_columns(["conv_id", "turn_idx", "text"]).map_batches(
        hash_fold, batch_format="pyarrow", batch_size=32768)
    return bucketed_group_apply(hashed, ["conv_id"], fn)
