"""G1/G2/G3 + M5/M6 — window co-occurrence counting, PMI/NPMI, pruning.

Reference semantics [R, wsid/cooc.py; Bouma 2009 NPMI]: the probability
space is per target term t — the N_t context windows of t are hyperedges;
n_t(w) = #windows containing w (distinct per window), n_t(w,v) = #windows
containing both.  pmi = ln(n_wv·N / (n_w·n_v)), npmi = pmi / −ln(n_wv/N),
npmi ∈ [−1, 1].  Edges pruned at n_wv < cooc_min_count or npmi <= npmi_min.

Distributed shape (SURVEY.md §2.5 G1/G2, ray_guide.md L154-158):
**partial + final** — each block's ``count_windows_batch`` call combines
its windows locally and emits one row per key per block, so the shuffle
moves only partial counts, never windows.  Window totals and
window-unigram counts ride in the same rows encoded as (term, w, '') and
(term, '', '') — one shuffle for all three count kinds.

The shuffle is keyed on ``term`` alone (stages/groups.bucketed_group_apply),
so each reduce holds every count of its terms: totals, unigrams and
pairs.  NPMI is per term, so the reduce weighs its pairs with
``npmi_pairs`` from its own rows — no broadcast, no join across buckets.
``aggregate_counts`` stops after the sum, ``cooc_edges`` after NPMI, and
the fit (stages/induce.fit_senses) goes on to Chinese Whispers in the
same reduce.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from .groups import bucketed_group_apply, map_blocks


def count_windows_batch(batch: pa.Table) -> pa.Table:
    """Partial combiner: mentions/windows batch -> (term, w, v, n) rows.

    Fully vectorised (Arrow dictionary-encode + numpy): windows become
    per-row sets via one np.unique over packed (row, code) keys; pairwise
    hyperedge projection is generated per window-cardinality group with
    precomputed triangle indices; all three count kinds (pair, window-
    unigram, window-total) come from np.unique(counts) over packed int64
    keys.  Token codes are remapped to lexicographic rank so the w < v
    canonical order matches the sequential oracle's sorted(set(window)).
    """
    n_windows = batch.num_rows
    if n_windows == 0:
        return pa.table({
            "term": pa.array([], type=pa.string()),
            "w": pa.array([], type=pa.string()),
            "v": pa.array([], type=pa.string()),
            "n": pa.array([], type=pa.int64()),
        })
    wins = batch["win_tokens"]
    if isinstance(wins, pa.ChunkedArray):
        wins = wins.combine_chunks()
    flat = wins.flatten()
    offsets = wins.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    lengths = np.diff(offsets)
    row_of = np.repeat(np.arange(n_windows), lengths)

    # token codes in lexicographic rank order (matches oracle's w < v)
    enc = pc.dictionary_encode(flat)
    if isinstance(enc, pa.ChunkedArray):
        enc = enc.combine_chunks()
    dict_vals = np.asarray(enc.dictionary.to_pylist(), dtype=object)
    sorted_vocab, rank_of_slot = np.unique(dict_vals, return_inverse=True)
    codes = rank_of_slot[enc.indices.to_numpy(zero_copy_only=False)]
    V = len(sorted_vocab)

    terms_enc = pc.dictionary_encode(batch["term"])
    if isinstance(terms_enc, pa.ChunkedArray):
        terms_enc = terms_enc.combine_chunks()
    term_vocab = np.asarray(terms_enc.dictionary.to_pylist(), dtype=object)
    term_codes = terms_enc.indices.to_numpy(zero_copy_only=False).astype(
        np.int64)
    T = len(term_vocab)

    # per-window distinct sorted codes
    uniq = np.unique(row_of * V + codes) if len(codes) else \
        np.array([], dtype=np.int64)
    urow = uniq // V
    ucode = uniq % V
    k_per_row = np.bincount(urow, minlength=n_windows)

    out_t: list[np.ndarray] = []
    out_w: list[np.ndarray] = []
    out_v: list[np.ndarray] = []
    out_n: list[np.ndarray] = []

    # pair counts, grouped by window cardinality k
    row_start = np.concatenate(([0], np.cumsum(k_per_row)))
    for k in np.unique(k_per_row):
        if k < 2:
            continue
        rows_k = np.nonzero(k_per_row == k)[0]
        starts = row_start[rows_k]
        M = ucode[starts[:, None] + np.arange(k)]        # (n_k, k) sorted
        iu, ju = np.triu_indices(k, 1)
        wcodes = M[:, iu].ravel()
        vcodes = M[:, ju].ravel()
        tcodes = np.repeat(term_codes[rows_k], len(iu))
        keys = (tcodes * V + wcodes) * V + vcodes
        ukeys, counts = np.unique(keys, return_counts=True)
        tv = ukeys // (V * V)
        rem = ukeys % (V * V)
        out_t.append(tv)
        out_w.append(rem // V)
        out_v.append(rem % V)
        out_n.append(counts)

    # window-unigram counts: each (row, code) appears once in uniq
    ukeys, counts = np.unique(term_codes[urow] * V + ucode,
                              return_counts=True)
    uni_t = ukeys // V
    uni_w = ukeys % V
    # window totals per term
    tot_counts = np.bincount(term_codes, minlength=T)

    def strings(vocab, idx):
        return pa.array(vocab[idx], type=pa.string())

    pair_t = np.concatenate(out_t) if out_t else np.array([], dtype=np.int64)
    pair_w = np.concatenate(out_w) if out_w else np.array([], dtype=np.int64)
    pair_v = np.concatenate(out_v) if out_v else np.array([], dtype=np.int64)
    pair_n = np.concatenate(out_n) if out_n else np.array([], dtype=np.int64)

    term_col = pa.concat_arrays([
        strings(term_vocab, pair_t.astype(np.int64)),
        strings(term_vocab, uni_t.astype(np.int64)),
        strings(term_vocab, np.arange(T)),
    ])
    w_col = pa.concat_arrays([
        strings(sorted_vocab, pair_w.astype(np.int64)),
        strings(sorted_vocab, uni_w.astype(np.int64)),
        pa.array([""] * T, type=pa.string()),
    ])
    v_col = pa.concat_arrays([
        strings(sorted_vocab, pair_v.astype(np.int64)),
        pa.array([""] * len(uni_w), type=pa.string()),
        pa.array([""] * T, type=pa.string()),
    ])
    n_col = pa.array(np.concatenate([pair_n, counts, tot_counts]),
                     type=pa.int64())
    return pa.table({"term": term_col, "w": w_col, "v": v_col, "n": n_col})




def window_partials(mentions):
    """mentions (a Dataset or ``Blocks``) -> one partial (term, w, v, n)
    table per block, of the same kind."""
    # On a Dataset, a map with no explicit batch_size: it fuses with the
    # upstream ReadParquet->tokenize->detect chain (an explicit size
    # blocks read fusion and ships the decoded corpus through the object
    # store — pipelines/flagship.py detect_mentions note), and makes one
    # partial table per BLOCK instead of per 65k rows, shrinking the
    # shuffle input.
    return map_blocks(count_windows_batch, mentions)


def sum_counts(df: pd.DataFrame) -> pd.DataFrame:
    """Partial (term, w, v, n) rows -> one summed row per key."""
    out = df.groupby(["term", "w", "v"], sort=False, as_index=False)["n"].sum()
    out["n"] = out["n"].astype("int64")
    return out


def npmi_pairs(counts: pd.DataFrame, min_count: int,
               npmi_min: float) -> pd.DataFrame:
    """Summed counts of whole terms -> their pruned NPMI edges
    (``EDGES_SCHEMA``), each with its term's window total ``N`` and the
    window-unigram counts ``n_w`` and ``n_v``.  Every input of a term's
    NPMI is one of that term's own rows, so a bucket that holds whole
    terms computes it with nothing from outside the bucket."""
    is_pair = counts["v"] != ""
    pairs = counts.loc[is_pair & (counts["n"] >= min_count)]
    single = counts.loc[~is_pair]
    tot = single.loc[single["w"] == "", ["term", "n"]]
    uni = single.loc[single["w"] != "", ["term", "w", "n"]]
    e = (pairs.merge(tot.rename(columns={"n": "N"}), on="term")
              .merge(uni.rename(columns={"n": "n_w"}), on=["term", "w"])
              .merge(uni.rename(columns={"w": "v", "n": "n_v"}),
                     on=["term", "v"]))
    n = e["n"].to_numpy(np.float64)
    N = e["N"].to_numpy(np.float64)
    pmi = np.log(n * N / (e["n_w"].to_numpy(np.float64)
                          * e["n_v"].to_numpy(np.float64)))
    denom = -np.log(n / N)
    # n_wv == N → denom 0 → define npmi = 1.0 (perfect co-occurrence)
    with np.errstate(divide="ignore", invalid="ignore"):
        npmi = np.where(denom > 0, pmi / denom, 1.0)
    e["pmi"] = pmi
    e["npmi"] = npmi
    return e.loc[npmi > npmi_min].reset_index(drop=True)


EDGES_SCHEMA = pa.schema([("term", pa.string()), ("w", pa.string()),
                          ("v", pa.string()), ("n", pa.int64()),
                          ("pmi", pa.float64()), ("npmi", pa.float64())])
COUNTS_SCHEMA = pa.schema([("term", pa.string()), ("w", pa.string()),
                           ("v", pa.string()), ("n", pa.int64())])


def aggregate_counts(mentions: rd.Dataset) -> rd.Dataset:
    """mentions (term, win_tokens, ...) -> summed (term, w, v, n) counts,
    over the term-keyed shuffle the fit uses."""
    return bucketed_group_apply(window_partials(mentions), ["term"],
                                sum_counts, out_schema=COUNTS_SCHEMA)


def cooc_edges(mentions: rd.Dataset, min_count: int,
               npmi_min: float) -> rd.Dataset:
    """mentions -> pruned (term, w, v, n, pmi, npmi) edges: each reduce
    of the term-keyed shuffle sums its terms' counts and weighs them."""
    def edges(df: pd.DataFrame) -> pd.DataFrame:
        return npmi_pairs(sum_counts(df), min_count,
                          npmi_min)[EDGES_SCHEMA.names]

    return bucketed_group_apply(window_partials(mentions), ["term"], edges,
                                out_schema=EDGES_SCHEMA)
