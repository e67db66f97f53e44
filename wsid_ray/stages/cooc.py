"""G1/G2/G3 + M5/M6 — window co-occurrence counting, PMI/NPMI, pruning.

Reference semantics [R, wsid/cooc.py; Bouma 2009 NPMI]: the probability
space is per target term t — the N_t context windows of t are hyperedges;
n_t(w) = #windows containing w (distinct per window), n_t(w,v) = #windows
containing both.  pmi = ln(n_wv·N / (n_w·n_v)), npmi = pmi / −ln(n_wv/N),
npmi ∈ [−1, 1].  Edges pruned at n_wv < cooc_min_count or npmi <= npmi_min.

Distributed shape (SURVEY.md §2.5 G1/G2, ray_guide.md L154-158):
**partial + final** — each ``map_batches`` call Counter-combines its batch
locally and emits one row per key per batch, so the ``groupby`` shuffle
(SHUFFLE 2, key=(term,w,v)) moves only partial counts, never windows.
Window totals and window-unigram counts ride in the same shuffle encoded
as (term, w, '') and (term, '', '') rows — one shuffle for all three
count kinds.

Scale note: the (term→N) and (term,w)→n_w lookup used by the NPMI stage is
broadcast via ``ray.put`` because it is bounded by |gazetteer|×|vocab|
(ray_guide.md L135-139).  With an unbounded vocabulary the same step is a
hash-partitioned join of `pairs` with `unigrams` on (term, w).
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd


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


def aggregate_counts(mentions: rd.Dataset) -> rd.Dataset:
    """mentions (term, win_tokens, ...) -> summed (term, w, v, n) counts.

    Final combine uses the bucketed int-key shuffle (stages/groups.py):
    measured 7.6x faster than Dataset.groupby on 3 string keys at 1M
    partial rows (sort on one int32 vs lexicographic 3-string sort).
    """
    from .groups import bucketed_group_apply

    # no explicit batch_size: lets the partial-count map fuse with the
    # upstream ReadParquet->tokenize->detect chain (an explicit size
    # blocks read fusion and ships the decoded corpus through the object
    # store — pipelines/flagship.py detect_mentions note), and makes one
    # partial table per BLOCK instead of per 65k rows, shrinking the
    # shuffle input.
    partials = mentions.select_columns(["term", "win_tokens"]).map_batches(
        count_windows_batch, batch_format="pyarrow")

    def combine(df):
        out = df.groupby(["term", "w", "v"], sort=False,
                         as_index=False)["n"].sum()
        out["n"] = out["n"].astype("int64")
        return out

    return bucketed_group_apply(partials, ["term", "w", "v"], combine)


def split_counts(counts: rd.Dataset):
    """counts -> (totals_dict {term: N}, unigrams_dict {(term,w): n}, pairs_ds).

    totals/unigrams are small (bounded by |gazetteer|·|vocab|) → driver
    dicts for broadcast; pairs stay a Dataset.
    """
    from ..util import collect_rows
    small = collect_rows(counts.map_batches(
        lambda t: t.filter(pc.equal(t["v"], "")),
        batch_format="pyarrow"))
    totals: dict[str, int] = {}
    unigrams: dict[tuple[str, str], int] = {}
    for r in small:
        if r["w"] == "":
            totals[r["term"]] = r["n"]
        else:
            unigrams[(r["term"], r["w"])] = r["n"]
    pairs = counts.map_batches(
        lambda t: t.filter(pc.not_equal(t["v"], "")),
        batch_format="pyarrow")
    return totals, unigrams, pairs


_BROADCAST_MEMO: dict[str, object] = {}


def _cached_get(ref):
    """Per-worker-process memo over ray.get — deserialise a broadcast dict
    once per process, not once per batch (ray_guide.md L135-139)."""
    key = ref.hex()
    if key not in _BROADCAST_MEMO:
        _BROADCAST_MEMO[key] = ray.get(ref)
    return _BROADCAST_MEMO[key]


class NpmiWeighter:
    """M5/M6: broadcast count dicts resolved once per worker process.

    Runs as stateless tasks (the pruned pairs table is vocab-bounded and
    small — an actor pool's startup latency would dominate its work);
    the broadcast pattern is identical to an actor's ``__init__`` load.
    """

    def __init__(self, totals_ref, unigrams_ref, min_count: int,
                 npmi_min: float):
        self.totals = _cached_get(totals_ref)
        self.unigrams = _cached_get(unigrams_ref)
        self.min_count = min_count
        self.npmi_min = npmi_min

    def __call__(self, batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _empty_edges()
        terms = batch["term"].to_pylist()
        ws = batch["w"].to_pylist()
        vs = batch["v"].to_pylist()
        n_wv = batch["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        N = np.array([self.totals[t] for t in terms], dtype=np.float64)
        n_w = np.array([self.unigrams[(t, w)] for t, w in zip(terms, ws)],
                       dtype=np.float64)
        n_v = np.array([self.unigrams[(t, v)] for t, v in zip(terms, vs)],
                       dtype=np.float64)
        pmi = np.log(n_wv * N / (n_w * n_v))
        denom = -np.log(n_wv / N)
        # n_wv == N → denom 0 → define npmi = 1.0 (perfect co-occurrence)
        with np.errstate(divide="ignore", invalid="ignore"):
            npmi = np.where(denom > 0, pmi / denom, 1.0)
        out = pa.table({
            "term": batch["term"],
            "w": batch["w"],
            "v": batch["v"],
            "n": batch["n"],
            "pmi": pa.array(pmi, type=pa.float64()),
            "npmi": pa.array(npmi, type=pa.float64()),
        })
        keep = pc.and_(
            pc.greater_equal(out["n"], self.min_count),
            pc.greater(out["npmi"], self.npmi_min),
        )
        return out.filter(keep)


def _empty_edges() -> pa.Table:
    return pa.table({
        "term": pa.array([], type=pa.string()),
        "w": pa.array([], type=pa.string()),
        "v": pa.array([], type=pa.string()),
        "n": pa.array([], type=pa.int64()),
        "pmi": pa.array([], type=pa.float64()),
        "npmi": pa.array([], type=pa.float64()),
    })


def cooc_edges(mentions: rd.Dataset, min_count: int, npmi_min: float) -> rd.Dataset:
    """mentions -> pruned cooc_edges dataset (SHUFFLE 2 inside)."""
    # materialize() pins only the aggregated counts (vocab-bounded, tiny
    # relative to the input) so the two downstream consumers in
    # split_counts don't re-run the counting shuffle.
    counts = aggregate_counts(mentions).materialize()
    return cooc_edges_from_counts(counts, min_count, npmi_min)


def cooc_edges_from_counts(counts: rd.Dataset, min_count: int,
                           npmi_min: float) -> rd.Dataset:
    """Already-aggregated (term, w, v, n) counts -> pruned NPMI edges.

    Split out of cooc_edges so callers that already hold the materialized
    counts (pipelines/flagship.fit_model decides its driver-vs-distributed
    path from a distributed count of this table) reuse it instead of
    re-running the corpus-scale counting shuffle."""
    totals, unigrams, pairs = split_counts(counts)
    totals_ref = ray.put(totals)
    unigrams_ref = ray.put(unigrams)
    def weigh(batch: pa.Table) -> pa.Table:
        w = NpmiWeighter(totals_ref, unigrams_ref, min_count, npmi_min)
        return w(batch)

    return pairs.map_batches(weigh, batch_format="pyarrow",
                             batch_size=65536)
