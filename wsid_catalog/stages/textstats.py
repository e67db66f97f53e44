"""Text-analysis operators for training-data pipelines (task spec: language
ID, quality scoring, token counting, document fingerprinting).  All are
stateless vectorised ``map_batches`` stages over the ``documents`` table;
none shuffles.

Definitions are mirrored in DuckDB oracle SQL where expressible
(wsid_catalog.entry.oracle_sql) — keep both sides in sync.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from wsid_ray.config import STOPWORDS
from wsid_catalog.util import BoundedCache
from wsid_ray.stages.tokenize import tokenize_column

_WS = re.compile(r"\s+")
# BPE-ish token regex: words, numbers, or single non-space punctuation
_BPE = re.compile(r"[a-zA-Z]+|[0-9]+|[^\sa-zA-Z0-9]")


def _word_rows(t: pa.Table):
    """(row_of, nonempty_mask, flat_words, n_rows) for the whitespace
    split — vectorised via Arrow's RE2 split kernel."""
    from wsid_ray.util import list_row_indices
    words = pc.split_pattern_regex(t["text"], pattern=r"\s+")
    if isinstance(words, pa.ChunkedArray):
        words = words.combine_chunks()
    flat = words.flatten()
    row_of = list_row_indices(words)
    nonempty = pc.not_equal(flat, "").to_numpy(zero_copy_only=False) \
        .astype(bool)
    return row_of, nonempty, flat, t.num_rows


def token_counts_batch(t: pa.Table) -> pa.Table:
    """(doc_id, n_ws_tokens, n_bpe_tokens) — whitespace + BPE-ish regex.
    Fully vectorised (RE2 kernels + bincount); no per-row Python."""
    row_of, nonempty, _flat, n = _word_rows(t)
    n_ws = np.bincount(row_of[nonempty], minlength=n).astype(np.int64)
    n_bpe = pc.count_substring_regex(t["text"], pattern=_BPE.pattern)
    return pa.table({
        "doc_id": t["doc_id"],
        "n_ws_tokens": pa.array(n_ws, type=pa.int64()),
        "n_bpe_tokens": n_bpe.cast(pa.int64()),
    })


def entropy_batch(t: pa.Table) -> pa.Table:
    """(doc_id, n_tokens, ent_micro) — unigram Shannon entropy per doc
    in integer micro-nats (a quality/diversity signal: near-zero for
    degenerate repeated-token docs, ~ln(vocab) for uniform ones).

    Determinism contract (shared verbatim with the SQL mirror): for
    token counts c over whitespace tokens,
        H = ln(n) - (sum_tok c*ln(c)) / n
    each c*ln(c) term is quantised to int64 micro-units
    floor((c*ln(c))*1e6 + 0.5) BEFORE summing — integer addition is
    order-free, so the unordered SQL GROUP BY and the engine's batch
    order produce the identical sum — and the final value is
    floor(ln(n)*1e6 + 0.5) - S // n (exact integer division).
    Vectorised: one RE2 split + a (row, token) groupby fold; zero-token
    docs are dropped (mirror: WHERE n > 0)."""
    row_of, nonempty, flat, n_rows = _word_rows(t)
    rows_ne = row_of[nonempty]
    toks = flat.filter(pa.array(nonempty))
    cnt = (pd.DataFrame({"r": rows_ne,
                         "tok": toks.to_numpy(zero_copy_only=False)})
           .groupby(["r", "tok"], sort=False).size())
    c = cnt.to_numpy().astype(np.float64)
    term = np.floor((c * np.log(c)) * 1e6 + 0.5).astype(np.int64)
    r = cnt.index.get_level_values("r").to_numpy()
    # int64 scatter-add (bincount's float64 weights would cap exactness
    # at 2^53 — fine for real docs, but the contract says exact)
    s = np.zeros(n_rows, dtype=np.int64)
    np.add.at(s, r, term)
    n_tok = np.bincount(rows_ne, minlength=n_rows).astype(np.int64)
    keep = n_tok > 0
    ln_n = np.floor(np.log(n_tok[keep].astype(np.float64)) * 1e6
                    + 0.5).astype(np.int64)
    ent = ln_n - s[keep] // n_tok[keep]
    return pa.table({
        "doc_id": t["doc_id"].filter(pa.array(keep)),
        "n_tokens": pa.array(n_tok[keep], type=pa.int64()),
        "ent_micro": pa.array(ent, type=pa.int64()),
    })


_STOPSET = frozenset(STOPWORDS)


def quality_batch(t: pa.Table) -> pa.Table:
    """(doc_id, n_chars, alpha_ratio, stop_ratio, avg_token_len) — rounded
    half-up to 6 dp (float determinism vs the SQL oracle).  Fully
    vectorised: RE2 count/split kernels + bincount folds, no per-row
    Python.  alpha counts ASCII letters only (the SQL mirror's [a-zA-Z];
    ADVICE r01)."""
    n = t.num_rows
    n_chars = pc.utf8_length(t["text"]).cast(pa.int64()) \
        .to_numpy(zero_copy_only=False)
    alpha = pc.count_substring_regex(t["text"], pattern="[a-zA-Z]") \
        .to_numpy(zero_copy_only=False).astype(np.float64)
    row_of, nonempty, flat, _ = _word_rows(t)
    rows_ne = row_of[nonempty]
    wcount = np.bincount(rows_ne, minlength=n).astype(np.float64)
    stop_arr = pa.array(sorted(_STOPSET), type=pa.string())
    is_stop = pc.is_in(pc.utf8_lower(flat), value_set=stop_arr) \
        .to_numpy(zero_copy_only=False).astype(bool)
    stop_n = np.bincount(row_of[nonempty & is_stop], minlength=n)
    wlens = pc.utf8_length(flat).to_numpy(zero_copy_only=False)
    wlen_sum = np.bincount(rows_ne, weights=wlens[nonempty], minlength=n)
    with np.errstate(invalid="ignore"):
        alpha_r = np.where(n_chars > 0, alpha / n_chars, 0.0)
        stop_r = np.where(wcount > 0, stop_n / wcount, 0.0)
        avg_len = np.where(wcount > 0, wlen_sum / wcount, 0.0)

    def r6(x):
        # DuckDB round() is half-away-from-zero; np.round is banker's —
        # and small rational ratios (e.g. 105/128) DO land exactly on the
        # 6th-decimal midpoint.  Values here are non-negative.
        return np.floor(x * 1e6 + 0.5) / 1e6

    return pa.table({
        "doc_id": t["doc_id"],
        "n_chars": pa.array(n_chars, type=pa.int64()),
        "alpha_ratio": pa.array(r6(alpha_r), type=pa.float64()),
        "stop_ratio": pa.array(r6(stop_r), type=pa.float64()),
        "avg_token_len": pa.array(r6(avg_len), type=pa.float64()),
    })


# Tiny per-language character/word n-gram profiles (public-knowledge
# heuristic: frequent function words per language).  Deterministic fake of
# a real langid model; the Ray-side plumbing (vectorised map_batches over
# documents) is the real deliverable.
_LANG_MARKERS: dict[str, tuple[str, ...]] = {
    "en": ("the", "and", "of", "is", "was", "with"),
    "de": ("der", "die", "das", "und", "ist", "nicht"),
    "fr": ("le", "la", "les", "et", "est", "dans"),
    "es": ("el", "los", "las", "es", "y", "en"),
    "zh": (),  # CJK detected by codepoint range below
}


def langid_batch(t: pa.Table) -> pa.Table:
    """(doc_id, lang_pred, lang_score) — marker-word / codepoint heuristic.

    Vectorised: CJK probe via one RE2 count over the first 500 chars;
    marker hits via is_in + bincount per language; argmax is first-wins
    in (en, de, fr, es) order (np.argmax returns the first maximum —
    same tie rule as the SQL mirror's ordered CASE).  Scores round
    half-up at 6 dp (marker/word ratios are small rationals that DO land
    on 6-decimal midpoints; DuckDB round() is half-away-from-zero).
    """
    n = t.num_rows
    head = pc.utf8_slice_codeunits(t["text"], 0, 500)
    is_zh = pc.greater(
        pc.count_substring_regex(head, pattern="[一-鿿]"),
        0).to_numpy(zero_copy_only=False).astype(bool)
    row_of, nonempty, flat, _ = _word_rows(t)
    low = pc.utf8_lower(flat)
    langs = [lang for lang, m in _LANG_MARKERS.items() if m]
    counts = np.zeros((n, len(langs)), dtype=np.int64)
    for j, lang in enumerate(langs):
        marks = pa.array(sorted(_LANG_MARKERS[lang]), type=pa.string())
        hit = pc.is_in(low, value_set=marks).to_numpy(
            zero_copy_only=False).astype(bool)
        counts[:, j] = np.bincount(row_of[nonempty & hit], minlength=n)
    nw = np.maximum(1, np.bincount(row_of[nonempty], minlength=n))
    best = counts.argmax(axis=1)            # first max wins
    best_cnt = counts[np.arange(n), best]
    preds = np.array(langs, dtype=object)[best]
    preds[is_zh] = "zh"
    scores = np.floor(best_cnt / nw * 1e6 + 0.5) / 1e6
    scores[is_zh] = 1.0
    return pa.table({
        "doc_id": t["doc_id"],
        "lang_pred": pa.array(preds.tolist(), type=pa.string()),
        "lang_score": pa.array(scores, type=pa.float64()),
    })


class LangIdScorer:
    """Actor-pool langid with a pluggable model (VERDICT r03 item 7):
    ``model=None`` routes to the builtin marker heuristic
    (``langid_batch`` — the SQL-mirrored fake); a callable or
    "module:attr" spec resolves ONCE per actor in ``__init__`` to a real
    ``fn(texts) -> (labels, scores)`` model."""

    def __init__(self, model=None):
        from wsid_catalog.models import resolve_model
        self.model = resolve_model(model)

    def __call__(self, t: pa.Table) -> pa.Table:
        if self.model is None:
            return langid_batch(t)
        labels, scores = self.model(t["text"].to_pylist())
        return pa.table({
            "doc_id": t["doc_id"],
            "lang_pred": pa.array(list(labels), type=pa.string()),
            "lang_score": pa.array(np.asarray(scores, dtype=np.float64),
                                   type=pa.float64()),
        })


def langid_documents(docs: rd.Dataset, model=None) -> rd.Dataset:
    """documents -> (doc_id, lang_pred, lang_score).  Default model is
    the stateless builtin heuristic (elastic tasks); a custom model spec
    runs as an actor pool with the model resolved in __init__."""
    if model is None:
        return docs.map_batches(langid_batch, batch_format="pyarrow")
    from wsid_catalog.util import pool_limits
    return docs.map_batches(
        LangIdScorer, fn_constructor_kwargs=dict(model=model),
        batch_format="pyarrow", batch_size=1024,
        concurrency=pool_limits(hi=4), num_cpus=1)


def fingerprint_batch(t: pa.Table) -> pa.Table:
    """(doc_id, fingerprint) — md5 over the normalised token stream.

    Mirrored in SQL: md5(array_to_string(tokens, ' ')) with the shared
    tokenisation rules.
    """
    toks = tokenize_column(t["text"]).to_pylist()
    fps = [hashlib.md5(" ".join(ts).encode()).hexdigest() for ts in toks]
    return pa.table({
        "doc_id": t["doc_id"],
        "fingerprint": pa.array(fps, type=pa.string()),
    })


# per process; bounded (ADVICE r03: open vocabulary at 100 TB)
_SIMHASH_BIT_MEMO: dict[str, np.ndarray] = BoundedCache(500_000)


def simhash_batch(t: pa.Table) -> pa.Table:
    """(doc_id, simhash) — 64-bit SimHash over tokens (Charikar 2002).

    Deterministic: per-token 64-bit hash = first 8 md5 digest bytes
    little-endian (== DuckDB's md5_number_upper, so the whole operator is
    mirrored in oracle SQL), sign-sum per bit, occurrence-weighted.
    """
    from wsid_ray.util import list_row_indices
    n = t.num_rows
    out = np.zeros(n, dtype=np.int64)
    toks = tokenize_column(t["text"])
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    flat = toks.flatten()
    if len(flat):
        # vectorised: md5 once per DISTINCT token (per-worker memo), one
        # np.add.at scatter for all docs' sign-sums, one matvec to pack
        row_of = list_row_indices(toks)
        enc = pc.dictionary_encode(flat)
        if isinstance(enc, pa.ChunkedArray):
            enc = enc.combine_chunks()
        vocab = enc.dictionary.to_pylist()
        codes = enc.indices.to_numpy(zero_copy_only=False)
        shifts = np.arange(64, dtype=np.uint64)
        memo = _SIMHASH_BIT_MEMO
        bits = np.empty((len(vocab), 64), dtype=np.int64)
        for u, tok in enumerate(vocab):
            bv = memo.get(tok)
            if bv is None:
                h = np.uint64(int.from_bytes(
                    hashlib.md5(tok.encode()).digest()[:8], "little"))
                bv = memo[tok] = np.where(
                    ((h >> shifts) & np.uint64(1)) == 1, 1, -1)
            bits[u] = bv
        acc = np.zeros((n, 64), dtype=np.int64)
        np.add.at(acc, row_of, bits[codes])
        # bits set where acc > 0; token-less docs keep all-zero acc -> 0
        out = (((acc > 0).astype(np.uint64)
                * (np.uint64(1) << shifts)).sum(axis=1, dtype=np.uint64)
               .view(np.int64))
    return pa.table({
        "doc_id": t["doc_id"],
        "simhash": pa.array(out, type=pa.int64()),
    })


def quality_filter_batch(t: pa.Table, min_chars: int = 80,
                         min_alpha: float = 0.6,
                         max_stop: float = 0.5) -> pa.Table:
    """C4-style quality filter: keep docs with enough content and sane
    letter/stopword ratios.  Composes the vectorised quality signals —
    rule thresholds are the UDF hook; mirrored in oracle SQL."""
    q = quality_batch(t)
    import pyarrow.compute as pc
    keep = pc.and_(pc.and_(
        pc.greater_equal(q["n_chars"], min_chars),
        pc.greater_equal(q["alpha_ratio"], min_alpha)),
        pc.less_equal(q["stop_ratio"], max_stop))
    return t.filter(keep)


def split_assign_batch(t: pa.Table, train_pct: int = 95) -> pa.Table:
    """Deterministic train/val split: md5-hash bucket of doc_id mod 100.
    Content-stable (re-runs and resumes assign identically), mirrored in
    SQL via md5_number_upper(CAST(doc_id AS VARCHAR)) % 100."""
    import hashlib
    ids = t["doc_id"].to_pylist()
    h = np.fromiter(
        (int.from_bytes(hashlib.md5(str(i).encode()).digest()[:8],
                        "little") % 100 for i in ids),
        dtype=np.int64, count=len(ids))
    split = np.where(h < train_pct, "train", "val")
    return pa.table({
        "doc_id": t["doc_id"],
        "split": pa.array(split.tolist(), type=pa.string()),
    })


def repetition_batch(t: pa.Table) -> pa.Table:
    """(doc_id, n_tokens, distinct_ratio, top_bigram_frac) — Gopher-style
    repetition signals (Rae et al. 2021, "Scaling Language Models:
    Methods, Analysis & Insights from Training Gopher", §A1.1 quality
    filters): the distinct-token ratio and the fraction of token
    positions covered by the single most frequent word bigram.  Docs
    dominated by boilerplate/loops score low distinct_ratio and high
    top_bigram_frac.

    Fully vectorised: one RE2 split, dictionary-encode, packed-int64
    np.unique folds; no per-row Python.  Ratios round half-up at 6 dp
    (shared rule with the SQL mirror — DuckDB round() is
    half-away-from-zero, np.round is banker's)."""
    n = t.num_rows
    row_of, nonempty, flat, _ = _word_rows(t)
    rows = row_of[nonempty]
    n_tok = np.bincount(rows, minlength=n).astype(np.int64)
    distinct = np.zeros(n, dtype=np.int64)
    top_bg = np.zeros(n, dtype=np.int64)
    if len(rows):
        words = flat.filter(pa.array(nonempty))
        enc = pc.dictionary_encode(words)
        if isinstance(enc, pa.ChunkedArray):
            enc = enc.combine_chunks()
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        V = len(enc.dictionary)
        # distinct tokens per doc: unique (row, code) pairs
        upairs, pair_id = np.unique(rows * V + codes,
                                    return_inverse=True)
        distinct = np.bincount((upairs // V).astype(np.int64),
                               minlength=n).astype(np.int64)
        # most frequent bigram per doc: unique (row, c1, c2) triples with
        # counts, segment-max folded by row.  Two-level packing through
        # pair_id (≤ #words) keeps the key < #words·V — no int64 overflow
        # even on huge blocks, unlike a direct r·V² fold.
        adj = rows[1:] == rows[:-1]
        if adj.any():
            key = pair_id[:-1][adj] * V + codes[1:][adj]
            ukey, cnt = np.unique(key, return_counts=True)
            np.maximum.at(top_bg,
                          (upairs[ukey // V] // V).astype(np.int64), cnt)

    def r6(x):
        return np.floor(x * 1e6 + 0.5) / 1e6

    with np.errstate(invalid="ignore"):
        dr = np.where(n_tok > 0, distinct / np.maximum(n_tok, 1), 0.0)
        bf = np.where(n_tok >= 2,
                      top_bg / np.maximum(n_tok - 1, 1), 0.0)
    return pa.table({
        "doc_id": t["doc_id"],
        "n_tokens": pa.array(n_tok, type=pa.int64()),
        "distinct_ratio": pa.array(r6(dr), type=pa.float64()),
        "top_bigram_frac": pa.array(r6(bf), type=pa.float64()),
    })


# Per-stratum keep rates (percent) for the deterministic stratified
# sampler — the UDF hook; 'en' is downsampled harder than the tail
# languages, the classic web-corpus rebalancing move.
STRATUM_PCT: dict[str, int] = {"en": 50}
STRATUM_DEFAULT_PCT = 20


def stratified_sample_batch(t: pa.Table,
                            pct: dict[str, int] | None = None,
                            default_pct: int | None = None) -> pa.Table:
    """(doc_id, lang) rows kept by a deterministic per-stratum hash
    sample: keep iff md5_number_upper(doc_id) % 100 < rate[lang].
    Content-stable (re-runs, resumes and re-partitions keep the same
    rows — no RNG state to ship), vectorised except the unavoidable
    per-id md5, and embarrassingly parallel: no shuffle at any scale.
    Mirrored verbatim in oracle SQL."""
    pct = STRATUM_PCT if pct is None else pct
    default_pct = (STRATUM_DEFAULT_PCT if default_pct is None
                   else default_pct)
    ids = t["doc_id"].to_pylist()
    h = np.fromiter(
        (int.from_bytes(hashlib.md5(str(i).encode()).digest()[:8],
                        "little") % 100 for i in ids),
        dtype=np.int64, count=len(ids))
    langs = t["lang"].to_pylist()
    rate = np.fromiter((pct.get(l, default_pct) for l in langs),
                       dtype=np.int64, count=len(langs))
    return t.select(["doc_id", "lang"]).filter(pa.array(h < rate))


def read_documents(sf_dir: str, columns=None) -> rd.Dataset:
    """Pruned documents read, fanned out so per-doc CPU stages parallelise
    even when the table is one row group (Ray's SplitBlocks divides a read
    task's output below row-group granularity)."""
    from wsid_ray.sources.pqclean import read_parquet_clean
    return read_parquet_clean(f"{sf_dir}/documents.parquet",
                              columns=columns or ["doc_id", "text"],
                              override_num_blocks=_read_blocks(
                                  f"{sf_dir}/documents.parquet"))


def _read_blocks(path: str, min_rows_per_block: int = 256) -> int:
    """min(4×CPUs, rows/min_rows_per_block), ≥1 — one parquet footer read."""
    import pyarrow.parquet as pq
    import ray
    try:
        rows = pq.read_metadata(path).num_rows
        cpus = int(ray.cluster_resources().get("CPU", 8))
    except Exception:
        return 8
    return max(1, min(4 * cpus, rows // min_rows_per_block))


def readability_batch(t: pa.Table) -> pa.Table:
    """(doc_id, n_words, n_sentences, n_syllables, fre6) — Flesch
    Reading Ease with the standard cheap proxies: sentences = runs of
    [.!?] (min 1), syllables = vowel-group runs [aeiouy]+ on the
    lowercased text.  The three counts are exact integers from RE2
    kernels (no per-row Python); FRE = 206.835 - 1.015*(w/s) -
    84.6*(sy/w) is computed in double from those exact ints and rounded
    half-up 6dp ONCE (shared op order with the mirror).  Zero-word docs
    drop (mirror: WHERE w > 0).  Stateless map — no shuffle."""
    row_of, nonempty, _flat, n = _word_rows(t)
    w = np.bincount(row_of[nonempty], minlength=n).astype(np.int64)
    low = pc.utf8_lower(t["text"])
    sy = pc.count_substring_regex(low, pattern="[aeiouy]+") \
        .to_numpy(zero_copy_only=False).astype(np.int64)
    se = pc.count_substring_regex(t["text"], pattern="[.!?]+") \
        .to_numpy(zero_copy_only=False).astype(np.int64)
    se = np.maximum(se, 1)
    keep = w > 0
    wv, sv, syv = w[keep], se[keep], sy[keep]
    fre = 206.835 - 1.015 * (wv.astype(np.float64) / sv) \
        - 84.6 * (syv.astype(np.float64) / wv)
    fre6 = np.floor(fre * 1e6 + 0.5) / 1e6
    return pa.table({
        "doc_id": t["doc_id"].filter(pa.array(keep)),
        "n_words": pa.array(wv, pa.int64()),
        "n_sentences": pa.array(sv, pa.int64()),
        "n_syllables": pa.array(syv, pa.int64()),
        "fre6": pa.array(fre6, pa.float64())})


# per process; bounded (same 100 TB open-vocabulary policy as the
# simhash/token memos above)
_FEAT_HASH_MEMO: dict[str, int] = BoundedCache(500_000)


def feature_hash_batch(t: pa.Table, num_features: int = 64) -> pa.Table:
    """(doc_id, bucket, n) — hashing-trick bag-of-words (Weinberger et
    al. 2009): every whitespace token folds into ``num_features``
    buckets via the md5-parity 64-bit hash, giving a fixed-width sparse
    feature vector per document without a vocabulary pass.

    Deterministic + mirrored: bucket = md5_number_upper(token) %
    num_features (first 8 md5 digest bytes little-endian, the shared
    engine/DuckDB hash convention).  Vectorised: md5 once per DISTINCT
    token (per-worker bounded memo), one np.unique fold per batch.
    Stateless map — no shuffle; the output is the sparse (doc, bucket)
    count matrix in COO rows."""
    row_of, nonempty, flat, _n = _word_rows(t)
    doc_ids = t["doc_id"].to_numpy(zero_copy_only=False)
    row_of = row_of[nonempty]
    if not len(row_of):
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "bucket": pa.array([], pa.int64()),
                         "n": pa.array([], pa.int64())})
    enc = pc.dictionary_encode(flat.filter(pa.array(nonempty)))
    if isinstance(enc, pa.ChunkedArray):
        enc = enc.combine_chunks()
    vocab = enc.dictionary.to_pylist()
    codes = enc.indices.to_numpy(zero_copy_only=False)
    memo = _FEAT_HASH_MEMO
    buck = np.empty(len(vocab), dtype=np.int64)
    for u, tok in enumerate(vocab):
        h = memo.get(tok)
        if h is None:
            h = memo[tok] = int.from_bytes(
                hashlib.md5(tok.encode()).digest()[:8], "little")
        buck[u] = h % num_features
    key = row_of.astype(np.int64) * num_features + buck[codes]
    uk, counts = np.unique(key, return_counts=True)
    return pa.table({
        "doc_id": pa.array(doc_ids[uk // num_features], pa.int64()),
        "bucket": pa.array(uk % num_features, pa.int64()),
        "n": pa.array(counts.astype(np.int64), pa.int64())})
