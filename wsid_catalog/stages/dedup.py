"""Deduplication operators for training-data pipelines (task spec):
exact, MinHash+LSH near-dup, SimHash, n-gram Jaccard.  Each is expressed
with the engine's primitives: vectorised ``map_batches`` for signatures,
bucketed groupby shuffles for candidate generation, a verify stage for
exactness.

Scale notes (100 TB path):
  * exact dedup — hash-partition on content hash; one shuffle of
    (hash, doc_id) pairs only, never text (stages/groups.distinct).
  * MinHash-LSH — shingle→minhash per batch (numpy), explode to
    (band_id, band_hash) rows, groupby emits candidate pairs, pairwise
    Jaccard verify only on candidates via two partitioned hash joins
    (ray_guide.md L165-169).
  * SimHash near-dup — signatures ride the band rows, so the in-bucket
    Hamming verify needs no join/broadcast at all.

Every operator here is mirrored by a hash-exact DuckDB oracle
(wsid_catalog.entry.oracle_sql): hashes are md5-derived (md5_number_upper) and
the MinHash universal hash lives in the 31-bit Mersenne domain so int64
and BIGINT arithmetic agree exactly.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from wsid_catalog.util import BoundedCache
from wsid_ray.stages.groups import bucketed_group_apply
from wsid_ray.stages.tokenize import tokenize_column

# Deterministic universal-hash parameters for MinHash permutations.
# Domain is the 31-bit Mersenne prime so every product a*x (< 2^61) is
# EXACT in both numpy int64 and DuckDB BIGINT — the whole operator is
# mirrored in oracle SQL with inlined (a, b) constants.  (The previous
# 61-bit domain silently wrapped mod 2^64 inside np.outer.)
_MERSENNE = (1 << 31) - 1


def _perm_params(num_perm: int, seed: int = 42):
    rng = np.random.RandomState(seed)
    a = rng.randint(1, _MERSENNE, size=num_perm).astype(np.int64)
    b = rng.randint(0, _MERSENNE, size=num_perm).astype(np.int64)
    return a, b


_SHINGLE_MOD = 1 << 30  # token-hash domain; keeps (a*x+b) exact in int64


def _hash30(s: str) -> int:
    """30-bit string hash: first 8 md5 digest bytes little-endian
    (== DuckDB md5_number_upper) >> 34."""
    return int.from_bytes(hashlib.md5(s.encode()).digest()[:8],
                          "little") >> 34


# per worker process; bounded (ADVICE r03: open vocabulary at 100 TB)
_TOKEN_HASH_MEMO: dict[str, int] = BoundedCache(1_000_000)


def _token_hashes(tokens: list[str]) -> np.ndarray:
    memo = _TOKEN_HASH_MEMO
    out = np.empty(len(tokens), dtype=np.int64)
    for i, t in enumerate(tokens):
        h = memo.get(t)
        if h is None:
            h = memo[t] = _hash30(t)
        out[i] = h
    return out


def _shingle_hashes(tokens: list[str], k: int) -> np.ndarray:
    """Distinct 30-bit k-gram hashes: md5 per DISTINCT token (memoised),
    then an exact int64 polynomial fold s -> (s*31 + t_j) % 2^30 —
    mirrored 1:1 in the SQL oracle, no per-shingle md5 in the hot path."""
    if not tokens:
        return np.zeros(0, dtype=np.int64)
    if len(tokens) < k:
        return np.array([_hash30(" ".join(tokens))], dtype=np.int64)
    t = _token_hashes(tokens)
    n_sh = len(tokens) - k + 1
    s = t[:n_sh].copy()
    for j in range(1, k):
        s = (s * 31 + t[j:j + n_sh]) % _SHINGLE_MOD
    return np.unique(s)


def _shingle_strings(tokens: list[str], k: int) -> list[str]:
    """Shingle strings (jaccard verify path; signatures use the hashed
    fold above)."""
    if not tokens:
        return []
    if len(tokens) < k:
        return [" ".join(tokens)]
    return sorted({" ".join(tokens[i:i + k])
                   for i in range(len(tokens) - k + 1)})


class MinHasher:
    """Per-batch minhash signatures + band fingerprints, fully vectorised:
    one chunked (perms × shingles) universal-hash matrix with per-doc
    ``np.minimum.reduceat`` folds, numpy unicode band-payload builds, and
    only the final per-(doc, band) md5 left as a C-call loop.  State
    (permutation params) is trivial to build, so the stage runs as
    STATELESS TASKS with a per-process memo (``minhash_band_rows``) —
    elastic across every CPU, no actor-pool spin-up barrier (same
    rationale as mentions.detect_batch)."""

    def __init__(self, num_perm: int = 64, shingle_k: int = 3,
                 num_bands: int = 16, seed: int = 42):
        assert num_perm % num_bands == 0
        self.a, self.b = _perm_params(num_perm, seed)
        self.num_perm = num_perm
        self.k = shingle_k
        self.num_bands = num_bands
        self.rows_per_band = num_perm // num_bands

    def signature(self, tokens: list[str]) -> np.ndarray | None:
        """None for shingle-less docs (they emit no band rows — matching
        the SQL mirror, where such docs simply have no shingle rows)."""
        x = _shingle_hashes(tokens, self.k)
        if not len(x):
            return None
        # (num_perm, n_shingles) universal hashing, min per row; products
        # < 2^61 so int64 math is exact (see _MERSENNE note above)
        vals = (np.outer(self.a, x) + self.b[:, None]) % _MERSENNE
        return vals.min(axis=1)

    def signatures_batch(self, tok_lists: list[list[str]]
                         ) -> tuple[np.ndarray, np.ndarray]:
        """(kept_doc_positions, (n_kept, num_perm) signature matrix) —
        identical values to per-doc ``signature`` (tested), one chunked
        matrix op instead of one np.outer per doc."""
        sh = [_shingle_hashes(ts, self.k) for ts in tok_lists]
        keep = np.array([i for i, s in enumerate(sh) if len(s)],
                        dtype=np.int64)
        if not len(keep):
            return keep, np.zeros((0, self.num_perm), dtype=np.int64)
        cnt = np.array([len(sh[i]) for i in keep], dtype=np.int64)
        offs = np.concatenate(([0], np.cumsum(cnt)))[:-1]
        x_all = np.concatenate([sh[i] for i in keep])
        P = self.num_perm
        sigs = np.empty((P, len(keep)), dtype=np.int64)
        # chunk over perms to bound the (chunk × total_shingles) temporary
        step = max(1, (1 << 22) // max(1, len(x_all)))
        for p0 in range(0, P, step):
            vals = (self.a[p0:p0 + step, None] * x_all[None, :]
                    + self.b[p0:p0 + step, None]) % _MERSENNE
            sigs[p0:p0 + step] = np.minimum.reduceat(vals, offs, axis=1)
        return keep, sigs.T

    def __call__(self, t: pa.Table) -> pa.Table:
        """documents batch -> exploded (doc_id, band_id, band_hash) rows."""
        toks = tokenize_column(t["text"]).to_pylist()
        ids = np.asarray(t["doc_id"].to_numpy(zero_copy_only=False),
                         dtype=np.int64)
        keep, S = self.signatures_batch(toks)
        n = len(keep)
        if not n:
            return pa.table({
                "doc_id": pa.array([], type=pa.int64()),
                "band_id": pa.array([], type=pa.int32()),
                "band_hash": pa.array([], type=pa.int64()),
            })
        R = self.rows_per_band
        # band payload strings built in numpy unicode (vectorised), then
        # one md5 per (doc, band) — mirrors md5_number_upper(string_agg)
        Sstr = S.astype("U10")
        md5 = hashlib.md5
        mask = 0x7FFF_FFFF_FFFF_FFFF
        doc_col = np.repeat(ids[keep], self.num_bands)
        band_col = np.tile(np.arange(self.num_bands, dtype=np.int32), n)
        hash_col = np.empty(n * self.num_bands, dtype=np.int64)
        for band in range(self.num_bands):
            p = Sstr[:, band * R]
            for j in range(1, R):
                p = np.char.add(np.char.add(p, ","), Sstr[:, band * R + j])
            hash_col[band::self.num_bands] = [
                int.from_bytes(md5(s.encode()).digest()[:8],
                               "little") & mask for s in p]
        return pa.table({
            "doc_id": pa.array(doc_col, type=pa.int64()),
            "band_id": pa.array(band_col, type=pa.int32()),
            "band_hash": pa.array(hash_col, type=pa.int64()),
        })


_MINHASHER_MEMO: dict[tuple, MinHasher] = BoundedCache(8)


def minhash_band_rows(t: pa.Table, num_perm: int = 64, shingle_k: int = 3,
                      num_bands: int = 16, seed: int = 42) -> pa.Table:
    """Stateless-task wrapper with a per-worker-process MinHasher memo."""
    key = (num_perm, shingle_k, num_bands, seed)
    mh = _MINHASHER_MEMO.get(key)
    if mh is None:
        mh = _MINHASHER_MEMO[key] = MinHasher(num_perm, shingle_k,
                                              num_bands, seed)
    return mh(t)


def minhash_candidates(docs: rd.Dataset, num_perm: int = 64,
                       shingle_k: int = 3, num_bands: int = 16,
                       num_buckets: int = 32) -> rd.Dataset:
    """documents -> distinct candidate near-dup pairs (doc_a < doc_b)."""
    bands = docs.map_batches(
        minhash_band_rows,
        fn_kwargs=dict(num_perm=num_perm, shingle_k=shingle_k,
                       num_bands=num_bands),
        batch_format="pyarrow", batch_size=1024)
    return candidates_from_bands(bands, num_buckets=num_buckets)


def candidates_from_bands(bands: rd.Dataset,
                          num_buckets: int = 32) -> rd.Dataset:
    """(doc_id, band_id, band_hash) rows -> distinct candidate pairs —
    split out so the checkpointed chain can resume from persisted band
    rows (pipelines/neardup_ckpt.py)."""

    def pairs_in_bucket(df: pd.DataFrame) -> pd.DataFrame:
        out_a: list[int] = []
        out_b: list[int] = []
        for _, g in df.groupby(["band_id", "band_hash"], sort=True):
            ids = sorted(g["doc_id"].unique())
            for i in range(len(ids)):
                for j in range(i + 1, len(ids)):
                    out_a.append(ids[i]); out_b.append(ids[j])
        return pd.DataFrame({"doc_a": pd.Series(out_a, dtype="int64"),
                             "doc_b": pd.Series(out_b, dtype="int64")})

    cands = bucketed_group_apply(bands, ["band_id", "band_hash"],
                                 pairs_in_bucket, num_buckets=num_buckets)
    from wsid_ray.stages.groups import distinct
    return distinct(cands, ["doc_a", "doc_b"], num_buckets=16)


def near_dup_drop_list(docs: rd.Dataset, threshold: float = 0.5,
                       shingle_k: int = 3) -> rd.Dataset:
    """The composed end-to-end near-dup DEDUP pipeline (the shape large
    corpus curation actually runs — cf. Lee et al. 2022, "Deduplicating
    Training Data Makes Language Models Better"): MinHash-LSH candidates
    → exact Jaccard verify (>= threshold) → connected components over
    the verified pairs → keep the smallest doc_id per component.

    Returns one row per DROPPED document: (doc_id, kept_by) with
    kept_by the component's minimum doc_id.  Every stage is the already
    SQL-checked bucketed machinery (jaccard_pairs, components) — nothing
    new moves at scale; the CC node set is near-dup-pair-bounded, far
    below corpus size."""
    pairs = jaccard_pairs(docs, threshold=threshold, shingle_k=shingle_k)
    return drops_from_pairs(pairs)


def drops_from_pairs(pairs: rd.Dataset) -> rd.Dataset:
    """Verified (doc_a, doc_b) pairs -> (doc_id, kept_by) drop rows via
    connected components + smallest-id-wins — split out so the
    checkpointed chain can resume from persisted verified pairs."""
    import pyarrow.compute as pc

    from wsid_catalog.stages.components import connected_components

    # CC labels are strings with lexicographic min — zero-pad the int64
    # doc ids so lexicographic == numeric order
    def to_edges(t: pa.Table) -> pa.Table:
        def pad(col):
            return pc.utf8_lpad(pc.cast(t[col], pa.string()), 20, "0")
        return pa.table({"u": pad("doc_a"), "v": pad("doc_b")})

    comp = connected_components(
        pairs.map_batches(to_edges, batch_format="pyarrow"))

    def drops(t: pa.Table) -> pa.Table:
        keep = pc.not_equal(t["node"], t["comp"])
        t = t.filter(keep)
        return pa.table({
            "doc_id": pc.cast(t["node"], pa.int64()),
            "kept_by": pc.cast(t["comp"], pa.int64()),
        })

    return comp.map_batches(drops, batch_format="pyarrow")


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorised popcount over uint64 (numpy<2 has no bitwise_count)."""
    return np.unpackbits(x.view(np.uint8)).reshape(len(x), 8 * 8).sum(
        axis=1).astype(np.int64) if len(x) else np.zeros(0, dtype=np.int64)


def simhash_near_dup(docs: rd.Dataset, max_hamming: int = 3,
                     num_bands: int = 4,
                     num_buckets: int = 32) -> rd.Dataset:
    """SimHash near-dup pairs via the band trick: split the 64-bit
    signature into ``num_bands`` equal bands, bucket on (band, band_key),
    verify Hamming distance pairwise inside each bucket.

    Exact w.r.t. the all-pairs oracle when ``max_hamming < num_bands``
    (pigeonhole: <num_bands differing bits leave at least one band
    identical), so the DuckDB all-pairs SQL mirror is a hard check, not an
    approximation.  Full signatures ride along the band rows, so the
    verify needs no join/broadcast — only (doc_id, band, sig) rows move.

    Returns (doc_a, doc_b, hamming), doc_a < doc_b, hamming <= max_hamming.
    """
    assert 64 % num_bands == 0 and max_hamming < num_bands
    from wsid_catalog.stages.textstats import simhash_batch
    band_bits = 64 // num_bands
    mask = np.uint64((1 << band_bits) - 1)
    shifts = (np.arange(num_bands, dtype=np.uint64)
              * np.uint64(band_bits))

    def explode(t: pa.Table) -> pa.Table:
        n = t.num_rows
        sig = t["simhash"].to_numpy(zero_copy_only=False).astype(
            np.int64).view(np.uint64)
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        sig_rep = np.repeat(sig, num_bands)
        keys = ((sig_rep >> np.tile(shifts, n)) & mask).astype(np.int64)
        return pa.table({
            "doc_id": pa.array(np.repeat(ids, num_bands), type=pa.int64()),
            "band_id": pa.array(np.tile(
                np.arange(num_bands, dtype=np.int32), n), type=pa.int32()),
            "band_key": pa.array(keys, type=pa.int64()),
            "simhash": pa.array(sig_rep.view(np.int64), type=pa.int64()),
        })

    bands = docs.map_batches(simhash_batch, batch_format="pyarrow") \
                .map_batches(explode, batch_format="pyarrow")

    def pairs_in_bucket(df: pd.DataFrame) -> pd.DataFrame:
        out_a: list[np.ndarray] = []
        out_b: list[np.ndarray] = []
        out_h: list[np.ndarray] = []
        for _, g in df.groupby(["band_id", "band_key"], sort=True):
            sub = g.drop_duplicates("doc_id").sort_values("doc_id")
            if len(sub) < 2:
                continue
            ids = sub["doc_id"].to_numpy()
            sigs = sub["simhash"].to_numpy().astype(np.int64).view(np.uint64)
            iu, ju = np.triu_indices(len(sub), 1)
            ham = _popcount64(sigs[iu] ^ sigs[ju])
            keep = ham <= max_hamming
            out_a.append(ids[iu[keep]])
            out_b.append(ids[ju[keep]])
            out_h.append(ham[keep])
        cat = (lambda xs: np.concatenate(xs) if xs
               else np.zeros(0, dtype=np.int64))
        return pd.DataFrame({
            "doc_a": pd.Series(cat(out_a), dtype="int64"),
            "doc_b": pd.Series(cat(out_b), dtype="int64"),
            "hamming": pd.Series(cat(out_h), dtype="int64"),
        })

    cands = bucketed_group_apply(bands, ["band_id", "band_key"],
                                 pairs_in_bucket, num_buckets=num_buckets)
    from wsid_ray.stages.groups import distinct
    return distinct(cands, ["doc_a", "doc_b"], num_buckets=16)


def jaccard_pairs(docs: rd.Dataset, threshold: float,
                  shingle_k: int = 1, num_perm: int = 64,
                  num_bands: int = 16) -> rd.Dataset:
    """Exact n-gram Jaccard on MinHash-LSH candidate pairs:
    candidates (bucketed LSH, no all-pairs) -> two partitioned hash joins
    to attach each side's shingle set -> per-pair verify.  Only candidate
    pairs and the shingle-set table move through the joins — nothing is
    materialised on the driver (the 100 TB shape; SURVEY.md §2.7).

    Returns (doc_a, doc_b, jaccard) with jaccard >= threshold, half-up 6dp.
    Mirrored 1:1 (candidates included) in oracle SQL.
    """
    cands = minhash_candidates(docs, num_perm=num_perm,
                               shingle_k=shingle_k, num_bands=num_bands)

    def to_sets(t: pa.Table) -> pa.Table:
        toks = tokenize_column(t["text"]).to_pylist()
        return pa.table({
            "doc_id": t["doc_id"],
            "sh": pa.array(
                [_shingle_strings(ts, shingle_k) for ts in toks],
                type=pa.list_(pa.string())),
        })

    sets = docs.map_batches(to_sets, batch_format="pyarrow")
    return verify_candidate_pairs(cands, sets, threshold)


def verify_candidate_pairs(cands: rd.Dataset, sets: rd.Dataset,
                           threshold: float) -> rd.Dataset:
    """(doc_a, doc_b) candidates + (doc_id, sh) shingle-set table ->
    verified (doc_a, doc_b, jaccard >= threshold) — split out so the
    checkpointed chain can resume from persisted shingle sets."""
    from wsid_catalog.stages.joins import hash_join

    def side(name: str):
        def fn(t: pa.Table) -> pa.Table:
            return pa.table({name: t["doc_id"], f"sh_{name}": t["sh"]})
        return fn

    sets_a = sets.map_batches(side("doc_a"), batch_format="pyarrow")
    sets_b = sets.map_batches(side("doc_b"), batch_format="pyarrow")
    joined = hash_join(hash_join(cands, sets_a, on=["doc_a"],
                                 num_buckets=16),
                       sets_b, on=["doc_b"], num_buckets=16)

    def verify(df: pd.DataFrame) -> pd.DataFrame:
        a_col: list[int] = []
        b_col: list[int] = []
        j_col: list[float] = []
        for a, b, sa, sb in zip(df["doc_a"], df["doc_b"],
                                df["sh_doc_a"], df["sh_doc_b"]):
            A, B = set(sa), set(sb)
            if not A or not B:
                continue
            inter = len(A & B)
            if inter == 0:
                continue
            j = inter / (len(A) + len(B) - inter)
            if j >= threshold:
                a_col.append(a); b_col.append(b)
                # half-up 6dp — shared rounding rule with the SQL mirror
                j_col.append(np.floor(j * 1e6 + 0.5) / 1e6)
        return pd.DataFrame({
            "doc_a": pd.Series(a_col, dtype="int64"),
            "doc_b": pd.Series(b_col, dtype="int64"),
            "jaccard": pd.Series(j_col, dtype="float64"),
        })

    return joined.map_batches(verify, batch_format="pandas")


def gram_rows(t: pa.Table, k: int = 5) -> pa.Table:
    """Per-doc DISTINCT k-gram hashes as (doc_id, g) rows — the shared
    front end of the corpus-level n-gram operators (dup_ngram_stats,
    decontaminate).  Fully vectorised: one tokenize, md5 once per
    DISTINCT token (per-worker memo), the exact int64 polynomial fold
    s -> (s*31 + t) % 2^30 applied across the whole flattened batch, a
    row-boundary mask (a gram never crosses documents), and one packed
    np.unique for the per-doc distinct.  Docs with fewer than k tokens
    emit no rows (shared rule with the SQL mirror)."""
    import pyarrow.compute as pc

    from wsid_ray.util import list_row_indices

    toks = tokenize_column(t["text"])
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    flat = toks.flatten()
    empty = pa.table({"doc_id": pa.array([], type=pa.int64()),
                      "g": pa.array([], type=pa.int64())})
    n = len(flat)
    if n < k:
        return empty
    row_of = list_row_indices(toks)
    enc = pc.dictionary_encode(flat)
    if isinstance(enc, pa.ChunkedArray):
        enc = enc.combine_chunks()
    vocab_h = _token_hashes(enc.dictionary.to_pylist())
    th = vocab_h[enc.indices.to_numpy(zero_copy_only=False)]
    m = n - k + 1
    s = th[:m].copy()
    for j in range(1, k):
        s = (s * 31 + th[j:j + m]) % _SHINGLE_MOD
    valid = row_of[:m] == row_of[k - 1:]
    if not valid.any():
        return empty
    pack = np.unique(row_of[:m][valid] * np.int64(_SHINGLE_MOD)
                     + s[valid])
    rows = (pack // _SHINGLE_MOD).astype(np.int64)
    return pa.table({
        "doc_id": t["doc_id"].take(pa.array(rows)),
        "g": pa.array(pack % _SHINGLE_MOD, type=pa.int64()),
    })


def dup_ngram_stats(docs: rd.Dataset, k: int = 5,
                    num_buckets: int = 32) -> rd.Dataset:
    """MassiveText-style duplicated-n-gram signal (Rae et al. 2021 §A1.1):
    per document, the count and fraction of its distinct k-grams that
    also occur in at least one OTHER document.  Two bucketed shuffles,
    both over (int64, int64) rows only — never text: grams keyed on the
    gram hash to attach corpus doc-counts, then keyed on doc_id for the
    per-doc fold.  No joins, no driver materialisation, no broadcast —
    the corpus-frequency side scales with distinct grams, not documents.
    """
    from wsid_ray.stages.groups import bucketed_group_apply

    grams = docs.map_batches(lambda t: gram_rows(t, k),
                             batch_format="pyarrow")

    def attach_docfreq(df: pd.DataFrame) -> pd.DataFrame:
        # grams are per-doc distinct, so the group size IS the doc count
        nd = df.groupby("g")["doc_id"].transform("size")
        return pd.DataFrame({"doc_id": df["doc_id"],
                             "dup": (nd > 1).astype("int64")})

    flagged = bucketed_group_apply(
        grams, ["g"], attach_docfreq, num_buckets=num_buckets,
        out_schema=pa.schema([("doc_id", pa.int64()),
                              ("dup", pa.int64())]))

    def per_doc(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("doc_id", as_index=False).agg(
            n_grams=("dup", "size"), n_dup_grams=("dup", "sum"))
        g["n_grams"] = g["n_grams"].astype("int64")
        g["n_dup_grams"] = g["n_dup_grams"].astype("int64")
        g["dup_frac"] = (np.floor(g["n_dup_grams"] / g["n_grams"]
                                  * 1e6 + 0.5) / 1e6)
        return g

    return bucketed_group_apply(
        flagged, ["doc_id"], per_doc, num_buckets=num_buckets,
        out_schema=pa.schema([("doc_id", pa.int64()),
                              ("n_grams", pa.int64()),
                              ("n_dup_grams", pa.int64()),
                              ("dup_frac", pa.float64())]))


def _bench_mask(ids: np.ndarray, pct: int) -> np.ndarray:
    """Deterministic benchmark membership: md5_number_upper(doc_id) % 100
    < pct (the same content-stable hash rule as the train/val split)."""
    return np.fromiter(
        (int.from_bytes(hashlib.md5(str(i).encode()).digest()[:8],
                        "little") % 100 < pct for i in ids),
        dtype=bool, count=len(ids))


def decontaminate(docs: rd.Dataset, k: int = 5, bench_pct: int = 5,
                  num_buckets: int = 16) -> rd.Dataset:
    """Benchmark decontamination (GPT-3 appendix-C style): flag training
    documents sharing any k-gram with a held-out benchmark set.  The
    benchmark here is the deterministic hash slice doc_id%100 < bench_pct
    — in production it is the real eval set, same plumbing.

    Scale shape: the benchmark gram set is deduped with a bucketed
    distinct and met via a PARTITIONED hash join on the gram hash (never
    broadcast — a 100 TB-scale benchmark suite can exceed driver memory);
    only (int64, int64) rows move.  Output: one row per contaminated
    non-benchmark document with its distinct-gram hit count."""
    from wsid_ray.stages.groups import bucketed_group_apply, distinct
    from wsid_catalog.stages.joins import hash_join

    def split(bench: bool):
        def fn(t: pa.Table) -> pa.Table:
            ids = t["doc_id"].to_numpy(zero_copy_only=False)
            m = _bench_mask(ids, bench_pct)
            return gram_rows(t.filter(pa.array(m if bench else ~m)), k)
        return fn

    bench_grams = distinct(
        docs.map_batches(split(True), batch_format="pyarrow")
        .map_batches(lambda t: t.select(["g"]), batch_format="pyarrow"),
        ["g"], num_buckets=num_buckets)
    train_grams = docs.map_batches(split(False), batch_format="pyarrow")
    hits = hash_join(train_grams, bench_grams, on=["g"],
                     num_buckets=num_buckets)

    def per_doc(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("doc_id", as_index=False).agg(n_hits=("g", "size"))
        g["n_hits"] = g["n_hits"].astype("int64")
        return g

    return bucketed_group_apply(
        hits, ["doc_id"], per_doc, num_buckets=num_buckets,
        out_schema=pa.schema([("doc_id", pa.int64()),
                              ("n_hits", pa.int64())]))


def gram_pos_rows(t: pa.Table, k: int = 5) -> pa.Table:
    """ALL k-gram start positions as (doc_id, pos, g) rows (pos 0-based
    within the doc) — the positional front end of span-level dedup.
    Same vectorised fold + hash domain as gram_rows, WITHOUT the per-doc
    distinct (removal needs every occurrence)."""
    import pyarrow.compute as pc

    from wsid_ray.util import list_row_indices

    toks = tokenize_column(t["text"])
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    flat = toks.flatten()
    empty = pa.table({"doc_id": pa.array([], type=pa.int64()),
                      "pos": pa.array([], type=pa.int64()),
                      "g": pa.array([], type=pa.int64())})
    n = len(flat)
    if n < k:
        return empty
    row_of = list_row_indices(toks)
    offs = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    starts = offs[:-1] - offs[0]
    enc = pc.dictionary_encode(flat)
    if isinstance(enc, pa.ChunkedArray):
        enc = enc.combine_chunks()
    vocab_h = _token_hashes(enc.dictionary.to_pylist())
    th = vocab_h[enc.indices.to_numpy(zero_copy_only=False)]
    m = n - k + 1
    s = th[:m].copy()
    for j in range(1, k):
        s = (s * 31 + th[j:j + m]) % _SHINGLE_MOD
    valid = row_of[:m] == row_of[k - 1:]
    if not valid.any():
        return empty
    rows = row_of[:m][valid]
    pos = np.flatnonzero(valid) - starts[rows]
    return pa.table({
        "doc_id": t["doc_id"].take(pa.array(rows)),
        "pos": pa.array(pos.astype(np.int64), type=pa.int64()),
        "g": pa.array(s[valid], type=pa.int64())})


def dedup_spans(docs: rd.Dataset, k: int = 5,
                num_buckets: int = 16) -> rd.Dataset:
    """Exact duplicate-SPAN removal (the k-gram form of Lee et al. 2022
    "Deduplicating Training Data Makes Language Models Better" exact
    substring dedup): every token position covered by a k-gram that
    occurs in >= 2 distinct documents is removed — from ALL copies —
    and each doc reports its kept-stream fingerprint.

    Scale shape: dup-gram discovery is one bucketed shuffle of per-doc
    DISTINCT (doc_id, g) int64 rows; coverage is a PARTITIONED hash
    semi-join of the all-positions gram stream against the dup-gram set
    keyed on g (never broadcast — the dup set scales with the corpus);
    covered starts fold per doc through one bucketed shuffle of
    (int64, int64) rows; the text itself shuffles exactly once, in the
    final doc-keyed reconstruction join."""
    from wsid_catalog.stages.joins import hash_join

    pos_grams = docs.map_batches(lambda t: gram_pos_rows(t, k),
                                 batch_format="pyarrow")
    distinct = docs.map_batches(lambda t: gram_rows(t, k),
                                batch_format="pyarrow")

    def dup_only(df: pd.DataFrame) -> pd.DataFrame:
        nd = df.groupby("g", sort=False).size()
        return pd.DataFrame({"g": nd[nd > 1].index.to_numpy()
                             .astype("int64")})

    dupg = bucketed_group_apply(
        distinct, ["g"], dup_only, num_buckets=num_buckets,
        out_schema=pa.schema([("g", pa.int64())]))

    covered = hash_join(pos_grams, dupg, on=["g"],
                        num_buckets=num_buckets)

    def starts_csv(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("doc_id", sort=False)["pos"] \
            .apply(lambda s: ",".join(
                str(x) for x in np.unique(s.to_numpy()))).reset_index()
        return g.rename(columns={"pos": "starts"})

    cov_agg = bucketed_group_apply(
        covered.map_batches(lambda t: t.select(["doc_id", "pos"]),
                            batch_format="pyarrow"),
        ["doc_id"], starts_csv, num_buckets=num_buckets,
        out_schema=pa.schema([("doc_id", pa.int64()),
                              ("starts", pa.string())]))

    joined = hash_join(docs, cov_agg, on=["doc_id"], how="left",
                       num_buckets=num_buckets)

    def finish(t: pa.Table) -> pa.Table:
        toks = tokenize_column(t["text"]).to_pylist()
        starts = t["starts"].to_pylist()
        ids, n_tok, n_rm, fps = [], [], [], []
        for did, tk, st in zip(t["doc_id"].to_pylist(), toks, starts):
            cov = np.zeros(len(tk), dtype=bool)
            if st:
                for p in st.split(","):
                    p = int(p)
                    cov[p:p + k] = True
            kept = [w for w, c in zip(tk, cov) if not c]
            ids.append(did)
            n_tok.append(len(tk))
            n_rm.append(int(cov.sum()))
            fps.append(hashlib.md5(" ".join(kept).encode()).hexdigest())
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "n_tokens": pa.array(n_tok, pa.int64()),
            "n_removed": pa.array(n_rm, pa.int64()),
            "kept_fp": pa.array(fps, pa.string())})

    return joined.map_batches(finish, batch_format="pyarrow")


def minhash_jaccard_estimate(docs: rd.Dataset, num_perm: int = 64,
                             shingle_k: int = 3, num_bands: int = 16
                             ) -> rd.Dataset:
    """Sketch-quality audit: for every LSH candidate pair, the MinHash
    Jaccard ESTIMATE (matching signature positions / num_perm) beside
    the EXACT shingle-set Jaccard, both as integer micro-units plus the
    absolute estimation error — the operator you run to validate a
    banding configuration before trusting it on a corpus (Broder 1997
    resemblance estimator).  Zero-intersection candidates (pure LSH
    false positives) are KEPT: they are exactly what the audit needs to
    show.

    Physical plan: candidates from the bucketed LSH (never all-pairs);
    one combined (signature, shingle-set) side table per doc, attached
    with two partitioned hash joins; per-pair verify on the joined
    stream.  est_micro = n_match * 1_000_000 // num_perm and
    jacc_micro = floor(j * 1e6 + 0.5) keep the whole contract in int64."""
    from wsid_catalog.stages.joins import hash_join

    cands = minhash_candidates(docs, num_perm=num_perm,
                               shingle_k=shingle_k, num_bands=num_bands)

    def side(name: str):
        def fn(t: pa.Table) -> pa.Table:
            toks = tokenize_column(t["text"]).to_pylist()
            ids = np.asarray(t["doc_id"].to_numpy(zero_copy_only=False),
                             dtype=np.int64)
            mh = _MINHASHER_MEMO.get((num_perm, shingle_k, num_bands, 42))
            if mh is None:
                mh = _MINHASHER_MEMO[(num_perm, shingle_k, num_bands, 42)] \
                    = MinHasher(num_perm, shingle_k, num_bands)
            keep, S = mh.signatures_batch(toks)
            return pa.table({
                name: pa.array(ids[keep], type=pa.int64()),
                f"sig_{name}": pa.array(list(S),
                                        type=pa.list_(pa.int64())),
                f"sh_{name}": pa.array(
                    [_shingle_strings(toks[i], shingle_k) for i in keep],
                    type=pa.list_(pa.string())),
            })
        return fn

    joined = hash_join(hash_join(cands,
                                 docs.map_batches(side("doc_a"),
                                                  batch_format="pyarrow"),
                                 on=["doc_a"], num_buckets=16),
                       docs.map_batches(side("doc_b"),
                                        batch_format="pyarrow"),
                       on=["doc_b"], num_buckets=16)

    def verify(df: pd.DataFrame) -> pd.DataFrame:
        a_c, b_c, m_c, j_c = [], [], [], []
        for a, b, ga, gb, sa, sb in zip(df["doc_a"], df["doc_b"],
                                        df["sig_doc_a"], df["sig_doc_b"],
                                        df["sh_doc_a"], df["sh_doc_b"]):
            n_match = int((np.asarray(ga) == np.asarray(gb)).sum())
            A, B = set(sa), set(sb)
            inter = len(A & B)
            j = inter / (len(A) + len(B) - inter)
            a_c.append(a); b_c.append(b); m_c.append(n_match)
            j_c.append(int(np.floor(j * 1e6 + 0.5)))
        est = (np.asarray(m_c, dtype=np.int64) * 1_000_000) // num_perm
        jac = np.asarray(j_c, dtype=np.int64)
        return pd.DataFrame({
            "doc_a": pd.Series(a_c, dtype="int64"),
            "doc_b": pd.Series(b_c, dtype="int64"),
            "n_match": pd.Series(m_c, dtype="int64"),
            "est_micro": pd.Series(est, dtype="int64"),
            "jacc_micro": pd.Series(jac, dtype="int64"),
            "err_micro": pd.Series(np.abs(est - jac), dtype="int64"),
        })

    return joined.map_batches(verify, batch_format="pandas")


def lsh_bucket_stats(docs: rd.Dataset, num_perm: int = 64,
                     shingle_k: int = 3, num_bands: int = 16,
                     num_buckets: int = 16) -> rd.Dataset:
    """LSH health histogram: distribution of band-bucket sizes —
    (bucket_size, n_buckets).  A heavy tail here is the early warning
    that banding parameters will blow up the candidate pair count
    (pairs per bucket grow quadratically).  Per-batch partial counts,
    one bucketed shuffle keyed on (band_id, band_hash), then a tiny
    second fold on the size — only aggregate rows ever move."""
    from wsid_ray.stages.groups import bucketed_sum, partial_count

    bands = docs.map_batches(
        minhash_band_rows,
        fn_kwargs=dict(num_perm=num_perm, shingle_k=shingle_k,
                       num_bands=num_bands),
        batch_format="pyarrow", batch_size=1024)
    sizes = bucketed_sum(partial_count(bands, ["band_id", "band_hash"]),
                         ["band_id", "band_hash"], ["n"],
                         num_buckets=num_buckets)

    def rename(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"bucket_size": df["n"].astype("int64")})

    hist = bucketed_sum(
        partial_count(sizes.map_batches(rename, batch_format="pandas"),
                      ["bucket_size"], out_name="n_buckets"),
        ["bucket_size"], ["n_buckets"], num_buckets=4)
    out_schema = pa.schema([("bucket_size", pa.int64()),
                            ("n_buckets", pa.int64())])
    return hist.map_batches(
        lambda t: t.select(["bucket_size", "n_buckets"]).cast(out_schema),
        batch_format="pyarrow")


# ---------------------------------------------------------------------------
# exact-substring duplicated spans (suffix granularity) — VERDICT r04 item 4


def exact_substrings(docs: rd.Dataset, min_len: int = 5,
                     num_buckets: int = 16) -> rd.Dataset:
    """Maximal duplicated spans at SUFFIX granularity — the Lee et al.
    2022 "Deduplicating Training Data Makes Language Models Better"
    exact-substring variant next to the gram-anchored ``dedup_spans``:

      * a length-``min_len`` token window is duplicated iff its EXACT
        token sequence occurs at >= 2 positions corpus-wide (within-doc
        repeats count — unlike dedup_spans' distinct-doc rule, and
        verified on the real text, never on hashes alone);
      * output = one row per MAXIMAL run of covered positions:
        (doc_id, start, len, span_fp) with arbitrary, non-gram-aligned
        boundaries (a 7-token shared passage at min_len=5 reports start
        and len 7 exactly) and span_fp = md5 of the span's tokens.

    Scale shape (no all-pairs, no broadcast, suffix work only on
    candidates): (1) int64 rolling-hash window counts prune to
    candidate hashes via one bucketed sum; (2) candidates semi-join
    back positionally (partitioned hash joins); (3) the candidate
    windows ship their ACTUAL text into a per-window-text bucketed
    group — the "suffix ordering over candidate doc groups" step —
    where >= 2 identical texts confirm a duplicate (hash collisions
    die here); (4) covered starts fold per doc and the text shuffles
    exactly once in the final reconstruction join."""
    import pyarrow.compute as pc

    from wsid_catalog.stages.joins import hash_join
    from wsid_ray.stages.groups import bucketed_sum

    L = min_len
    pos_grams = docs.map_batches(lambda t: gram_pos_rows(t, L),
                                 batch_format="pyarrow")

    def part_counts(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"g": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        u, c = np.unique(t["g"].to_numpy(zero_copy_only=False),
                         return_counts=True)
        return pa.table({"g": pa.array(u, pa.int64()),
                         "n": pa.array(c.astype(np.int64), pa.int64())})

    counts = bucketed_sum(pos_grams.map_batches(part_counts,
                                                batch_format="pyarrow"),
                          ["g"], ["n"], num_buckets=num_buckets)
    dupg = counts.map_batches(
        lambda t: t.filter(pc.greater_equal(t["n"], 2)).select(["g"]),
        batch_format="pyarrow")

    cand = hash_join(pos_grams, dupg, on=["g"], num_buckets=num_buckets)

    def starts_csv(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("doc_id", sort=False)["pos"] \
            .apply(lambda s: ",".join(
                str(x) for x in np.unique(s.to_numpy()))).reset_index()
        return g.rename(columns={"pos": "starts"})

    csv_schema = pa.schema([("doc_id", pa.int64()),
                            ("starts", pa.string())])
    cand_agg = bucketed_group_apply(
        cand.map_batches(lambda t: t.select(["doc_id", "pos"]),
                         batch_format="pyarrow"),
        ["doc_id"], starts_csv, num_buckets=num_buckets,
        out_schema=csv_schema)

    with_text = hash_join(docs, cand_agg, on=["doc_id"],
                          num_buckets=num_buckets)

    def emit_windows(t: pa.Table) -> pa.Table:
        toks = tokenize_column(t["text"]).to_pylist()
        ids, poss, texts = [], [], []
        for did, tk, st in zip(t["doc_id"].to_pylist(), toks,
                               t["starts"].to_pylist()):
            if not st:
                continue
            for p in st.split(","):
                p = int(p)
                ids.append(did)
                poss.append(p)
                texts.append(" ".join(tk[p:p + L]))
        return pa.table({
            "wtext": pa.array(texts, pa.string()),
            "doc_id": pa.array(ids, pa.int64()),
            "pos": pa.array(poss, pa.int64())})

    wt = with_text.map_batches(emit_windows, batch_format="pyarrow")

    def verify(df: pd.DataFrame) -> pd.DataFrame:
        sizes = df.groupby("wtext", sort=False)["wtext"].transform("size")
        out = df.loc[sizes >= 2, ["doc_id", "pos"]].copy()
        out["doc_id"] = out["doc_id"].astype("int64")
        out["pos"] = out["pos"].astype("int64")
        return out

    ver = bucketed_group_apply(
        wt, ["wtext"], verify, num_buckets=num_buckets,
        out_schema=pa.schema([("doc_id", pa.int64()),
                              ("pos", pa.int64())]))

    ver_agg = bucketed_group_apply(ver, ["doc_id"], starts_csv,
                                   num_buckets=num_buckets,
                                   out_schema=csv_schema)
    final = hash_join(docs, ver_agg, on=["doc_id"],
                      num_buckets=num_buckets)

    def finish(t: pa.Table) -> pa.Table:
        toks = tokenize_column(t["text"]).to_pylist()
        ids, starts, lens, fps = [], [], [], []
        for did, tk, st in zip(t["doc_id"].to_pylist(), toks,
                               t["starts"].to_pylist()):
            if not st:
                continue
            cov = np.zeros(len(tk), dtype=bool)
            for p in st.split(","):
                p = int(p)
                cov[p:p + L] = True
            # maximal runs of covered positions
            d = np.diff(np.concatenate(([0], cov.view(np.int8), [0])))
            run_s = np.flatnonzero(d == 1)
            run_e = np.flatnonzero(d == -1)
            for s, e in zip(run_s, run_e):
                ids.append(did)
                starts.append(int(s))
                lens.append(int(e - s))
                fps.append(hashlib.md5(
                    " ".join(tk[s:e]).encode()).hexdigest())
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "start": pa.array(starts, pa.int64()),
            "len": pa.array(lens, pa.int64()),
            "span_fp": pa.array(fps, pa.string())})

    return final.map_batches(finish, batch_format="pyarrow")
