"""Property-based invariants (FIXTURES.md F3; hypothesis)."""

import math
from collections import Counter
from itertools import combinations

import hypothesis.strategies as st
from hypothesis import given, settings

from wsid_ray.config import PipelineConfig
from wsid_ray.cw import chinese_whispers
from wsid_ray.oracle import cooc_stats, npmi_edges

tokens = st.sampled_from(["aa1", "bb2", "cc3", "dd4", "ee5", "ff6"])
windows = st.lists(st.lists(tokens, min_size=1, max_size=6),
                   min_size=1, max_size=30)


@settings(max_examples=50, deadline=None)
@given(windows)
def test_npmi_bounded(wins):
    mentions = [{"term": "t", "win_tokens": w} for w in wins]
    totals, unis, pairs = cooc_stats(mentions)
    cfg = PipelineConfig(cooc_min_count=1, npmi_min=-1.000001)
    edges = npmi_edges(totals, unis, pairs, cfg)
    for _, es in edges.items():
        for w, v, npmi in es:
            assert -1.0 - 1e-9 <= npmi <= 1.0 + 1e-9
            assert w < v  # canonical order


@settings(max_examples=50, deadline=None)
@given(windows)
def test_window_counts_consistent(wins):
    mentions = [{"term": "t", "win_tokens": w} for w in wins]
    totals, unis, pairs = cooc_stats(mentions)
    N = totals["t"]
    for (term, w), n in unis.items():
        assert 1 <= n <= N
    for (term, w, v), n in pairs.items():
        assert n <= unis[(term, w)] and n <= unis[(term, v)]


edge_lists = st.lists(
    st.tuples(st.integers(0, 12), st.integers(0, 12)),
    min_size=0, max_size=40)


# A star forest of linked mentions: per entity, one kb_id (or None: not
# linked) and the blocks its mentions land in, repeats allowed.
star_forests = st.lists(
    st.tuples(st.one_of(st.none(), st.integers(0, 4)),
              st.lists(st.integers(0, 3), min_size=1, max_size=3)),
    min_size=0, max_size=12)


def _linked_blocks(entities, n_blocks):
    """(kb index or None, block indices) per entity -> (linked-mention
    Blocks, the same mentions as dicts)."""
    import pyarrow as pa
    import ray

    from wsid_ray.stages.groups import Blocks

    rows = [[] for _ in range(n_blocks)]
    for i, (kb, blocks) in enumerate(entities):
        # not linked: odd entities have no sense, even ones no kb_id
        m = {"entity_id": f"e{i:02d}#{i % 2}",
             "sense_id": -1 if kb is None and i % 2 else i % 2,
             "kb_id": "" if kb is None else f"kb:{kb}"}
        for b in blocks:
            rows[b % n_blocks].append(m)
    schema = pa.schema([("entity_id", pa.string()),
                        ("sense_id", pa.int64()), ("kb_id", pa.string())])
    tables = [pa.Table.from_pylist(r, schema=schema) for r in rows]
    return (Blocks([ray.put(t) for t in tables],
                   [t.num_rows for t in tables]),
            [m for r in rows for m in r])


@settings(max_examples=30, deadline=None)
@given(star_forests, st.integers(1, 4))
def test_canon_map_on_star_forest_matches_oracle(entities, n_blocks):
    """canon_map's one kb_id-keyed group-by equals the oracle's general
    union-find on every star forest, duplicate pairs across blocks
    included."""
    from wsid_ray.oracle import canonicalize
    from wsid_ray.pipelines.flagship import canon_map

    blocks, mentions = _linked_blocks(entities, n_blocks)
    assert canon_map(blocks) == canonicalize(mentions)


def test_canon_map_refuses_entity_under_two_kb_ids():
    """An entity linked to two kb_ids breaks the star premise: canon_map
    raises, naming it, instead of returning one of its two names."""
    import pyarrow as pa
    import pytest
    import ray

    from wsid_ray.pipelines.flagship import canon_map
    from wsid_ray.stages.groups import Blocks

    t = pa.table({"entity_id": ["a#0", "a#0", "b#0"],
                  "sense_id": [0, 0, 0],
                  "kb_id": ["kb:x", "kb:y", "kb:y"]})
    with pytest.raises(ValueError, match="a#0"):
        canon_map(Blocks([ray.put(t)], [t.num_rows]))


@settings(max_examples=30, deadline=None)
@given(edge_lists, st.integers(0, 1000))
def test_cw_deterministic_and_partitions(pairs, seed_int):
    nodes = sorted({f"n{a}" for a, _ in pairs} | {f"n{b}" for _, b in pairs})
    edges = [(f"n{a}", f"n{b}", 1.0) for a, b in pairs if a != b]
    if not nodes:
        return
    l1 = chinese_whispers(nodes, edges, seed_key=str(seed_int))
    l2 = chinese_whispers(nodes, edges, seed_key=str(seed_int))
    assert l1 == l2
    assert set(l1) == set(nodes)
    labels = sorted(set(l1.values()))
    assert labels == list(range(len(labels)))  # dense renumbering


# --- vectorised-kernel vs slow-reference properties (round 2) -----------

texts_st = st.lists(
    st.text(alphabet=st.sampled_from("ab z.!é世 12"),
            min_size=0, max_size=40),
    min_size=1, max_size=8)


def _docs_table(texts):
    import pyarrow as pa
    return pa.table({
        "doc_id": pa.array(range(len(texts)), type=pa.int64()),
        "text": pa.array(texts, type=pa.string()),
    })


@settings(max_examples=60, deadline=None)
@given(texts_st)
def test_simhash_vectorised_matches_reference(texts):
    """np.add.at scatter implementation == per-doc loop reference."""
    import hashlib

    import numpy as np

    from wsid_catalog.stages.textstats import simhash_batch
    from wsid_ray.stages.tokenize import tokenize_column
    got = {r["doc_id"]: r["simhash"]
           for r in simhash_batch(_docs_table(texts)).to_pylist()}
    t = _docs_table(texts)
    toks = tokenize_column(t["text"]).to_pylist()
    for i, ts in enumerate(toks):
        acc = [0] * 64
        for tok in ts:
            h = int.from_bytes(hashlib.md5(tok.encode()).digest()[:8],
                               "little")
            for b in range(64):
                acc[b] += 1 if (h >> b) & 1 else -1
        sim = sum(1 << b for b in range(64) if acc[b] > 0)
        want = sim - (1 << 64) if sim >= (1 << 63) else sim
        assert got[i] == want, (i, ts)


@settings(max_examples=60, deadline=None)
@given(texts_st)
def test_quality_vectorised_matches_reference(texts):
    import re

    from wsid_ray.config import STOPWORDS
    from wsid_catalog.stages.textstats import quality_batch
    got = {r["doc_id"]: r for r in
           quality_batch(_docs_table(texts)).to_pylist()}
    stop = set(STOPWORDS)
    for i, s in enumerate(texts):
        words = [w for w in re.split(r"\s+", s) if w]
        alpha = sum(("a" <= c <= "z") or ("A" <= c <= "Z") for c in s)
        r6 = lambda x: int(x * 1e6 + 0.5) / 1e6 if x >= 0 else x  # noqa: E731
        assert got[i]["n_chars"] == len(s)
        assert got[i]["alpha_ratio"] == r6(alpha / len(s) if s else 0.0)
        assert got[i]["stop_ratio"] == r6(
            (sum(1 for w in words if w.lower() in stop) / len(words))
            if words else 0.0)
        assert got[i]["avg_token_len"] == r6(
            (sum(len(w) for w in words) / len(words)) if words else 0.0)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.sampled_from(["aa1", "bb2", "cc3", "dd4"]),
                         min_size=0, max_size=12),
                min_size=1, max_size=5))
def test_minhash_fold_matches_python_ints(token_lists):
    """The int64 polynomial shingle fold is EXACT (no wraparound) —
    compare against unbounded Python-int arithmetic."""
    import hashlib

    from wsid_catalog.stages.dedup import _SHINGLE_MOD, _shingle_hashes
    k = 3
    for ts in token_lists:
        got = sorted(int(x) for x in _shingle_hashes(ts, k))
        def h30(x):
            return int.from_bytes(hashlib.md5(x.encode()).digest()[:8],
                                  "little") >> 34
        if not ts:
            want = []
        elif len(ts) < k:
            want = [h30(" ".join(ts))]
        else:
            acc = set()
            for i in range(len(ts) - k + 1):
                s = h30(ts[i])
                for j in range(1, k):
                    s = (s * 31 + h30(ts[i + j])) % _SHINGLE_MOD
                acc.add(s)
            want = sorted(acc)
        assert got == want, ts


@settings(max_examples=60, deadline=None)
@given(st.lists(st.text(alphabet=st.sampled_from("the der le el dans y 世a "),
                        min_size=0, max_size=60),
                min_size=1, max_size=6))
def test_langid_vectorised_matches_reference(texts):
    import numpy as np

    from wsid_catalog.stages.textstats import _LANG_MARKERS, langid_batch
    got = {r["doc_id"]: (r["lang_pred"], r["lang_score"])
           for r in langid_batch(_docs_table(texts)).to_pylist()}
    for i, s in enumerate(texts):
        if any("一" <= c <= "鿿" for c in s[:500]):
            assert got[i] == ("zh", 1.0)
            continue
        words = s.lower().split()
        best_lang, best = "en", -1.0
        for lang, markers in _LANG_MARKERS.items():
            if not markers:
                continue
            score = sum(1.0 for w in words if w in markers)
            if score > best:
                best_lang, best = lang, score
        total = max(1, len(words))
        want = (best_lang, float(np.floor(best / total * 1e6 + 0.5) / 1e6))
        assert got[i] == want, (i, s)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=-10, max_value=10,
                          allow_nan=False, allow_infinity=False,
                          width=32),
                min_size=1, max_size=64))
def test_quantize_half_away_and_sign(xs):
    """quantize == the SQL expression floor(abs(x)*1e6+0.5)*sign(x),
    element-wise, for any float32 input."""
    import math

    import numpy as np

    from wsid_catalog.stages.kmeans import quantize
    arr = np.array(xs, dtype=np.float32)
    got = quantize(arr)
    for x32, g in zip(arr, got):
        x = float(x32)
        want = int(math.floor(abs(x) * 1e6 + 0.5)
                   * (0 if x == 0 else (1 if x > 0 else -1)))
        assert g == want, (x, g, want)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=40),
                min_size=1, max_size=40),
       st.integers(min_value=1, max_value=30))
def test_greedy_packing_reference(tokens, cap):
    """pack_sequences' in-bucket walk == the obvious sequential greedy."""
    import pyarrow as pa
    import ray.data as rd

    from wsid_catalog.stages.packing import pack_sequences

    texts = [" ".join(["w"] * n) for n in tokens]
    t = pa.table({"doc_id": pa.array(range(len(texts)), type=pa.int64()),
                  "lang": pa.array(["en"] * len(texts)),
                  "text": pa.array(texts)})
    got = {r["doc_id"]: r["pack_id"]
           for r in pack_sequences(rd.from_arrow(t), cap=cap,
                                   num_buckets=1).take_all()}
    acc, pid, want = 0, -1, {}
    for i, n in enumerate(tokens):
        if pid < 0 or acc + n > cap:
            pid, acc = pid + 1, n
        else:
            acc += n
        want[i] = pid
    assert got == want


@settings(max_examples=40, deadline=None)
@given(st.lists(st.text(alphabet=st.sampled_from("abcdefgh "),
                        min_size=0, max_size=80),
                min_size=1, max_size=5),
       st.integers(min_value=2, max_value=4))
def test_gram_rows_matches_reference(texts, k):
    """gram_rows' vectorised fold == the per-doc reference fold."""
    import numpy as np
    import pyarrow as pa

    from wsid_catalog.stages.dedup import _SHINGLE_MOD, _hash30, gram_rows
    from wsid_ray.stages.tokenize import tokenize_column

    t = pa.table({"doc_id": pa.array(range(len(texts)), type=pa.int64()),
                  "text": pa.array(texts)})
    got = {}
    for r in gram_rows(t, k=k).to_pylist():
        got.setdefault(r["doc_id"], set()).add(r["g"])
    toks = tokenize_column(t["text"]).to_pylist()
    for i, ts in enumerate(toks):
        want = set()
        for j in range(len(ts) - k + 1):
            s = _hash30(ts[j])
            for w in ts[j + 1:j + k]:
                s = (s * 31 + _hash30(w)) % _SHINGLE_MOD
            want.add(s)
        assert got.get(i, set()) == want, (i, ts)


# --- round-4 extension kernels -------------------------------------------

def _lev_dp(a: str, b: str) -> int:
    """Reference full-DP Levenshtein (test-only)."""
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1,
                           prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


short_words = st.text(alphabet="abcd", min_size=0, max_size=6)


@settings(max_examples=200, deadline=None)
@given(short_words, short_words)
def test_lev_le1_matches_dp(a, b):
    from wsid_catalog.stages.fuzzy import _lev_le1
    if a == b:
        return
    assert _lev_le1(a, b) == (_lev_dp(a, b) <= 1)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.text(alphabet="abc", min_size=1, max_size=5),
                min_size=1, max_size=12, unique=True))
def test_deletion_blocking_recall(vocab):
    # every lev<=1 pair shares a deletion key (FastSS recall-1.0 claim)
    import pandas as pd

    from wsid_catalog.stages.fuzzy import _deletion_keys, _lev_le1
    keys = _deletion_keys(pd.Series(vocab))
    by_name = keys.groupby("name")["key"].apply(set)
    for a, b in combinations(sorted(vocab), 2):
        if _lev_le1(a, b):
            assert by_name[a] & by_name[b], (a, b)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(["x", "yy", "z3", "w", "v5"]),
                min_size=1, max_size=30))
def test_entropy_batch_matches_direct(toks):
    import numpy as np
    import pyarrow as pa

    from wsid_catalog.stages.textstats import entropy_batch
    t = pa.table({"doc_id": pa.array([1], type=pa.int64()),
                  "text": [" ".join(toks)]})
    out = entropy_batch(t).to_pandas()
    n = len(toks)
    s = sum(int(math.floor((c * math.log(c)) * 1e6 + 0.5))
            for c in Counter(toks).values())
    want = int(math.floor(math.log(n) * 1e6 + 0.5)) - s // n
    assert out.iloc[0]["n_tokens"] == n
    assert out.iloc[0]["ent_micro"] == want
    # entropy is bounded by ln(n) and non-negative up to quantisation
    assert -1 <= out.iloc[0]["ent_micro"] <= math.log(max(n, 2)) * 1e6 + 1


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(
    st.floats(min_value=-100, max_value=100, allow_nan=False,
              width=32),
    min_size=2, max_size=8), min_size=1, max_size=10))
def test_quantize_codes_bounded_and_reconstructable(vecs):
    import numpy as np
    import pyarrow as pa

    from wsid_catalog.stages.knn import quantize_stats

    t = pa.table({
        "vec_id": pa.array(range(len(vecs)), type=pa.int64()),
        "embedding": pa.array(vecs, type=pa.list_(pa.float32()))})
    import ray.data as rd
    out = quantize_stats(rd.from_arrow(t)).to_pandas()
    for _, row in out.iterrows():
        v = np.asarray(vecs[int(row["vec_id"])], dtype=np.float64)
        vmin, vmax = v.min(), v.max()
        codes = np.floor((v - vmin) / (vmax - vmin) * 255 + 0.5)
        assert row["code_sum"] == codes.sum()
        assert 0 <= row["code_sum"] <= 255 * row["n_dims"]
        # dequantised max error is half a quantisation step
        recon = vmin + codes / 255 * (vmax - vmin)
        assert np.abs(recon - v).max() <= (vmax - vmin) / 255 / 2 + 1e-12
