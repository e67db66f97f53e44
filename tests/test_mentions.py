"""M3/M4 — mention spans and sliding windows (exact values)."""

from collections import Counter
from dataclasses import replace
from datetime import datetime

import numpy as np
import pyarrow as pa
import pytest

from wsid_ray import oracle
from wsid_ray.config import DEFAULT_CONFIG
from wsid_ray.stages.mentions import MentionDetector
from wsid_ray.stages.tokenize import tokenize_batch


def _turns(texts):
    n = len(texts)
    return tokenize_batch(pa.table({
        "conv_id": pa.array([f"c{i}" for i in range(n)]),
        "turn_idx": pa.array([0] * n, type=pa.int32()),
        "role": pa.array(["user"] * n),
        "text": pa.array(texts),
        "tool": pa.array([""] * n),
        "ts": pa.array([0] * n, type=pa.timestamp("us")),
    }))


def test_window_excludes_target_and_respects_bounds():
    det = MentionDetector(window_size=2, gazetteer=("python",))
    out = det(_turns(["aaa bbb python ccc ddd eee"]))
    rows = out.to_pylist()
    assert len(rows) == 1
    m = rows[0]
    assert m["term"] == "python"
    assert m["span_start"] == 2 and m["span_end"] == 3
    assert m["win_tokens"] == ["aaa", "bbb", "ccc", "ddd"]


def test_window_at_turn_edges():
    det = MentionDetector(window_size=3, gazetteer=("python",))
    out = det(_turns(["python aaa", "aaa python"]))
    wins = [r["win_tokens"] for r in out.to_pylist()]
    assert wins == [["aaa"], ["aaa"]]


def test_multiple_mentions_one_turn():
    det = MentionDetector(window_size=1, gazetteer=("python", "jaguar"))
    out = det(_turns(["python aaa jaguar"]))
    rows = sorted(out.to_pylist(), key=lambda r: r["span_start"])
    assert [(r["term"], r["span_start"]) for r in rows] == [
        ("python", 0), ("jaguar", 2)]
    assert rows[0]["win_tokens"] == ["aaa"]
    assert rows[1]["win_tokens"] == ["aaa"]


def test_no_mentions_empty_table_schema_stable():
    det = MentionDetector(window_size=2, gazetteer=("python",))
    out = det(_turns(["nothing here at all"]))
    assert out.num_rows == 0
    assert out.schema == _MENTIONS_SCHEMA


# --- matcher parity with the sequential oracle ----------------------------

_VOCAB = ("river", "bank", "loan", "big", "apple", "echo", "jaguar", "car",
          "python", "code", "snake", "stream", "mud", "vault", "teller",
          "shore", "flood", "engine", "speed", "forest")


def _parity_corpus():
    """Turns of random words from a small vocabulary (so n-grams repeat),
    plus planted cases: a repeated token, a prefix chain and an n-gram
    ("edgeleft edgeright") that exists only across a turn boundary."""
    rng = np.random.RandomState(3)
    texts = [" ".join(rng.choice(_VOCAB, rng.randint(0, 30)))
             for _ in range(150)]
    texts += ["echo echo echo river bank loan", "big apple river bank",
              "snake edgeleft", "edgeright code", ""]
    return [{"conv_id": f"c{i // 4}", "turn_idx": i % 4, "role": "user",
             "tool": "", "ts": datetime(2024, 1, 1), "text": t}
            for i, t in enumerate(texts)]


def _parity_gazetteer(turns, n=1000):
    """~n terms of 1-6 tokens drawn from the corpus's own n-grams."""
    rng = np.random.RandomState(5)
    grams = set()
    for t in turns:
        toks = oracle.tokenize(t["text"])
        for m in range(1, 7):
            grams.update(" ".join(toks[i:i + m])
                         for i in range(len(toks) - m + 1))
    grams = sorted(grams)
    picked = {grams[i] for i in rng.choice(len(grams), n, replace=False)}
    return tuple(sorted(picked | {
        "river", "river bank", "river bank loan", "echo echo",
        "edgeleft edgeright", "big apple", "big  apple"}))


_MENTIONS_SCHEMA = pa.schema([
    ("conv_id", pa.string()), ("turn_idx", pa.int32()),
    ("role", pa.string()), ("tool", pa.string()),
    ("ts", pa.timestamp("us")), ("term", pa.string()),
    ("span_start", pa.int32()), ("span_end", pa.int32()),
    ("win_tokens", pa.list_(pa.string()))])


def _key(r):
    return (r["conv_id"], r["turn_idx"], r["term"], r["span_start"],
            r["span_end"], tuple(r["win_tokens"]))


def _engine_rows(turns, cfg):
    batch = tokenize_batch(pa.Table.from_pylist(turns, schema=pa.schema([
        ("conv_id", pa.string()), ("turn_idx", pa.int32()),
        ("role", pa.string()), ("tool", pa.string()),
        ("ts", pa.timestamp("us")), ("text", pa.string())])))
    det = MentionDetector(cfg.window_size, cfg.gazetteer)
    # sliced batches: the token list offsets do not start at 0
    parts = [det(batch.slice(a, 53)) for a in range(0, batch.num_rows, 53)]
    return parts, [_key(r) for p in parts for r in p.to_pylist()]


@pytest.mark.parametrize("which", ["all", "multi_only", "empty"])
def test_matcher_matches_oracle(which):
    turns = _parity_corpus()
    gaz = _parity_gazetteer(turns)
    if which == "multi_only":
        gaz = tuple(g for g in gaz if " " in g)
    elif which == "empty":
        gaz = ()
    cfg = replace(DEFAULT_CONFIG, gazetteer=gaz)
    parts, got = _engine_rows(turns, cfg)
    want = [_key(r) for r in oracle.extract_mentions(turns, cfg)]
    assert Counter(got) == Counter(want)
    assert all(p.schema == _MENTIONS_SCHEMA for p in parts)
    if which == "empty":
        assert not got
        return
    terms = Counter(k[2] for k in got)
    echo = next(t for t in turns if t["text"].startswith("echo echo echo"))
    assert [k[3] for k in got if k[2] == "echo echo" and k[:2] == (
        echo["conv_id"], echo["turn_idx"])] == [0, 1]   # overlapping
    assert terms["big apple"] == terms["big  apple"] > 0
    assert terms["edgeleft edgeright"] == 0
    assert terms["river bank loan"] > 0 and (
        which == "multi_only" or terms["river"] >= terms["river bank"])
    assert len(gaz) > 900
