"""O3 window caps + U1 stage registry."""

import pandas as pd
import pyarrow as pa
import ray.data as rd

from wsid_catalog.stage import REGISTRY, pipeline
from wsid_catalog.stages.sampling import cap_windows_per_term, term_counts


def mentions(n_hot=200, n_cold=10):
    rows = []
    for i in range(n_hot):
        rows.append(("hot", f"c{i%7}", i, 0))
    for i in range(n_cold):
        rows.append(("cold", f"c{i}", i, 0))
    df = pd.DataFrame(rows, columns=["term", "conv_id", "turn_idx",
                                     "span_start"])
    df["turn_idx"] = df["turn_idx"].astype("int32")
    df["span_start"] = df["span_start"].astype("int32")
    return rd.from_pandas(df)


def test_term_counts():
    c = term_counts(mentions())
    assert c == {"hot": 200, "cold": 10}


def test_cap_is_deterministic_and_approximate():
    ds = mentions()
    out1 = cap_windows_per_term(ds, cap=50).to_pandas()
    out2 = cap_windows_per_term(mentions(), cap=50).to_pandas()
    # deterministic across runs
    k = ["term", "conv_id", "turn_idx", "span_start"]
    pd.testing.assert_frame_equal(out1.sort_values(k).reset_index(drop=True),
                                  out2.sort_values(k).reset_index(drop=True))
    hot = (out1["term"] == "hot").sum()
    cold = (out1["term"] == "cold").sum()
    assert cold == 10           # under cap: untouched
    assert 20 <= hot <= 90      # ~50 expected, hash-sampled


def test_stage_registry_pipeline():
    assert {"tokenize", "detect_mentions"} <= set(REGISTRY)
    t = pa.table({
        "conv_id": ["c0"], "turn_idx": pa.array([0], type=pa.int32()),
        "role": ["user"], "text": ["the python interpreter ran the module"],
        "tool": [""], "ts": pa.array([0], type=pa.timestamp("us")),
    })
    out = pipeline(rd.from_arrow(t), ["tokenize", "detect_mentions"])
    rows = out.take_all()
    assert rows[0]["term"] == "python"


def test_registry_doc_stages_compose():
    """U1: registered doc stages build and compose via pipeline()."""
    import pyarrow as pa
    import ray.data as rd

    from wsid_catalog.stage import REGISTRY, pipeline

    for name in ("doc_token_counts", "doc_quality", "doc_langid",
                 "doc_fingerprint", "doc_simhash", "minhash_candidates",
                 "simhash_near_dup"):
        assert name in REGISTRY
    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array([0, 1], type=pa.int64()),
        "text": pa.array(["alpha beta gamma delta", "alpha beta gamma x"]),
    }))
    out = pipeline(docs, ["doc_simhash"])
    assert set(out.schema().names) == {"doc_id", "simhash"}
    assert out.count() == 2


def test_registry_sketch_stages_run():
    """The sketch stages registered under U1 execute end to end."""
    import pyarrow as pa
    import ray.data as rd

    from wsid_catalog.stage import REGISTRY, StageConfig

    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(8), type=pa.int64()),
        "text": pa.array(["alpha beta " * 30] * 8)}))
    cfg = StageConfig()
    # default threshold 500: 8 docs x 30 reps = 240 each -> empty
    hh = REGISTRY["corpus_heavy_hitters"].build(docs, cfg).to_pandas()
    assert len(hh) == 0
    import dataclasses
    cfg = dataclasses.replace(cfg, heavy_hitter_threshold=200)
    hh = REGISTRY["corpus_heavy_hitters"].build(docs, cfg).to_pandas()
    assert dict(zip(hh["token"], hh["n"])) == {"alpha": 240, "beta": 240}
    regs = REGISTRY["hll_registers"].build(docs, cfg).to_pandas()
    assert len(regs) <= 8 and (regs["r"] >= 1).all()
