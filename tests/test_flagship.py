"""End-to-end: engine vs sequential oracle (P/R gate, BASELINE.json:14),
planted-sense recovery, and the per-turn text-equality invariant
(BASELINE.json:15)."""

import pyarrow.parquet as pq
import pytest

from wsid_ray.fixtures import gt_mentions_path, transcript_files
from wsid_ray.oracle import precision_recall, run_oracle
from wsid_ray.pipelines.flagship import run_flagship
from wsid_ray.sources.transcripts import read_transcripts
from wsid_ray.stages.convgroup import conv_digest
from wsid_ray.stages.tokenize import tokenize_batch


@pytest.fixture(scope="module")
def tiny_results():
    oracle = run_oracle(transcript_files("tiny"))
    art = run_flagship("tiny")
    return oracle, art


def test_triples_match_oracle(tiny_results):
    oracle, art = tiny_results
    eng = {(r["subj"], r["pred"], r["obj"])
           for r in art.triples.take_all()}
    p, r = precision_recall(eng, oracle["triples"])
    assert p >= 0.95 and r >= 0.95, (p, r)
    assert p == 1.0 and r == 1.0  # shared determinism rules -> exact


def test_mentions_match_oracle(tiny_results):
    oracle, art = tiny_results
    eng = {(m["conv_id"], m["turn_idx"], m["term"], m["span_start"],
            m["sense_id"], m["entity_id"])
           for m in art.linked_mentions.take_all()}
    ora = {(m["conv_id"], m["turn_idx"], m["term"], m["span_start"],
            m["sense_id"], m["entity_id"])
           for m in oracle["mentions"]}
    assert eng == ora


def test_linked_senses_track_planted_kb(tiny_results):
    """Each (term, sense_id) should map dominantly to one planted kb
    entity — the induced senses separate the planted topics."""
    _, art = tiny_results
    gt = {(r["conv_id"], r["turn_idx"], r["term"]): r["kb_id"]
          for r in pq.read_table(gt_mentions_path("tiny")).to_pylist()}
    good = bad = 0
    for m in art.linked_mentions.take_all():
        key = (m["conv_id"], m["turn_idx"], m["term"])
        if key not in gt or m["sense_id"] < 0:
            continue
        if m["kb_id"] == gt[key]:
            good += 1
        else:
            bad += 1
    # tiny (≈70 turns) gives rare surface forms only a handful of windows,
    # so a couple of degenerate senses are expected; sf0.001+ accuracy is
    # checked (≥0.95) by the bench parity harness on the larger corpus.
    assert good / max(1, good + bad) >= 0.8, (good, bad)


def _nested(inventory) -> dict:
    """An ``INVENTORY_SCHEMA`` table -> the oracle's nested inventory
    {term: {sense_id: {token: weight}}}."""
    inv: dict = {}
    for r in inventory.to_pylist():
        inv.setdefault(r["term"], {}).setdefault(
            r["sense_id"], {})[r["token"]] = r["weight"]
    return inv


def _tiny_mentions():
    from wsid_ray.config import DEFAULT_CONFIG
    from wsid_ray.pipelines.flagship import detect_mentions
    turns = read_transcripts("tiny").map_batches(tokenize_batch,
                                                 batch_format="pyarrow")
    return detect_mentions(turns, DEFAULT_CONFIG).materialize()


def test_fit_matches_oracle_at_any_bucket_count(monkeypatch):
    """The fit's inventory equals the oracle's whether the term-keyed
    shuffle has one bucket, a few, or more buckets than terms (empty
    buckets included): every reduce holds whole terms."""
    from wsid_ray.config import DEFAULT_CONFIG
    from wsid_ray.pipelines.flagship import fit_model
    from wsid_ray.stages import groups
    from wsid_ray.stages.cooc import window_partials

    mentions = _tiny_mentions()
    want = run_oracle(transcript_files("tiny"))["inventory"]
    rows = window_partials(mentions).count()
    seen = []
    for n in (1, 2, 3, 32):
        monkeypatch.setattr(groups, "ROWS_PER_BUCKET", -(-rows // n))
        seen.append(-(-rows // groups.ROWS_PER_BUCKET))
        inv, edges = fit_model(mentions, DEFAULT_CONFIG)
        assert edges is None
        assert _nested(inv) == want, seen
    assert seen[:3] == [1, 2, 3] and seen[3] > len(want), seen


def test_fit_gate_decides_before_driver_collect(monkeypatch):
    """The fit counts, weighs and clusters inside the reduces of one
    term-keyed shuffle: no raw (term, w, v, n) count row ever reaches a
    driver collect, only the inventory and (with expand_cooc) the pruned
    edges, which equal the oracle's."""
    import pyarrow.compute as pc

    import wsid_ray.util as util
    from wsid_ray.config import PipelineConfig
    from wsid_ray.pipelines import flagship

    cfg = PipelineConfig(expand_cooc=True)
    mentions = _tiny_mentions()
    collected: list[list[str]] = []
    offending: list[list[str]] = []
    real = util.collect_table

    def spy(ds):
        t = real(ds)
        if t is not None:
            collected.append(t.column_names)
            if (set(t.column_names) == {"term", "w", "v", "n"}
                    and pc.any(pc.not_equal(t["v"], "")).as_py()):
                offending.append(t.column_names)
        return t

    monkeypatch.setattr(util, "collect_table", spy)
    inv, edges = flagship.fit_model(mentions, cfg)
    assert collected, "the fit collected nothing through collect_table"
    assert not offending, "raw pair counts were collected to the driver"
    oracle = run_oracle(transcript_files("tiny"), cfg)
    assert _nested(inv) == oracle["inventory"]
    maps: dict = {}
    for r in edges.to_pylist():
        maps.setdefault(r["term"], {})[(r["w"], r["v"])] = r["npmi"]
    want = {t: {(w, v): x for w, v, x in es}
            for t, es in oracle["edges"].items()}
    assert {t: set(m) for t, m in maps.items()} == \
           {t: set(m) for t, m in want.items()}
    assert all(abs(x - want[t][e]) < 1e-12
               for t, m in maps.items() for e, x in m.items())


def test_fit_gate_expand_cooc_guard(monkeypatch):
    """The expand_cooc edge-map collect is refused loudly above its bound
    instead of OOMing the driver."""
    from wsid_ray.config import PipelineConfig
    from wsid_ray.pipelines import flagship

    mentions = _tiny_mentions()
    monkeypatch.setattr(flagship, "EXPAND_STATE_MAX_ROWS", 0)
    with pytest.raises(ValueError, match="expand_cooc"):
        flagship.fit_model(mentions, PipelineConfig(expand_cooc=True))


# ids kept from the former union-find paths: None, the default shape (one
# reduce at this size); 0, the pairs split on kb_id over several reduces
@pytest.mark.parametrize("rows_per_bucket", [None, 16], ids=["None", "0"])
def test_canon_map_takes_duplicate_pairs(tiny_results, monkeypatch,
                                         rows_per_bucket):
    """canon_map over linked mentions whose every block is tripled equals
    the oracle's canon map in one reduce or split over several, with no
    global distinct on the entity-KB pairs: the kb_id-keyed reduces drop
    the duplicates."""
    import ray
    import ray.data as rd

    from tools.plan_count import counting
    from wsid_ray.pipelines import flagship
    from wsid_ray.stages import groups

    oracle, art = tiny_results
    if rows_per_bucket is not None:
        monkeypatch.setattr(groups, "ROWS_PER_BUCKET", rows_per_bucket)
    keyed = []
    real_distinct = groups.distinct

    def spy(ds, key_cols, *a, **kw):
        keyed.append(list(key_cols))
        return real_distinct(ds, key_cols, *a, **kw)

    monkeypatch.setattr(groups, "distinct", spy)
    blocks = ray.get(art.linked_mentions.to_arrow_refs())
    with counting() as c:
        canon = flagship.canon_map(rd.from_arrow(blocks * 3))
    assert canon == oracle["canon"]
    assert ["entity_id", "kb_id"] not in keyed, keyed
    assert keyed == []
    split = c["tasks"].get("_split_block", 0)
    assert (split > 0) == (rows_per_bucket is not None), c


def test_triple_tail_is_two_shuffles(tiny_results, tmp_path, monkeypatch):
    """Assembly + dedup, and the checkpointed read-back, run no
    Dataset.union, no pandas map_batches and no groups._to_arrow task:
    the tail is the turn shuffle and the triple shuffle, nothing else."""
    import ray.data as rd

    from wsid_ray.pipelines.checkpointed import (run_checkpointed,
                                                 triples_dataset)
    from wsid_ray.stages import groups
    from wsid_ray.stages.triples import dedup_triples, triples_from_mentions

    oracle, art = tiny_results
    run_checkpointed("tiny", str(tmp_path))
    seen = []
    real_union, real_map = rd.Dataset.union, rd.Dataset.map_batches

    def union(self, *a, **kw):
        seen.append("union")
        return real_union(self, *a, **kw)

    def map_batches(self, fn, *a, **kw):
        if kw.get("batch_format") == "pandas":
            seen.append("pandas map_batches")
        return real_map(self, fn, *a, **kw)

    class ToArrow:
        def remote(self, *a):
            seen.append("_to_arrow")
            return real_to_arrow.remote(*a)

    real_to_arrow = groups._to_arrow
    monkeypatch.setattr(rd.Dataset, "union", union)
    monkeypatch.setattr(rd.Dataset, "map_batches", map_batches)
    monkeypatch.setattr(groups, "_to_arrow", ToArrow())
    tri = dedup_triples(triples_from_mentions(
        art.linked_mentions, art.canon_map)).materialize()
    back = triples_dataset(str(tmp_path)).materialize()
    assert seen == []
    for ds in (tri, back):
        assert {(r["subj"], r["pred"], r["obj"])
                for r in ds.take_all()} == oracle["triples"]


def test_cooc_expansion_mode_matches_oracle():
    """A2 with co-occurrence matrices in scorer state (expand_cooc):
    engine == oracle on mentions and triples."""
    from wsid_ray.config import PipelineConfig
    from wsid_ray.pipelines.flagship import run_flagship

    cfg = PipelineConfig(expand_cooc=True)
    oracle = run_oracle(transcript_files("tiny"), cfg)
    art = run_flagship("tiny", cfg)
    eng_m = {(m["conv_id"], m["turn_idx"], m["term"], m["sense_id"])
             for m in art.linked_mentions.take_all()}
    ora_m = {(m["conv_id"], m["turn_idx"], m["term"], m["sense_id"])
             for m in oracle["mentions"]}
    assert eng_m == ora_m
    eng_t = {(r["subj"], r["pred"], r["obj"])
             for r in art.triples.take_all()}
    p, r = precision_recall(eng_t, oracle["triples"])
    assert p == 1.0 and r == 1.0


def test_text_equality_invariant():
    """digest(input) == digest(after tokenize stage) per conversation."""
    raw = read_transcripts("tiny")
    cooked = read_transcripts("tiny").map_batches(tokenize_batch,
                                                  batch_format="pyarrow")
    d_raw = {r["conv_id"]: r["digest"] for r in conv_digest(raw).take_all()}
    d_cooked = {r["conv_id"]: r["digest"]
                for r in conv_digest(cooked).take_all()}
    assert d_raw == d_cooked
    assert len(d_raw) == 8  # tiny has 8 conversations


def test_checkpointed_builds_scorer_once_on_driver(tmp_path, monkeypatch):
    """run_checkpointed links shard by shard (4 shards at sf0.001) with one
    scorer: built once, on the driver, and only read by the map tasks."""
    import os

    from wsid_ray.pipelines.checkpointed import run_checkpointed
    from wsid_ray.stages.disambig import SenseDisambiguator

    built = []
    real_init = SenseDisambiguator.__init__

    def spy_init(self, *a, **kw):
        built.append(os.getpid())
        real_init(self, *a, **kw)

    monkeypatch.setattr(SenseDisambiguator, "__init__", spy_init)
    run_checkpointed("sf0.001", str(tmp_path), shard_files=1)
    assert built == [os.getpid()]


def test_flagship_job_is_one_execution(tmp_path):
    """After its read, run_flagship passes pinned blocks through raw tasks:
    one Ray Data execution before it returns, no row-count task, and no
    block-metadata task but those of its two returned datasets; the canon
    step over pinned linked blocks runs no execution of its own.  A fresh
    run_checkpointed runs one execution per shard read plus one per
    partition write; its resume runs only the lost shard's."""
    from tools.plan_count import counting
    from wsid_ray.pipelines.checkpointed import run_checkpointed
    from wsid_ray.pipelines.flagship import canon_map
    from wsid_ray.stages.groups import Blocks

    with counting() as c:
        art = run_flagship("tiny")
    assert c["executions"] == 1, c
    assert "_num_rows" not in c["tasks"], c
    assert c["tasks"].get("get_table_block_metadata_schema", 0) \
        <= len(art.linked_mentions.to_arrow_refs()) \
        + len(art.triples.to_arrow_refs()), c
    linked = Blocks.of(art.linked_mentions)
    with counting() as canon:
        assert canon_map(linked) == art.canon_map
    assert canon["executions"] == 0, canon

    out = str(tmp_path / "ckpt")
    with counting() as fresh:
        ckpt = run_checkpointed("sf0.001", out, shard_files=2)
    assert fresh["executions"] == 2 + 2, fresh
    ckpt.retire_partition("triples", 1)
    with counting() as resume:
        run_checkpointed("sf0.001", out, shard_files=2)
    assert resume["executions"] == 1 + 1, resume


def test_empty_corpus(tmp_path, monkeypatch):
    """Two input files whose turns hold no gazetteer term: run_flagship
    returns a 0-row inventory, an empty canon map and an empty triple
    dataset typed as schemas.TRIPLES; run_checkpointed and triples_dataset
    read back 0 rows."""
    import datetime

    import pyarrow as pa

    from wsid_ray import schemas
    from wsid_ray.pipelines import checkpointed

    files = []
    for f in range(2):
        n = 6
        path = str(tmp_path / f"part-{f}.parquet")
        pq.write_table(pa.table({
            "conv_id": [f"conv{f}"] * n,
            "turn_idx": pa.array(range(n), pa.int32()),
            "role": ["user", "assistant"] * (n // 2),
            "text": ["and team schedule detail context plan"] * n,
            "tool": [""] * n,
            "ts": pa.array([datetime.datetime(2026, 1, 1)] * n,
                           pa.timestamp("us"))}), path)
        files.append(path)
    art = run_flagship("", files=files)
    assert art.sense_inventory.num_rows == 0
    assert art.canon_map == {}
    assert art.triples.count() == 0
    sch = art.triples.schema()
    assert pa.schema(list(zip(sch.names, sch.types))) == schemas.TRIPLES

    monkeypatch.setattr(checkpointed, "transcript_files", lambda _s: files)
    out = str(tmp_path / "ckpt")
    checkpointed.run_checkpointed("empty", out)
    assert checkpointed.triples_dataset(out).count() == 0
