"""S5/J5 — checkpoint, kill, resume ⇒ identical triples, completed
partitions skipped (FIXTURES.md F3; BASELINE.json:6)."""

import json
import os
import shutil

import pyarrow as pa
import pytest

from wsid_ray.oracle import precision_recall, run_oracle
from wsid_ray.fixtures import transcript_files
from wsid_ray.pipelines.checkpointed import run_checkpointed, triples_dataset


def triple_set(out_dir):
    return {(r["subj"], r["pred"], r["obj"])
            for r in triples_dataset(out_dir).take_all()}


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("ckpt"))
    ckpt = run_checkpointed("sf0.001", out, shard_files=1)
    return out, ckpt, triple_set(out)


def test_partitions_and_metrics(full_run):
    out, ckpt, _ = full_run
    stats = ckpt.stats()
    stages = {r["stage"] for r in stats}
    assert stages == {"senses", "canon", "triples"}
    tri_parts = [r for r in stats if r["stage"] == "triples"]
    assert len(tri_parts) == 4  # sf0.001 has 4 input files
    for r in stats:
        assert r["done"] and r["lineage"] and r["wall_s"] > 0
        assert "rows_per_s" in r


def test_matches_oracle(full_run):
    _, _, eng = full_run
    oracle = run_oracle(transcript_files("sf0.001"))
    p, r = precision_recall(eng, oracle["triples"])
    assert p == 1.0 and r == 1.0


def test_resume_skips_completed_and_is_identical(full_run):
    out, _, baseline = full_run
    # simulate a kill after 2 of 4 triple partitions: drop partitions 2,3
    mpath = os.path.join(out, "manifest.jsonl")
    with open(mpath) as f:
        records = [json.loads(l) for l in f if l.strip()]
    kept, dropped = [], []
    for r in records:
        if r["stage"] == "triples" and r["part"] >= 2:
            dropped.append(r)
            shutil.rmtree(os.path.join(out, "triples",
                                       f"part-{r['part']:04d}"))
        else:
            kept.append(r)
    with open(mpath, "w") as f:
        for r in kept:
            f.write(json.dumps(r) + "\n")

    ckpt2 = run_checkpointed("sf0.001", out, shard_files=1)
    stats = {(r["stage"], r["part"]): r for r in ckpt2.stats()}
    # untouched partitions kept their original timestamps (not recomputed)
    for r in kept:
        assert stats[(r["stage"], r["part"])]["ts"] == r["ts"], r
    # dropped partitions were recomputed
    for r in dropped:
        assert stats[(r["stage"], r["part"])]["ts"] != r["ts"]
    assert triple_set(out) == baseline


def test_grown_corpus_matches_fresh_run(full_run, tmp_path, monkeypatch):
    """Grow a 2-file corpus to 4 files in the same out dir: the first two
    shards' partitions were built with the 2-file inventory and canon
    map, so they must not be served after the growth."""
    from wsid_ray.pipelines import checkpointed
    _, _, fresh = full_run
    files = transcript_files("sf0.001")
    out = str(tmp_path / "grow")
    monkeypatch.setattr(checkpointed, "transcript_files",
                        lambda _scale: files[:2])
    run_checkpointed("sf0.001", out, shard_files=1)
    monkeypatch.undo()
    run_checkpointed("sf0.001", out, shard_files=1)
    grown = triple_set(out)
    assert grown == fresh
    assert grown == run_oracle(files)["triples"]


def test_rewritten_input_recomputes(tmp_path, monkeypatch):
    """Rewrite one input file in place (same path, half its
    conversations): the partitions built from the old contents must not
    be served."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from wsid_ray.pipelines import checkpointed
    src = tmp_path / "src"
    src.mkdir()
    files = []
    for f in transcript_files("sf0.001"):
        files.append(str(src / os.path.basename(f)))
        shutil.copy(f, files[-1])
    monkeypatch.setattr(checkpointed, "transcript_files",
                        lambda _scale: files)
    out = str(tmp_path / "rewrite")
    run_checkpointed("sf0.001", out, shard_files=1)
    before = triple_set(out)

    t = pq.read_table(files[0])
    convs = sorted(set(t["conv_id"].to_pylist()))
    pq.write_table(t.filter(pc.is_in(
        t["conv_id"], value_set=pa.array(convs[:len(convs) // 2]))),
        files[0])
    run_checkpointed("sf0.001", out, shard_files=1)
    want = run_oracle(files)["triples"]
    assert want != before
    assert triple_set(out) == want


def test_shrunk_corpus_matches_fresh_run(full_run, tmp_path, monkeypatch):
    """Shrink a 4-file corpus to its first 2 files in the same out dir:
    the triple partitions of the dropped shards must not be served."""
    from wsid_ray.pipelines import checkpointed
    src, _, _ = full_run
    files = transcript_files("sf0.001")
    out = str(tmp_path / "shrink")
    shutil.copytree(src, out)
    monkeypatch.setattr(checkpointed, "transcript_files",
                        lambda _scale: files[:2])
    ckpt = run_checkpointed("sf0.001", out, shard_files=1)
    assert ckpt.completed_parts("triples") == [0, 1]
    assert not os.path.exists(ckpt.part_dir("triples", 2))
    assert triple_set(out) == run_oracle(files[:2])["triples"]


def _count_tokenized(monkeypatch, path):
    """Make every tokenize call append its row count to ``path`` (the
    calls run in worker processes); returns a reader of the total."""
    from wsid_ray.pipelines import flagship
    real = flagship.tokenize_batch

    def counting(batch):
        with open(path, "a") as f:
            f.write(f"{batch.num_rows}\n")
        return real(batch)

    monkeypatch.setattr(flagship, "tokenize_batch", counting)

    def total():
        if not os.path.exists(path):
            return 0
        with open(path) as f:
            n = sum(int(x) for x in f)
        os.remove(path)
        return n
    return total


def test_fresh_run_reads_each_file_once(tmp_path, monkeypatch):
    """A fresh run reads every input file once, and tokenizes each of its
    rows once (run_flagship too); a resume after losing triple
    partitions 2-3 reads and tokenizes only those two shards' files."""
    from collections import Counter

    import pyarrow.parquet as pq

    from wsid_ray.pipelines.flagship import run_flagship
    from wsid_ray.sources import transcripts
    files = transcript_files("sf0.001")
    turns = [pq.read_metadata(f).num_rows for f in files]
    tokenized = _count_tokenized(monkeypatch, str(tmp_path / "tokenized"))
    reads = Counter()
    real = transcripts.read_parquet_clean

    def spy(paths, **kwargs):
        reads.update(paths)
        return real(paths, **kwargs)

    monkeypatch.setattr(transcripts, "read_parquet_clean", spy)
    out = str(tmp_path / "once")
    ckpt = run_checkpointed("sf0.001", out, shard_files=1)
    assert reads == Counter(files)
    assert tokenized() == sum(turns)

    mpath = os.path.join(out, "manifest.jsonl")
    with open(mpath) as f:
        rows = [json.loads(l) for l in f if l.strip()]
    with open(mpath, "w") as f:
        f.writelines(json.dumps(r) + "\n" for r in rows
                     if not (r["stage"] == "triples" and r["part"] >= 2))
    for p in (2, 3):
        shutil.rmtree(ckpt.part_dir("triples", p))
    reads.clear()
    run_checkpointed("sf0.001", out, shard_files=1)
    assert reads == Counter(files[2:])
    assert tokenized() == sum(turns[2:])

    run_flagship("sf0.001")
    assert tokenized() == sum(turns)


def test_manifest_times_the_partition_work(tmp_path, monkeypatch):
    """A triple row's wall_s covers building the partition's dataset, not
    only its final write: a 0.5 s dedup must show in it."""
    import time

    from wsid_ray.pipelines import checkpointed
    real = checkpointed.dedup_triples

    def slow_dedup(*args, **kwargs):
        time.sleep(0.5)
        return real(*args, **kwargs)

    monkeypatch.setattr(checkpointed, "dedup_triples", slow_dedup)
    ckpt = run_checkpointed("tiny", str(tmp_path / "timed"))
    rows = [r for r in ckpt.stats() if r["stage"] == "triples"]
    assert rows and all(r["wall_s"] >= 0.5 for r in rows), rows


def test_torn_manifest_row_resumes(full_run, tmp_path):
    """A kill during the manifest append leaves half a row at the end:
    the resume drops it, recomputes that partition and yields the
    uninterrupted triple set.  A bad row before the end still raises."""
    from wsid_ray.state.checkpoint import CheckpointManager
    src, _, baseline = full_run
    out = str(tmp_path / "torn")
    shutil.copytree(src, out)
    mpath = os.path.join(out, "manifest.jsonl")
    with open(mpath) as f:
        lines = [l for l in f if l.strip()]
    last = max((json.loads(l) for l in lines
                if json.loads(l)["stage"] == "triples"),
               key=lambda r: r["part"])
    row = json.dumps(last) + "\n"
    with open(mpath, "w") as f:
        f.writelines(l for l in lines if json.loads(l) != last)
        f.write(row[:len(row) // 2])

    ckpt = run_checkpointed("sf0.001", out, shard_files=1)
    redone = {(r["stage"], r["part"]): r for r in ckpt.stats()}
    assert redone[("triples", last["part"])]["ts"] != last["ts"]
    assert triple_set(out) == baseline

    with open(mpath) as f:
        lines = f.readlines()
    with open(mpath, "w") as f:
        f.writelines([lines[0], row[:len(row) // 2] + "\n"] + lines[1:])
    with pytest.raises(ValueError):
        CheckpointManager(out)


def test_config_change_invalidates(full_run, tmp_path):
    out, ckpt, _ = full_run
    from wsid_ray.config import DEFAULT_CONFIG, PipelineConfig
    from wsid_ray.pipelines.checkpointed import _stamped
    cfg2 = PipelineConfig(window_size=3)
    lin_rows = [r for r in ckpt.stats() if r["stage"] == "senses"]
    from wsid_ray.state.checkpoint import lineage_hash
    files = _stamped(transcript_files("sf0.001"))
    assert lineage_hash(files, DEFAULT_CONFIG.content_hash()) == \
        lin_rows[0]["lineage"]
    assert lineage_hash(files, cfg2.content_hash()) != lin_rows[0]["lineage"]


def test_subj_partitioned_sink_layout_and_pruned_read(full_run):
    """S3: triples land under subj_bucket=<b>/ dirs; a subject read scans
    only its bucket and returns exactly that subject's triples."""
    from wsid_ray.stages.triples import (SUBJ_BUCKETS,
                                         read_triples_for_subject)
    from wsid_ray.util import stable_hash64
    out, _, all_triples = full_run
    part0 = os.path.join(out, "triples", "part-0000")
    buckets = sorted(d for d in os.listdir(part0)
                     if d.startswith("subj_bucket="))
    assert buckets, f"no hive partition dirs in {part0}"
    assert all(0 <= int(d.split("=")[1]) < SUBJ_BUCKETS for d in buckets)
    subj = sorted({s for s, _, _ in all_triples})[0]
    got = {(r["subj"], r["pred"], r["obj"])
           for r in read_triples_for_subject(part0, subj).take_all()}
    import pyarrow.parquet as pq
    import ray.data as rd
    all_p0 = rd.read_parquet([
        os.path.join(root, f) for root, _, fs in os.walk(part0)
        for f in fs if f.endswith(".parquet")])
    want = {(r["subj"], r["pred"], r["obj"])
            for r in all_p0.take_all() if r["subj"] == subj}
    assert got == want and got  # non-empty, bucket-pruned read is exact
    # one file per subject bucket at most: the dedup's shuffle emits one
    # block for a partition this small
    for part in os.listdir(os.path.join(out, "triples")):
        n = sum(f.endswith(".parquet") for _, _, fs in
                os.walk(os.path.join(out, "triples", part)) for f in fs)
        assert 0 < n <= SUBJ_BUCKETS, (part, n)


def test_read_back_matches_read_parquet(full_run, tmp_path):
    """triples_dataset's per-partition read tasks return the rows Ray
    Data's own parquet reader gets from the same files; an out dir with
    no triple partition reads back as an empty, typed dataset."""
    import ray.data as rd

    from wsid_ray import schemas
    from wsid_ray.stages.triples import dedup_triples
    out, _, _ = full_run
    files = [os.path.join(root, f)
             for root, _, fs in os.walk(os.path.join(out, "triples"))
             for f in fs if f.endswith(".parquet")]

    def rows(ds):
        return sorted(tuple(r.values()) for r in ds.take_all())
    got = rows(triples_dataset(out))
    assert got and got == rows(dedup_triples(rd.read_parquet(files)))
    empty = triples_dataset(str(tmp_path))
    assert empty.count() == 0
    assert empty.schema().names == schemas.TRIPLES.names


def test_checkpointed_honors_expand_cooc(tmp_path):
    """ADVICE r01: run_checkpointed with expand_cooc must produce the
    expansion-mode oracle triples (not silently fall back)."""
    from wsid_ray.config import PipelineConfig
    cfg = PipelineConfig(expand_cooc=True)
    out = str(tmp_path / "ckpt_exp")
    ckpt = run_checkpointed("tiny", out, cfg=cfg)
    assert {r["stage"] for r in ckpt.stats()} >= {"senses", "edges",
                                                  "canon", "triples"}
    oracle = run_oracle(transcript_files("tiny"), cfg)
    p, r = precision_recall(triple_set(out), oracle["triples"])
    assert p == 1.0 and r == 1.0
