"""Conv-hash ingest repartitioner: shards partition conversations."""

import os

import pyarrow.parquet as pq

from wsid_ray.sources.repartition import repartition_by_conv
from wsid_ray.sources.transcripts import read_transcripts


def test_repartition_by_conv(tmp_path, monkeypatch):
    import ray.data as rd

    def no_groupby(*a, **kw):
        raise AssertionError("Ray Data groupby ran")

    monkeypatch.setattr(rd.Dataset, "groupby", no_groupby)
    ds = read_transcripts("tiny")
    out = str(tmp_path / "sharded")
    shards = repartition_by_conv(ds, out, num_shards=3)
    assert len(shards) >= 2  # 8 convs across 3 hash shards
    seen = {}
    total = 0
    for d in shards:
        for f in os.listdir(d):
            t = pq.read_table(os.path.join(d, f))
            total += t.num_rows
            for c in set(t["conv_id"].to_pylist()):
                assert c not in seen, f"conv {c} spans shards"
                seen[c] = d
    assert total == read_transcripts("tiny").count()
    assert len(seen) == 8
