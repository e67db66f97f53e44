"""Read-fusion contract (SCALE.md round-4).

Ray Data refuses to fuse ``ReadParquet`` with downstream maps when (a)
the read is asked for more output blocks than files (``SplitBlocks``
suffix) or (b) any chained map sets an explicit ``batch_size``.  Either
regression silently re-introduces a full decoded-corpus round-trip
through the object store on every flagship pass (~6 GB/pass at sf0.6),
so the contract is pinned here against the actual executed plan.
"""

import re

import pytest

from wsid_ray.config import DEFAULT_CONFIG as CFG
from wsid_ray.pipelines.flagship import detect_mentions
from wsid_ray.sources.transcripts import read_transcripts
from wsid_ray.stages.tokenize import tokenize_batch


def _opnames(ds):
    return re.findall(r"Operator \d+ (\S+):", ds.materialize().stats())


def test_corpus_pass_fuses_read_into_maps():
    turns = read_transcripts("sf0.001").map_batches(
        tokenize_batch, batch_format="pyarrow")
    ops = _opnames(detect_mentions(turns, CFG))
    fused = [o for o in ops if o.startswith("ReadParquet->")]
    assert fused, f"read did not fuse with the map chain: {ops}"
    assert "SplitBlocks" not in fused[0], fused
    assert "MapBatches(tokenize_batch)" in fused[0], fused
    assert "MapBatches(detect_batch)" in fused[0], fused


@pytest.mark.parametrize("n_rows", [1, 250_000])
def test_scored_pass_fuses_end_to_end(n_rows):
    """The scorer runs as stateless tasks fused into the read chain at
    every inventory size, 250k state rows included."""
    import ray

    from wsid_ray.stages.disambig import disambiguate, inventory_from_rows

    rows = [{"term": "apple", "sense_id": 0,
             "token": f"fruit{i}" if i else "fruit", "weight": 1.0}
            for i in range(n_rows)]
    inv_ref = ray.put(inventory_from_rows(rows))
    turns = read_transcripts("sf0.001").map_batches(
        tokenize_batch, batch_format="pyarrow")
    linked = disambiguate(detect_mentions(turns, CFG), inv_ref,
                          state_rows=len(rows))
    ops = _opnames(linked)
    fused = [o for o in ops if o.startswith("ReadParquet->")]
    assert fused and "MapBatches(score)" in fused[0], ops


def test_read_requests_one_block_per_file():
    from wsid_ray.fixtures import transcript_files

    files = transcript_files("sf0.001")
    ds = read_transcripts("sf0.001")
    ops = _opnames(ds)
    assert ops == ["ReadParquet"], ops
    assert ds.materialize().num_blocks() == len(files)
