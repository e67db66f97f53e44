"""Ingest repartitioner — conv-hash sharding for arbitrary input layouts.

The checkpointed pipeline's resume unit is the input shard, under the
assumption that conversations do not span shards (pipelines/checkpointed
docstring).  The fixture generator guarantees that; for an arbitrary
transcript dump this one-time ingest pass enforces it: every row is routed
to shard ``hash(conv_id) % num_shards`` (stable blake2b hash — layout is
reproducible), each shard is written as its own parquet directory with an
atomic rename.  At 100 TB this is one full shuffle that buys per-shard
resumability for every later run.
"""

from __future__ import annotations

import os
import shutil
import tempfile

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray.data as rd

from ..stages.groups import bucketed_group_apply
from ..util import stable_hash_strings

_WRITTEN = pa.schema([("shard", pa.int32()), ("rows", pa.int64())])


def repartition_by_conv(ds: rd.Dataset, out_dir: str,
                        num_shards: int) -> list[str]:
    """Write ``ds`` as num_shards conv-hash shard dirs; returns the file
    lists' parent dirs (shard-<k>/)."""
    def add_shard(df: pd.DataFrame) -> pd.DataFrame:
        h = stable_hash_strings(df["conv_id"].to_numpy())
        df = df.copy()
        df["__shard"] = (h % num_shards).astype("int32")
        return df

    tmp = tempfile.mkdtemp(prefix=".repart-", dir=os.path.dirname(out_dir)
                           or ".")

    def write_shards(df: pd.DataFrame) -> pd.DataFrame:
        """One reduce: every shard of its bucket, one file each."""
        written = []
        for shard, g in df.groupby("__shard", sort=True):
            d = os.path.join(tmp, f"shard-{shard:04d}")
            os.makedirs(d, exist_ok=True)
            pq.write_table(pa.Table.from_pandas(
                g.drop(columns=["__shard"]), preserve_index=False),
                os.path.join(d, "part-0.parquet"))
            written.append((shard, len(g)))
        return pd.DataFrame(written, columns=_WRITTEN.names)

    try:
        # one shuffle keyed on the shard id colocates each shard's rows
        # in one reduce; the declared out_schema keeps the build-time
        # probe from calling the writer
        bucketed_group_apply(
            ds.map_batches(add_shard, batch_format="pandas"), ["__shard"],
            write_shards, num_buckets=num_shards,
            out_schema=_WRITTEN).materialize()
        if os.path.exists(out_dir):
            shutil.rmtree(out_dir)
        os.replace(tmp, out_dir)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return sorted(os.path.join(out_dir, d) for d in os.listdir(out_dir)
                  if d.startswith("shard-"))
