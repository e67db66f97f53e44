"""M8 + D1 — triple assembly and exact dedup (SURVEY.md §2.2/§2.7).

Deterministic predicate rules (shared verbatim with the sequential oracle —
the P/R comparison depends on both sides agreeing):

  * for each ordered mention pair i<j (by span_start, then term) within one
    turn, distinct canon ids: (canon_i, "co_mentioned_with", canon_j)
  * for each mention in a turn with tool != "":
                     (canon_m, "uses_tool", tool)
  * for each mention:(canon_m, "addresses", role)

Only linked mentions (sense_id >= 0) produce triples.

Physical shape: two bucketed shuffles (stages/groups.shuffle), nothing
between or before them.  On pinned ``Blocks`` (the flagship and
checkpointed pipelines, and the checkpoint read-back) both are raw tasks
end to end: no Ray Data execution runs, and each shuffle sizes itself
from the row counts its input's tasks reported.  A Dataset input is
executed once and the result is a Dataset again.
  * assembly: ONE shuffle keyed hash(conv_id, turn_idx); each reduce
    holds whole turns and emits all three predicates with one vectorised
    pandas pass (a self-merge per bucket for the pairs), so the output is
    the raw, pre-dedup triple stream (SHUFFLE 5a);
  * dedup: ONE shuffle keyed hash(subj,pred,obj) keeping the first
    provenance by (conv_id, turn_idx); when it splits, its split tasks
    dedup their own blocks first (SHUFFLE 5b).

The canon_map is broadcast (entity-count bounded; a web-scale entity space
would hash-join mentions⋈canon_map on entity_id instead — SURVEY.md §2.4
J3).
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data as rd

from ..config import PRED_ADDRESSES, PRED_CO_MENTION, PRED_USES_TOOL
from .groups import Blocks, counted_task, like, shuffle

TRIPLE_COLS = ["subj", "pred", "obj", "conv_id", "turn_idx", "ts"]


def _linked_canon(df: pd.DataFrame, canon: dict[str, str]) -> pd.DataFrame:
    df = df[df["sense_id"] >= 0]
    # Series.map(dict) runs in C; entities absent from the canon map keep
    # their own id via fillna (a per-row Python lambda here was the one
    # row-wise call on the hot triple path — VERDICT r04 item 7).
    ent = df["entity_id"].map(canon)
    if ent.isna().any():
        ent = ent.fillna(df["entity_id"])
    df = df.assign(ent=ent.astype(df["entity_id"].dtype))
    return df


def turn_triples(df: pd.DataFrame, canon: dict[str, str]) -> pd.DataFrame:
    """Every triple of the whole turns in ``df``, from one sense filter
    and canon lookup: addresses and uses_tool per mention, and
    co_mentioned_with per ordered pair of a per-turn self-merge.

    Ordering i<j is (span_start, term) lexicographic — matches the oracle.
    """
    df = _linked_canon(df, canon)
    tooled = df[df["tool"] != ""]
    m = df.merge(df[["conv_id", "turn_idx", "span_start", "term", "ent"]],
                 on=["conv_id", "turn_idx"], suffixes=("", "_j"))
    lt = (m["span_start"] < m["span_start_j"]) | (
        (m["span_start"] == m["span_start_j"]) & (m["term"] < m["term_j"]))
    m = m[lt & (m["ent"] != m["ent_j"])]
    return pd.concat([
        df.assign(subj=df["ent"], pred=PRED_ADDRESSES, obj=df["role"]),
        tooled.assign(subj=tooled["ent"], pred=PRED_USES_TOOL,
                      obj=tooled["tool"]),
        m.assign(subj=m["ent"], pred=PRED_CO_MENTION, obj=m["ent_j"]),
    ], ignore_index=True)[TRIPLE_COLS]


def triples_from_mentions(mentions, canon: dict[str, str]):
    """Linked mentions -> raw (pre-dedup) triples: one shuffle keyed on
    (conv_id, turn_idx), each reduce emitting every triple of its turns
    (a Dataset or ``Blocks``, as given).

    Pairs need the shuffle: a map's output buffer may cut one turn's
    mentions across two blocks, so no map sees whole turns."""
    from .. import schemas
    return like(mentions, shuffle(
        Blocks.of(mentions), ["conv_id", "turn_idx"],
        lambda df: turn_triples(df, canon), out_schema=schemas.TRIPLES))


# The sink layout's one constant: its writer and its pruned reader both
# hash subjects into this many directories.
SUBJ_BUCKETS = 16


def with_subj_bucket(ds: rd.Dataset) -> rd.Dataset:
    """Append subj_bucket = stable_hash64(subj) % SUBJ_BUCKETS (S3 sink
    layout key)."""
    import numpy as np

    from ..util import stable_hash_strings

    def add(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t.append_column("subj_bucket",
                                   pa.array([], type=pa.int32()))
        h = stable_hash_strings(t["subj"].to_pylist())
        return t.append_column(
            "subj_bucket",
            pa.array((h % SUBJ_BUCKETS).astype(np.int32), type=pa.int32()))

    return ds.map_batches(add, batch_format="pyarrow")


def write_triples_partitioned(ds: rd.Dataset, out_dir: str) -> None:
    """S3: hive-partitioned triple sink — one ``subj_bucket=<b>/`` dir per
    subject hash bucket (SURVEY.md §2.1), so downstream KG reads prune to
    one bucket instead of scanning every file.  The bucket value lives in
    the directory name only; file contents keep the plain triple schema."""
    with_subj_bucket(ds).write_parquet(
        out_dir, partition_cols=["subj_bucket"])


@counted_task
def _read_sink_files(paths: list[str]) -> pa.Table:
    from .. import schemas
    return pa.concat_tables([
        schemas.conform(pq.read_table(p, partitioning=None), schemas.TRIPLES)
        for p in paths])


def read_triples_partitioned(parts: list[list[str]]) -> Blocks:
    """Read sinks written by ``write_triples_partitioned``: one read task
    and one block per list of files (a checkpoint partition), each task
    reporting its row count, so the blocks feed the dedup shuffle with no
    Ray Data execution or metadata task in front of it.

    The sink holds one file per (written block, subject bucket).  The
    dedup sizes its shuffle from its input, so a 12k-turn batch's
    partition is one block and at most ``SUBJ_BUCKETS`` files.  When a
    fixed 32-bucket dedup wrote ~110 files per partition,
    ``rd.read_parquet`` planned their read with metadata-prefetch and
    sampling tasks: on 4 CPUs, reading and deduplicating three such
    partitions took 2.8-4.5 s that way, varying from one call to the
    next, and a steady 0.6-0.7 s with these tasks."""
    from .. import schemas
    if not any(parts):
        return Blocks([ray.put(schemas.TRIPLES.empty_table())], [0])
    return Blocks.counted(_read_sink_files.remote(p) for p in parts if p)


def read_triples_for_subject(root: str, subj: str) -> rd.Dataset:
    """Pruned read: only the subject's hash-bucket directory is scanned."""
    import pyarrow.compute as pc

    from ..util import stable_hash64
    b = stable_hash64(subj) % SUBJ_BUCKETS
    ds = rd.read_parquet(f"{root}/subj_bucket={b}")
    return ds.map_batches(
        lambda t: t.filter(pc.equal(t["subj"], subj)),
        batch_format="pyarrow")


def dedup_triples(triples):
    """Exact dedup on (subj,pred,obj); first provenance by (conv, turn)
    (a Dataset or ``Blocks``, as given).

    One shuffle keyed on the triple, each reduce keeping the first row of
    each key.  When the shuffle splits, its split tasks run the same
    function first (``combine``), so each ships only its distinct rows."""
    def fn(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["subj", "pred", "obj", "conv_id", "turn_idx"],
                          kind="mergesort")
        return g.drop_duplicates(subset=["subj", "pred", "obj"],
                                 keep="first")
    from .. import schemas
    return like(triples, shuffle(Blocks.of(triples), ["subj", "pred", "obj"],
                                 fn, out_schema=schemas.TRIPLES,
                                 combine=True))
