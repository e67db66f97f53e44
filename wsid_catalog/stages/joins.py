"""J1-J5 — join primitives (SURVEY.md §2.4).

J1/J2 (small side): ``broadcast_join`` — the small side is ``ray.put``
once and merged per batch inside ``map_batches``; no shuffle.

J3 (both sides large): ``hash_join`` — an explicit partitioned hash join:
both sides are split into B hash buckets on the key (one split task per
block, same deterministic hash as stages/groups.py), then one join task
per bucket merges its left/right parts with a pandas hash join.  This is
the portable pattern from ray_guide.md L140-147; skewed keys are handled
by raising num_buckets (hot keys stay single-bucket — salt the key on
BOTH sides upstream if one key alone exceeds a task's memory).

J4/J5 (semi/anti): ``semi_join`` filters by a broadcast key set.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import ray
import ray.data as rd

from wsid_ray.stages.groups import Blocks, _split_block, counted_task


def _merged_schema(lt: pa.Table, rt: pa.Table, on, suffixes) -> pa.Schema:
    """Arrow schema of a pandas merge output (left cols then right
    non-key cols, overlaps suffixed) — used to type empty join results."""
    lnames, rnames = set(lt.schema.names), set(rt.schema.names)
    fields = []
    for f in lt.schema:
        if f.name not in on and f.name in rnames:
            fields.append(pa.field(f.name + suffixes[0], f.type))
        else:
            fields.append(f)
    for f in rt.schema:
        if f.name in on:
            continue
        fields.append(pa.field(f.name + suffixes[1], f.type)
                      if f.name in lnames else f)
    return pa.schema(fields)


@counted_task
def _join_bucket(on, how, suffixes, n_left, *parts):
    left_parts = [p for p in parts[:n_left] if p.num_rows]
    right_parts = [p for p in parts[n_left:] if p.num_rows]

    def concat(ps, template):
        if not ps:
            return template.slice(0, 0).to_pandas()
        names = ps[0].schema.names
        return pa.concat_tables([p.select(names) for p in ps],
                                promote_options="permissive").to_pandas()

    ldf = concat(left_parts, parts[0])
    rdf = concat(right_parts, parts[n_left])
    out = ldf.merge(rdf, on=on, how=how, suffixes=suffixes)
    target = _merged_schema(parts[0], parts[n_left], on, suffixes)
    if not len(out):
        # empty pandas frames lose Arrow types (object -> null); pin the
        # schema from the input templates so the stream's schema is stable
        return pa.Table.from_pylist([], schema=target)
    if how != "inner":
        # ADVICE r03: outer-ish buckets with unmatched rows promote the
        # other side's int columns to float64 via pandas NaN while fully-
        # matched buckets stay int64 — cast every bucket to the ONE
        # merged schema (pa.array(from_pandas=True) turns NaN into null,
        # so int columns come back int64 + null, not float)
        return pa.table({
            name: pa.array(out[name], type=target.field(name).type,
                           from_pandas=True)
            for name in target.names})
    return pa.Table.from_pandas(
        out, preserve_index=False).replace_schema_metadata(None)


def hash_join(left: rd.Dataset, right: rd.Dataset, on: list[str],
              how: str = "inner", num_buckets: int = 32,
              suffixes=("_l", "_r")) -> rd.Dataset:
    """Partitioned hash join of two Datasets on ``on`` columns."""
    on = list(on)
    B = num_buckets
    lrefs = left.to_arrow_refs()
    rrefs = right.to_arrow_refs()
    lsplit = [_split_block.options(num_returns=B).remote(on, B, b)
              for b in lrefs]
    rsplit = [_split_block.options(num_returns=B).remote(on, B, b)
              for b in rrefs]
    if B == 1:  # num_returns=1 yields a bare ref, not a 1-tuple
        lsplit = [[r] for r in lsplit]
        rsplit = [[r] for r in rsplit]
    outs = []
    for b in range(B):
        parts = [s[b] for s in lsplit] + [s[b] for s in rsplit]
        outs.append(_join_bucket.remote(on, how, suffixes, len(lsplit),
                                        *parts))
    # empty buckets never reach downstream maps (schema-flap guard —
    # see groups.Blocks)
    return Blocks.counted(outs).dataset()


@counted_task
def _asof_bucket(by_l, by_r, on_l, on_r, tie_r, suffixes, inner,
                 direction, tolerance, n_left, *parts):
    left_parts = [p for p in parts[:n_left] if p.num_rows]
    right_parts = [p for p in parts[n_left:] if p.num_rows]

    def concat(ps, template):
        if not ps:
            return template.slice(0, 0).to_pandas()
        names = ps[0].schema.names
        return pa.concat_tables([p.select(names) for p in ps],
                                promote_options="permissive").to_pandas()

    ldf = concat(left_parts, parts[0])
    rdf = concat(right_parts, parts[n_left])
    # merge_asof needs both sides globally sorted on the 'on' column;
    # sorting the right by (on, tie) makes the tie rule deterministic
    # and shared with the SQL mirror: backward = "last match wins" =
    # greatest tie_r among equal timestamps (ORDER BY on DESC, tie DESC
    # ... = 1); forward = first match = SMALLEST tie_r (ORDER BY on ASC,
    # tie ASC ... = 1)
    ldf = ldf.sort_values(on_l, kind="mergesort", ignore_index=True)
    rdf = rdf.sort_values([on_r, tie_r], kind="mergesort",
                          ignore_index=True)
    out = pd.merge_asof(ldf, rdf, left_on=on_l, right_on=on_r,
                        left_by=by_l, right_by=by_r,
                        direction=direction, suffixes=suffixes,
                        tolerance=tolerance)
    if inner:
        out = out[out[tie_r].notna()]
    target = _merged_schema(parts[0], parts[n_left], [], suffixes)
    if not len(out):
        return pa.Table.from_pylist([], schema=target)
    # same trap as hash_join's outer buckets (ADVICE r03): a bucket with
    # ANY unmatched left row promotes right-side int columns to float64
    # via NaN — even under inner (the filter runs after the dtype
    # promotion).  Cast every bucket to the ONE merged schema;
    # from_pandas=True turns NaN into null, keeping int64 + null.
    return pa.table({
        name: pa.array(out[name], type=target.field(name).type,
                       from_pandas=True)
        for name in target.names})


def asof_join(left: rd.Dataset, right: rd.Dataset, *,
              by_left: str, by_right: str, on_left: str, on_right: str,
              tie_right: str, inner: bool = True, num_buckets: int = 32,
              suffixes=("_l", "_r"),
              direction: str = "backward",
              tolerance=None) -> rd.Dataset:
    """As-of join: for each left row, the one right row of the same
    ``by`` key — ``direction='backward'`` (default): greatest
    ``on_right <= on_left``, equal-``on`` ties to the GREATEST
    ``tie_right``; ``direction='forward'``: smallest
    ``on_right >= on_left``, ties to the SMALLEST ``tie_right``.

    Physical plan mirrors ``hash_join``: both sides split into B hash
    buckets on the ``by`` key (co-partitioned — the asof lookup never
    crosses a bucket), then one task per bucket runs a sorted
    ``pd.merge_asof`` (vectorised C merge).  Skewed keys: raise
    ``num_buckets``; a single hot key stays one bucket — pre-partition
    the right side by time range upstream if one key alone exceeds a
    task's memory."""
    B = num_buckets
    lrefs = left.to_arrow_refs()
    rrefs = right.to_arrow_refs()
    lsplit = [_split_block.options(num_returns=B).remote([by_left], B, b)
              for b in lrefs]
    rsplit = [_split_block.options(num_returns=B).remote([by_right], B, b)
              for b in rrefs]
    if B == 1:  # num_returns=1 yields a bare ref, not a 1-tuple
        lsplit = [[r] for r in lsplit]
        rsplit = [[r] for r in rsplit]
    outs = []
    for b in range(B):
        parts = [s[b] for s in lsplit] + [s[b] for s in rsplit]
        outs.append(_asof_bucket.remote(
            by_left, by_right, on_left, on_right, tie_right, suffixes,
            inner, direction, tolerance, len(lsplit), *parts))
    return Blocks.counted(outs).dataset()


@counted_task
def _pair_bucket(fn, out_schema, n_left, *parts):
    """Concat one bucket's left/right slices and apply fn(ldf, rdf)."""
    out_schema = pa.schema(out_schema)

    def concat(ps, template):
        live = [p for p in ps if p.num_rows]
        if not live:
            return template.slice(0, 0).to_pandas()
        names = live[0].schema.names
        return pa.concat_tables([p.select(names) for p in live],
                                promote_options="permissive").to_pandas()

    out = fn(concat(parts[:n_left], parts[0]),
             concat(parts[n_left:], parts[n_left]))
    if not len(out):
        return out_schema.empty_table()
    return (pa.Table.from_pandas(out, preserve_index=False)
            .select(out_schema.names).cast(out_schema)
            .replace_schema_metadata(None))


def bucketed_pair_apply(left: rd.Dataset, right: rd.Dataset, *,
                        on_left: list[str], on_right: list[str],
                        fn, out_schema: pa.Schema,
                        num_buckets: int = 32) -> rd.Dataset:
    """Co-partition two Datasets on their join keys and run a vectorised
    pandas ``fn(left_df, right_df)`` once per bucket — the generic engine
    under non-equi joins (range/interval joins, windowed lookups) that a
    plain hash join can't express.  Same physical plan as ``hash_join``:
    one split task per block (``num_returns=B``), one pair task per
    bucket; all rows of a key land in one bucket on both sides.  Skewed
    keys: raise ``num_buckets``; one hot key stays a single bucket — salt
    upstream if a key alone exceeds a task's memory.  ``out_schema`` is
    required so empty buckets emit typed blocks (schema-stable stream)."""
    B = num_buckets
    lsplit = [_split_block.options(num_returns=B).remote(list(on_left), B, b)
              for b in left.to_arrow_refs()]
    rsplit = [_split_block.options(num_returns=B).remote(list(on_right), B, b)
              for b in right.to_arrow_refs()]
    if B == 1:  # num_returns=1 yields a bare ref, not a 1-tuple
        lsplit = [[r] for r in lsplit]
        rsplit = [[r] for r in rsplit]
    outs = []
    for b in range(B):
        parts = [s[b] for s in lsplit] + [s[b] for s in rsplit]
        outs.append(_pair_bucket.remote(fn, out_schema, len(lsplit),
                                        *parts))
    return Blocks.counted(outs).dataset()


def broadcast_join(big: rd.Dataset, small_df: pd.DataFrame, on: list[str],
                   how: str = "left") -> rd.Dataset:
    """Merge a driver-small table into every batch of a big Dataset."""
    ref = ray.put(small_df)

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        sm = ray.get(ref)
        return df.merge(sm, on=list(on), how=how)

    return big.map_batches(merge, batch_format="pandas")


def semi_join(big: rd.Dataset, keys, key_col: str,
              anti: bool = False) -> rd.Dataset:
    """Keep rows whose ``key_col`` is in ``keys`` (anti=True: not in)."""
    key_arr = pa.array(sorted(set(keys)))
    ref = ray.put(key_arr)

    def filt(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        mask = pc.is_in(t[key_col], value_set=ray.get(ref))
        if anti:
            # SQL NOT IN semantics: a NULL key is never kept (ADVICE
            # r03 — bare invert would keep it, since is_in yields false
            # for null)
            mask = pc.and_(pc.invert(mask), pc.is_valid(t[key_col]))
        return t.filter(mask)

    return big.map_batches(filt, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Bloom-prefiltered semi join (the 100 TB join optimisation: a compact
# filter built from the key side prunes the big side BEFORE any shuffle)

_BLOOM_K = 3          # hash functions; 3 x m_log2 bits must fit in 64


@ray.remote
def _block_bloom(t: pa.Table, key_col: str, m_log2: int):
    """Partial Bloom bitmap (packed uint64) of one key-side block."""
    import hashlib

    import numpy as np

    m = 1 << m_log2
    bits = np.zeros(m >> 6, dtype=np.uint64)
    vals = pa.Table.from_arrays([t[key_col]], names=[key_col])
    uniq = vals[key_col].combine_chunks().unique()
    hv = np.fromiter(
        (int.from_bytes(hashlib.md5(str(u).encode()).digest()[:8],
                        "little") for u in uniq.to_pylist()),
        dtype=np.uint64, count=len(uniq))
    mask = np.uint64(m - 1)
    for i in range(_BLOOM_K):
        idx = (hv >> np.uint64(i * m_log2)) & mask
        np.bitwise_or.at(bits, (idx >> np.uint64(6)).astype(np.int64),
                         np.uint64(1) << (idx & np.uint64(63)))
    return bits


@ray.remote
def _or_blooms(*parts):
    import numpy as np
    out = parts[0].copy()
    for p in parts[1:]:
        np.bitwise_or(out, p, out=out)
    return out


def bloom_semi_join(big: rd.Dataset, keys: rd.Dataset, key_col: str,
                    m_log2: int = 20, num_buckets: int = 32) -> rd.Dataset:
    """Semi join where the key side is too large to broadcast exactly:
    build a Bloom filter of the keys distributed (per-block partial
    bitmaps, tree-OR reduce — 2^m_log2 bits = 128 KiB at the default,
    constant size no matter how many keys), broadcast the ONE bitmap via
    the object store, prefilter ``big`` with zero shuffle, then remove
    the Bloom false positives with an exact partitioned hash join over
    the (much smaller) survivors.  Result is EXACT — the filter only
    decides how much data the shuffle sees, never the answer."""
    import hashlib

    import numpy as np

    from wsid_ray.stages.groups import distinct

    krefs = keys.to_arrow_refs()
    parts = [_block_bloom.remote(b, key_col, m_log2) for b in krefs]
    while len(parts) > 1:
        parts = [_or_blooms.remote(*parts[i:i + 8])
                 for i in range(0, len(parts), 8)]
    bloom_ref = parts[0]
    mask = np.uint64((1 << m_log2) - 1)

    def prefilter(t: pa.Table) -> pa.Table:
        bits = ray.get(bloom_ref)          # zero-copy object-store read
        col = t[key_col].combine_chunks()
        uniq = col.unique()
        hv = np.fromiter(
            (int.from_bytes(hashlib.md5(str(u).encode()).digest()[:8],
                            "little") for u in uniq.to_pylist()),
            dtype=np.uint64, count=len(uniq))
        ok = np.ones(len(uniq), dtype=bool)
        for i in range(_BLOOM_K):
            idx = (hv >> np.uint64(i * m_log2)) & mask
            word = bits[(idx >> np.uint64(6)).astype(np.int64)]
            ok &= (word >> (idx & np.uint64(63))) & np.uint64(1) != 0
        import pyarrow.compute as pc
        keep = pc.is_in(col, value_set=uniq.filter(pa.array(ok)))
        return t.filter(keep)

    surviving = big.map_batches(prefilter, batch_format="pyarrow")
    key_only = distinct(keys.select_columns([key_col]), [key_col],
                        num_buckets=num_buckets)
    return hash_join(surviving, key_only, on=[key_col], how="inner",
                     num_buckets=num_buckets)


def bloom_anti_join(big: rd.Dataset, keys: rd.Dataset, key_col: str,
                    m_log2: int = 20, num_buckets: int = 32) -> rd.Dataset:
    """Anti join with the same distributed Bloom filter as
    ``bloom_semi_join``, used in the opposite direction: a Bloom MISS is
    a *definite* non-member (no false negatives), so most anti-join
    output streams straight through with zero shuffle; only the
    bloom-positive residue — true members plus the filter's few false
    positives — takes the exact partitioned left join, where a null
    marker identifies the false positives to recover.  Result is EXACT."""
    import hashlib

    import numpy as np
    import pyarrow.compute as pc

    from wsid_ray.stages.groups import distinct

    krefs = keys.to_arrow_refs()
    parts = [_block_bloom.remote(b, key_col, m_log2) for b in krefs]
    while len(parts) > 1:
        parts = [_or_blooms.remote(*parts[i:i + 8])
                 for i in range(0, len(parts), 8)]
    bloom_ref = parts[0]
    mask = np.uint64((1 << m_log2) - 1)

    def hit_mask(t: pa.Table) -> pa.Array:
        bits = ray.get(bloom_ref)
        col = t[key_col].combine_chunks()
        uniq = col.unique()
        hv = np.fromiter(
            (int.from_bytes(hashlib.md5(str(u).encode()).digest()[:8],
                            "little") for u in uniq.to_pylist()),
            dtype=np.uint64, count=len(uniq))
        ok = np.ones(len(uniq), dtype=bool)
        for i in range(_BLOOM_K):
            idx = (hv >> np.uint64(i * m_log2)) & mask
            word = bits[(idx >> np.uint64(6)).astype(np.int64)]
            ok &= (word >> (idx & np.uint64(63))) & np.uint64(1) != 0
        return pc.is_in(col, value_set=uniq.filter(pa.array(ok)))

    # one materialisation of big, consumed twice (definite path + residue)
    brefs = big.map_batches(lambda t: t, batch_format="pyarrow") \
               .to_arrow_refs()
    definite = rd.from_arrow_refs(brefs).map_batches(
        lambda t: t.filter(pc.invert(hit_mask(t))),
        batch_format="pyarrow")
    residue = rd.from_arrow_refs(brefs).map_batches(
        lambda t: t.filter(hit_mask(t)), batch_format="pyarrow")

    key_marked = distinct(keys.select_columns([key_col]), [key_col],
                          num_buckets=num_buckets).map_batches(
        lambda t: t.append_column("__member", pa.array([1] * len(t),
                                                       type=pa.int64())),
        batch_format="pyarrow")
    joined = hash_join(residue, key_marked, on=[key_col], how="left",
                       num_buckets=num_buckets)
    false_pos = joined.map_batches(
        lambda t: t.filter(pc.is_null(t["__member"])).drop(["__member"]),
        batch_format="pyarrow")
    return definite.union(false_pos)
