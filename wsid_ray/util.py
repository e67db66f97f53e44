"""Small shared helpers: stable hashing, Arrow list-column surgery.

Python's builtin ``hash`` is salted per process and ``pyarrow.compute.hash``
is not stable across versions (SURVEY.md §2.8 F3), so every hash that
crosses a process boundary (salting, bucketing, turn uids, text-equality
guard) goes through blake2b here.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa


def collect_table(data) -> pa.Table:
    """Materialise a (small) Dataset or ``Blocks`` to one Arrow table on
    the driver (None when it has no rows).

    ``Dataset.take_all()`` iterates rows through the block accessor, which
    for pandas-backed blocks costs one ``.iloc`` per row (measured: 113 s
    for 90k rows).  Fetching the blocks as Arrow and concatenating is
    milliseconds.  Use ONLY for vocab-bounded / aggregated results.
    """
    import ray

    from .stages.groups import Blocks, _concat_nonempty
    return _concat_nonempty(ray.get(Blocks.of(data).refs))


def collect_rows(data) -> list[dict]:
    t = collect_table(data)
    return t.to_pylist() if t is not None else []


def compact_blocks(ds) -> "object":
    """A Dataset executed once and pinned as Arrow blocks, empty blocks
    dropped (``groups.Blocks``)."""
    from .stages.groups import Blocks
    return Blocks.of(ds).dataset()


def stable_hash64(value: str | bytes) -> int:
    """Deterministic unsigned 63-bit hash (fits in Arrow int64)."""
    if isinstance(value, str):
        value = value.encode("utf-8")
    h = hashlib.blake2b(value, digest_size=8).digest()
    return int.from_bytes(h, "big") & 0x7FFF_FFFF_FFFF_FFFF


def stable_hash_strings(values: list[str] | np.ndarray) -> np.ndarray:
    """Vectorised-ish stable hash of a string column (memoised per unique).

    Hashing cost is O(#unique) not O(#rows): conv_ids / terms repeat heavily.
    """
    arr = np.asarray(values, dtype=object)
    uniq, inv = np.unique(arr, return_inverse=True)
    hashed = np.fromiter((stable_hash64(u) for u in uniq), dtype=np.int64,
                         count=len(uniq))
    return hashed[inv]


def turn_uid(conv_hash: np.ndarray, turn_idx: np.ndarray) -> np.ndarray:
    """64-bit uid = conv-hash high bits | turn_idx (turn_idx < 2^20)."""
    return ((conv_hash & 0x7FF_FFFF_FFFF) << 20) | turn_idx.astype(np.int64)


def filter_list_array(list_arr: pa.Array, keep_mask: pa.Array | np.ndarray) -> pa.ListArray:
    """Filter the *elements* of a list<T> array by a flat boolean mask,
    preserving row boundaries.  Fully vectorised (numpy on offsets).

    ``keep_mask`` has one entry per flattened element.
    """
    if isinstance(list_arr, pa.ChunkedArray):
        list_arr = list_arr.combine_chunks()
    offsets = list_arr.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    flat = list_arr.flatten()
    mask_np = (keep_mask.to_numpy(zero_copy_only=False)
               if isinstance(keep_mask, (pa.Array, pa.ChunkedArray))
               else np.asarray(keep_mask))
    mask_np = np.asarray(mask_np, dtype=bool)
    # element -> row index
    lengths = np.diff(offsets)
    row_idx = np.repeat(np.arange(len(lengths)), lengths)
    kept_per_row = np.bincount(row_idx[mask_np], minlength=len(lengths))
    new_offsets = np.concatenate(([0], np.cumsum(kept_per_row))).astype(np.int32)
    new_values = flat.filter(pa.array(mask_np))
    return pa.ListArray.from_arrays(pa.array(new_offsets, type=pa.int32()),
                                    new_values)


def ragged_ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The index ranges ``[starts[i], starts[i] + lens[i])`` concatenated
    in order (repeat + cumsum, no Python loop)."""
    return np.repeat(starts - np.cumsum(lens) + lens, lens) \
        + np.arange(int(lens.sum()))


def list_row_indices(list_arr: pa.Array) -> np.ndarray:
    """Row index of every flattened element of a list array."""
    if isinstance(list_arr, pa.ChunkedArray):
        list_arr = list_arr.combine_chunks()
    offsets = list_arr.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    lengths = np.diff(offsets)
    return np.repeat(np.arange(len(lengths)), lengths)
