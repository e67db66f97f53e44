"""Metadata-free parquet reads (scale hygiene).

The driver-written testdata parquet carries a ``pandas`` schema-metadata
blob whose value is a dict, which makes ``pyarrow.Schema`` unhashable.
Ray Data's streaming executor dedups block schemas via ``set(schemas)``;
an unhashable schema defeats that dedup and emits one
``Failed to hash the schemas`` warning per RefBundle at scale.  Reading
with an explicit metadata-free ``schema=`` keeps every downstream block
schema hashable.  Cost: one footer read per call, driver-side, O(KB) —
independent of data size.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.parquet as pq
import ray.data as rd


def _first_file(path) -> str | None:
    if isinstance(path, (list, tuple)):
        return _first_file(path[0]) if path else None
    if os.path.isdir(path):
        for root, _dirs, files in sorted(os.walk(path)):
            for f in sorted(files):
                if f.endswith(".parquet"):
                    return os.path.join(root, f)
        return None
    return path


def clean_schema(path, columns: list[str] | None = None) -> pa.Schema | None:
    """Footer schema of the first file under ``path``, pruned to
    ``columns`` and stripped of metadata; None when indeterminable."""
    f = _first_file(path)
    if f is None:
        return None
    try:
        s = pq.read_schema(f)
    except Exception:
        return None
    if columns:
        try:
            s = pa.schema([s.field(c) for c in columns])
        except KeyError:
            return None
    return s.remove_metadata()


def read_parquet_clean(path, *, columns: list[str] | None = None,
                       **kwargs) -> rd.Dataset:
    """``rd.read_parquet`` that pins a metadata-free schema so block
    schemas stay hashable. Drop-in for plain file/dir reads; NOT for
    hive-partitioned roots where path-derived columns must be inferred."""
    schema = clean_schema(path, columns)
    if schema is not None:
        kwargs["schema"] = schema
    return rd.read_parquet(path, columns=columns, **kwargs)
