"""Batched "model inference" stage shape: a text-embedding actor pool.

No embedding-model libraries exist in this container, so the model is a
clearly-labelled DETERMINISTIC FAKE — a token-hash bucket histogram
(md5_number_upper(token) % dim, occurrence-weighted).  The deliverable is
the Ray-side shape (task spec "batched model inference"): weights/config
load once per actor in ``__init__``, inference runs per batch in
``__call__``, output is a ``list<double>`` embedding column.  Swapping in
a real model touches only ``_embed_tokens``.

The fake is SQL-expressible, so the downstream text -> embed -> exact
near-dup pipeline is hash-checked end to end (oracle_sql
``doc_embed_near_dup``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data as rd

from wsid_ray.stages.tokenize import tokenize_column

from wsid_catalog.util import BoundedCache, pool_limits

# dim -> token -> bucket; inner memo bounded (ADVICE r03)
_EMBED_HASH_MEMO: dict[int, dict[str, int]] = {}


class FakeTextEmbedder:
    """Callable class for ``map_batches(..., concurrency=...)`` — the
    actor-pool inference pattern (state in __init__, batches in __call__).

    ``model`` is a pluggable spec (wsid_ray.models.resolve_model):
    None → the builtin deterministic fake; a callable or "module:attr"
    import string → a real ``fn(texts) -> (n, dim) ndarray`` embedding
    model, resolved HERE in __init__ (once per actor process)."""

    def __init__(self, dim: int = 32, model=None):
        from wsid_catalog.models import resolve_model
        self.dim = dim
        self.model = resolve_model(model)
        self.memo = _EMBED_HASH_MEMO.setdefault(
            dim, BoundedCache(1_000_000))

    def _bucket(self, tok: str) -> int:
        b = self.memo.get(tok)
        if b is None:
            import hashlib
            b = self.memo[tok] = int.from_bytes(
                hashlib.md5(tok.encode()).digest()[:8], "little") % self.dim
        return b

    def __call__(self, t: pa.Table) -> pa.Table:
        from wsid_ray.util import list_row_indices
        n = t.num_rows
        if self.model is not None:
            M = np.asarray(self.model(t["text"].to_pylist()),
                           dtype=np.float64)
            if M.shape != (n, self.dim):
                raise ValueError(
                    f"embedding model returned {M.shape}, expected "
                    f"({n}, {self.dim})")
            emb = pa.FixedSizeListArray.from_arrays(
                pa.array(M.ravel(), type=pa.float64()), self.dim).cast(
                pa.list_(pa.float64()))
            return pa.table({"vec_id": t["doc_id"], "embedding": emb})
        toks = tokenize_column(t["text"])
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = toks.flatten()
        M = np.zeros((n, self.dim), dtype=np.float64)
        if len(flat):
            import pyarrow.compute as pc
            row_of = list_row_indices(toks)
            enc = pc.dictionary_encode(flat)
            if isinstance(enc, pa.ChunkedArray):
                enc = enc.combine_chunks()
            buckets = np.fromiter(
                (self._bucket(tok) for tok in enc.dictionary.to_pylist()),
                dtype=np.int64, count=len(enc.dictionary))
            codes = enc.indices.to_numpy(zero_copy_only=False)
            np.add.at(M, (row_of, buckets[codes]), 1.0)
        emb = pa.FixedSizeListArray.from_arrays(
            pa.array(M.ravel(), type=pa.float64()), self.dim).cast(
            pa.list_(pa.float64()))
        return pa.table({"vec_id": t["doc_id"], "embedding": emb})


def embed_documents(docs: rd.Dataset, dim: int = 32,
                    model=None) -> rd.Dataset:
    """documents (doc_id, text) -> (vec_id, embedding list<double>).
    ``model``: pluggable spec (None = builtin fake; callable or
    "module:attr" string resolved once per actor)."""
    return docs.map_batches(
        FakeTextEmbedder, fn_constructor_kwargs=dict(dim=dim, model=model),
        batch_format="pyarrow", batch_size=1024,
        concurrency=pool_limits(hi=4), num_cpus=1)
