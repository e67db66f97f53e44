"""O3 — deterministic corpus subsampling / hot-term window caps
(SURVEY.md §2.6 O3, §4.3 "Skew: hot tokens/terms").

A web-scale corpus can have billions of windows for one hot surface form;
sense induction only needs a bounded sample per term.  The cap is
deterministic (reproducible across runs and partition layouts — required
for the oracle P/R gate): a mention survives iff
``stable_hash64(term|conv|turn|span) mod SCALE < rate·SCALE`` where
``rate = cap / count(term)`` comes from a cheap pre-count broadcast to
every task.  No shuffle: one count pass (partial+final over tiny partials)
plus one stateless filter pass.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data as rd

from wsid_ray.stages.groups import bucketed_sum
from wsid_ray.util import collect_rows, stable_hash64

_SCALE = 1 << 30


def term_counts(mentions: rd.Dataset) -> dict[str, int]:
    """term -> mention count (gazetteer-bounded, driver dict)."""
    import pandas as pd

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby("term", sort=True).size().rename("n").reset_index()
        out["n"] = out["n"].astype("int64")
        return out

    partials = mentions.select_columns(["term"]).map_batches(
        partial, batch_format="pandas")
    rows = collect_rows(bucketed_sum(partials, ["term"], ["n"],
                                     num_buckets=4))
    return {r["term"]: r["n"] for r in rows}


def cap_windows_per_term(mentions: rd.Dataset, cap: int,
                         counts: dict[str, int] | None = None) -> rd.Dataset:
    """Keep at most ~cap windows per term (deterministic hash sampling)."""
    if counts is None:
        counts = term_counts(mentions)
    thresholds = {t: (_SCALE if n <= cap else int(_SCALE * cap / n))
                  for t, n in counts.items()}
    ref = ray.put(thresholds)

    def filt(t: pa.Table) -> pa.Table:
        th = ray.get(ref)
        terms = t["term"].to_pylist()
        convs = t["conv_id"].to_pylist()
        turns = t["turn_idx"].to_pylist()
        spans = t["span_start"].to_pylist()
        keep = np.fromiter(
            (stable_hash64(f"{te}|{c}|{tu}|{sp}") % _SCALE
             < th.get(te, _SCALE)
             for te, c, tu, sp in zip(terms, convs, turns, spans)),
            dtype=bool, count=len(terms))
        return t.filter(pa.array(keep))

    return mentions.map_batches(filt, batch_format="pyarrow")
