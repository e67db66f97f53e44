"""Collocation significance over the co-occurrence counts of
wsid_ray.stages.cooc: Dunning G² and Dice per pruned NPMI edge.
"""

from __future__ import annotations
import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd
from wsid_ray.stages.cooc import npmi_pairs
from wsid_ray.stages.groups import bucketed_group_apply

LLR_SCHEMA = pa.schema([("term", pa.string()), ("w", pa.string()),
                        ("v", pa.string()), ("n", pa.int64()),
                        ("g2_micro", pa.int64()),
                        ("dice_micro", pa.int64())])


def llr_edges(counts: rd.Dataset, min_count: int,
              npmi_min: float) -> rd.Dataset:
    """Dunning log-likelihood-ratio collocation significance (Dunning
    1993 G²) + Dice coefficient per pruned NPMI edge — the classic
    significance test beside the PMI/NPMI weights: G² stays calibrated
    where PMI inflates rare pairs.

    Per edge the 2×2 window contingency is k11 = n(w,v),
    k12 = n(w) − k11, k21 = n(v) − k11, k22 = N − n(w) − n(v) + k11;
    G² = 2·Σ O·ln(O·N / (rt·ct)) over the non-zero cells, with each
    cell quantised half-up to micro-nats BEFORE the sum (KL-family
    contract — the ln argument is one CAST(int)·int / CAST(int)·int
    float division) and the final doubling exact.  Dice rides along:
    dice_micro = (2·n·1e6) // (n(w) + n(v)), pure integer.

    Scale: one term-keyed reduce over the summed counts — each bucket
    holds whole terms, so cooc's ``npmi_pairs`` prunes the edges and
    hands over N, n(w) and n(v) from the bucket's own rows."""
    def score(df: pd.DataFrame) -> pd.DataFrame:
        e = npmi_pairs(df, min_count, npmi_min)
        n, N = e["n"].to_numpy(np.int64), e["N"].to_numpy(np.int64)
        cw, cv = e["n_w"].to_numpy(np.int64), e["n_v"].to_numpy(np.int64)

        def cell(o, rt, ct):
            t = np.zeros(len(o), dtype=np.int64)
            m = o > 0
            arg = (o[m].astype(np.float64) * N[m]) \
                / (rt[m].astype(np.float64) * ct[m])
            t[m] = np.floor(o[m] * np.log(arg) * 1e6 + 0.5) \
                .astype(np.int64)
            return t

        g2 = 2 * (cell(n, cw, cv)
                  + cell(cw - n, cw, N - cv)
                  + cell(cv - n, N - cw, cv)
                  + cell(N - cw - cv + n, N - cw, N - cv))
        return pd.DataFrame({"term": e["term"], "w": e["w"], "v": e["v"],
                             "n": n, "g2_micro": g2,
                             "dice_micro": (2 * n * 1_000_000) // (cw + cv)})

    return bucketed_group_apply(counts, ["term"], score,
                                out_schema=LLR_SCHEMA)
