"""A2/A3 — disambiguation + candidate entity-link scoring (SURVEY.md §2.3).

BASELINE.json:6: "mention detection + candidate entity-link scoring runs in
map_batches over zero-copy Arrow with actor pools holding the induced sense
inventories and co-occurrence matrices in-state."

The actor pool holds, in state (loaded once per actor from a ``ray.put``
object ref):
  * the induced sense inventory {term: {sense_id: {token: weight}}};
  * the (term, sense_id) -> kb entity link map, precomputed by scoring each
    sense vector against each KB candidate's profile token set (overlap
    weight sum; ties -> lexicographically smallest kb_id).

Scoring semantics [R, wsid disambiguation]: score(mention, sense) =
Σ_{tok ∈ window} weight_sense(tok); argmax, ties -> lowest sense_id;
mentions whose every sense scores <= MIN_LINK_SCORE get sense_id = -1
(unlinkable) and are dropped from triple assembly.

Scale note: the inventory is |gazetteer|·top_k-bounded — broadcast, not
shuffled.  With a web-scale gazetteer, shard inventories across the pool
by hash(term) and route batches by the same key (SURVEY.md §7 hard-part 6).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data as rd

from ..config import MIN_LINK_SCORE, kb_candidates
from ..util import ragged_ranges


def build_link_map(inventory: dict[str, dict[int, dict[str, float]]]
                   ) -> dict[tuple[str, int], str]:
    """(term, sense_id) -> kb entity id via profile-overlap argmax."""
    link: dict[tuple[str, int], str] = {}
    for term, senses in inventory.items():
        cands = kb_candidates(term)
        for sense_id, vec in senses.items():
            best_kb, best_score = "", -1.0
            for kb_id in sorted(cands):
                s = sum(vec.get(tok, 0.0) for tok in cands[kb_id])
                if s > best_score:
                    best_kb, best_score = kb_id, s
            link[(term, sense_id)] = best_kb
    return link


def inventory_from_rows(rows) -> dict[str, dict[int, dict[str, float]]]:
    """Long-form (term, sense_id, token, weight) rows -> nested dict."""
    inv: dict[str, dict[int, dict[str, float]]] = {}
    for r in rows:
        inv.setdefault(r["term"], {}).setdefault(
            int(r["sense_id"]), {})[r["token"]] = float(r["weight"])
    return inv


class SenseDisambiguator:
    """Vectorised scoring: window tokens probe the flattened inventory via
    one Arrow ``index_in`` on "term\\0token" keys, (sense, weight) pairs
    come back through a numpy ragged gather, per-(mention, sense) sums
    fold with bincount, argmax via lexsort with (score desc, sense_id
    asc).  Scores compare at 6 dp (shared rule with the oracle) so
    summation order is immaterial."""

    def __init__(self, inventory_ref, edge_maps_ref=None,
                 expand_gamma: float = 0.5):
        inv = ray.get(inventory_ref)
        self.inventory = inv
        self.link = build_link_map(inv)
        # A2 state (BASELINE.json:6): the pruned per-term co-occurrence
        # matrices ride in actor state alongside the inventory when the
        # expansion refinement is on.
        self.edge_maps = (ray.get(edge_maps_ref)
                          if edge_maps_ref is not None else None)
        self.expand_gamma = expand_gamma
        # Flattened lookup for the vectorised scorer: unique
        # "term\0token" keys (probed with one pc.index_in per batch) →
        # ragged slices of (sense_id, weight) pairs, since one token can
        # weigh into several senses of its term.
        bykey: dict[str, list[tuple[int, float]]] = {}
        max_sid = 0
        for term, senses in inv.items():
            for sid, vec in senses.items():
                max_sid = max(max_sid, int(sid))
                for tok, w in vec.items():
                    bykey.setdefault(f"{term}\x00{tok}", []).append(
                        (int(sid), float(w)))
        # Expansion mode (A2 cooc matrices in state) folds into the SAME
        # structure (VERDICT r03 item 3): for a given sense, a window
        # token contributes EITHER its base vector weight (t ∈ vec) OR
        # gamma x its strongest NPMI edge into the vector (t ∉ vec) —
        # mutually exclusive by the oracle's expansion_score definition —
        # so the second-order weights are precomputable per (term, token,
        # sense) and the per-batch scorer stays one index_in + bincount
        # fold with no per-mention Python.  State stays vocab-bounded:
        # ≤ |edges| x |senses| pairs per term.
        if self.edge_maps is not None:
            for term, emap in self.edge_maps.items():
                senses = inv.get(term, {})
                if not senses:
                    continue
                best: dict[tuple[str, int], float] = {}
                for sid, vec in senses.items():
                    for (w_tok, v_tok), npmi in emap.items():
                        for t_out, t_in in ((w_tok, v_tok),
                                            (v_tok, w_tok)):
                            if t_out in vec or t_in not in vec:
                                continue
                            k = (t_out, int(sid))
                            if npmi > best.get(k, 0.0):
                                best[k] = npmi
                for (tok, sid), b in best.items():
                    bykey.setdefault(f"{term}\x00{tok}", []).append(
                        (sid, self.expand_gamma * b))
        keys = sorted(bykey)
        counts = np.array([len(bykey[k]) for k in keys], dtype=np.int64)
        self.inv_key_arr = pa.array(keys, type=pa.string())
        self.inv_counts = counts
        self.inv_starts = (np.concatenate(([0], np.cumsum(counts)))[:-1]
                           if len(counts) else np.zeros(0, dtype=np.int64))
        flat_pairs = [p for k in keys for p in bykey[k]]
        self.inv_sid = np.array([p[0] for p in flat_pairs], dtype=np.int64)
        self.inv_w = np.array([p[1] for p in flat_pairs], dtype=np.float64)
        self.n_senses = max_sid + 1

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        from ..util import list_row_indices
        n = batch.num_rows
        wins = batch["win_tokens"]
        if isinstance(wins, pa.ChunkedArray):
            wins = wins.combine_chunks()
        flat = wins.flatten()
        midx = list_row_indices(wins)
        terms_np = np.asarray(batch["term"].to_pylist(), dtype=object)
        sense_ids = np.full(n, -1, dtype=np.int32)
        scores = np.zeros(n, dtype=np.float64)
        # vectorised scorer (expansion mode included — its second-order
        # weights were folded into the flattened inventory in __init__):
        # one index_in probe of "term\0token" keys,
        # numpy ragged gather of (sense, weight) pairs, bincount fold,
        # lexsort argmax — no pandas, no per-row Python
        if len(flat) and len(self.inv_key_arr):
            # probe only the batch's UNIQUE (term, token) pairs: dictionary
            # codes pack into one int64 key, np.unique dedups, the (small)
            # unique set does the string build + index_in, and the result
            # scatters back through the inverse — the per-element work is
            # all integer numpy
            enc = pc.dictionary_encode(flat)
            if isinstance(enc, pa.ChunkedArray):
                enc = enc.combine_chunks()
            codes = enc.indices.to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            tcol = batch["term"]
            if isinstance(tcol, pa.ChunkedArray):
                tcol = tcol.combine_chunks()
            tenc = pc.dictionary_encode(tcol)
            if isinstance(tenc, pa.ChunkedArray):
                tenc = tenc.combine_chunks()
            tcodes = tenc.indices.to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            Vb = len(enc.dictionary)
            packed = tcodes[midx] * Vb + codes
            upacked, inverse = np.unique(packed, return_inverse=True)
            ukeys = pc.binary_join_element_wise(
                pc.take(tenc.dictionary, pa.array(upacked // Vb)),
                pc.take(enc.dictionary, pa.array(upacked % Vb)),
                "\x00")
            pos_u = pc.index_in(ukeys, value_set=self.inv_key_arr) \
                .fill_null(-1).to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            pos = pos_u[inverse]
            valid = pos >= 0
            if valid.any():
                mi = midx[valid]
                p = pos[valid]
                cnt = self.inv_counts[p]
                idx = ragged_ranges(self.inv_starts[p], cnt)
                S = self.n_senses
                key2 = np.repeat(mi, cnt) * S + self.inv_sid[idx]
                uk, inv_idx = np.unique(key2, return_inverse=True)
                # round-6 contract (shared with the oracle) makes the
                # bincount summation order immaterial
                sums = np.round(np.bincount(inv_idx,
                                            weights=self.inv_w[idx]), 6)
                keep = sums > MIN_LINK_SCORE
                uk, sums = uk[keep], sums[keep]
                m_of = uk // S
                s_of = (uk % S).astype(np.int32)
                order = np.lexsort((s_of, -sums, m_of))
                m_sorted = m_of[order]
                first = (np.concatenate(([True],
                                         m_sorted[1:] != m_sorted[:-1]))
                         if len(m_sorted) else np.zeros(0, dtype=bool))
                bi = order[first]
                sense_ids[m_of[bi]] = s_of[bi]
                scores[m_of[bi]] = sums[bi]
        return self._emit(batch, terms_np, sense_ids, scores)

    def _emit(self, batch, terms_np, sense_ids, scores) -> pa.Table:
        terms = terms_np.tolist()
        kb_ids = [self.link.get((t, int(s)), "")
                  for t, s in zip(terms, sense_ids)]
        entity_ids = [f"{t}#{s}" for t, s in zip(terms, sense_ids)]
        out = batch.drop_columns(["win_tokens"])
        out = out.append_column("sense_id", pa.array(sense_ids, type=pa.int32()))
        out = out.append_column("score", pa.array(scores, type=pa.float64()))
        out = out.append_column("entity_id", pa.array(entity_ids, type=pa.string()))
        out = out.append_column("kb_id", pa.array(kb_ids, type=pa.string()))
        return out


# Per-worker-process scorer memo for the stateless-tasks path: the state
# (flattened inventory + link map) is built ONCE per process from the
# broadcast refs — actor-`__init__` semantics without a dedicated pool.
# Keyed by ref identity; bounded (a long-lived worker serving many runs
# keeps only the most recent states).
_SCORER_MEMO: dict = {}
_SCORER_MEMO_MAX = 4

# Above this many flattened (term, sense, token) state rows the scorer
# state is no longer broadcast-cheap and a fixed actor pool (state built
# exactly `concurrency` times, slots pinned) beats elastic tasks (state
# built once per worker process that ever sees a batch).
_ACTOR_STATE_ROWS = 200_000


def _scorer_for(inventory_ref, edge_maps_ref,
                expand_gamma: float) -> SenseDisambiguator:
    key = (inventory_ref.hex(),
           edge_maps_ref.hex() if edge_maps_ref is not None else None,
           expand_gamma)
    s = _SCORER_MEMO.get(key)
    if s is None:
        if len(_SCORER_MEMO) >= _SCORER_MEMO_MAX:
            _SCORER_MEMO.pop(next(iter(_SCORER_MEMO)))
        s = SenseDisambiguator(inventory_ref, edge_maps_ref, expand_gamma)
        _SCORER_MEMO[key] = s
    return s


def disambiguate(mentions_raw: rd.Dataset, inventory_ref,
                 edge_maps_ref=None, expand_gamma: float = 0.5,
                 concurrency=None, state_rows: int | None = None
                 ) -> rd.Dataset:
    """Size-aware physical plan (measured, BASELINE.md r3):

    * small inventory (the broadcast-cheap common case) → STATELESS
      tasks with a per-process scorer memo.  Tasks fuse with the
      upstream read→tokenize→detect chain into one elastic stage that
      uses every free CPU — the fixed actor pool measured 9.4/16 busy
      cores over its pass (pool ramp-up + slots reserved for the
      parquet read starved the fused chain), the elastic form saturates.
    * large inventory (``state_rows`` > _ACTOR_STATE_ROWS, the web-scale
      gazetteer regime) or explicit ``concurrency`` → ACTOR POOL holding
      the state in ``__init__`` (A2/A3, BASELINE.json:6): elastic tasks
      would rebuild heavy state once per worker process, the pool builds
      it exactly ``concurrency`` times.
    """
    if concurrency is None and (state_rows is None
                                or state_rows <= _ACTOR_STATE_ROWS):
        def score(batch: pa.Table) -> pa.Table:
            return _scorer_for(inventory_ref, edge_maps_ref,
                               expand_gamma)(batch)

        # no explicit batch_size: an explicit size blocks Ray Data's
        # read fusion and forces the decoded corpus through the object
        # store (pipelines/flagship.py detect_mentions note); unset, the
        # whole read→tokenize→detect→score pass is ONE fused operator.
        return mentions_raw.map_batches(score, batch_format="pyarrow")

    from ..runtime import pool_limits
    if concurrency is None:
        # The heavy mention-scale stage — and, with operator fusion, the
        # host of the whole fused read→tokenize→detect→score chain, so an
        # undersized pool idles the rest of the machine (measured: a
        # frac=0.5 cap left 8 of 16 cores idle for the entire pass).
        # Its execution plan is maps-only ending in materialize (no
        # AllToAll shares the execution), so the deadlock guard only
        # needs the 2 task slots for the parquet read.
        concurrency = pool_limits(frac=1.0, hi=64)
    return mentions_raw.map_batches(
        SenseDisambiguator,
        fn_constructor_kwargs=dict(inventory_ref=inventory_ref,
                                   edge_maps_ref=edge_maps_ref,
                                   expand_gamma=expand_gamma),
        batch_format="pyarrow", batch_size=32768,
        concurrency=concurrency, num_cpus=1)
