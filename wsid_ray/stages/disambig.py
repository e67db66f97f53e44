"""A2/A3 — disambiguation + candidate entity-link scoring (SURVEY.md §2.3).

BASELINE.json:6: "mention detection + candidate entity-link scoring runs in
map_batches over zero-copy Arrow with actor pools holding the induced sense
inventories and co-occurrence matrices in-state."

The scorer state is built once, on the driver, and broadcast with one
``ray.put``; every map task reads it back with ``ray.get``, whose numpy
and Arrow arrays map zero-copy out of the object store, so each node
holds one copy.  The state is:
  * the induced sense inventory {term: {sense_id: {token: weight}}},
    flattened into "term\\0token" keys over ragged (sense_id, weight)
    slices — with ``expand_cooc``, the pruned per-term co-occurrence
    matrices folded in as second-order weights;
  * the (term, sense_id) -> kb entity link table, precomputed by scoring
    each sense vector against each KB candidate's profile token set
    (overlap weight sum; ties -> lexicographically smallest kb_id).

Scoring semantics [R, wsid disambiguation]: score(mention, sense) =
Σ_{tok ∈ window} weight_sense(tok); argmax, ties -> lowest sense_id;
mentions whose every sense scores <= MIN_LINK_SCORE get sense_id = -1
(unlinkable) and are dropped from triple assembly.

Scale note: the inventory is |gazetteer|·top_k-bounded — broadcast, not
shuffled.  With a web-scale gazetteer, shard inventories by hash(term)
and route batches by the same key (SURVEY.md §7 hard-part 6).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from ..config import MIN_LINK_SCORE, kb_candidates
from ..util import list_row_indices, ragged_ranges


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
    summation order is immaterial.

    Holds only arrays that ``__call__`` reads, so a ``ray.put`` of the
    scorer comes back zero-copy in every task."""

    def __init__(self, inventory: dict, edge_maps: dict | None = None,
                 expand_gamma: float = 0.5):
        # Flattened lookup for the vectorised scorer: unique
        # "term\0token" keys (probed with one pc.index_in per batch) →
        # ragged slices of (sense_id, weight) pairs, since one token can
        # weigh into several senses of its term.
        bykey: dict[str, list[tuple[int, float]]] = {}
        max_sid = 0
        for term, senses in inventory.items():
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
        if edge_maps is not None:
            for term, emap in edge_maps.items():
                senses = inventory.get(term, {})
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
                        (sid, expand_gamma * b))
        keys = sorted(bykey)
        counts = np.array([len(bykey[k]) for k in keys], dtype=np.int64)
        self.inv_key_arr = pa.array(keys, type=pa.string())
        self.inv_counts = counts
        self.inv_starts = (np.concatenate(([0], np.cumsum(counts)))[:-1]
                           if len(counts) else np.zeros(0, dtype=np.int64))
        flat_pairs = [p for k in keys for p in bykey[k]]
        self.inv_sid = np.array([p[0] for p in flat_pairs], dtype=np.int64)
        self.inv_w = np.array([p[1] for p in flat_pairs], dtype=np.float64)
        self.n_senses = S = max_sid + 1
        # Link table: kb_id of (term, sense_id) at term_code * S +
        # sense_id, with "" in the unused slots and in one trailing slot
        # that unlinked mentions and unknown terms take.
        terms = sorted(inventory)
        code = {t: i for i, t in enumerate(terms)}
        kb = [""] * (len(terms) * S + 1)
        for (term, sid), kb_id in build_link_map(inventory).items():
            kb[code[term] * S + int(sid)] = kb_id
        self.link_terms = pa.array(terms, type=pa.string())
        self.link_kb = pa.array(kb, type=pa.string())

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        wins = batch["win_tokens"]
        if isinstance(wins, pa.ChunkedArray):
            wins = wins.combine_chunks()
        flat = wins.flatten()
        midx = list_row_indices(wins)
        tcol = batch["term"]
        if isinstance(tcol, pa.ChunkedArray):
            tcol = tcol.combine_chunks()
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
        return self._emit(batch, tcol, sense_ids, scores)

    def _emit(self, batch, tcol, sense_ids, scores) -> pa.Table:
        sid = pa.array(sense_ids, type=pa.int32())
        # kb_id: one take from the link table; unknown terms and
        # unlinked mentions read its trailing "" slot
        code = pc.index_in(tcol, value_set=self.link_terms) \
            .fill_null(-1).to_numpy(zero_copy_only=False).astype(np.int64)
        slot = np.where((code >= 0) & (sense_ids >= 0),
                        code * self.n_senses + sense_ids,
                        len(self.link_kb) - 1)
        entity_ids = pc.binary_join_element_wise(
            tcol, pc.cast(sid, pa.string()), "#")
        out = batch.drop_columns(["win_tokens"])
        out = out.append_column("sense_id", sid)
        out = out.append_column("score", pa.array(scores, type=pa.float64()))
        out = out.append_column("entity_id",
                                pc.cast(entity_ids, pa.string()))
        out = out.append_column("kb_id",
                                self.link_kb.take(pa.array(slot)))
        return out


# Driver-side memo: the scorer's object ref per broadcast model, so a
# run that links shard by shard (pipelines/checkpointed.py) builds and
# puts the scorer once.  Keyed by ref identity; bounded (a long-lived
# driver serving many runs keeps only the most recent scorers).
_SCORER_MEMO: dict = {}
_SCORER_MEMO_MAX = 4


def _scorer_ref(inventory_ref, edge_maps_ref, expand_gamma: float):
    key = (inventory_ref.hex(),
           edge_maps_ref.hex() if edge_maps_ref is not None else None,
           expand_gamma)
    ref = _SCORER_MEMO.get(key)
    if ref is None:
        if len(_SCORER_MEMO) >= _SCORER_MEMO_MAX:
            _SCORER_MEMO.pop(next(iter(_SCORER_MEMO)))
        edge_maps = (ray.get(edge_maps_ref)
                     if edge_maps_ref is not None else None)
        ref = ray.put(SenseDisambiguator(ray.get(inventory_ref), edge_maps,
                                         expand_gamma))
        _SCORER_MEMO[key] = ref
    return ref


def disambiguate(mentions_raw: rd.Dataset, inventory_ref,
                 edge_maps_ref=None, expand_gamma: float = 0.5,
                 state_rows: int | None = None) -> rd.Dataset:
    """Score and link every mention with one scorer built on the driver
    (module docstring) and read back zero-copy by each map task.

    Stateless tasks fuse with the upstream read→tokenize→detect chain
    into one elastic operator that uses every free CPU.  No explicit
    batch_size: an explicit size blocks Ray Data's read fusion and
    forces the decoded corpus through the object store
    (pipelines/flagship.py detect_mentions note).

    ``state_rows`` is unused; it is accepted only for callers that still
    pass it (perfbench/traced.py).
    """
    scorer_ref = _scorer_ref(inventory_ref, edge_maps_ref, expand_gamma)

    def score(batch: pa.Table) -> pa.Table:
        return ray.get(scorer_ref)(batch)

    return mentions_raw.map_batches(score, batch_format="pyarrow")
