"""A2/A3 — disambiguation + candidate entity-link scoring (SURVEY.md §2.3).

BASELINE.json:6: "mention detection + candidate entity-link scoring runs in
map_batches over zero-copy Arrow with actor pools holding the induced sense
inventories and co-occurrence matrices in-state."

The scorer state is built once, on the driver, and broadcast with one
``ray.put``; every map task reads it back with ``ray.get``, whose numpy
and Arrow arrays map zero-copy out of the object store, so each node
holds one copy.  It is built from the fitted model's Arrow tables
(stages/induce.py ``INVENTORY_SCHEMA`` rows, plus the pruned
``EDGE_SCHEMA`` edges with ``expand_cooc``) by sorts, joins and group-bys,
with no per-token Python.  The state is:
  * the inventory's (term, token) -> (sense_id, weight) pairs,
    flattened into sorted "term\\0token" keys over ragged (sense_id,
    weight) slices — with ``expand_cooc``, the pruned per-term
    co-occurrence edges folded in as second-order weights;
  * the (term, sense_id) -> kb entity link table: the inventory joined
    with the exploded KB profiles (config.kb_profiles), weights summed
    per (term, sense_id, kb_id); every candidate takes part (no overlap
    scores 0); ties -> lexicographically smallest kb_id.

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

from ..config import MIN_LINK_SCORE, kb_profiles
from ..util import list_row_indices, ragged_ranges
from .groups import map_blocks
from .induce import inventory_from_rows


def _second_order(inv: pa.Table, edges: pa.Table,
                  expand_gamma: float) -> pa.Table:
    """Expansion-mode (term, token, sense_id, weight) rows.  By the
    oracle's ``expansion_score`` a window token adds, per sense, EITHER
    its vector weight OR (not in the vector) gamma x its strongest
    positive NPMI edge into the vector, so these weights fold into the
    flattened state: <= |edges| x |senses| rows per term."""
    sym = pa.concat_tables([
        pa.table({"term": edges["term"], "t_out": edges[a],
                  "t_in": edges[b], "npmi": edges["npmi"]})
        for a, b in (("w", "v"), ("v", "w"))])
    sym = sym.filter(pc.greater(sym["npmi"], 0.0))
    into = sym.join(inv.select(["term", "token", "sense_id"])
                    .rename_columns(["term", "t_in", "sense_id"]),
                    keys=["term", "t_in"], join_type="inner")
    outside = into.join(inv.select(["term", "sense_id", "token"])
                        .rename_columns(["term", "sense_id", "t_out"]),
                        keys=["term", "sense_id", "t_out"],
                        join_type="left anti")
    best = outside.group_by(["term", "t_out", "sense_id"]).aggregate(
        [("npmi", "max")])
    return pa.table({"term": best["term"], "token": best["t_out"],
                     "sense_id": best["sense_id"],
                     "weight": pc.multiply(best["npmi_max"], expand_gamma)})


def _link_winners(inv: pa.Table) -> pa.Table:
    """(term, sense_id, kb_id_first): every KB candidate of the term
    scores the sum of the sense's weights over its profile tokens (0
    with no overlap); the highest score wins, ties -> smallest kb_id."""
    kb = kb_profiles()
    cands = inv.group_by(["term", "sense_id"]).aggregate([]).join(
        kb.group_by(["term", "kb_id"]).aggregate([]), keys="term")
    overlap = inv.join(kb, keys=["term", "token"], join_type="inner") \
        .group_by(["term", "sense_id", "kb_id"]).aggregate(
            [("weight", "sum")])
    scored = cands.join(overlap, keys=["term", "sense_id", "kb_id"])
    scored = scored.append_column(
        "score", pc.fill_null(scored["weight_sum"], 0.0)).sort_by(
        [("score", "descending"), ("kb_id", "ascending")])
    return scored.group_by(["term", "sense_id"], use_threads=False) \
        .aggregate([("kb_id", "first")])


class SenseDisambiguator:
    """Vectorised scoring: window tokens probe the flattened inventory via
    one Arrow ``index_in`` on "term\\0token" keys, (sense, weight) pairs
    come back through a numpy ragged gather, per-(mention, sense) sums
    fold with bincount, argmax via lexsort with (score desc, sense_id
    asc).  Scores compare at 6 dp (shared rule with the oracle) so
    summation order is immaterial.

    Holds only arrays that ``__call__`` reads, so a ``ray.put`` of the
    scorer comes back zero-copy in every task."""

    def __init__(self, inventory: pa.Table, edges: pa.Table | None = None,
                 expand_gamma: float = 0.5):
        inv = inventory_from_rows(inventory)
        pairs = inv.select(["term", "token", "sense_id", "weight"])
        if edges is not None and inv.num_rows:
            pairs = pa.concat_tables([pairs, _second_order(
                inv, edges, expand_gamma).cast(pairs.schema)])
        # Flattened lookup: sorted unique "term\0token" keys (probed with
        # one pc.index_in per batch), each over its run of (sense_id,
        # weight) pairs, since one token can weigh into several senses
        # of its term.
        flat = pa.table({
            "key": pc.binary_join_element_wise(pairs["term"],
                                               pairs["token"], "\x00"),
            "sense_id": pairs["sense_id"], "weight": pairs["weight"],
        }).sort_by([("key", "ascending"), ("sense_id", "ascending")])
        runs = pc.run_end_encode(flat["key"].combine_chunks())
        ends = runs.run_ends.to_numpy().astype(np.int64)
        self.inv_key_arr = runs.values
        self.inv_counts = np.diff(ends, prepend=0)
        self.inv_starts = ends - self.inv_counts
        self.inv_sid = flat["sense_id"].to_numpy().astype(np.int64)
        self.inv_w = flat["weight"].to_numpy().astype(np.float64)
        self.n_senses = S = (pc.max(inv["sense_id"]).as_py() or 0) + 1
        # Link table: kb_id of (term, sense_id) at term_code * S +
        # sense_id, with "" in the unused slots and in one trailing slot
        # that unlinked mentions and unknown terms take.
        self.link_terms = pc.unique(inv["term"]).sort()
        win = _link_winners(inv)
        code = pc.index_in(win["term"], value_set=self.link_terms) \
            .to_numpy().astype(np.int64)
        at = np.full(len(self.link_terms) * S + 1, -1, dtype=np.int64)
        at[code * S + win["sense_id"].to_numpy()] = np.arange(win.num_rows)
        self.link_kb = pc.fill_null(
            win["kb_id_first"].take(pa.array(at, mask=at < 0)), "") \
            .combine_chunks()

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


def _scorer_ref(inventory_ref, edges_ref, expand_gamma: float):
    key = (inventory_ref.hex(),
           edges_ref.hex() if edges_ref is not None else None,
           expand_gamma)
    ref = _SCORER_MEMO.get(key)
    if ref is None:
        if len(_SCORER_MEMO) >= _SCORER_MEMO_MAX:
            _SCORER_MEMO.pop(next(iter(_SCORER_MEMO)))
        edges = ray.get(edges_ref) if edges_ref is not None else None
        ref = ray.put(SenseDisambiguator(ray.get(inventory_ref), edges,
                                         expand_gamma))
        _SCORER_MEMO[key] = ref
    return ref


def disambiguate(mentions_raw, inventory_ref, edges_ref=None,
                 expand_gamma: float = 0.5, state_rows: int | None = None):
    """Score and link every mention with one scorer built on the driver
    (module docstring) and read back zero-copy by each task.

    On a lazy Dataset the scoring is a stateless map that fuses with the
    upstream read→tokenize→detect chain into one elastic operator that
    uses every free CPU.  No explicit batch_size: an explicit size blocks
    Ray Data's read fusion and forces the decoded corpus through the
    object store (pipelines/flagship.py detect_mentions note).  On
    ``Blocks`` (mentions already pinned) the same map is one raw task
    per block (``groups.map_blocks``): no Ray Data execution.  Either
    way every call with the same model shares one scorer.

    ``state_rows`` is unused; it is accepted only for callers that still
    pass it (perfbench/traced.py).
    """
    scorer_ref = _scorer_ref(inventory_ref, edges_ref, expand_gamma)

    def score(batch: pa.Table) -> pa.Table:
        return ray.get(scorer_ref)(batch)

    return map_blocks(score, mentions_raw)
