"""M3/A1 — mention detection, M4 — context-window extraction (SURVEY.md §2.2/§2.3).

Reference semantics [R]: wsid's caller locates occurrences of the target
surface form; the engine makes that an explicit stage over the gazetteer.
``GazetteerMatcher`` is the one match rule of the engine: the detector
below, ``mention_counts`` and the catalogue's branching entropy all take
their spans from it.  Its lookup state is built once per gazetteer and
is small, so detection runs as stateless tasks (``detect_batch``, a
per-process memo) fused with tokenize: elastic tasks use every CPU
instead of being capped at a pool size.  Actor pools are reserved for
heavy state (sense inventories, A2/A3 — as BASELINE.json:6 prescribes).

Window semantics [R, wsid/cooc.py; BASELINE.json:6 "sliding-window
co-occurrence counting"]: for each occurrence of a gazetteer term at token
position i in a turn, the context window is the W tokens each side within
the same turn (windows never cross turn boundaries — this is what makes
conv-level salting semantics-preserving, SURVEY.md §4.3). The target token
itself is excluded from its own window.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..config import GAZETTEER, WINDOW_SIZE
from ..util import list_row_indices, ragged_ranges


class GazetteerMatcher:
    """Every occurrence of every gazetteer term in a list<string> token
    column, as ``(start, length, term)``.

    Rule shared with the sequential oracle and the SQL mirrors: every
    term matches independently at every position — overlaps allowed, no
    longest-match preference — and a match never crosses a turn.  A term
    with a space is the token sequence ``term.split()``; two entries with
    the same tokens ("big apple", "big  apple") each match.

    A trie over the terms' token sequences, stored as a double array
    (Aoe 1989): the child of the node in slot s on word code c sits in
    slot ``base[s] + c``, and it is that node's child iff
    ``check[base[s] + c] == s``.  ``match`` encodes the tokens against the
    word set with one ``index_in`` and then advances every live prefix by
    one token per trie level with two gathers, so a lookup costs the same
    whatever the gazetteer size: O(tokens × longest term) in all (the
    SIGMOD 2019 multi-pattern idea of sharing sub-pattern work), with no
    limit on term length or vocabulary.
    """

    def __init__(self, gazetteer: tuple[str, ...] = GAZETTEER):
        forms = [g for g in sorted(set(gazetteer)) if g.split()]
        seqs = [g.split() if " " in g else [g] for g in forms]
        self.terms = pa.array(forms, type=pa.string())
        words = sorted({w for s in seqs for w in s})
        self.words = pa.array(words, type=pa.string())
        code = {w: i for i, w in enumerate(words)}
        # the trie: node 0 is the root, children[n] maps word code -> node
        children: list[dict[int, int]] = [{}]
        end_node = []
        for seq in seqs:
            node = 0
            for w in seq:
                node = children[node].setdefault(code[w], len(children))
                if node == len(children):
                    children.append({})
            end_node.append(node)
        # give each node's children the first base b >= 0 whose slots
        # b + code are all vacant; slot 0 holds the root, and a parent is
        # placed before its children (a node's id exceeds its parent's)
        slot, base, parent = np.zeros((3, len(children)), dtype=np.int64)
        vacant = np.ones(2 * (len(children) + len(words)) + 1, dtype=bool)
        vacant[0] = False
        for node, ch in enumerate(children):
            if not ch:
                continue
            cs = np.array(sorted(ch), dtype=np.int64)
            f = max(1, int(cs[0]))      # candidate slot of the first child
            while True:
                if f + len(words) >= len(vacant):
                    vacant = np.concatenate((vacant, np.ones_like(vacant)))
                f += int(np.argmax(vacant[f:]))   # next vacant slot
                b = f - int(cs[0])
                if vacant[b + cs].all():
                    break
                f += 1
            vacant[b + cs] = False
            base[node] = b
            kids = [ch[c] for c in cs.tolist()]
            slot[kids], parent[kids] = b + cs, node
        # in slot space, padded so that base + any code stays in range
        n_slots = int(base.max(initial=0)) + len(words) + 1
        self.base = np.zeros(n_slots, dtype=np.int64)
        self.base[slot] = base
        self.check = np.full(n_slots, -1, dtype=np.int64)
        self.check[slot[1:]] = slot[parent[1:]]
        # the terms ending in each slot, as CSR (term ids ascending)
        end_slot = slot[end_node]
        self.end_terms = np.argsort(end_slot, kind="stable")
        self.end_ptr = np.concatenate(([0], np.cumsum(
            np.bincount(end_slot, minlength=n_slots))))

    def match(self, tokens: pa.ListArray
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(start, length, term)`` int64 arrays: the flat index (into
        ``tokens.flatten()``) of each match's first token, its token
        count and its index into ``self.terms``; ordered by length, then
        position, then term."""
        codes = pc.index_in(tokens.flatten(), value_set=self.words) \
            .fill_null(-1).to_numpy(zero_copy_only=False).astype(np.int64)
        # the turns' codes end to end, each turn followed by a -1: a
        # prefix dies where it would cross a turn or run off the end
        row_of = list_row_indices(tokens)
        at = np.arange(len(codes)) + row_of
        padded = np.full(len(codes) + len(tokens), -1, dtype=np.int64)
        padded[at] = codes
        start = at[codes >= 0]
        state = np.zeros(len(start), dtype=np.int64)   # the root's slot
        out_s, out_m, out_t = ([np.zeros(0, dtype=np.int64)] for _ in "smt")
        j = 0
        while len(start):
            c = padded[start + j]
            child = self.base[state] + c
            ok = (c >= 0) & (self.check[child] == state)
            start, state = start[ok], child[ok]
            j += 1
            n_end = self.end_ptr[state + 1] - self.end_ptr[state]
            out_s.append(np.repeat(start, n_end))
            out_m.append(np.full(int(n_end.sum()), j, dtype=np.int64))
            out_t.append(self.end_terms[
                ragged_ranges(self.end_ptr[state], n_end)])
        start = np.concatenate(out_s)
        # back from padded to flat positions: subtract the row number
        pad_row = np.repeat(np.arange(len(tokens)),
                            np.diff(tokens.offsets.to_numpy()) + 1)
        return (start - pad_row[start], np.concatenate(out_m),
                np.concatenate(out_t))


class MentionDetector:
    """Callable: turns_norm batch -> mentions_raw batch.  Spans come from
    the ``GazetteerMatcher``; windows and the carried provenance columns
    are gathered with vectorised takes.  A batch without mentions yields
    a typed empty table."""

    def __init__(self, window_size: int = WINDOW_SIZE,
                 gazetteer: tuple[str, ...] = GAZETTEER):
        self.window = window_size
        self.matcher = GazetteerMatcher(gazetteer)

    def __call__(self, batch: pa.Table) -> pa.Table:
        tokens = batch["tokens"]
        if isinstance(tokens, pa.ChunkedArray):
            tokens = tokens.combine_chunks()
        p, m, term_ids = self.matcher.match(tokens)
        offsets = tokens.offsets.to_numpy().astype(np.int64)
        offsets -= offsets[0]       # a sliced array's offsets start above 0
        # turn row per mention (empty turns repeat an offset: take the last)
        rows = np.searchsorted(offsets, p, side="right") - 1
        pos = (p - offsets[rows]).astype(np.int32)   # token pos in turn
        # windows, fully vectorised: for each mention the window is
        # flat[lo:p] ++ flat[p+m:hi], gathered with one take
        lo = np.maximum(offsets[rows], p - self.window)
        hi = np.minimum(offsets[rows + 1], p + m + self.window)
        lens = np.column_stack((p - lo, hi - p - m))
        win_values = tokens.flatten().take(pa.array(ragged_ranges(
            np.column_stack((lo, p + m)).ravel(), lens.ravel())))
        win_tokens = pa.ListArray.from_arrays(
            pa.array(np.concatenate(([0], np.cumsum(lens.sum(axis=1)))),
                     type=pa.int32()), win_values)
        # carry only the provenance columns present in the batch — a
        # column-pruned fit pass (text-only read) yields just
        # (term, span, win_tokens)
        take = pa.array(rows, type=pa.int64())
        data = {c: pc.take(batch[c], take) for c in _CARRY_COLS
                if c in batch.schema.names}
        data.update({
            "term": self.matcher.terms.take(pa.array(term_ids)),
            "span_start": pa.array(pos, type=pa.int32()),
            "span_end": pa.array(pos + m.astype(np.int32), type=pa.int32()),
            "win_tokens": win_tokens,
        })
        return pa.table(data)


_DETECTOR_MEMO: dict[tuple, MentionDetector] = {}


def detect_batch(batch: pa.Table, window_size: int = WINDOW_SIZE,
                 gazetteer: tuple[str, ...] = GAZETTEER) -> pa.Table:
    """Stateless-task wrapper with a per-worker-process detector memo."""
    key = (window_size, gazetteer)
    det = _DETECTOR_MEMO.get(key)
    if det is None:
        det = _DETECTOR_MEMO[key] = MentionDetector(window_size, gazetteer)
    return det(batch)


_CARRY_COLS = ("conv_id", "turn_idx", "role", "tool", "ts")
