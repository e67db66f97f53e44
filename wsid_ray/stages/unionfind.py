"""D3 — canonical entity ids (SURVEY.md §2.7).

BASELINE.json:6 names a distributed union-find (groupby-aggregate merge
rounds) over the (entity_id, kb_id) graph.  That graph is a star forest:
the scorer's link table gives each (term, sense_id), so each entity,
exactly one kb_id (stages/disambig._link_winners), so every component is
one KB node and the entities linked to it.  The merge rounds reach their
fixed point after one group-by round, and ``canonicalize`` is that round:
one kb_id-keyed shuffle whose reduces name every entity by the smallest
entity_id sharing its kb_id.  ``pipelines/flagship.canon_map`` refuses an
entity linked to two kb_ids, where the premise breaks; the oracle
(``oracle.canonicalize``) and the SQL mirror
(``__ray_entry__._sql_canon_chain``) stay general union-finds, so every
gated job checks the premise as well.

The module keeps its name: it is the pipeline's union-find step (D3), and
the benchmark's ``stages.unionfind`` layer imports it.  General connected
components live in the catalogue (``wsid_catalog/stages/components.py``).
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa

from .groups import Blocks, like, shuffle


def _name_by_kb(df: pd.DataFrame) -> pd.DataFrame:
    """One bucket of (entity_id, kb_id) pairs, duplicates allowed -> each
    distinct pair's entity with canon_id = min entity_id of its kb_id."""
    df = df.drop_duplicates(["entity_id", "kb_id"])
    canon = df.groupby("kb_id", sort=False)["entity_id"].transform("min")
    return pd.DataFrame({"entity_id": df["entity_id"].to_numpy(),
                         "canon_id": canon.to_numpy()})


def canonicalize(entity_kb_edges):
    """(entity_id, kb_id) pairs -> canon_map (entity_id, canon_id), as a
    Dataset or ``Blocks``, the kind of ``entity_kb_edges``.

    canon_id = lexicographically smallest entity_id linked to the same
    kb_id (kb_id nodes join entities but never name them).  An entity
    linked to two kb_ids comes out once per kb_id."""
    return like(entity_kb_edges, shuffle(
        Blocks.of(entity_kb_edges), ["kb_id"], _name_by_kb,
        out_schema=pa.schema([("entity_id", pa.string()),
                              ("canon_id", pa.string())])))
