"""The table-built scorer against the sequential oracle (hypothesis):
random small inventories and edge sets, scored mention by mention."""

import hypothesis.strategies as st
import pyarrow as pa
from hypothesis import given, settings

from wsid_ray.config import PipelineConfig
from wsid_ray.oracle import disambiguate as oracle_disambiguate
from wsid_ray.stages.disambig import SenseDisambiguator
from wsid_ray.stages.induce import EDGE_SCHEMA, inventory_from_rows

# KB profile tokens of both candidates of each term, plus tokens in no
# profile, so senses overlap one candidate, both, or none.
VOCAB = ["orchard", "pie", "iphone", "chip", "river", "mud", "loan",
         "deposit", "noise", "tempo"]
TERMS = ["apple", "apples", "bank"]   # "apples": an alias of apple
# exact binary fractions: sums are exact, so tied scores really tie
WEIGHTS = [0.125, 0.25, 0.5, 1.0]
NPMI = [-0.25, 0.0, 0.25, 0.5, 0.75]

senses = st.dictionaries(
    st.integers(0, 3),
    st.dictionaries(st.sampled_from(VOCAB), st.sampled_from(WEIGHTS),
                    min_size=1, max_size=4),
    min_size=1, max_size=3)
inventories = st.dictionaries(st.sampled_from(TERMS), senses, max_size=3)
edge_sets = st.dictionaries(
    st.sampled_from(TERMS),
    st.dictionaries(
        st.tuples(st.sampled_from(VOCAB), st.sampled_from(VOCAB))
        .filter(lambda p: p[0] < p[1]),
        st.sampled_from(NPMI), max_size=12),
    max_size=3)
mentions = st.lists(
    st.tuples(st.sampled_from(TERMS + ["python"]),
              st.lists(st.sampled_from(VOCAB), max_size=8)),
    min_size=1, max_size=12)


def _table(inventory: dict) -> pa.Table:
    return inventory_from_rows(
        {"term": t, "sense_id": sid, "token": tok, "weight": w}
        for t, ss in inventory.items() for sid, vec in ss.items()
        for tok, w in vec.items())


def _edge_table(edge_maps: dict) -> pa.Table:
    return pa.Table.from_pylist(
        [{"term": t, "w": w, "v": v, "npmi": x}
         for t, m in edge_maps.items() for (w, v), x in m.items()],
        schema=EDGE_SCHEMA)


@settings(max_examples=150, deadline=None)
@given(inventories, edge_sets, mentions)
def test_scorer_matches_oracle(inventory, edge_maps, ms):
    """sense_id, score and kb_id of every mention equal the oracle's,
    with tied sense scores, zero-overlap KB candidates and tokens shared
    by several senses of one term; with expand_cooc off and on."""
    batch = pa.table({
        "term": pa.array([t for t, _ in ms], type=pa.string()),
        "win_tokens": pa.array([w for _, w in ms],
                               type=pa.list_(pa.string())),
    })
    for expand in (False, True):
        cfg = PipelineConfig(expand_cooc=expand, expand_gamma=0.5)
        edges = _edge_table(edge_maps) if expand else None
        got = SenseDisambiguator(_table(inventory), edges,
                                 cfg.expand_gamma)(batch).to_pylist()
        want = oracle_disambiguate(
            [{"term": t, "win_tokens": w} for t, w in ms], inventory, cfg,
            edge_maps=edge_maps if expand else None)
        assert [(g["sense_id"], g["score"], g["kb_id"]) for g in got] == \
               [(w["sense_id"], w["score"], w["kb_id"]) for w in want], \
               expand
