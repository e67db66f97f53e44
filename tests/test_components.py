"""Catalogue connected components (hash-to-min rounds) on planted
component structures; component label = min node (FIXTURES.md F3)."""

import pyarrow as pa
import ray.data as rd

from wsid_catalog.stages.components import connected_components


def edges_ds(pairs):
    return rd.from_arrow(pa.table({
        "u": pa.array([a for a, _ in pairs]),
        "v": pa.array([b for _, b in pairs]),
    }))


def test_two_components():
    comps = connected_components(edges_ds(
        [("a", "b"), ("b", "c"), ("x", "y")])).take_all()
    m = {r["node"]: r["comp"] for r in comps}
    assert m == {"a": "a", "b": "a", "c": "a", "x": "x", "y": "x"}


def test_chain_converges_log_rounds():
    chain = [(f"n{i:02d}", f"n{i+1:02d}") for i in range(12)]
    comps = connected_components(edges_ds(chain)).take_all()
    assert {r["comp"] for r in comps} == {"n00"}
    assert len(comps) == 13
