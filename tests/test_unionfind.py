"""D3 — canonical ids by one kb_id-keyed group-by; canonical id = min
entity of its kb_id's star (FIXTURES.md F3)."""

import pyarrow as pa
import pytest
import ray.data as rd

from tools.plan_count import counting
from wsid_ray.stages import groups
from wsid_ray.stages.unionfind import canonicalize


# driver-path: one reduce reads every pair; distributed-path: split tasks
# hash the pairs on kb_id over three reduces
@pytest.mark.parametrize("rows_per_bucket", [1_000_000, 1],
                         ids=["driver-path", "distributed-path"])
def test_canonicalize_excludes_kb_nodes(rows_per_bucket, monkeypatch):
    monkeypatch.setattr(groups, "ROWS_PER_BUCKET", rows_per_bucket)
    ekb = rd.from_arrow(pa.table({
        "entity_id": ["jaguars#0", "jaguar#1", "python#0"],
        "kb_id": ["kb:jag_animal", "kb:jag_animal", "kb:py_lang"],
    }))
    with counting() as c:
        canon = {r["entity_id"]: r["canon_id"]
                 for r in canonicalize(ekb).take_all()}
    assert c["tasks"].get("_reduce_bucket", 0) == (
        1 if rows_per_bucket > 3 else 3), c
    # alias + base share kb candidate -> merged; canon = min entity id
    assert canon["jaguars#0"] == "jaguar#1"
    assert canon["jaguar#1"] == "jaguar#1"
    assert canon["python#0"] == "python#0"
    assert not any(c.startswith("kb:") for c in canon.values())
