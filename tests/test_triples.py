"""M8/D1 — triple assembly rules and dedup idempotence (FIXTURES.md F3)."""

import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from wsid_ray.stages.triples import dedup_triples, triples_from_mentions


def mentions_frame(rows):
    df = pd.DataFrame(rows, columns=[
        "conv_id", "turn_idx", "role", "tool", "ts", "term",
        "span_start", "entity_id", "sense_id"])
    df["turn_idx"] = df["turn_idx"].astype("int32")
    df["span_start"] = df["span_start"].astype("int32")
    df["ts"] = pd.Series(df["ts"], dtype="datetime64[us]")
    return df


def mentions_ds(rows):
    return rd.from_pandas(mentions_frame(rows))


TS = pd.Timestamp("2026-01-01")


def test_assembly_rules():
    ds = mentions_ds([
        ("c1", 0, "tool", "search", TS, "python", 1, "python#0", 0),
        ("c1", 0, "tool", "search", TS, "jaguar", 4, "jaguar#1", 1),
        ("c1", 1, "user", "", TS, "bank", 0, "bank#0", 0),
        ("c1", 2, "user", "", TS, "apple", 0, "apple#-1", -1),  # unlinked
    ])
    canon = {"jaguar#1": "jag#0"}
    got = {(r["subj"], r["pred"], r["obj"])
           for r in triples_from_mentions(ds, canon).take_all()}
    assert got == {
        ("python#0", "co_mentioned_with", "jag#0"),
        ("python#0", "uses_tool", "search"),
        ("jag#0", "uses_tool", "search"),
        ("python#0", "addresses", "tool"),
        ("jag#0", "addresses", "tool"),
        ("bank#0", "addresses", "user"),
    }


def test_pair_order_and_same_canon_skipped():
    ds = mentions_ds([
        ("c1", 0, "user", "", TS, "banks", 0, "banks#0", 0),
        ("c1", 0, "user", "", TS, "bank", 3, "bank#0", 0),
    ])
    canon = {"banks#0": "bank#0", "bank#0": "bank#0"}
    got = {(r["subj"], r["pred"], r["obj"])
           for r in triples_from_mentions(ds, canon).take_all()}
    # both mentions canonicalize to the same entity -> no self pair
    assert got == {("bank#0", "addresses", "user")}


def test_dedup_idempotent_and_first_provenance():
    rows = []
    for turn in (3, 1, 2):
        rows.append(("c1", turn, "user", "", TS, "bank", 0, "bank#0", 0))
    ds = mentions_ds(rows)
    tri = triples_from_mentions(ds, {})
    d1 = dedup_triples(tri)
    out1 = d1.take_all()
    assert len(out1) == 1
    assert out1[0]["turn_idx"] == 1  # first provenance by (conv, turn)
    out2 = dedup_triples(rd.from_pandas(pd.DataFrame(out1))).take_all()
    assert len(out2) == 1 and out2[0]["subj"] == out1[0]["subj"]


@pytest.mark.parametrize("rows_per_bucket", [None, 1])
def test_straddled_turn_gives_each_triple_once(monkeypatch, rows_per_bucket):
    """One turn's linked mentions cut across two input blocks (a map's
    output buffer may cut a turn anywhere) give the pair triples, and
    each unary triple once, exactly as one block does: with one bucket,
    and with both the turn and the dedup shuffle split."""
    from wsid_ray.stages import groups

    t = pa.Table.from_pandas(mentions_frame([
        ("c1", 0, "tool", "search", TS, "python", 1, "python#0", 0),
        ("c1", 0, "tool", "search", TS, "jaguar", 4, "jaguar#1", 1),
        ("c1", 0, "tool", "search", TS, "bank", 7, "bank#0", 0),
        ("c1", 1, "user", "", TS, "bank", 0, "bank#0", 0),
    ]), preserve_index=False)

    def raw(ds):
        return sorted((r["subj"], r["pred"], r["obj"], r["turn_idx"])
                      for r in triples_from_mentions(ds, {}).take_all())

    one_block = raw(rd.from_arrow(t))
    assert ("python#0", "co_mentioned_with", "jaguar#1", 0) in one_block
    assert len(one_block) == len(set(one_block)) == 10
    if rows_per_bucket:
        monkeypatch.setattr(groups, "ROWS_PER_BUCKET", rows_per_bucket)
    straddled = rd.from_arrow([t.slice(0, 2), t.slice(2)])
    assert straddled.num_blocks() == 2
    assert raw(straddled) == one_block
    deduped = sorted((r["subj"], r["pred"], r["obj"], r["turn_idx"])
                     for r in dedup_triples(triples_from_mentions(
                         straddled, {})).take_all())
    assert deduped == one_block
