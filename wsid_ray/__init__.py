"""wsid_ray — a Ray-Data-native knowledge-graph-construction engine.

Re-expresses the capabilities of the single-process reference library
``semantic-web-company/wsid`` (word-sense induction & disambiguation:
sliding-window co-occurrence counting, PMI/NPMI weighting, Chinese-Whispers
sense clustering) as the entity-disambiguation stage of a distributed
triple-extraction pipeline over conversation transcripts, per
``BASELINE.json`` (north_star / north_rule).

Architecture (SURVEY.md §2-§4):
  - every logical table is a ``ray.data.Dataset`` whose blocks are Arrow
    tables; transforms are ``map_batches(batch_format="pyarrow")``;
  - stage state is read by stateless map tasks: the mention detection
    automaton is built once per worker process, the sense-inventory
    scorer once on the driver and broadcast via ``ray.put``;
  - wide steps are explicit bucketed hash shuffles on raw Ray tasks
    (``stages/groups.py``) with documented keys; skewed conversations
    move as dense turn-run fragments;
  - nothing in this package calls ``ray.init()`` / ``ray.shutdown()``
    (driver contract, __ray_entry__.py).

NOTE: the reference checkout at /root/reference was empty during the build
(see SURVEY.md provenance notice), so reference citations are to the
published algorithms (Biemann 2006 Chinese Whispers; Bouma 2009 NPMI;
Véronis 2004 HyperLex) and to BASELINE.json lines rather than file:line.
"""

__version__ = "0.1.0"
