"""Driver contract for the KG pipeline (Ray Data target).

Ray is initialised by the driver BEFORE this module is imported; nothing
here (or in wsid_ray) calls ray.init()/ray.shutdown().

``entry()`` runs the flagship pipeline (transcripts -> tokenize ->
mentions -> co-occurrence -> NPMI + Chinese Whispers -> disambiguation
-> union-find -> triples) on sf0.001.  ``queries()`` exposes 24
stage-inspection and KG-read queries, and ``oracle_sql()`` gives each a
DuckDB oracle over the same transcript parquet.

The primary input table, ``transcripts``, is synthesised
deterministically per scale by wsid_ray.fixtures (seed=42, closed vocab;
FIXTURES.md F1).  SQL-checked queries point DuckDB at the same generated
parquet via read_parquet('<path>/*.parquet'); calling ``queries()`` /
``oracle_sql()`` triggers (idempotent, atomic) generation so both sides
always see identical bytes.

The induced sense inventory ITSELF is SQL-checked: the cw.py v2 integer
determinism contract (RNG-free synchronous monotone label propagation
over int64 micro-unit weights; bounded-round HyperLex hub/attach
fixpoints) lets _sql_sense_inventory unroll the clustering into CTE
rounds.  Everything DOWNSTREAM of the inventory is also SQL-checked:
mentions_linked / canon_map / triples / triples_checkpointed and the
KG reads over them use the engine's deterministic inventory + KB
artifacts (wsid_ray/artifacts.py) and mirror scoring, entity linking,
union-find reachability and triple assembly in DuckDB
(_sql_linked_mentions / _sql_canon_chain / _sql_triples).
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any


def entry() -> Any:
    """Flagship KG pipeline on sf0.001-scale transcripts -> triples."""
    from wsid_ray.runtime import configure
    from wsid_ray.pipelines.flagship import run_flagship
    configure()
    return run_flagship("sf0.001").triples


def queries() -> dict[str, Callable[[str], Any]]:
    from wsid_ray.runtime import configure
    from wsid_ray.fixtures import generate
    from wsid_ray.pipelines.queries import QUERIES
    configure()
    generate("sf0.01")   # make sure the SQL side's parquet exists
    return dict(QUERIES)


def _sql_token_expr(col: str = "text") -> str:
    """DuckDB mirror of wsid_ray.stages.tokenize.tokenize_column."""
    from wsid_ray.config import MIN_TOKEN_LEN, STOPWORDS
    stop = ", ".join(f"'{s}'" for s in sorted(STOPWORDS))
    return (f"list_filter(regexp_split_to_array(lower({col}), "
            f"'[^a-z0-9_]+'), t -> length(t) >= {MIN_TOKEN_LEN} "
            f"AND t NOT IN ({stop}))")


def _sql_multi_terms():
    """(conds, m, term) per multi-word gazetteer entry: SQL conditions on
    the pos CTE matching the token sequence starting at 1-based p."""
    from wsid_ray.config import GAZETTEER
    out = []
    for g in sorted(GAZETTEER):
        if " " not in g:
            continue
        seq = g.split()
        conds = [f"tok = '{seq[0]}'"] + [
            f"tokens[p + {j}] = '{seq[j]}'" for j in range(1, len(seq))]
        out.append((" AND ".join(conds), len(seq), g))
    return out


def _sql_cooc_chain(tr: str, tok: str, gaz: str) -> str:
    """CTE chain (``toks`` … ``weighted``) mirroring the flagship cooc
    path (stages/mentions.py windows + stages/cooc.py counts/NPMI):
    windows are the W tokens either side of each gazetteer occurrence
    (single-token or multi-word span) within a turn, span excluded;
    counts are per-window-distinct; pmi/npmi per Bouma 2009 with the
    same float64 operation order as the numpy kernel.  Shared by
    _sql_cooc_edges and _sql_sense_inventory."""
    from wsid_ray.config import COOC_MIN_COUNT, WINDOW_SIZE
    W = WINDOW_SIZE
    multi_sql = "".join(f"""
            UNION ALL
            SELECT '{term}' AS term,
                   list_distinct(list_concat(
                       list_slice(tokens, greatest(1, p - {W}), p - 1),
                       list_slice(tokens, p + {m},
                                  least(len(tokens), p + {m - 1} + {W}))
                   )) AS wtoks
            FROM pos WHERE {conds}"""
        for conds, m, term in _sql_multi_terms())
    return f"""
        toks AS (
            SELECT {tok} AS tokens FROM {tr}
        ),
        pos AS (
            SELECT tokens, unnest(tokens) AS tok,
                   generate_subscripts(tokens, 1) AS p
            FROM toks
        ),
        wins0 AS (
            SELECT tok AS term,
                   list_distinct(list_concat(
                       list_slice(tokens, greatest(1, p - {W}), p - 1),
                       list_slice(tokens, p + 1, least(len(tokens), p + {W}))
                   )) AS wtoks
            FROM pos WHERE tok IN ({gaz}){multi_sql}
        ),
        -- MATERIALIZED: win_id comes from row_number(), so the CTE must
        -- be evaluated exactly once (DuckDB inlines plain CTEs, and two
        -- inlined evaluations of a UNION ALL can order differently,
        -- breaking the ex-to-ex self-join below)
        wins AS MATERIALIZED (
            SELECT row_number() OVER () AS win_id, term, wtoks
            FROM wins0),
        ex AS (SELECT win_id, term, unnest(wtoks) AS tok FROM wins),
        paircnt AS (
            SELECT a.term, a.tok AS w, b.tok AS v, count(*) AS n
            FROM ex a JOIN ex b ON a.win_id = b.win_id AND a.tok < b.tok
            GROUP BY a.term, a.tok, b.tok
        ),
        unicnt AS (SELECT term, tok, count(*) AS n_w FROM ex
                   GROUP BY term, tok),
        totcnt AS (SELECT term, count(*) AS nn FROM wins GROUP BY term),
        weighted AS (
            SELECT p.term, p.w, p.v, p.n,
                   ln((CAST(p.n AS DOUBLE) * t.nn)
                      / (CAST(uw.n_w AS DOUBLE) * uv.n_w)) AS pmi,
                   CASE WHEN p.n = t.nn THEN 1.0
                        ELSE ln((CAST(p.n AS DOUBLE) * t.nn)
                                / (CAST(uw.n_w AS DOUBLE) * uv.n_w))
                             / (-ln(CAST(p.n AS DOUBLE) / t.nn)) END AS npmi
            FROM paircnt p
            JOIN totcnt t ON t.term = p.term
            JOIN unicnt uw ON uw.term = p.term AND uw.tok = p.w
            JOIN unicnt uv ON uv.term = p.term AND uv.tok = p.v
            WHERE p.n >= {COOC_MIN_COUNT}
        )
    """


def _sql_cooc_edges(tr: str, tok: str, gaz: str) -> str:
    """DuckDB mirror of the flagship NPMI edge list (see
    _sql_cooc_chain for the shared window/count/weight CTEs)."""
    from wsid_ray.config import NPMI_MIN
    return f"""
        WITH {_sql_cooc_chain(tr, tok, gaz)}
        SELECT term, w, v, n, round(pmi, 6) AS pmi, round(npmi, 6) AS npmi
        FROM weighted WHERE npmi > {NPMI_MIN}
    """


def _sql_sense_label_ctes(algo: str = "cw"):
    """(ctes, fin): the quantised-edge / node-index / directed-
    adjacency CTEs plus the bounded-round label-propagation chain
    (CW or HyperLex) under the v2 integer contract — shared by
    _sql_sense_inventory and _sql_sense_modularity."""
    from wsid_ray.config import (CW_ITERATIONS,
                                 HYPERLEX_ATTACH_ROUNDS,
                                 HYPERLEX_HUB_ROUNDS, NPMI_MIN)
    ctes = [f"""edges AS (
            SELECT term, w, v,
                   CAST(floor(npmi * 1e6 + 0.5) AS BIGINT) AS wq
            FROM weighted WHERE npmi > {NPMI_MIN})""",
            """nd AS MATERIALIZED (
            SELECT term, node,
                   CAST(row_number() OVER (PARTITION BY term
                        ORDER BY node) - 1 AS BIGINT) AS nid
            FROM (SELECT term, w AS node FROM edges
                  UNION SELECT term, v FROM edges))""",
            """dir AS MATERIALIZED (
            SELECT e.term, nu.nid AS u, nv.nid AS v, e.wq
            FROM edges e
            JOIN nd nu ON nu.term = e.term AND nu.node = e.w
            JOIN nd nv ON nv.term = e.term AND nv.node = e.v
            UNION ALL
            SELECT e.term, nv.nid, nu.nid, e.wq
            FROM edges e
            JOIN nd nu ON nu.term = e.term AND nu.node = e.w
            JOIN nd nv ON nv.term = e.term AND nv.node = e.v)"""]
    if algo == "cw":
        ctes.append("l0 AS (SELECT term, nid AS node, nid AS lab FROM nd)")
        for r in range(1, CW_ITERATIONS + 1):
            ctes.append(f"""a{r} AS (
                SELECT term, node, nl FROM (
                    SELECT d.term, d.u AS node, p.lab AS nl,
                           sum(d.wq) AS s
                    FROM dir d JOIN l{r - 1} p
                      ON p.term = d.term AND p.node = d.v
                    GROUP BY d.term, d.u, p.lab)
                QUALIFY row_number() OVER (PARTITION BY term, node
                    ORDER BY s DESC, nl ASC) = 1)""")
            ctes.append(f"""l{r} AS MATERIALIZED (
                SELECT p.term, p.node, least(p.lab, a.nl) AS lab
                FROM l{r - 1} p JOIN a{r} a
                  ON a.term = p.term AND a.node = p.node)""")
        fin = f"l{CW_ITERATIONS}"
    elif algo == "hyperlex":
        ctes.append("""wdg AS (
            SELECT term, u AS node, sum(wq) AS wd
            FROM dir GROUP BY term, u)""")
        ctes.append("""rnk AS MATERIALIZED (
            SELECT term, node, row_number() OVER (PARTITION BY term
                ORDER BY wd DESC, node ASC) AS rk
            FROM wdg)""")
        # directed higher-rank adjacency: u -> neighbours ranked above u
        ctes.append("""hd AS MATERIALIZED (
            SELECT d.term, d.u, d.v
            FROM dir d
            JOIN rnk ru ON ru.term = d.term AND ru.node = d.u
            JOIN rnk rv ON rv.term = d.term AND rv.node = d.v
            WHERE rv.rk < ru.rk)""")
        # status: 0=UNDECIDED 1=HUB 2=NOT (all nodes have wdeg>0 here —
        # every node comes from a pruned edge with wq >= 1)
        ctes.append("s0 AS (SELECT term, nid AS node, 0 AS st FROM nd)")
        for r in range(1, HYPERLEX_HUB_ROUNDS + 1):
            ctes.append(f"""g{r} AS (
                SELECT h.term, h.u AS node,
                       max(CASE WHEN p.st = 1 THEN 1 ELSE 0 END) AS any_hub,
                       min(CASE WHEN p.st = 2 THEN 1 ELSE 0 END) AS all_not
                FROM hd h JOIN s{r - 1} p
                  ON p.term = h.term AND p.node = h.v
                GROUP BY h.term, h.u)""")
            ctes.append(f"""s{r} AS MATERIALIZED (
                SELECT p.term, p.node,
                       CASE WHEN p.st <> 0 THEN p.st
                            WHEN g.node IS NULL THEN 1
                            WHEN g.any_hub = 1 THEN 2
                            WHEN g.all_not = 1 THEN 1
                            ELSE 0 END AS st
                FROM s{r - 1} p LEFT JOIN g{r} g
                  ON g.term = p.term AND g.node = p.node)""")
        ctes.append(f"""t0 AS (
            SELECT term, node, CASE WHEN st = 1 THEN node END AS lab
            FROM s{HYPERLEX_HUB_ROUNDS})""")
        for r in range(1, HYPERLEX_ATTACH_ROUNDS + 1):
            ctes.append(f"""b{r} AS (
                SELECT term, node, lab FROM (
                    SELECT d.term, d.u AS node, p.lab, d.wq
                    FROM dir d JOIN t{r - 1} p
                      ON p.term = d.term AND p.node = d.v
                    WHERE p.lab IS NOT NULL)
                QUALIFY row_number() OVER (PARTITION BY term, node
                    ORDER BY wq DESC, lab ASC) = 1)""")
            ctes.append(f"""t{r} AS MATERIALIZED (
                SELECT p.term, p.node, coalesce(p.lab, b.lab) AS lab
                FROM t{r - 1} p LEFT JOIN b{r} b
                  ON b.term = p.term AND b.node = p.node)""")
        ctes.append(f"""fin_hx AS (
            SELECT term, node, coalesce(lab, node) AS lab
            FROM t{HYPERLEX_ATTACH_ROUNDS})""")
        fin = "fin_hx"
    else:
        raise ValueError(f"unknown induction algorithm {algo!r}")
    return ctes, fin


def _sql_sense_inventory(tr: str, tok: str, gaz: str,
                         algo: str = "cw") -> str:
    """DuckDB mirror of the induced sense inventory itself (VERDICT r03
    item 1) — the graph clustering unrolled into CTE rounds under the
    v2 integer determinism contract (wsid_ray/cw.py docstring):

      * edge weights quantised to int64 micro-units
        ``floor(npmi*1e6 + 0.5)`` on the bit-identical npmi doubles of
        the shared cooc chain;
      * nodes indexed per term in lexicographic order (``nid``), so
        integer label order == node-name order;
      * algo='cw': CW_ITERATIONS synchronous monotone rounds — each
        node's attractor is the neighbour label with maximal summed
        incident weight (ties → lowest label), adopted only if smaller
        than the current label.  The engine early-exits at a fixpoint;
        a fixpoint is stable, so the mirror always running the full cap
        computes the identical labelling;
      * algo='hyperlex': HYPERLEX_HUB_ROUNDS synchronous rounds of
        greedy maximal-independent-set hub selection by (wdeg desc,
        name asc) rank, then HYPERLEX_ATTACH_ROUNDS rounds attaching
        unlabelled nodes to the strongest labelled neighbour (weight
        desc, label asc); leftovers become singletons;
      * renumbering by (cluster size desc, min member asc); vector
        weight = intra-cluster incident micro-unit sum / 1e6, top
        SENSE_TOP_K per sense by (weight desc, token asc).
    """
    from wsid_ray.config import (CW_ITERATIONS, HYPERLEX_ATTACH_ROUNDS,
                                 HYPERLEX_HUB_ROUNDS, NPMI_MIN, SENSE_TOP_K)
    ctes, fin = _sql_sense_label_ctes(algo)
    ctes.append(f"""cl AS (
            SELECT term, lab, count(*) AS sz, min(node) AS mn
            FROM {fin} GROUP BY term, lab)""")
    ctes.append("""ren AS (
            SELECT term, lab,
                   CAST(row_number() OVER (PARTITION BY term
                        ORDER BY sz DESC, mn ASC) - 1 AS INTEGER)
                       AS sense_id
            FROM cl)""")
    ctes.append(f"""intra AS (
            SELECT d.term, d.u AS node, sum(d.wq) AS micro
            FROM dir d
            JOIN {fin} fu ON fu.term = d.term AND fu.node = d.u
            JOIN {fin} fv ON fv.term = d.term AND fv.node = d.v
            WHERE fu.lab = fv.lab
            GROUP BY d.term, d.u)""")
    ctes.append(f"""vec AS (
            SELECT f.term, r.sense_id, n.node AS token,
                   coalesce(i.micro, 0) AS micro
            FROM {fin} f
            JOIN ren r ON r.term = f.term AND r.lab = f.lab
            JOIN nd n ON n.term = f.term AND n.nid = f.node
            LEFT JOIN intra i ON i.term = f.term AND i.node = f.node)""")
    joined = ",\n        ".join(ctes)
    return f"""
        WITH {_sql_cooc_chain(tr, tok, gaz)},
        {joined}
        SELECT term, sense_id, token,
               round(CAST(micro AS DOUBLE) / 1000000.0, 6) AS weight
        FROM vec
        QUALIFY row_number() OVER (PARTITION BY term, sense_id
            ORDER BY micro DESC, token ASC) <= {SENSE_TOP_K}
    """


def _sql_sense_modularity(tr: str, tok: str, gaz: str,
                          algo: str = "cw") -> str:
    """DuckDB mirror of stages/induce.sense_modularity: weighted
    Newman modularity of the CW partition per term — the pure-integer
    identity Q·4m² = Σ_c (4m·e_c − d_c²) in HUGEINT (dir double-counts
    each edge, so Σ_dir intra = 2e_c and the numerator is
    Σ_c (2m·e2_c − d_c²)); only the final division is float, 6 dp
    half-up."""
    ctes, fin = _sql_sense_label_ctes(algo)
    ctes = list(ctes)
    ctes.append("""qm AS (SELECT term,
                         CAST(SUM(CAST(wq AS HUGEINT)) AS HUGEINT) AS m
                  FROM edges GROUP BY term)""")
    ctes.append(f"""qdc AS (
            SELECT d.term, fu.lab,
                   CAST(SUM(CAST(d.wq AS HUGEINT)) AS HUGEINT) AS dc
            FROM dir d
            JOIN {fin} fu ON fu.term = d.term AND fu.node = d.u
            GROUP BY d.term, fu.lab)""")
    ctes.append(f"""qec AS (
            SELECT d.term, fu.lab,
                   CAST(SUM(CAST(d.wq AS HUGEINT)) AS HUGEINT) AS e2
            FROM dir d
            JOIN {fin} fu ON fu.term = d.term AND fu.node = d.u
            JOIN {fin} fv ON fv.term = d.term AND fv.node = d.v
            WHERE fu.lab = fv.lab
            GROUP BY d.term, fu.lab)""")
    ctes.append("""qn AS (
            SELECT d.term,
                   SUM(2 * qm.m * coalesce(e.e2, 0) - d.dc * d.dc)
                       AS qnum
            FROM qdc d
            JOIN qm ON qm.term = d.term
            LEFT JOIN qec e ON e.term = d.term AND e.lab = d.lab
            GROUP BY d.term)""")
    ctes.append("""qnn AS (SELECT term, CAST(count(*) AS BIGINT)
                              AS n_nodes
                   FROM nd GROUP BY term)""")
    ctes.append(f"""qns AS (SELECT term,
                           CAST(count(DISTINCT lab) AS BIGINT)
                               AS n_senses
                    FROM {fin} GROUP BY term)""")
    joined = ",\n        ".join(ctes)
    return f"""
        WITH {_sql_cooc_chain(tr, tok, gaz)},
        {joined}
        SELECT q.term, qnn.n_nodes, qns.n_senses,
               CAST(qm.m AS BIGINT) AS m_micro,
               floor(CAST(q.qnum AS DOUBLE)
                     / CAST(4 * qm.m * qm.m AS DOUBLE) * 1e6 + 0.5)
                   / 1e6 AS q6
        FROM qn q
        JOIN qm ON qm.term = q.term
        JOIN qnn ON qnn.term = q.term
        JOIN qns ON qns.term = q.term
        WHERE qm.m > 0
    """



def _sql_linked_mentions(tr: str, tok: str, gaz: str,
                         inv_path: str, kb_path: str) -> str:
    """DuckDB mirror of the flagship chain DOWNSTREAM of the induced
    inventory (stages/mentions.py detection + stages/disambig.py scoring
    and entity linking), reading the engine's deterministic inventory /
    KB-profile artifacts (wsid_ray/artifacts.py):

      * mentions: every gazetteer term matches independently at every
        token position (overlaps allowed, no cross-turn sequences);
        window = W raw (non-distinct) tokens each side, span excluded;
        spans 0-based.
      * score(mention, sense) = Σ weight over window-token ⋈ inventory,
        half-up 6dp (shared rounding rule); keep scores > MIN_LINK_SCORE;
        argmax ties → lowest sense_id; no surviving sense → sense_id -1,
        score 0.
      * kb link: per (term, sense) argmax of Σ sense-vector weight over
        the candidate's profile tokens, ALL candidates participate
        (zero-overlap scores 0), ties → lexicographically smallest kb_id
        (the link table of stages/disambig.SenseDisambiguator).

    Returns a SELECT producing the mentions_linked schema.  Embed inside
    ``WITH RECURSIVE`` queries via the men/scores CTE names — all CTE
    names here are prefixed ``lm_`` to avoid collisions.
    """
    from wsid_ray.config import MIN_LINK_SCORE, WINDOW_SIZE
    W = WINDOW_SIZE
    multi_sql = "".join(f"""
            UNION ALL
            SELECT conv_id, turn_idx, role, tool, ts, tokens, p,
                   {m} AS m, '{term}' AS term
            FROM lm_pos WHERE {conds}"""
        for conds, m, term in _sql_multi_terms())
    return f"""
        WITH lm_base AS (
            SELECT conv_id, turn_idx, role, tool, ts, {tok} AS tokens
            FROM {tr}
        ),
        lm_pos AS (
            SELECT conv_id, turn_idx, role, tool, ts, tokens,
                   unnest(tokens) AS tok,
                   generate_subscripts(tokens, 1) AS p
            FROM lm_base
        ),
        lm_men0 AS (
            SELECT conv_id, turn_idx, role, tool, ts, tokens, p,
                   1 AS m, tok AS term
            FROM lm_pos WHERE tok IN ({gaz}){multi_sql}
        ),
        -- MATERIALIZED: mid comes from row_number(), must be evaluated
        -- exactly once (same lesson as the cooc win_id CTE)
        lm_men AS MATERIALIZED (
            SELECT row_number() OVER () AS mid,
                   conv_id, turn_idx, role, tool, ts, term,
                   CAST(p - 1 AS INTEGER) AS span_start,
                   CAST(p - 1 + m AS INTEGER) AS span_end,
                   list_concat(
                       list_slice(tokens, greatest(1, p - {W}), p - 1),
                       list_slice(tokens, p + m,
                                  least(len(tokens), p + m - 1 + {W}))
                   ) AS wtoks
            FROM lm_men0
        ),
        lm_inv AS (SELECT * FROM read_parquet('{inv_path}')),
        lm_kb AS (SELECT * FROM read_parquet('{kb_path}')),
        lm_scores AS (
            SELECT e.mid, i.sense_id,
                   floor(sum(i.weight) * 1e6 + 0.5) / 1e6 AS s
            FROM (SELECT mid, term, unnest(wtoks) AS wtok FROM lm_men) e
            JOIN lm_inv i ON i.term = e.term AND i.token = e.wtok
            GROUP BY e.mid, i.sense_id
        ),
        lm_best AS (
            SELECT mid, sense_id, s FROM lm_scores
            WHERE s > {MIN_LINK_SCORE}
            QUALIFY row_number() OVER (
                PARTITION BY mid ORDER BY s DESC, sense_id) = 1
        ),
        lm_sensecand AS (
            SELECT i.term, i.sense_id, k.kb_id
            FROM (SELECT DISTINCT term, sense_id FROM lm_inv) i
            JOIN (SELECT DISTINCT term, kb_id FROM lm_kb) k
              USING (term)
        ),
        lm_ovl AS (
            SELECT i.term, i.sense_id, k.kb_id, sum(i.weight) AS s
            FROM lm_inv i
            JOIN lm_kb k ON k.term = i.term AND k.token = i.token
            GROUP BY i.term, i.sense_id, k.kb_id
        ),
        lm_link AS (
            SELECT sc.term, sc.sense_id, sc.kb_id
            FROM lm_sensecand sc
            LEFT JOIN lm_ovl o ON o.term = sc.term
                              AND o.sense_id = sc.sense_id
                              AND o.kb_id = sc.kb_id
            QUALIFY row_number() OVER (
                PARTITION BY sc.term, sc.sense_id
                ORDER BY coalesce(o.s, 0.0) DESC, sc.kb_id) = 1
        )
        SELECT m.conv_id, m.turn_idx, m.role, m.tool, m.ts, m.term,
               m.span_start, m.span_end,
               CAST(coalesce(b.sense_id, -1) AS INTEGER) AS sense_id,
               coalesce(b.s, 0.0) AS score,
               m.term || '#' ||
                   CAST(coalesce(b.sense_id, -1) AS VARCHAR) AS entity_id,
               CASE WHEN b.sense_id IS NULL THEN ''
                    ELSE coalesce(l.kb_id, '') END AS kb_id
        FROM lm_men m
        LEFT JOIN lm_best b USING (mid)
        LEFT JOIN lm_link l ON l.term = m.term AND l.sense_id = b.sense_id
    """


def _sql_canon_chain(linked_select: str) -> str:
    """Shared CTE block (for WITH RECURSIVE queries): linked mentions →
    distinct (entity_id, kb_id) edges → reachability closure → per-node
    component → canon_map (canon = lexicographically smallest ENTITY node
    of the component; kb: nodes link components but are not canonical
    ids).  A general union-find on purpose: the engine
    (stages/unionfind.canonicalize) takes one kb_id-keyed group-by,
    exact only while the entity–KB graph is a star forest, so this
    mirror checks that premise on every gated query."""
    return f"""
        cn_linked AS MATERIALIZED ({linked_select}),
        cn_e0 AS (
            SELECT DISTINCT entity_id AS a, kb_id AS b FROM cn_linked
            WHERE sense_id >= 0 AND kb_id <> ''
        ),
        cn_edges AS (SELECT a, b FROM cn_e0
                     UNION SELECT b, a FROM cn_e0),
        cn_nodes AS (SELECT DISTINCT a AS node FROM cn_edges),
        cn_reach AS (
            SELECT node, node AS r FROM cn_nodes
            UNION
            SELECT e.a AS node, cn_reach.r
            FROM cn_edges e JOIN cn_reach ON cn_reach.node = e.b
        ),
        cn_comp AS (
            SELECT node, min(r) AS c FROM cn_reach GROUP BY node
        ),
        cn_map AS (
            SELECT node AS entity_id,
                   min(CASE WHEN node NOT LIKE 'kb:%' THEN node END)
                       OVER (PARTITION BY c) AS canon_id
            FROM cn_comp
            QUALIFY node NOT LIKE 'kb:%'
        )"""


def _sql_triples_chain(linked_select: str) -> str:
    """Shared CTE block of the triple mirrors (``cn_*`` … ``tr_all``):
    unary addresses/uses_tool rules + the within-turn ordered pair
    self-join on canonicalised entities (stages/triples.py), PRE-dedup."""
    from wsid_ray.config import (PRED_ADDRESSES, PRED_CO_MENTION,
                                 PRED_USES_TOOL)
    return f"""{_sql_canon_chain(linked_select)},
        tr_lm AS MATERIALIZED (
            SELECT l.conv_id, l.turn_idx, l.role, l.tool, l.ts,
                   l.term, l.span_start,
                   coalesce(c.canon_id, l.entity_id) AS ent
            FROM cn_linked l
            LEFT JOIN cn_map c ON c.entity_id = l.entity_id
            WHERE l.sense_id >= 0
        ),
        tr_unary AS (
            SELECT ent AS subj, '{PRED_ADDRESSES}' AS pred, role AS obj,
                   conv_id, turn_idx, ts
            FROM tr_lm
            UNION ALL
            SELECT ent, '{PRED_USES_TOOL}', tool, conv_id, turn_idx, ts
            FROM tr_lm WHERE tool <> ''
        ),
        tr_pairs AS (
            SELECT a.ent AS subj, '{PRED_CO_MENTION}' AS pred,
                   b.ent AS obj, a.conv_id, a.turn_idx, a.ts
            FROM tr_lm a
            JOIN tr_lm b ON a.conv_id = b.conv_id
                        AND a.turn_idx = b.turn_idx
            WHERE (a.span_start < b.span_start
                   OR (a.span_start = b.span_start AND a.term < b.term))
              AND a.ent <> b.ent
        ),
        tr_all AS (SELECT * FROM tr_unary
                   UNION ALL SELECT * FROM tr_pairs)"""


def _sql_triples(linked_select: str) -> str:
    """DuckDB mirror of triple assembly + exact dedup: first-provenance
    dedup on (subj, pred, obj) by (conv_id, turn_idx) over the shared
    chain."""
    return f"""
        WITH RECURSIVE {_sql_triples_chain(linked_select)}
        SELECT subj, pred, obj, conv_id, turn_idx, ts FROM tr_all
        QUALIFY row_number() OVER (
            PARTITION BY subj, pred, obj ORDER BY conv_id, turn_idx) = 1
    """


def _sql_triple_support(linked_select: str) -> str:
    """DuckDB mirror of the KG support/provenance rollup
    (pipelines/queries.q_triple_support): per canonical triple, raw
    occurrence count, distinct supporting conversations, first/last
    timestamp — over the PRE-dedup triple stream."""
    return f"""
        WITH RECURSIVE {_sql_triples_chain(linked_select)}
        SELECT subj, pred, obj, CAST(count(*) AS BIGINT) AS support,
               CAST(count(DISTINCT conv_id) AS BIGINT) AS n_convs,
               min(ts) AS first_ts, max(ts) AS last_ts
        FROM tr_all GROUP BY subj, pred, obj
    """


def oracle_sql() -> dict[str, str]:
    from wsid_ray.artifacts import ensure
    from wsid_ray.config import GAZETTEER, PRED_ADDRESSES, PRED_CO_MENTION
    from wsid_ray.fixtures import generate, transcripts_dir

    generate("sf0.01")
    art = ensure("sf0.01")
    tr = f"read_parquet('{transcripts_dir('sf0.01')}/*.parquet')"
    tok = _sql_token_expr()
    gaz = ", ".join(f"'{g}'" for g in sorted(GAZETTEER) if " " not in g)
    linked_sel = _sql_linked_mentions(tr, tok, gaz, art["inventory"],
                                      art["kb"])
    multi_counts = "".join(f"""
            UNION ALL
            SELECT * FROM (
                SELECT '{term}' AS term, count(*) AS n
                FROM pos WHERE {conds}
            ) WHERE n > 0"""
        for conds, _m, term in _sql_multi_terms())
    return {
        # --- transcript table ------------------------------------------
        "turn_counts": f"""
            SELECT conv_id, count(*) AS n_turns,
                   max(turn_idx) AS max_turn_idx
            FROM {tr} GROUP BY conv_id
        """,
        "role_counts": f"""
            SELECT role, count(*) AS n FROM {tr} GROUP BY role
        """,
        "unigram_counts": f"""
            SELECT tok.token AS token, count(*) AS n
            FROM (SELECT unnest({tok}) AS token FROM {tr}) tok
            GROUP BY tok.token
        """,
        "mention_counts": f"""
            WITH toks AS (SELECT {tok} AS tokens FROM {tr}),
            pos AS (SELECT tokens, unnest(tokens) AS tok,
                           generate_subscripts(tokens, 1) AS p FROM toks)
            SELECT tok AS term, count(*) AS n
            FROM pos WHERE tok IN ({gaz})
            GROUP BY tok{multi_counts}
        """,
        "conv_text_digest": f"""
            SELECT conv_id,
                   md5(string_agg(md5(text), '' ORDER BY turn_idx)) AS digest
            FROM {tr} GROUP BY conv_id
        """,
        # --- co-occurrence graph and induced senses --------------------
        "cooc_edges": _sql_cooc_edges(tr, tok, gaz),
        "sense_inventory": _sql_sense_inventory(tr, tok, gaz, algo="cw"),
        "sense_inventory_hyperlex": _sql_sense_inventory(
            tr, tok, gaz, algo="hyperlex"),
        "sense_inventory_stats": f"""
            SELECT term,
                   CAST(count(DISTINCT sense_id) AS BIGINT) AS n_senses,
                   CAST(count(*) AS BIGINT) AS n_tokens,
                   CAST(sum(CAST(floor(weight * 1e6 + 0.5) AS BIGINT))
                        AS BIGINT) AS sum_weight_micro
            FROM ({_sql_sense_inventory(tr, tok, gaz, algo="cw")})
            GROUP BY term
        """,
        "sense_modularity": _sql_sense_modularity(tr, tok, gaz),
        # --- linked mentions, canon map and triples --------------------
        "mention_link_rate": f"""
            WITH lg AS (SELECT term, CAST(count(*) AS BIGINT)
                               AS n_mentions,
                               CAST(count(*) FILTER (sense_id >= 0)
                                    AS BIGINT) AS n_linked
                        FROM ({linked_sel}) GROUP BY term)
            SELECT term, n_mentions, n_linked,
                   n_linked * 1000000 // n_mentions AS link_micro
            FROM lg
        """,
        "mentions_linked": linked_sel,
        "canon_map": f"""
            WITH RECURSIVE {_sql_canon_chain(linked_sel)}
            SELECT entity_id, canon_id FROM cn_map
        """,
        "triples": _sql_triples(linked_sel),
        "triples_checkpointed": _sql_triples(linked_sel),
        # --- triple-store panels ---------------------------------------
        "triple_support": _sql_triple_support(linked_sel),
        "triple_conflicts": f"""
            WITH tcf AS (SELECT DISTINCT subj, obj
                         FROM ({_sql_triples(linked_sel)})
                         WHERE pred = '{PRED_ADDRESSES}')
            SELECT subj, CAST(count(*) AS BIGINT) AS n_objs,
                   string_agg(obj, ',' ORDER BY obj) AS objs
            FROM tcf GROUP BY subj HAVING count(*) > 1
        """,
        "triples_by_pred_daily": f"""
            SELECT pred, date_trunc('day', ts) AS day,
                   CAST(count(*) AS BIGINT) AS n
            FROM ({_sql_triples(linked_sel)}) GROUP BY 1, 2
        """,
        "conv_sense_diversity": f"""
            SELECT conv_id, CAST(count(*) AS BIGINT) AS n_mentions,
                   CAST(count(DISTINCT term) AS BIGINT) AS n_terms,
                   CAST(count(DISTINCT CASE WHEN sense_id >= 0
                            THEN term || '#'
                                 || CAST(sense_id AS VARCHAR) END)
                        AS BIGINT) AS n_senses
            FROM ({linked_sel}) GROUP BY conv_id
        """,
        # --- KG reads over the deduped store ---------------------------
        "kg_inverse_preds": f"""
            WITH kit AS MATERIALIZED (
                SELECT subj, pred, obj
                FROM ({_sql_triples(linked_sel)})),
            kib AS (SELECT pred, CAST(count(*) AS BIGINT) AS n
                    FROM kit GROUP BY pred),
            kip AS (SELECT a.pred AS pred_a, b.pred AS pred_b,
                           CAST(count(*) AS BIGINT) AS n_pairs
                    FROM kit a JOIN kit b ON b.subj = a.obj
                                         AND b.obj = a.subj
                    GROUP BY ALL)
            SELECT ba.pred AS pred_a, bb.pred AS pred_b,
                   CAST(coalesce(p.n_pairs, 0) AS BIGINT) AS n_pairs,
                   ba.n AS n_a,
                   CAST(coalesce(p.n_pairs, 0) * 1000000 // ba.n
                        AS BIGINT) AS inv_score_micro
            FROM kib ba CROSS JOIN kib bb
            LEFT JOIN kip p ON p.pred_a = ba.pred
                           AND p.pred_b = bb.pred
        """,
        "kg_growth_daily": f"""
            WITH kgs AS ({_sql_triple_support(linked_sel)}),
            kgd AS (SELECT date_trunc('day', first_ts) AS day,
                           CAST(count(*) AS BIGINT) AS n_new
                    FROM kgs GROUP BY 1)
            SELECT day, n_new,
                   CAST(sum(n_new) OVER (ORDER BY day) AS BIGINT)
                       AS cum_triples
            FROM kgd
        """,
        "kg_two_hop_paths": f"""
            WITH RECURSIVE {_sql_triples_chain(linked_sel)},
            kg_e AS MATERIALIZED (
                SELECT subj, obj FROM (
                    SELECT subj, pred, obj FROM tr_all
                    QUALIFY row_number() OVER (
                        PARTITION BY subj, pred, obj
                        ORDER BY conv_id, turn_idx) = 1)
                WHERE pred = '{PRED_CO_MENTION}')
            SELECT e1.subj AS a, e2.obj AS c,
                   CAST(count(*) AS BIGINT) AS n_paths,
                   min(e1.obj) AS first_mid
            FROM kg_e e1 JOIN kg_e e2 ON e1.obj = e2.subj
            WHERE e1.subj <> e2.obj
            GROUP BY 1, 2
        """,
        "kg_entity_degree": f"""
            WITH RECURSIVE {_sql_triples_chain(linked_sel)},
            kg_t AS MATERIALIZED (
                SELECT subj, pred, obj FROM tr_all
                QUALIFY row_number() OVER (
                    PARTITION BY subj, pred, obj
                    ORDER BY conv_id, turn_idx) = 1),
            kg_co AS MATERIALIZED (
                SELECT subj, obj FROM kg_t
                WHERE pred = '{PRED_CO_MENTION}'),
            kg_out AS (SELECT subj AS ent,
                              CAST(count(*) AS BIGINT) AS n_out,
                              CAST(count(DISTINCT pred) AS BIGINT)
                                  AS n_preds_out
                       FROM kg_t GROUP BY subj),
            kg_in AS (SELECT obj AS ent,
                             CAST(count(*) AS BIGINT) AS n_in_co
                      FROM kg_co GROUP BY obj),
            kg_nb AS (SELECT subj AS ent, obj AS nb FROM kg_co
                      UNION SELECT obj, subj FROM kg_co),
            kg_nbc AS (SELECT ent, CAST(count(DISTINCT nb) AS BIGINT)
                                  AS n_neighbors
                       FROM kg_nb GROUP BY ent),
            kg_ents AS (SELECT DISTINCT ent FROM (
                SELECT subj AS ent FROM kg_t
                UNION ALL SELECT obj FROM kg_co))
            SELECT e.ent,
                   CAST(coalesce(o.n_out, 0) AS BIGINT) AS n_out,
                   CAST(coalesce(o.n_preds_out, 0) AS BIGINT)
                       AS n_preds_out,
                   CAST(coalesce(i.n_in_co, 0) AS BIGINT) AS n_in_co,
                   CAST(coalesce(nn.n_neighbors, 0) AS BIGINT)
                       AS n_neighbors
            FROM kg_ents e
            LEFT JOIN kg_out o USING (ent)
            LEFT JOIN kg_in i USING (ent)
            LEFT JOIN kg_nbc nn USING (ent)
        """,
        "kg_pred_cooc": f"""
            WITH RECURSIVE {_sql_triples_chain(linked_sel)},
            kg_sp AS MATERIALIZED (
                SELECT DISTINCT subj, pred FROM tr_all)
            SELECT a.pred AS pred_a, b.pred AS pred_b,
                   CAST(count(*) AS BIGINT) AS n_subjects
            FROM kg_sp a JOIN kg_sp b
                 ON a.subj = b.subj AND a.pred < b.pred
            GROUP BY 1, 2
        """,
    }
