"""Single source of truth for every tunable the engine AND the sequential
oracle share.  Determinism of the P/R comparison (BASELINE.json:14,
"matching the reference's emitted triples at P/R>=0.95") depends on both
sides reading the exact same constants, so they live here and nowhere else.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict
import hashlib
import json

# --------------------------------------------------------------------------
# Tokenisation (reference semantics: wsid/cooc.py regex word tokenizer,
# lowercase, stopword + short-token filtering [SURVEY.md §0 step 1, [R]]).
# The token regex is mirrored in DuckDB oracle SQL as
# regexp_split_to_array(lower(text), '[^a-z0-9_]+') — keep them in sync.
# --------------------------------------------------------------------------
TOKEN_PATTERN = r"[a-z0-9_]+"
MIN_TOKEN_LEN = 3

STOPWORDS: tuple[str, ...] = (
    "the", "and", "for", "with", "that", "this", "from", "are", "was",
    "were", "has", "have", "had", "not", "but", "all", "can", "will",
    "its", "his", "her", "our", "your", "their", "they", "them", "then",
    "than", "into", "out", "about", "over", "under", "very", "also",
)

# --------------------------------------------------------------------------
# Co-occurrence / NPMI (wsid/cooc.py semantics restated; Bouma 2009).
# Probability space is per target term t: the N_t context windows of t are
# the hyperedges; n_t(w) = #windows containing w; n_t(w,v) = #windows
# containing both.  pmi = ln(n_wv * N / (n_w * n_v)); npmi = pmi / -ln(n_wv/N).
# --------------------------------------------------------------------------
WINDOW_SIZE = 5            # tokens on each side of the target occurrence
COOC_MIN_COUNT = 2         # prune edges with n_wv < this
NPMI_MIN = 0.10            # prune edges with npmi <= this

# --------------------------------------------------------------------------
# Chinese Whispers (Biemann 2006) — v2 determinism contract (SURVEY.md
# §4.3, wsid_ray/cw.py docstring): RNG-free two-phase synchronous label
# propagation over int64 micro-unit weights; tie-break = lowest label;
# sense ids assigned by (size desc, min-token asc).  The contract makes
# the inventory hash-checkable against an unrolled DuckDB CTE mirror
# (__ray_entry__._sql_sense_inventory).
# --------------------------------------------------------------------------
CW_ITERATIONS = 20
# HyperLex v2 bounded-round caps (cw.hyperlex_root_hubs): hub fixpoint
# rounds and attachment rounds.  Both sides (engine + SQL mirror) run the
# same caps, so agreement holds even on graphs that need more rounds.
HYPERLEX_HUB_ROUNDS = 16
HYPERLEX_ATTACH_ROUNDS = 8
SENSE_TOP_K = 50           # keep k highest-weight tokens per sense vector

# --------------------------------------------------------------------------
# Disambiguation / entity linking
# --------------------------------------------------------------------------
MIN_LINK_SCORE = 0.0       # mentions scoring <= this against every sense keep sense_id = -1

# --------------------------------------------------------------------------
# Triple assembly predicates (SURVEY.md §2.2 M8)
# --------------------------------------------------------------------------
PRED_CO_MENTION = "co_mentioned_with"
PRED_USES_TOOL = "uses_tool"
PRED_ADDRESSES = "addresses"

# --------------------------------------------------------------------------
# Gazetteer + tiny knowledge base of candidate entities.  Synthetic but
# closed-world: each ambiguous surface form has 2-3 candidate entities, each
# with a profile token set used for candidate entity-link scoring
# (BASELINE.json:6 "candidate entity-link scoring").  Aliases map extra
# surface forms onto the same candidates — the source of union-find merges.
# --------------------------------------------------------------------------
KB: dict[str, dict[str, tuple[str, ...]]] = {
    # surface form -> {kb_entity_id: profile tokens}
    "jaguar": {
        "kb:jaguar_animal": ("savanna", "predator", "cub", "prey", "jungle",
                             "spotted", "feline", "habitat"),
        "kb:jaguar_car": ("engine", "dealership", "brake", "sedan", "luxury",
                          "horsepower", "coupe", "garage"),
    },
    "python": {
        "kb:python_snake": ("snake", "reptile", "venom", "coil", "scales",
                            "constrictor", "swamp", "slither"),
        "kb:python_lang": ("code", "function", "module", "compiler", "debug",
                           "script", "variable", "library"),
    },
    "mercury": {
        "kb:mercury_planet": ("orbit", "planet", "crater", "telescope",
                              "astronomy", "solar", "probe", "surface"),
        "kb:mercury_element": ("element", "toxic", "thermometer", "liquid",
                               "metal", "vapor", "chemistry", "silvery"),
    },
    "apple": {
        "kb:apple_fruit": ("orchard", "harvest", "cider", "ripe", "fruit",
                           "tree", "pie", "juicy"),
        "kb:apple_company": ("iphone", "keynote", "cupertino", "stock",
                             "laptop", "store", "chip", "silicon"),
    },
    "bank": {
        "kb:bank_river": ("river", "shore", "erosion", "mud", "fishing",
                          "stream", "flood", "reeds"),
        "kb:bank_finance": ("loan", "deposit", "interest", "account",
                            "teller", "mortgage", "vault", "credit"),
    },
}

ALIASES: dict[str, str] = {
    # alias surface form -> base surface form (shares the same KB candidates)
    "jaguars": "jaguar",
    "pythons": "python",
    "apples": "apple",
    "banks": "bank",
    # multi-word surface forms (token-sequence matching, SURVEY §2.2 M3).
    # Matching rule everywhere (engine detector, sequential oracle, SQL
    # mirror): every gazetteer term matches independently at every
    # position — overlaps allowed, no longest-match preference, so
    # "river bank" also yields a "bank" mention at its second token.
    "big apple": "apple",
    "river bank": "bank",
}

GAZETTEER: tuple[str, ...] = tuple(sorted(set(KB) | set(ALIASES)))


def kb_candidates(term: str) -> dict[str, tuple[str, ...]]:
    """Candidate entities (with profile token sets) for a surface form."""
    return KB[ALIASES.get(term, term)]


def kb_profiles():
    """The KB exploded to one (term, kb_id, token) row per gazetteer
    surface form, candidate entity and profile token, sorted: the one
    KB table the scorer's link step and the SQL mirrors read."""
    import pyarrow as pa
    rows = [(term, kb_id, tok) for term in sorted(GAZETTEER)
            for kb_id, toks in sorted(kb_candidates(term).items())
            for tok in sorted(toks)]
    return pa.table([pa.array(c, type=pa.string()) for c in zip(*rows)],
                    names=["term", "kb_id", "token"])


@dataclass(frozen=True)
class PipelineConfig:
    """Bundled knobs passed to both the Ray pipeline and the oracle."""

    window_size: int = WINDOW_SIZE
    min_token_len: int = MIN_TOKEN_LEN
    cooc_min_count: int = COOC_MIN_COUNT
    npmi_min: float = NPMI_MIN
    cw_iterations: int = CW_ITERATIONS
    sense_top_k: int = SENSE_TOP_K
    # graph clustering for step 5: "cw" (Chinese Whispers, primary) or
    # "hyperlex" (deterministic root-hub variant, Véronis 2004)
    induce_algo: str = "cw"
    stopwords: tuple[str, ...] = STOPWORDS
    gazetteer: tuple[str, ...] = GAZETTEER
    # A2 refinement: when True, the disambiguation scorer also holds the
    # pruned per-term co-occurrence matrices in-state and adds a
    # second-order score for window tokens absent from a sense vector
    # (gamma-weighted strongest NPMI edge into the sense).  Implemented
    # identically in oracle.disambiguate — tested equivalent either way.
    expand_cooc: bool = False
    expand_gamma: float = 0.5

    def content_hash(self) -> str:
        """Stable hash of the config — part of checkpoint lineage."""
        payload = json.dumps(asdict(self), sort_keys=True, default=list)
        return hashlib.blake2b(payload.encode(), digest_size=8).hexdigest()


DEFAULT_CONFIG = PipelineConfig()
