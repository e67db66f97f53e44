"""Reference-shaped convenience API (api.py): induce/disambiguate over an
in-memory corpus behave identically to the sequential oracle — the call
surface a reference user keeps when switching engines."""

from wsid_ray import api
from wsid_ray.config import PipelineConfig
from wsid_ray.oracle import (cooc_stats, extract_mentions, induce as
                             oracle_induce, npmi_edges)

SNAKE = ("the python snake coils in the swamp with scales and venom "
         "near the reptile house")
LANG = ("debug the python code module with a script function and "
        "variable library compiler")


def corpus():
    return [SNAKE, LANG] * 6


def test_induce_matches_oracle():
    """Also with a non-default ``sense_top_k``: the engine's fit honours
    every induction knob of the config."""
    turns = [{"conv_id": f"doc{i:08d}", "turn_idx": 0, "role": "user",
              "text": t, "tool": "", "ts": 0}
             for i, t in enumerate(corpus())]
    for cfg in (PipelineConfig(gazetteer=("python",)),
                PipelineConfig(gazetteer=("python",), sense_top_k=3)):
        inv = api.induce(corpus(), "python", cfg=cfg)
        mentions = extract_mentions(turns, cfg)
        edges = npmi_edges(*cooc_stats(mentions), cfg)
        want = oracle_induce(edges, cfg)["python"]
        assert len(inv) == len(want) >= 2  # the two planted senses separate
        for sid, vec in enumerate(inv):
            assert {t: round(w, 9) for t, w in vec.items()} == \
                {t: round(w, 9) for t, w in want[sid].items()}


def test_disambiguate_picks_planted_sense():
    cfg = PipelineConfig(gazetteer=("python",))
    inv = api.induce(corpus(), "python", cfg=cfg)
    snake_ctx = api.tokenize(SNAKE.replace("python", ""))
    lang_ctx = api.tokenize(LANG.replace("python", ""))
    sid_snake, score_snake = api.disambiguate(snake_ctx, inv)
    sid_lang, score_lang = api.disambiguate(lang_ctx, inv)
    assert sid_snake != sid_lang
    assert score_snake > 0 and score_lang > 0
    assert api.disambiguate(["unrelated"], inv)[0] == -1


def test_hyperlex_variant_exposed():
    cfg = PipelineConfig(gazetteer=("python",))
    inv = api.induce(corpus(), "python", cfg=cfg, algo="hyperlex")
    assert len(inv) >= 2
