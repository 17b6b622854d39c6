"""Highlighter tests: SimpleFragmenter windows, QueryTermScorer weighting,
formatter tags (mirrors HighlighterTest-style coverage)."""

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_solr_old_ray.pipelines.build_index import build_index
from lucene_solr_old_ray.pipelines.highlight import _best_fragments, highlight_hits
from lucene_solr_old_ray.queries import TermQuery, bool_query
from lucene_solr_old_ray.sources.corpus import CorpusSpec


def test_best_fragments_marks_and_windows():
    text = ("alpha beta gamma " * 10 + "needle here " +
            "delta epsilon " * 30 + "needle again at the end")
    frags = _best_fragments(text, {"needle": 2.0}, frag_size=60,
                            max_fragments=2, pre="<b>", post="</b>")
    assert len(frags) == 2
    for sc, f in frags:
        assert "<b>needle</b>" in f
        assert sc >= 2.0


def test_stop_words_never_highlighted():
    frags = _best_fragments("the quick fox", {"the": 1.0, "quick": 1.0},
                            frag_size=100, max_fragments=1,
                            pre="<b>", post="</b>")
    assert len(frags) == 1
    assert "<b>quick</b>" in frags[0][1]
    assert "<b>the</b>" not in frags[0][1]


def test_fragment_scores_rank_best_window_first():
    text = "one junk junk junk junk " * 4 + "one two three " + "junk " * 20
    frags = _best_fragments(text, {"one": 1.0, "two": 1.0, "three": 1.0},
                            frag_size=16, max_fragments=3,
                            pre="[", post="]")
    # the window containing all three terms must rank first (score 3 vs 1)
    assert "[two]" in frags[0][1] and "[three]" in frags[0][1]


def test_highlight_hits_end_to_end(ray_session, tmp_path):
    docs = pa.table({
        "doc_id": pa.array(range(6), pa.int64()),
        "text": pa.array([
            "spark window spark",        # best hit
            "spark alone here",
            "window pane",
            "nothing relevant at all",
            "spark window",
            "filler filler filler",
        ], pa.string()),
        "lang": pa.array(["en"] * 6, pa.string()),
        "source": pa.array(["s"] * 6, pa.string()),
    })
    p = str(tmp_path / "documents.parquet")
    pq.write_table(docs, p)
    idx = str(tmp_path / "idx")
    build_index(CorpusSpec.documents(str(tmp_path)), idx,
                target_docs_per_partition=3)
    out = highlight_hits(idx, p, bool_query(musts=["spark", "window"]),
                         k=3).to_pandas()
    assert set(out["doc_id"]) == {0, 4}
    top = out[out["rank"] == 1].iloc[0]
    assert top["snippet"].count("<b>") == 3  # spark, window, spark
    assert "<b>spark</b>" in top["snippet"] and "<b>window</b>" in top["snippet"]


def test_highlighters_weigh_the_planned_query(ray_session, tmp_path):
    """Every highlighter marks the terms of the PLANNED query: a scoring
    prefix weighs its expansion (WeightedSpanTermExtractor after rewrite),
    and a query with no highlightable term gives no fragment (the typed
    empty table) or, for the postings highlighter, the empty highlight."""
    import dataclasses

    from lucene_solr_old_ray.functions import valuesource as vs
    from lucene_solr_old_ray.pipelines.highlight import highlight_hits_fvh
    from lucene_solr_old_ray.pipelines.postings_highlight import (
        highlight_hits_postings)
    from lucene_solr_old_ray.queries import FunctionQuery, PrefixQuery

    texts = ["apple pie", "applet code", "banana split", "apply here"]
    p = str(tmp_path / "documents.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts), "lang": pa.array(["en"] * len(texts)),
        "source": pa.array(["s"] * len(texts))}), p)
    idx = str(tmp_path / "idx")
    build_index(dataclasses.replace(
        CorpusSpec.documents(str(tmp_path)), store_offsets=True,
        store_term_vectors=True, store_tv_offsets=True), idx,
        target_docs_per_partition=2)
    pfx = PrefixQuery("appl", rewrite="scoring_boolean")
    for fn in (highlight_hits, highlight_hits_fvh, highlight_hits_postings):
        out = fn(idx, p, pfx, k=5).to_pandas()
        assert sorted(out["doc_id"]) == [0, 1, 3], fn.__name__
        for did, snip in zip(out["doc_id"], out["snippet"]):
            word = texts[did].split()[0]
            assert f"<b>{word}</b>" in snip, (fn.__name__, snip)
        none = fn(idx, p, FunctionQuery(vs.Const(1.0)), k=5)
        if fn is highlight_hits_postings:
            # PostingsHighlighter's empty highlight: a summary, no score
            assert set(none["score_bp"].to_pylist()) == {-1}
        else:
            assert none.num_rows == 0, fn.__name__
            assert "rank" in none.column_names, fn.__name__
