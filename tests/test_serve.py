"""Serving actor pool must return identical results to the batch pipeline."""

import pytest

from lucene_solr_old_ray.pipelines.build_index import build_index
from lucene_solr_old_ray.pipelines.merge import merge_index
from lucene_solr_old_ray.pipelines.search import search
from lucene_solr_old_ray.pipelines.serve import SearchService
from lucene_solr_old_ray.queries import TermQuery, bool_query
from lucene_solr_old_ray.sources.corpus import CorpusSpec, generate_corpus


def test_serve_equals_batch(ray_session, tmp_path):
    """Same plan, same results: term/boolean queries plus top-level value
    sources (scale's global min/max, ord's composite ordinal map), before
    and after a delete_by_query."""
    from lucene_solr_old_ray.functions import valuesource as vs
    from lucene_solr_old_ray.pipelines.deletes import delete_by_query
    from lucene_solr_old_ray.queries import FunctionQuery

    p = str(tmp_path / "c.parquet")
    generate_corpus(p, 600, seed=21, rows_per_group=100)
    idx = str(tmp_path / "idx")
    build_index(CorpusSpec.source_code(p), idx, target_docs_per_partition=150)
    merge_index(idx, fan_in=2, strategy="local")
    qs = {
        0: TermQuery("return"),
        1: bool_query(musts=["return", "class"]),
        2: bool_query(shoulds=["class", "def", "static"], min_should_match=2),
        3: bool_query(shoulds=["merge_score", "tokenstream"]),
        4: FunctionQuery(vs.Scale(vs.TermFreq("return"), 0.0, 1.0)),
        5: FunctionQuery(vs.Ord("lang")),
    }

    def check():
        batch = search(idx, qs, k=10).to_pandas()
        svc = SearchService(idx, num_actors=2, algo="exhaustive")
        served = svc.query(qs, k=10).to_pandas()
        svc.shutdown()
        assert batch[["qid", "rank", "docid", "total_hits"]].values.tolist() \
            == served[["qid", "rank", "docid", "total_hits"]].values.tolist()
        assert batch["score"].tolist() == served["score"].tolist()

        # wand serving returns same ranked docs
        svc = SearchService(idx, num_actors=2, algo="wand")
        served_w = svc.query(qs, k=10).to_pandas()
        svc.shutdown()
        assert batch[["qid", "rank", "docid"]].values.tolist() == \
               served_w[["qid", "rank", "docid"]].values.tolist()
        return batch

    assert set(check()["qid"]) == set(qs)
    delete_by_query(idx, TermQuery("class"))
    assert set(check()["qid"]) == set(qs) - {1}  # every hit of 1 had "class"


def test_serve_rewrites_common_terms(ray_session, tmp_path):
    """The serve path must run the CommonTermsQuery df rewrite like the
    batch pipeline (bit-identical scores)."""
    from lucene_solr_old_ray.queries import CommonTermsQuery

    p = str(tmp_path / "c.parquet")
    generate_corpus(p, 400, seed=13, rows_per_group=100)
    idx = str(tmp_path / "idx")
    build_index(CorpusSpec.source_code(p), idx, target_docs_per_partition=200)
    merge_index(idx, fan_in=2, strategy="local")
    # tokenstream df~33 (low at cutoff ceil(0.3*400)=120), return/def ~340
    qs = {0: CommonTermsQuery(("tokenstream", "return", "def"),
                              max_term_frequency=0.3)}
    batch = search(idx, qs, k=10).to_pandas()
    svc = SearchService(idx, num_actors=2, algo="exhaustive")
    served = svc.query(qs, k=10).to_pandas()
    svc.shutdown()
    assert len(batch) == 10
    assert batch[["qid", "rank", "docid"]].values.tolist() == \
           served[["qid", "rank", "docid"]].values.tolist()
    assert batch["score"].tolist() == served["score"].tolist()
