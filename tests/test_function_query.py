"""FunctionQuery / CustomScoreQuery over numeric doc-values
(``queries/function/FunctionQuery.java``, ``queries/CustomScoreQuery.java``
re-expressed: value-source scoring from the dv sidecars)."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_solr_old_ray.pipelines.build_index import build_index
from lucene_solr_old_ray.queries import (
    CustomScoreQuery,
    FunctionQuery,
    TermQuery,
)
from lucene_solr_old_ray.sources.corpus import CorpusSpec


@pytest.fixture(scope="module")
def fq_index(ray_session, tmp_path_factory):
    d = tmp_path_factory.mktemp("fq")
    texts = ["needle alpha", "beta needle", "gamma", "needle delta",
             "epsilon", "needle zeta"]
    n = len(texts)
    docs = pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(["en"] * n, pa.string()),
        "source": pa.array(["s0"] * n, pa.string()),
    })
    pq.write_table(docs, str(d / "documents.parquet"))
    idx = str(d / "idx")
    build_index(CorpusSpec.documents(str(d)), idx,
                target_docs_per_partition=3)
    return idx, texts


def _leaves_of(idx):
    from lucene_solr_old_ray.stages.search import LeafSearcher
    from lucene_solr_old_ray.state import manifest as mf

    man = mf.read_index_manifest(idx)
    leaves = [
        LeafSearcher(os.path.join(idx, l["dir"]), l["doc_base"],
                     l["leaf_ord"], l["num_docs"])
        for l in mf.leaf_rows(idx, man)
    ]
    return man, leaves


def test_function_query_scores_are_field_values(fq_index):
    from lucene_solr_old_ray.pipelines.search import gather_stats
    from lucene_solr_old_ray.stages.search import execute
    from lucene_solr_old_ray.state import manifest as mf

    idx, texts = fq_index
    man, leaves = _leaves_of(idx)
    ctx = gather_stats(idx, man, [])
    got = {}
    for leaf in leaves:
        docids, scores = execute(FunctionQuery("doc_id", boost=2.0),
                                 leaf, ctx)
        assert scores.dtype == np.float32
        for d, s in zip(docids + leaf.doc_base, scores):
            got[int(d)] = s
    # every doc matches; score = float32(2.0) * float32(doc_id)
    assert sorted(got) == list(range(len(texts)))
    for d, s in got.items():
        assert s == np.float32(2.0) * np.float32(d)


def test_custom_score_multiplies_subquery(fq_index):
    from lucene_solr_old_ray.pipelines.search import gather_stats
    from lucene_solr_old_ray.stages.search import execute

    idx, texts = fq_index
    man, leaves = _leaves_of(idx)
    ctx = gather_stats(idx, man, ["needle"])
    for leaf in leaves:
        base_ids, base_scores = execute(TermQuery("needle"), leaf, ctx)
        ids, scores = execute(
            CustomScoreQuery(TermQuery("needle"), "doc_id"), leaf, ctx)
        np.testing.assert_array_equal(ids, base_ids)
        want = (base_scores *
                (base_ids + leaf.doc_base).astype(np.float32)).astype(
                    np.float32)
        np.testing.assert_array_equal(scores, want)
        assert scores.dtype == np.float32


def test_custom_score_through_topk_pipeline(fq_index):
    """End-to-end: the distributed top-k pipeline ranks by the custom
    score (doc_id-weighted), with WAND falling back to exhaustive."""
    from lucene_solr_old_ray.pipelines.search import search

    idx, texts = fq_index
    res = search(idx, {0: CustomScoreQuery(TermQuery("needle"), "doc_id")},
                 k=4, algo="wand").to_pandas()
    matched = [i for i, t in enumerate(texts) if "needle" in t.split()]
    # doc 0 scores 0.0 (value 0); ranking is by descending doc_id weight
    got = res.sort_values("rank")["docid"].tolist()
    assert got[0] == max(matched)
    assert set(got) == set(matched)


# --- FunctionRangeQuery ({!frange}, ValueSourceRangeFilter) -----------------

@pytest.fixture(scope="module")
def frange_index(ray_session, tmp_path_factory):
    d = tmp_path_factory.mktemp("fr")
    n = 8
    docs = pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "text": pa.array([f"needle w{i}" for i in range(n)], pa.string()),
        "lang": pa.array(["en"] * n, pa.string()),
        "source": pa.array(["s0"] * n, pa.string()),
        "n_chars": pa.array([5, 10, 15, 20, 25, 30, None, 40], pa.int64()),
    })
    pq.write_table(docs, str(d / "documents.parquet"))
    idx = str(d / "idx")
    build_index(CorpusSpec.documents(str(d)), idx,
                target_docs_per_partition=4)
    return idx


def test_frange_matches_fieldcache_range(frange_index):
    from lucene_solr_old_ray.pipelines.search import search
    from lucene_solr_old_ray.queries import (
        FieldCacheRangeFilterQuery,
        FilteredQuery,
        FunctionRangeQuery,
    )

    fr = FilteredQuery(TermQuery("needle"),
                       FunctionRangeQuery("n_chars", 10, 30))
    fc = FilteredQuery(TermQuery("needle"),
                       FieldCacheRangeFilterQuery("n_chars", 10, 30,
                                                  kind="numeric"))
    a = search(frange_index, {0: fr}, k=10).to_pandas()
    b = search(frange_index, {0: fc}, k=10).to_pandas()
    assert a.equals(b) and len(a) == 5


def test_frange_bounds_and_missing_value_rule(frange_index):
    from lucene_solr_old_ray.pipelines.search import search
    from lucene_solr_old_ray.queries import FunctionRangeQuery

    def docs(q):
        r = search(frange_index, {0: q}, k=20).to_pandas()
        return sorted(r["docid"].tolist())

    # exclusive bounds drop the endpoints
    assert docs(FunctionRangeQuery("n_chars", 10, 30,
                                   include_lower=False,
                                   include_upper=False)) == [2, 3, 4]
    # missing numeric evaluates to 0.0f (FieldCache default): a range
    # spanning 0 matches the missing-value doc (docid 6), like Solr
    assert 6 in docs(FunctionRangeQuery("n_chars", None, 6))
    # open upper bound
    assert docs(FunctionRangeQuery("n_chars", 25, None)) == [4, 5, 7]


def test_frange_over_valuesource_node(frange_index):
    from lucene_solr_old_ray.functions.valuesource import (
        Const,
        FloatField,
        Sum,
    )
    from lucene_solr_old_ray.pipelines.search import search
    from lucene_solr_old_ray.queries import FunctionRangeQuery

    # n_chars + 100 in [110, 130] == n_chars in [10, 30]
    shifted = Sum((FloatField("n_chars"), Const(100.0)))
    r = search(frange_index,
               {0: FunctionRangeQuery(shifted, 110, 130)}, k=20).to_pandas()
    assert sorted(r["docid"].tolist()) == [1, 2, 3, 4, 5]
