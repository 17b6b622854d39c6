"""The leaf control plane runs as plain Ray tasks: ``search()``'s scoring
pass and ``delete_by_query``'s mark pass start no Ray Data execution, and
on a many-leaf index with deletes ``search()``, ``SearchService.query`` and
the oracle agree bit for bit."""

import numpy as np
import pyarrow.parquet as pq
import pytest

from lucene_solr_old_ray.oracle import OracleIndex
from lucene_solr_old_ray.pipelines.build_index import build_index
from lucene_solr_old_ray.pipelines.deletes import add_documents, delete_by_query
from lucene_solr_old_ray.pipelines.search import search
from lucene_solr_old_ray.queries import TermQuery, bool_query
from lucene_solr_old_ray.sources.corpus import CorpusSpec, generate_corpus

K = 10
QUERIES = {
    0: TermQuery("return"),
    1: bool_query(musts=["return", "class"]),
    2: bool_query(shoulds=["class", "def", "static"], min_should_match=2),
    3: bool_query(shoulds=["merge_score", "tokenstream", "null"]),
}


def _build(tmp_path, n=400, seed=17):
    p = str(tmp_path / "c.parquet")
    generate_corpus(p, n, seed=seed, rows_per_group=100)
    d = str(tmp_path / "idx")
    build_index(CorpusSpec.source_code(p), d, target_docs_per_partition=100)
    return d, pq.read_table(p)["content"].to_pylist()


def _want(oracle, deleted, q):
    """The oracle's top-K live hits and live hit count of ``q``."""
    live = [(h, s) for h, s, _ in oracle.search(q, 10**6) if h not in deleted]
    return live[:K], len(live)


def _assert_equals_oracle(tbl, oracle, deleted):
    df = tbl.to_pandas()
    for qid, q in QUERIES.items():
        want, total = _want(oracle, deleted, q)
        got = df[df["qid"] == qid].sort_values("rank")
        assert got["docid"].tolist() == [h for h, _ in want], qid
        np.testing.assert_array_equal(
            got["score"].to_numpy(np.float32),
            np.array([s for _, s in want], dtype=np.float32), err_msg=str(qid))
        assert got["total_hits"].tolist() == [total] * len(want), qid
    assert len(df) > 0


def test_search_and_delete_start_no_ray_data(ray_session, tmp_path,
                                            monkeypatch):
    import ray.data

    d, texts = _build(tmp_path)
    oracle = OracleIndex(texts)

    def no_dataset(*a, **kw):
        raise AssertionError("a leaf pass started a Ray Data execution")

    monkeypatch.setattr(ray.data, "from_items", no_dataset)
    _assert_equals_oracle(search(d, QUERIES, k=K), oracle, set())
    deleted = {h for h, _, _ in oracle.search(TermQuery("class"), 10**6)}
    man = delete_by_query(d, TermQuery("class"))
    assert man["metrics"]["total_deleted"] == len(deleted) > 0
    _assert_equals_oracle(search(d, QUERIES, k=K), oracle, deleted)


def test_many_leaves_with_deletes_equal_serve_and_oracle(ray_session,
                                                         tmp_path):
    """Several add + delete rounds leave a many-leaf index whose leaves
    carry deletes of different generations; the batch tasks, the serving
    actors and the oracle return the same docids, float32 scores and
    total_hits."""
    from lucene_solr_old_ray.pipelines.serve import SearchService

    d, texts = _build(tmp_path)
    deleted: set[int] = set()
    for rnd, term in enumerate(("static", "null", "import")):
        p = str(tmp_path / f"add{rnd}.parquet")
        generate_corpus(p, 150, seed=100 + rnd, rows_per_group=75)
        add_documents(d, CorpusSpec.source_code(p),
                      target_docs_per_partition=75)
        texts += pq.read_table(p)["content"].to_pylist()
        # a delete reaches only the docs indexed so far
        deleted |= {h for h, _, _ in OracleIndex(texts).search(
            TermQuery(term), 10**6)}
        delete_by_query(d, TermQuery(term))
    oracle = OracleIndex(texts)
    batch = search(d, QUERIES, k=K)
    _assert_equals_oracle(batch, oracle, deleted)
    svc = SearchService(d, num_actors=2)
    try:
        served = svc.query(QUERIES, k=K)
    finally:
        svc.shutdown()
    assert served.equals(batch)
    from lucene_solr_old_ray.state import manifest as mf

    segs = mf.read_index_manifest(d)["segments"]
    assert len(segs) >= 10 and sum(bool(s.get("deletes")) for s in segs) >= 5
