"""The process-wide decoded-postings cache (``stages.search._DECODED``):
read-only arrays, the byte bound, warm entries across delete generations,
and the work counters."""

import os
from collections import OrderedDict

import numpy as np
import pytest

from lucene_solr_old_ray.pipelines.build_index import build_index
from lucene_solr_old_ray.pipelines.deletes import delete_by_query
from lucene_solr_old_ray.pipelines.search import (gather_stats, merge_top_docs,
                                                  open_leaf, score_leaves)
from lucene_solr_old_ray.queries import PhraseQuery, TermQuery, bool_query
from lucene_solr_old_ray.sources.corpus import CorpusSpec, generate_corpus
from lucene_solr_old_ray.stages import search as ss
from lucene_solr_old_ray.state import manifest as mf

QUERIES = {
    0: TermQuery("return"),
    1: bool_query(shoulds=["return", "class", "static"]),
    2: bool_query(musts=["return", "class"]),
    3: PhraseQuery(("return", "null")),
}
TERMS = ["return", "class", "static", "null"]


@pytest.fixture(scope="module")
def tiny(ray_session, tmp_path_factory):
    p = str(tmp_path_factory.mktemp("c") / "c.parquet")
    generate_corpus(p, 400, seed=17, rows_per_group=100)
    d = str(tmp_path_factory.mktemp("i") / "idx")
    build_index(CorpusSpec.source_code(p), d, target_docs_per_partition=100)
    return d


def _empty_cache(monkeypatch):
    monkeypatch.setattr(ss, "_DECODED", OrderedDict())
    monkeypatch.setattr(ss, "_DECODED_STATS",
                        {"hits": 0, "misses": 0, "evictions": 0, "bytes": 0})


@pytest.fixture()
def fresh_cache(monkeypatch):
    """An empty cache and zeroed counters for this test only."""
    _empty_cache(monkeypatch)


def _leaves(index_dir, fresh=False):
    """The index's current leaves, from the open-leaf cache or newly
    opened."""
    rows = mf.leaf_rows(index_dir, mf.read_index_manifest(index_dir))
    if not fresh:
        return [open_leaf(index_dir, r) for r in rows]
    return [ss.LeafSearcher(os.path.join(index_dir, r["dir"]),
                            int(r["doc_base"]), int(r["leaf_ord"]),
                            int(r["num_docs"]), deletes_path=r["deletes"])
            for r in rows]


def _run(index_dir, leaves, k=20):
    ctx = gather_stats(index_dir, mf.read_index_manifest(index_dir), TERMS)
    qitems = list(QUERIES.items())
    return merge_top_docs([score_leaves([(lf, qitems) for lf in leaves],
                                        ctx, k)], k).to_pandas()


def _same(a, b):
    assert a["qid"].tolist() == b["qid"].tolist()
    assert a["docid"].tolist() == b["docid"].tolist()
    assert a["total_hits"].tolist() == b["total_hits"].tolist()
    np.testing.assert_array_equal(a["score"].to_numpy(np.float32),
                                  b["score"].to_numpy(np.float32))


def test_cached_postings_are_read_only(tiny, fresh_cache):
    leaf = _leaves(tiny)[0]
    for arrays in (leaf.postings("return"),
                   leaf.postings_with_positions("return")):
        for a in arrays:
            with pytest.raises(ValueError):
                a[0] = a[0]


def test_byte_bound_holds_and_results_match_unbounded(tiny, fresh_cache,
                                                      monkeypatch):
    want = _run(tiny, _leaves(tiny))
    assert ss.decoded_cache_stats()["evictions"] == 0

    bound = 4096
    _empty_cache(monkeypatch)
    monkeypatch.setattr(ss, "_DECODED_MAX_BYTES", bound)
    got = _run(tiny, _leaves(tiny))
    st = ss.decoded_cache_stats()
    assert 0 < st["bytes"] <= bound
    assert st["evictions"] > 0
    assert st["bytes"] == sum(a.nbytes for e in ss._DECODED.values()
                              for a in e)
    _same(got, want)


def test_delete_generation_keeps_entries_warm(tmp_path, ray_session,
                                              fresh_cache, monkeypatch):
    p = str(tmp_path / "c.parquet")
    generate_corpus(p, 300, seed=5, rows_per_group=100)
    d = str(tmp_path / "idx")
    build_index(CorpusSpec.source_code(p), d, target_docs_per_partition=100)
    _run(d, _leaves(d))

    delete_by_query(d, TermQuery("class"))
    leaves = _leaves(d)
    assert any(lf.live is not None for lf in leaves)
    before = ss.decoded_cache_stats()
    got = _run(d, leaves)
    after = ss.decoded_cache_stats()
    assert after["misses"] == before["misses"]
    assert after["hits"] > before["hits"]

    deleted = set()
    for lf in leaves:
        if lf.live is not None:
            deleted |= set((np.flatnonzero(~lf.live) + lf.doc_base).tolist())
    assert deleted and not deleted & set(got["docid"].tolist())

    _empty_cache(monkeypatch)
    _same(got, _run(d, _leaves(d, fresh=True)))


def test_counters_present_and_repeat_query_only_hits(tiny, fresh_cache):
    st = ss.decoded_cache_stats()
    assert set(st) == {"hits", "misses", "evictions", "bytes", "entries"}
    assert all(isinstance(v, int) and v >= 0 for v in st.values())

    leaves = _leaves(tiny)
    _run(tiny, leaves)
    first = ss.decoded_cache_stats()
    assert first["misses"] > 0 and first["entries"] > 0
    _run(tiny, leaves)
    second = ss.decoded_cache_stats()
    assert second["misses"] == first["misses"]
    assert second["hits"] > first["hits"]
    assert second["entries"] == first["entries"]
    assert second["bytes"] == first["bytes"]
    assert all(v >= 0 for v in second.values())
