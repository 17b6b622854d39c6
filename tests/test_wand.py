"""Both ``algo`` values must give the oracle's top-k (docids AND float32
scores) and exact hit counts, and the decoded-postings cache must not
change what the scorer sees."""

from collections import OrderedDict

import numpy as np
import pyarrow.parquet as pq
import pytest

from lucene_solr_old_ray.functions.codec import decode_blob
from lucene_solr_old_ray.oracle import OracleIndex
from lucene_solr_old_ray.pipelines.build_index import build_index
from lucene_solr_old_ray.pipelines.merge import merge_index
from lucene_solr_old_ray.pipelines.search import gather_stats, search
from lucene_solr_old_ray.queries import TermQuery, bool_query
from lucene_solr_old_ray.sources.corpus import CorpusSpec, generate_corpus
from lucene_solr_old_ray.stages import search as ss
from lucene_solr_old_ray.stages.search import LeafSearcher, execute, top_k
from lucene_solr_old_ray.state import manifest as mf

K = 10


@pytest.fixture(scope="module")
def big_index(ray_session, tmp_path_factory):
    p = str(tmp_path_factory.mktemp("c") / "corpus.parquet")
    generate_corpus(p, 4000, seed=13, rows_per_group=512)
    idx = str(tmp_path_factory.mktemp("i") / "idx")
    build_index(CorpusSpec.source_code(p), idx, target_docs_per_partition=2000)
    merge_index(idx, fan_in=10, strategy="local")  # single merged shard
    return idx, OracleIndex(pq.read_table(p)["content"].to_pylist())


def wand_queries():
    return {
        0: TermQuery("return"),
        1: TermQuery("get_index"),
        2: bool_query(shoulds=["return", "class", "static"]),
        3: bool_query(shoulds=["merge_score", "tokenstream"]),
        4: bool_query(shoulds=["return", "null", "def", "import", "heap_pool",
                               "parse_batch"]),
        5: bool_query(shoulds=["zzz_missing"]),
        6: bool_query(musts=["return", "class"]),
        7: bool_query(shoulds=["class", "def", "static"], min_should_match=2),
    }


def test_wand_equals_exhaustive_pipeline(big_index):
    """Both ``algo`` values return the oracle's top-k: docids, float32
    scores and exact total hits."""
    idx, oracle = big_index
    qs = wand_queries()
    for algo in ("exhaustive", "wand"):
        res = search(idx, qs, k=K, algo=algo).to_pandas()
        for qid, q in qs.items():
            want = oracle.search(q, K)
            got = res[res["qid"] == qid].sort_values("rank")
            assert got["docid"].tolist() == [w[0] for w in want], (algo, qid)
            np.testing.assert_array_equal(
                got["score"].to_numpy(np.float32),
                np.array([w[1] for w in want], dtype=np.float32),
                err_msg=f"{algo} qid {qid} scores")
            assert got["total_hits"].tolist() == [w[2] for w in want], \
                (algo, qid)


def test_wand_randomized_postings(ray_session, monkeypatch):
    """Property check on raw block data (random tf/norm distributions, many
    boundary shapes): every term's cached decoded arrays equal a fresh
    ``decode_blob`` of its postings, and a cold-cache ``execute`` and a warm
    second one give bit-identical top-k for every k."""
    rng = np.random.default_rng(99)
    import pyarrow as pa
    import tempfile, os

    words = [f"w{i}" for i in range(30)]
    docs = []
    for _ in range(700):
        n = int(rng.integers(1, 60))
        docs.append(" ".join(rng.choice(words, size=n)))
    with tempfile.TemporaryDirectory() as td:
        p = os.path.join(td, "c.parquet")
        pq.write_table(
            pa.table({"repo": ["r"] * 700, "path": [f"p{i}" for i in range(700)],
                      "commit": ["c"] * 700, "lang": ["txt"] * 700,
                      "content": docs}), p)
        idx = os.path.join(td, "idx")
        build_index(CorpusSpec.source_code(p), idx, target_docs_per_partition=10_000)
        man = mf.read_index_manifest(idx)
        leaf_row = man["segments"][0]
        leaf = LeafSearcher(os.path.join(idx, leaf_row["dir"]), 0, 0,
                            leaf_row["num_docs"])
        for terms in (["w0"], ["w1", "w2"], ["w3", "w4", "w5", "w6"]):
            q = bool_query(shoulds=terms)
            ctx = gather_stats(idx, man, terms)
            monkeypatch.setattr(ss, "_DECODED", OrderedDict())
            misses = ss.decoded_cache_stats()["misses"]
            d_cold, s_cold = execute(q, leaf, ctx)
            assert ss.decoded_cache_stats()["misses"] == misses + len(terms)
            d_warm, s_warm = execute(q, leaf, ctx)
            assert ss.decoded_cache_stats()["misses"] == misses + len(terms)
            for k in (1, 3, 10, 50):
                d_c, s_c = top_k(d_cold, s_cold, k)
                d_w, s_w = top_k(d_warm, s_warm, k)
                assert d_w.tolist() == d_c.tolist(), (terms, k)
                np.testing.assert_array_equal(s_w, s_c)
        for ti in range(leaf.nterms):
            d, t = decode_blob(leaf.blob(ti))
            cached = leaf.decoded(ti)
            np.testing.assert_array_equal(cached[0], d)
            np.testing.assert_array_equal(cached[1], t)
            assert cached[0].dtype == d.dtype and cached[1].dtype == t.dtype
