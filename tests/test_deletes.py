"""Deletes/updates: liveDocs masking, document append, physical expunge."""

import numpy as np
import pyarrow.parquet as pq
import pytest

from lucene_solr_old_ray.oracle import OracleIndex
from lucene_solr_old_ray.pipelines.analytics import count_matches, match_doc_ids
from lucene_solr_old_ray.pipelines.build_index import build_index
from lucene_solr_old_ray.pipelines.deletes import (
    add_documents,
    delete_by_query,
    expunge_deletes,
)
from lucene_solr_old_ray.pipelines.search import search
from lucene_solr_old_ray.pipelines.validate import check_index
from lucene_solr_old_ray.queries import TermQuery, bool_query
from lucene_solr_old_ray.sources.corpus import CorpusSpec, generate_corpus


@pytest.fixture()
def idx(ray_session, tmp_path):
    p = str(tmp_path / "c.parquet")
    generate_corpus(p, 400, seed=17, rows_per_group=100)
    d = str(tmp_path / "idx")
    build_index(CorpusSpec.source_code(p), d, target_docs_per_partition=100)
    texts = pq.read_table(p)["content"].to_pylist()
    return d, texts, tmp_path


def test_delete_by_query_masks_everywhere(idx):
    d, texts, _ = idx
    oracle = OracleIndex(texts)
    deleted = {h[0] for h in oracle.search(TermQuery("class"), 10**6)}
    man = delete_by_query(d, TermQuery("class"))
    assert sum(s.get("num_deleted", 0) for s in man["segments"]) == len(deleted)
    # stats unchanged until expunge (reference semantics)
    assert man["stats"]["max_doc"] == len(texts)

    q = TermQuery("return")
    res = search(d, {0: q}, k=50).to_pandas()
    want = [(h, s) for h, s, _ in oracle.search(q, 10**6) if h not in deleted][:50]
    assert res["docid"].tolist() == [w[0] for w in want]
    # survivor scores unchanged (df/avgdl still count deleted docs)
    np.testing.assert_array_equal(
        res["score"].to_numpy(np.float32),
        np.array([w[1] for w in want], dtype=np.float32))
    assert res["total_hits"].iloc[0] == len(
        [1 for h, _, _ in oracle.search(q, 10**6) if h not in deleted])
    # analytics paths respect liveDocs too
    hits = set(match_doc_ids(d, TermQuery("class")).to_pandas()["docid"])
    assert hits == set()
    assert count_matches(d, q) == res["total_hits"].iloc[0]
    # WAND path returns the same masked top-k
    rw = search(d, {0: q}, k=50, algo="wand").to_pandas()
    assert rw["docid"].tolist() == res["docid"].tolist()


def test_add_documents_appends(idx):
    d, texts, tmp_path = idx
    p2 = str(tmp_path / "more.parquet")
    generate_corpus(p2, 150, seed=99, rows_per_group=75)
    man = add_documents(d, CorpusSpec.source_code(p2),
                        target_docs_per_partition=75)
    assert man["stats"]["max_doc"] == 550
    texts2 = texts + pq.read_table(p2)["content"].to_pylist()
    oracle = OracleIndex(texts2)
    q = TermQuery("return")
    res = search(d, {0: q}, k=30).to_pandas()
    want = oracle.search(q, 30)
    assert res["docid"].tolist() == [w[0] for w in want]
    np.testing.assert_array_equal(
        res["score"].to_numpy(np.float32),
        np.array([w[1] for w in want], dtype=np.float32))


def test_expunge_equals_fresh_build(idx):
    d, texts, tmp_path = idx
    oracle = OracleIndex(texts)
    deleted = {h[0] for h in oracle.search(TermQuery("class"), 10**6)}
    delete_by_query(d, TermQuery("class"))
    man = expunge_deletes(d)
    survivors = [t for i, t in enumerate(texts) if i not in deleted]
    assert man["stats"]["max_doc"] == len(survivors)
    check_index(d)

    fresh_oracle = OracleIndex(survivors)
    for q in (TermQuery("return"),
              bool_query(musts=["return", "static"]),
              bool_query(shoulds=["def", "import", "null"], min_should_match=2)):
        res = search(d, {0: q}, k=20).to_pandas()
        want = fresh_oracle.search(q, 20)
        assert res["docid"].tolist() == [w[0] for w in want], q
        np.testing.assert_array_equal(
            res["score"].to_numpy(np.float32),
            np.array([w[1] for w in want], dtype=np.float32), err_msg=repr(q))


def test_update_documents_flow(idx):
    """updateDocument = delete-by-key + add (IndexWriter.java:1494)."""
    d, texts, tmp_path = idx
    import pyarrow as pa

    # "update" all docs of repo org1/proj1: delete by its unique-ish term set
    delete_by_query(d, TermQuery("zzz_nothing"))  # no-op delete is safe
    man0 = delete_by_query(d, bool_query(musts=["return", "class", "static"]))
    n_del = sum(s.get("num_deleted", 0) for s in man0["segments"])
    p2 = str(tmp_path / "updated.parquet")
    n_new = max(1, n_del)
    pq.write_table(pa.table({
        "repo": ["upd"] * n_new, "path": [f"u{i}" for i in range(n_new)],
        "commit": ["c" * 40] * n_new, "lang": ["py"] * n_new,
        "content": ["updated return class static doc"] * n_new}), p2)
    man = add_documents(d, CorpusSpec.source_code(p2))
    res = search(d, {0: TermQuery("updated")}, k=5).to_pandas()
    assert res["total_hits"].iloc[0] == n_new
    assert (res["docid"] >= 400).all()  # appended docBase


def _marked_batch(path, n, marker):
    import pyarrow as pa

    pq.write_table(pa.table({
        "repo": ["add"] * n, "path": [f"a{i}" for i in range(n)],
        "commit": ["c" * 40] * n, "lang": ["py"] * n,
        "content": [f"return {marker} {i}" for i in range(n)]}), path)
    return CorpusSpec.source_code(path)


def test_add_after_merge_reaches_index(idx):
    """After a merge the live part ids restart at the shard ids, and an add
    that failed before publishing leaves its segment directory behind; new
    segments must be numbered past every seg-* directory on disk, never
    resume one of those."""
    d, _, tmp_path = idx
    import os
    from dataclasses import asdict

    from lucene_solr_old_ray.pipelines.merge import merge_index
    from lucene_solr_old_ray.sources.corpus import plan_partitions
    from lucene_solr_old_ray.stages.build import build_segment
    from lucene_solr_old_ray.state import manifest as mf

    merge_index(d, fan_in=2, strategy="local")
    n_new = 60
    # batch A: its segment is built, but the add dies before the manifest
    spec_a = _marked_batch(str(tmp_path / "a.parquet"), n_new, "zzorphan")
    (plan,) = plan_partitions(spec_a)
    plan.part_id = 1 + max(int(n[4:]) for n in os.listdir(
        os.path.join(d, "segments")) if n[4:].isdigit())
    plan.doc_base = mf.read_index_manifest(d)["stats"]["max_doc"]
    build_segment(spec_a, d, **asdict(plan))
    # batch B: same size, so the same doc_base and num_docs as A
    spec_b = _marked_batch(str(tmp_path / "b.parquet"), n_new, "zzaddmarker")
    man = add_documents(d, spec_b)
    assert man["stats"]["max_doc"] == sum(s["num_docs"]
                                          for s in man["segments"]) == 400 + n_new
    res = search(d, {0: TermQuery("zzaddmarker")}, k=5).to_pandas()
    assert res["total_hits"].iloc[0] == n_new
    assert (res["docid"] >= 400).all()
    assert len(search(d, {0: TermQuery("zzorphan")}, k=5).to_pandas()) == 0


def test_resume_refuses_a_different_segment(idx):
    """A build resumes an existing segment only if it holds the planned
    docs: same doc_base, num_docs and source rows."""
    d, _, tmp_path = idx
    import os

    from lucene_solr_old_ray.stages.build import build_segment
    from lucene_solr_old_ray.state import manifest as mf

    seg = mf.read_index_manifest(d)["segments"][1]
    lin = mf.read_json(os.path.join(d, seg["dir"], mf.SEGMENT_MANIFEST))["lineage"]
    plan = dict(part_id=seg["part_id"], file=lin["file"],
                row_groups=lin["row_groups"], doc_base=seg["doc_base"],
                num_docs=seg["num_docs"], row_start=lin["row_start"])
    spec = CorpusSpec.source_code(lin["file"])
    assert build_segment(spec, d, **plan)["skipped"]
    other = str(tmp_path / "other.parquet")
    for change in ({"doc_base": seg["doc_base"] + 1}, {"file": other},
                   {"row_start": lin["row_start"] + 1}):
        with pytest.raises(ValueError, match="refusing to resume"):
            build_segment(spec, d, **{**plan, **change})


@pytest.mark.parametrize("strategy", ["local", "termwise"])
def test_merge_carries_tombstones(idx, strategy):
    """Deleting then merging must not resurrect deleted docs."""
    d, texts, _ = idx
    from lucene_solr_old_ray.pipelines.merge import merge_index

    oracle = OracleIndex(texts)
    deleted = {h[0] for h in oracle.search(TermQuery("class"), 10**6)}
    delete_by_query(d, TermQuery("class"))
    man = merge_index(d, fan_in=2, strategy=strategy)
    assert any(s.get("deletes") for s in man["segments"])
    res = search(d, {0: TermQuery("class")}, k=5).to_pandas()
    assert len(res) == 0
    q = TermQuery("return")
    res = search(d, {0: q}, k=30).to_pandas()
    want = [(h, s) for h, s, _ in oracle.search(q, 10**6)
            if h not in deleted][:30]
    assert res["docid"].tolist() == [w[0] for w in want]
    # and expunge still works on the merged index
    man2 = expunge_deletes(d)
    assert man2["stats"]["max_doc"] == len(texts) - len(deleted)
    check_index(d)
