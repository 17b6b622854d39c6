"""LukeRequestHandler analogue: index info, per-field distinct/topTerms/
log2-docFreq histogram vs a full DuckDB term-df derivation (same toks
stream the term_stats oracle proves)."""

import numpy as np
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    import os

    import duckdb

    c = duckdb.connect()
    p = os.path.join(SF, "documents.parquet")
    c.execute(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{p}')")
    return c


def _oracle_term_df(con) -> pd.DataFrame:
    import lucene_solr_old_ray.sqlgen as g

    return con.execute(
        f"WITH {g.base_ctes()} "
        "SELECT term, count(DISTINCT doc_id) AS df FROM toks "
        "GROUP BY term").df()


def test_luke_index_info(ray_session):
    import __ray_entry__ as entry
    from lucene_solr_old_ray.pipelines.solrstats import luke_index_info

    info = luke_index_info(entry._index_for(SF))
    assert info["maxDoc"] == info["numDocs"] + info["deletedDocs"]
    assert info["numDocs"] == 500  # sf0.001 documents table
    assert info["segmentCount"] >= 1
    assert info["hasDeletions"] == (info["deletedDocs"] > 0)
    assert info["version"] >= 1


def test_luke_index_info_counts_deletes(ray_session, tmp_path):
    """deletedDocs is read from the liveDocs files, resolved against the
    index dir whatever the CWD, and survives a merge (merged shards carry
    liveDocs but no num_deleted)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from lucene_solr_old_ray.pipelines.build_index import build_index
    from lucene_solr_old_ray.pipelines.deletes import delete_by_query
    from lucene_solr_old_ray.pipelines.merge import merge_index
    from lucene_solr_old_ray.pipelines.solrstats import luke_index_info
    from lucene_solr_old_ray.queries import TermQuery
    from lucene_solr_old_ray.sources.corpus import CorpusSpec

    docs = ["alpha beta", "beta gamma", "gamma delta", "delta alpha",
            "epsilon"]
    path = str(tmp_path / "documents.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array(range(len(docs)), pa.int64()),
        "text": pa.array(docs, pa.string()),
    }), path)
    idx = str(tmp_path / "idx")
    build_index(CorpusSpec(files=(path,), content_col="text",
                           meta_cols=("doc_id",)), idx,
                target_docs_per_partition=2)
    delete_by_query(idx, TermQuery("alpha"))
    info = luke_index_info(idx)
    assert (info["maxDoc"], info["numDocs"], info["deletedDocs"]) == (5, 3, 2)
    assert info["hasDeletions"] and info["segmentCount"] == 3

    merge_index(idx, fan_in=2, strategy="local")
    info = luke_index_info(idx)
    assert (info["maxDoc"], info["numDocs"], info["deletedDocs"]) == (5, 3, 2)


def test_luke_field_report_vs_duckdb(ray_session, con):
    import __ray_entry__ as entry
    from lucene_solr_old_ray.pipelines.solrstats import luke_field_report

    rep = luke_field_report(entry._index_for(SF), None, num_terms=15)
    want = _oracle_term_df(con)

    # distinct = full vocabulary size
    assert rep["distinct"] == len(want)

    # topTerms: df desc, term asc tie-break
    wtop = want.sort_values(["df", "term"], ascending=[False, True]).head(15)
    got = rep["top_terms"].to_pandas()
    assert got["term"].tolist() == wtop["term"].tolist()
    assert got["df"].tolist() == wtop["df"].tolist()

    # histogram: slot = 32 - nlz(max(0, df-1)), label 2^slot, counts over
    # the WHOLE vocabulary (LukeRequestHandler.java:612-618, 677-698)
    dfv = want["df"].to_numpy(np.int64)
    x = np.maximum(0, dfv - 1)
    slots = np.where(x == 0, 0, np.frompyfunc(int.bit_length, 1, 1)(
        x.astype(object)).astype(np.int64))
    whist = pd.Series(slots).value_counts().sort_index()
    gh = rep["histogram"].to_pandas()
    assert gh["bucket"].tolist() == [1 << int(s) for s in whist.index]
    assert gh["count"].tolist() == whist.tolist()


def test_luke_report_fields_and_named_field(ray_session):
    import __ray_entry__ as entry
    from lucene_solr_old_ray.pipelines.solrstats import luke_report

    rep = luke_report(entry._index_for(SF), num_terms=5)
    assert "" in rep["fields"]  # default content field
    assert "source" in rep["fields"]  # extra field indexed by _index_for
    src = rep["fields"]["source"]
    assert src["distinct"] > 0
    t = src["top_terms"].to_pandas()
    assert (t["term"].str.startswith("src")).all()
    assert (t["df"].to_numpy() > 0).all()
    # histogram counts sum to distinct for every field
    for f, d in rep["fields"].items():
        assert int(d["histogram"].to_pandas()["count"].sum()) == d["distinct"]
