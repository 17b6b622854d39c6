"""One query plan everywhere: every compound query type reaches the planner
(MTQ rewrite, top-level value sources) through the subquery table in
``queries.py``, and every per-leaf pass executes the planned query — so a
scoring MultiTermQuery or a ``scale()`` nested anywhere gives the same
answer through ``search()``, ``SearchService`` and the analytics/delete
passes."""

import dataclasses
import re
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_solr_old_ray import queries as Q
from lucene_solr_old_ray.functions import valuesource as vs
from lucene_solr_old_ray.queries import (
    MUST,
    BooleanClause,
    BooleanFilterQuery,
    BoostingQuery,
    ChainedFilterQuery,
    DuplicateFilterQuery,
    FieldMaskingSpanQuery,
    FunctionQuery,
    FunctionRangeQuery,
    PrefixQuery,
    SpanMultiTermQueryWrapper,
    SpanOrQuery,
    SpanTermQuery,
    TermQuery,
)

TEXTS = [
    "apple banana cherry",
    "applet banana",
    "apply cherry date",
    "banana date",
    "apple apple cherry",
    "apricot banana",
    "cherry date elder",
    "applesauce date",
]
GROUPS = ["g0", "g1", "g0", "g1", "g0", "g2", "g2", "g0"]
VALS = [float(i) * 1.5 + 2.0 for i in range(len(TEXTS))]
K = 10


def scoring_prefix():
    return PrefixQuery("appl", rewrite="scoring_boolean")


def expanded_prefix():
    """The prefix replaced by hand with its expansion over the corpus."""
    from lucene_solr_old_ray.pipelines.search import expansion_to_bool

    terms = {t for text in TEXTS for t in text.split() if t.startswith("appl")}
    return expansion_to_bool(scoring_prefix(), {t: 0 for t in terms})


def scale_of(hand: bool):
    """scale(val, 0, 1), or the same node with its top-level bounds filled
    in by hand (the min/max over every doc)."""
    bounds = (min(VALS), max(VALS)) if hand else None
    return vs.Scale(vs.FloatField("val"), 0.0, 1.0, bounds)


def shapes(hand: bool):
    """(name, query) for every nested shape; ``hand=True`` gives the same
    trees with the planner's work done by hand."""
    pfx = expanded_prefix() if hand else scoring_prefix()
    span_pfx = (SpanOrQuery(tuple(SpanTermQuery(c.query.term)
                                  for c in expanded_prefix().clauses))
                if hand else SpanMultiTermQueryWrapper(PrefixQuery("appl")))
    return [
        ("boosting", BoostingQuery(pfx, TermQuery("cherry"), 0.5)),
        ("duplicate_filter", DuplicateFilterQuery(pfx, "grp")),
        ("boolean_filter", BooleanFilterQuery((BooleanClause(MUST, pfx),))),
        ("chained_filter", ChainedFilterQuery((pfx, TermQuery("date")),
                                              "or")),
        ("field_masking", FieldMaskingSpanQuery(span_pfx, mask=None)),
        ("scale_under_boosting", BoostingQuery(
            FunctionQuery(scale_of(hand)), TermQuery("cherry"), 0.5)),
        ("scale_in_frange", FunctionRangeQuery(scale_of(hand), 0.5, None)),
        ("query_value_source", FunctionQuery(vs.Sum((
            vs.QueryScore(pfx), vs.Const(1.0))))),
    ]


@pytest.fixture(scope="module")
def plan_idx(ray_session, tmp_path_factory):
    from lucene_solr_old_ray.pipelines.build_index import build_index
    from lucene_solr_old_ray.sources.corpus import CorpusSpec, FieldSpec

    tmp = tmp_path_factory.mktemp("planidx")
    path = str(tmp / "documents.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array(range(len(TEXTS)), pa.int64()),
        "grp": pa.array(GROUPS),
        "val": pa.array(VALS, pa.float64()),
        "text": pa.array(TEXTS),
    }), path)
    idx = str(tmp / "idx")
    # two segments: the rewrite and the scale bounds must be global
    build_index(CorpusSpec(
        files=(path,), content_col="text", meta_cols=("doc_id", "grp", "val"),
        extra_fields=(FieldSpec("val", "val", kind="numeric"),),
    ), idx, target_docs_per_partition=len(TEXTS) // 2)
    return idx


@pytest.fixture(scope="module")
def service(plan_idx):
    from lucene_solr_old_ray.pipelines.serve import SearchService

    svc = SearchService(plan_idx, num_actors=1)
    yield svc
    svc.shutdown()


def _rows(tbl):
    df = tbl.to_pandas()
    return (df["docid"].tolist(), df["score"].to_numpy(np.float32).tolist(),
            df["total_hits"].tolist())


@pytest.mark.parametrize("i", range(len(shapes(False))),
                         ids=[n for n, _ in shapes(False)])
def test_nested_shape_plans_everywhere(plan_idx, service, i):
    from lucene_solr_old_ray.pipelines.search import search

    _, q = shapes(False)[i]
    _, hand = shapes(True)[i]
    got = _rows(search(plan_idx, {0: q}, k=K))
    assert got[0], "shape matches nothing: the check would be vacuous"
    assert got == _rows(service.query({0: q}, k=K))
    assert got == _rows(search(plan_idx, {0: hand}, k=K))


def test_per_leaf_passes_plan_scoring_prefix(plan_idx, tmp_path):
    from lucene_solr_old_ray.pipelines.analytics import (count_matches,
                                                         facet_counts)
    from lucene_solr_old_ray.pipelines.deletes import delete_by_query
    from lucene_solr_old_ray.pipelines.search import search

    q = scoring_prefix()
    hits = int(search(plan_idx, {0: q}, k=K)["total_hits"][0].as_py())
    assert hits == sum(any(t.startswith("appl") for t in text.split())
                       for text in TEXTS)
    assert count_matches(plan_idx, q) == hits
    assert int(facet_counts(plan_idx, q, "grp")["count"].to_numpy().sum()) \
        == hits
    copy = str(tmp_path / "copy")
    shutil.copytree(plan_idx, copy)
    man = delete_by_query(copy, q)
    assert man["metrics"]["total_deleted"] == hits
    assert count_matches(copy, q) == 0


def test_subquery_table_is_complete():
    """Every query dataclass whose field holds a query, a tuple of queries
    or clauses, or a value source is in the subquery / value-source table
    or declared opaque — a new compound type cannot skip the planner."""
    holds_query = re.compile(r"\b(\w*Query|BooleanClause)\b")
    planned = {t: set(fs) for t, fs in Q.SUBQUERY_FIELDS.items()}
    for table in (Q.VALUE_SOURCE_FIELD, Q.OPAQUE_QUERY_FIELDS):
        for t, f in table.items():
            planned.setdefault(t, set()).add(f)
    seen: dict[type, set] = {}
    for c in vars(Q).values():
        if not (isinstance(c, type) and dataclasses.is_dataclass(c)
                and c.__module__ == Q.__name__):
            continue
        for f in dataclasses.fields(c):
            ann = str(f.type)
            # bare tuple/object annotations would hide a subquery field
            assert ann not in ("tuple", "object"), (c.__name__, f.name)
            if c is Q.BooleanClause:
                continue  # the clause record the tuple fields unwrap
            if holds_query.search(ann) or "ValueSource" in ann:
                seen.setdefault(c, set()).add(f.name)
    assert seen == planned


def test_value_source_tables_are_complete():
    """Every value-source dataclass field that holds a value source is in
    ``_CHILD_FIELDS``, and every one that holds a query is in
    ``QUERY_FIELD`` — a query inside a value source cannot skip the
    planner."""
    children = {t: set(fs) for t, fs in vs._CHILD_FIELDS.items()}
    held = {t: {f} for t, f in vs.QUERY_FIELD.items()}
    seen_vs: dict[type, set] = {}
    seen_q: dict[type, set] = {}
    for c in vars(vs).values():
        if not (isinstance(c, type) and dataclasses.is_dataclass(c)
                and c.__module__ == vs.__name__):
            continue
        for f in dataclasses.fields(c):
            ann = str(f.type)
            assert ann not in ("tuple", "object"), (c.__name__, f.name)
            if "ValueSource" in ann:
                seen_vs.setdefault(c, set()).add(f.name)
            if re.search(r"\bQuery\b", ann):
                seen_q.setdefault(c, set()).add(f.name)
    assert seen_vs == children
    assert seen_q == held
