"""Distributed search pipeline (SURVEY §3.2 re-expressed on Ray).

Two passes over the leaf set, both as plain ``@ray.remote`` tasks over the
(tiny) leaf descriptor table — the postings themselves never move; workers
mmap them:

1. **stats pass** — sum df/ttf for the query's terms across every leaf
   (``TermContext.build`` over all leaves), roll up on the driver, broadcast
   via ``ray.put`` (ShardSearchingTestBase's stats-exchange protocol).
2. **scoring pass** — ``_score_task``: the (leaf × query-chunk) work items,
   grouped round-robin into one task per cluster CPU. Scoring state (opened
   ``LeafSearcher``s — term dict in RAM, postings/norms mmap'd, decoded
   postings in the process-wide cache) lives in the worker-process-level
   :data:`_WORKER_LEAVES` cache; Ray reuses task worker processes, so it
   survives across ``search()`` calls. Each task returns its per-leaf
   top-k rows as numpy columns.

The transport rule: Ray Data for data-sized work (the build's Parquet read,
the merge's k-way merge, curation), plain tasks for the leaf control plane
(:func:`map_leaves`). A leaf table is tens of rows, and a per-call Dataset
costs ~1 s of fixed scheduling on a 100-query batch whose scoring takes
~50 ms.

Driver merge follows ``TopDocs.merge`` exactly (``search/TopDocs.java:82-118``):
(score desc, leaf ord asc, per-leaf rank asc) — leaf ords ascend with docBase,
so ties resolve identically to a single-reader search.

The plan is a handful of functions that ``pipelines.serve`` runs too, over
its actor pool instead of tasks: ``plan_queries`` (rewrite, stats
exchange, top-level value sources), ``leaf_stats`` / ``sum_stats`` /
``make_context`` (the exchange), ``score_leaves`` (per-leaf top-k rows) and
``merge_top_docs``. Leaves are ``state.manifest.leaf_rows`` rows, opened with
``open_leaf``.

``plan_queries`` is the one plan: ``search()``, ``SearchService.query``
and every other pass that executes a query per leaf (the analytics
facets/grouping/sorting/counting passes, ``delete_by_query``,
``pk_split``, solrstats, the sorted-index, spatial, expression and
block-join collectors, span highlighting, the highlighters) call it and
execute the PLANNED queries. Its tree walks fold over
``queries.SUBQUERY_FIELDS``, so every compound type is planned the same way.

Scale notes: the shuffle-free design holds at 10^12 docs — queries and stats
are broadcast (small), per-leaf top-k rows are k × leaves × queries (small);
workers hold term dictionaries in heap, read postings from read-only mmaps,
and decode each term's postings once per process into a byte-bounded LRU
(``stages.search._DECODED``, 256 MiB) that every scorer path reads.
"""

from __future__ import annotations

import functools
import os
from collections import OrderedDict
from typing import Sequence

import numpy as np
import pyarrow as pa
import time as _time

import ray
import ray.data

from ..functions import bm25
from ..queries import (
    MUST,
    SHOULD,
    VALUE_SOURCE_FIELD,
    BooleanClause,
    BooleanQuery,
    CommonTermsQuery,
    FuzzyQuery,
    Query,
    SpanMultiTermQueryWrapper,
    SpanOrQuery,
    SpanTermQuery,
    TermQuery,
    collect_stats_terms,
    map_subqueries,
    rewrite_target,
    subqueries,
    value_source,
)
from ..stages.search import (
    LeafSearcher,
    SearchContext,
    collect_leaf_stats,
    collect_mtq_terms,
    execute,
    top_k,
)
from ..state import manifest as mf


# worker-process-level open-leaf LRU: segments/shards are IMMUTABLE
# (published by atomic rename, never rewritten), so a loaded term dict +
# mmaps stay valid for the life of the worker. Ray core reuses idle
# worker PROCESSES across tasks within a job, so the cache
# survives across search() calls — an actor instance's dict would die with
# its pool. Keyed by (leaf dir, deletes path, deletes mtime): a new deletes
# generation writes a NEW file, and mtime guards in-place rewrites.
_WORKER_LEAVES: OrderedDict[tuple, LeafSearcher] = OrderedDict()


def open_leaf(index_dir: str, row) -> LeafSearcher:
    """The open searcher of one :func:`~..state.manifest.leaf_rows` row,
    from this process's :data:`_WORKER_LEAVES` cache."""
    dpath = row["deletes"]
    # inode+mtime of the term dict guard against a REBUILT index at the
    # same path (rmtree + rebuild recycles the directory name)
    st = os.stat(os.path.join(index_dir, row["dir"], "terms.parquet"))
    key = (index_dir, row["dir"], st.st_ino, st.st_mtime_ns, dpath,
           os.path.getmtime(dpath) if dpath else 0.0)
    ls = _WORKER_LEAVES.get(key)
    if ls is not None:
        _WORKER_LEAVES.move_to_end(key)
        return ls
    ls = LeafSearcher(
        os.path.join(index_dir, row["dir"]),
        int(row["doc_base"]),
        int(row["leaf_ord"]),
        int(row["num_docs"]),
        deletes_path=dpath,
    )
    _WORKER_LEAVES[key] = ls
    if len(_WORKER_LEAVES) > 64:  # bounded per worker process
        _WORKER_LEAVES.popitem(last=False)
    return ls


def leaf_dataset(index_dir: str, manifest: dict) -> ray.data.Dataset:
    """The leaf rows as a Dataset with one block per leaf: the input of
    every per-leaf ``map_batches`` pass."""
    rows = mf.leaf_rows(index_dir, manifest)
    return ray.data.from_items(rows, override_num_blocks=max(1, len(rows)))


def _leaf_groups(rows: list, n: int | None = None) -> list[list]:
    """Round-robin ``rows`` over at most ``n`` control-plane tasks (default:
    one per cluster CPU — more tasks than CPUs only queue, and each costs
    its own dispatch)."""
    n = min(n or max(1, int(ray.cluster_resources().get("CPU", 1))),
            len(rows))
    return [rows[i::n] for i in range(n)]


def map_leaves(task, index_dir: str, rows: list, *args) -> list:
    """``task.remote(index_dir, group, *args)`` over :func:`_leaf_groups` of
    ``rows`` (leaf rows or per-leaf work items) -> the tasks' results, in
    group order: the plain-task fan-out of every leaf control-plane pass."""
    return ray.get([task.remote(index_dir, g, *args)
                    for g in _leaf_groups(rows)])


# per-leaf result rows: the scoring step's output and the merge's input
_ROW_DTYPES = {"qid": np.int64, "leaf_ord": np.int32, "rank": np.int32,
               "docid": np.int64, "score": np.float32, "hits": np.int64}


def score_leaves(work, ctx: SearchContext, k: int,
                 deadline: float | None = None) -> dict[str, np.ndarray]:
    """Per-leaf top-k rows for each ``(leaf, [(qid, query), ...])`` pair of
    ``work``: columns qid, leaf_ord, rank (0-based), docid (global), score,
    hits (the leaf's exact match count). The scoring step of both
    ``search()`` and ``SearchService``.

    With a ``deadline`` (TimeLimitingCollector, ``search/
    TimeLimitingCollector.java:33,160``) collection stops when the clock
    passes it and keeps what was already collected. The engine's
    collection unit is a (leaf x query) pass, not a doc, so the abort lands
    between units (the greedy mode's keep-current-doc contract at this
    granularity) and one sentinel row with qid -1 marks it."""
    out: dict[str, list] = {c: [] for c in _ROW_DTYPES}

    def emit(qid, leaf_ord, docids, scores, hits):
        n = len(docids)
        out["qid"] += [qid] * n
        out["leaf_ord"] += [leaf_ord] * n
        out["rank"] += range(n)
        out["docid"] += docids.tolist()
        out["score"] += scores.tolist()
        out["hits"] += [hits] * n

    for leaf, qitems in work:
        for qid, q in qitems:
            if deadline is not None and _time.time() > deadline:
                emit(-1, -1, np.array([-1]), np.array([0.0]), 0)
                return _row_arrays(out)
            docids, scores = execute(q, leaf, ctx)
            nhits = len(docids)
            docids, scores = top_k(docids, scores, k)
            emit(qid, leaf.ord, docids.astype(np.int64) + leaf.doc_base,
                 scores, nhits)
    return _row_arrays(out)


def _row_arrays(out: dict[str, list]) -> dict[str, np.ndarray]:
    return {c: np.asarray(v, dtype=_ROW_DTYPES[c]) for c, v in out.items()}


def merge_top_docs(parts, k: int) -> pa.Table:
    """TopDocs.merge (``search/TopDocs.java:82-118``) over per-leaf row
    batches (dicts of arrays from :func:`score_leaves`) ->
    table (qid, rank [1-based], docid, score, total_hits). Order per qid is
    (score desc, leaf ord asc, per-leaf rank asc): leaf ords ascend with
    docBase, so ties resolve as in a single-reader search. total_hits sums
    the per-leaf hits; time-limit sentinel rows (qid -1) are dropped."""
    def col(c):
        return np.concatenate(
            [np.asarray(p[c], dtype=_ROW_DTYPES[c]) for p in parts]
            + [np.zeros(0, _ROW_DTYPES[c])])

    qid, leaf_ord, rank, docid, score, hits = (col(c) for c in _ROW_DTYPES)
    order = np.lexsort((rank, leaf_ord, -score, qid))
    order = order[qid[order] >= 0]
    qid, rank, docid, score, hits = (qid[order], rank[order], docid[order],
                                     score[order], hits[order])
    new_q = np.ones(len(qid), bool)  # first row of each qid
    new_q[1:] = qid[1:] != qid[:-1]
    grp = np.cumsum(new_q) - 1
    pos = np.arange(len(qid)) - np.flatnonzero(new_q)[grp]
    total = np.zeros(int(new_q.sum()), np.int64)
    np.add.at(total, grp, np.where(rank == 0, hits, 0))  # one rank-0 row per leaf
    keep = pos < k
    return pa.table({
        "qid": pa.array(qid[keep], pa.int64()),
        "rank": pa.array((pos[keep] + 1).astype(np.int32), pa.int32()),
        "docid": pa.array(docid[keep], pa.int64()),
        "score": pa.array(score[keep], pa.float32()),
        "total_hits": pa.array(total[grp[keep]], pa.int64()),
    })


@ray.remote
def _score_task(index_dir: str, work: list[tuple[dict, int, int]],
                queries: list[tuple[int, Query]], ctx: SearchContext, k: int,
                deadline: float | None) -> dict[str, np.ndarray]:
    """One scoring task of ``search()``: :func:`score_leaves` over its
    ``(leaf row, q_lo, q_hi)`` work items, leaves from the worker-level
    cache (:data:`_WORKER_LEAVES`)."""
    return score_leaves(((open_leaf(index_dir, row), queries[lo:hi])
                         for row, lo, hi in work), ctx, k, deadline)


def leaf_stats(leaf: LeafSearcher, terms: Sequence[str],
               field_terms: Sequence[tuple[str, str]] = ()) -> tuple[dict, dict]:
    """One leaf's share of the stats exchange (``TermContext.build``):
    term -> (df, ttf) for the default field, and field -> term -> (df, ttf)
    for ``field_terms``."""
    by_field: dict[str, list[str]] = {}
    for f, t in field_terms:
        by_field.setdefault(f, []).append(t)
    return (collect_leaf_stats(leaf, terms),
            {f: collect_leaf_stats(leaf.sibling(f), ts)
             for f, ts in by_field.items()})


def sum_stats(partials) -> tuple[dict, dict]:
    """Roll :func:`leaf_stats` partials (or earlier roll-ups) up by summing
    df and ttf per term."""
    agg: dict[str, tuple[int, int]] = {}
    fagg: dict[str, dict[str, tuple[int, int]]] = {}

    def add(dst, src):
        for t, (df, ttf) in src.items():
            cur = dst.get(t, (0, 0))
            dst[t] = (cur[0] + df, cur[1] + ttf)

    for p, fp in partials:
        add(agg, p)
        for f, fstats in fp.items():
            add(fagg.setdefault(f, {}), fstats)
    return agg, fagg


def make_context(manifest: dict, partials,
                 similarity: str = "bm25") -> SearchContext:
    """The broadcastable SearchContext: collection stats from the manifest
    plus the rolled-up term stats of ``partials``."""
    st = manifest["stats"]
    coll = bm25.CollectionStats(st["max_doc"], st["sum_total_term_freq"])
    field_colls = {
        name: bm25.CollectionStats(st["max_doc"], fs["sum_total_term_freq"])
        for name, fs in st.get("fields", {}).items()
    }
    agg, fagg = sum_stats(partials)
    return SearchContext(coll, agg, similarity, field_colls=field_colls,
                         field_term_stats=fagg)


@ray.remote
def _leaf_stats_task(
    index_dir: str, rows: list[dict], terms: list[str],
    field_terms: list[tuple[str, str]] = (),
) -> tuple[dict, dict]:
    return sum_stats(leaf_stats(open_leaf(index_dir, row), terms, field_terms)
                     for row in rows)


@ray.remote
def _vs_toplevel_task(index_dir: str, rows: list[dict], scale_specs: list,
                      ord_fields: list[str], ctx) -> tuple[list, dict]:
    """Per-leaf partials for value-source top-level state: (min, max) per
    Scale source (evaluated over ALL leaf docs, the scaleInfo walk) and the
    sorted value dict per Ord field."""
    from ..functions import valuesource as vsrc

    mins = [None] * len(scale_specs)
    maxs = [None] * len(scale_specs)
    dicts: dict[str, set] = {f: set() for f in ord_fields}
    for row in rows:
        leaf = open_leaf(index_dir, row)
        docs = np.arange(leaf.num_docs, dtype=np.int64)
        for i, src in enumerate(scale_specs):
            v = vsrc.evaluate(src, leaf, ctx, docs)
            if len(v):
                lo, hi = float(v.min()), float(v.max())
                mins[i] = lo if mins[i] is None else min(mins[i], lo)
                maxs[i] = hi if maxs[i] is None else max(maxs[i], hi)
        for f in ord_fields:
            _ords, vals = leaf.dv_sorted(f)
            dicts[f] |= {str(x) for x in vals}
    return list(zip(mins, maxs)), {f: sorted(v) for f, v in dicts.items()}


def _resolve_vs_toplevel(index_dir: str, manifest: dict, qitems, ctx):
    """Resolve Scale (global min/max) and Ord/ReverseOrd (composite-reader
    ordinal map) value-source nodes before leaves execute — the engine's
    analogue of ScaleFloatFunction.createWeight's scaleInfo and the
    top-level FieldCache getTermsIndex view. No-op unless the query set
    contains unresolved nodes."""
    import dataclasses

    from ..functions import valuesource as vsrc

    # 1) find unresolved nodes
    scale_specs: list = []
    ord_fields: list[str] = []

    def scan_vs(vs):
        if isinstance(vs, vsrc.Scale):
            scan_vs(vs.source)
            if vs._bounds is None and not vsrc.needs_toplevel(vs.source):
                if vs.source not in scale_specs:
                    scale_specs.append(vs.source)
        elif isinstance(vs, (vsrc.Ord, vsrc.ReverseOrd)):
            if vs._global is None and vs.field not in ord_fields:
                ord_fields.append(vs.field)
        else:
            for c in vsrc._children(vs):
                scan_vs(c)

    def scan_q(q):
        vs = value_source(q)
        if vs is not None:
            scan_vs(vs)
        for c in subqueries(q):
            scan_q(c)

    for _, q in qitems:
        scan_q(q)
    if not scale_specs and not ord_fields:
        return qitems

    # 2) one control-plane pass over the leaves (gather_stats shape)
    items = mf.leaf_rows(index_dir, manifest)
    parts = map_leaves(_vs_toplevel_task, index_dir, items, scale_specs,
                       ord_fields, ctx)
    bounds: list = [(None, None)] * len(scale_specs)
    vals: dict[str, set] = {f: set() for f in ord_fields}
    for sb, od in parts:
        for i, (lo, hi) in enumerate(sb):
            if lo is None:
                continue
            clo, chi = bounds[i]
            bounds[i] = (lo if clo is None else min(clo, lo),
                         hi if chi is None else max(chi, hi))
        for f, vv in od.items():
            vals[f] |= set(vv)
    scale_of = {src: b for src, b in zip(scale_specs, bounds)}
    # global ordinal map: per-leaf arrays mapping leaf ord -> global ord
    ord_global: dict[str, tuple] = {}
    if ord_fields:
        # a second tiny pass per leaf dict is avoided: recompute the
        # per-leaf mapping lazily with searchsorted against the union
        union_of = {f: np.array(sorted(v), dtype=object) for f, v in
                    vals.items()}
        for f in ord_fields:
            union = union_of[f]
            per_leaf = []
            for row in items:
                leaf = open_leaf(index_dir, row)
                _o, lv = leaf.dv_sorted(f)
                lv = np.array([str(x) for x in lv], dtype=object)
                per_leaf.append(np.searchsorted(union, lv).astype(np.int64))
            ord_global[f] = (per_leaf, len(union))

    # 3) rebuild the trees with resolved nodes
    def fix_vs(vs):
        if isinstance(vs, (vsrc.Ord, vsrc.ReverseOrd)) and vs._global is None:
            return dataclasses.replace(vs, _global=ord_global[vs.field])
        fixed = vsrc.map_children(vs, fix_vs)
        b = scale_of.get(vs.source) if isinstance(vs, vsrc.Scale) else None
        if b and b[0] is not None:
            fixed = dataclasses.replace(fixed, _bounds=b)
        return fixed

    def fix_q(q):
        q = map_subqueries(q, fix_q)
        vs = value_source(q)
        if vs is None:
            return q
        return dataclasses.replace(q, **{VALUE_SOURCE_FIELD[type(q)]:
                                         fix_vs(vs)})

    return [(qid, fix_q(q)) for qid, q in qitems]


def _collect(q: Query, pick, out: list) -> list:
    """Append ``pick(node)`` for every node of ``q``'s tree to ``out``
    (pre-order, duplicates and None skipped) -> ``out``."""
    n = pick(q)
    if n is not None and n not in out:
        out.append(n)
    for c in subqueries(q):
        _collect(c, pick, out)
    return out


def _common_to_bool(q: CommonTermsQuery, dfs: dict[str, int],
                    max_doc: int) -> BooleanQuery:
    """CommonTermsQuery.rewrite against global df stats (buildQuery,
    ``queries/CommonTermsQuery.java:139-188``)."""
    import math

    if q.field is not None:
        raise NotImplementedError(
            "CommonTermsQuery rewrite is default-field only")
    if q.max_term_frequency >= 1.0:
        cutoff = q.max_term_frequency
    else:
        cutoff = math.ceil(q.max_term_frequency * max_doc)
    low = [t for t in q.terms if dfs.get(t, 0) <= cutoff]
    high = [t for t in q.terms if dfs.get(t, 0) > cutoff]
    lowb = BooleanQuery(
        tuple(BooleanClause(q.low_freq_occur, TermQuery(t, field=q.field))
              for t in low),
        q.low_freq_msm, 1.0)
    highb = BooleanQuery(
        tuple(BooleanClause(q.high_freq_occur, TermQuery(t, field=q.field))
              for t in high),
        0, 1.0)
    if not high:
        return BooleanQuery(lowb.clauses, q.low_freq_msm, q.boost)
    if not low:
        return BooleanQuery(highb.clauses, 0, q.boost)
    return BooleanQuery(
        (BooleanClause(MUST, lowb), BooleanClause(SHOULD, highb)),
        0, q.boost)


def rewrite_common_terms(
    index_dir: str, manifest: dict, qitems: list[tuple[int, Query]]
) -> list[tuple[int, Query]]:
    """Rewrite every CommonTermsQuery against the GLOBAL df stats (one
    control-plane stats pass shared by all of them)."""
    ctqs: list[CommonTermsQuery] = []
    for _, q in qitems:
        _collect(q, lambda n: n if isinstance(n, CommonTermsQuery) else None,
                 ctqs)
    if not ctqs:
        return qitems
    terms = sorted({t for q in ctqs for t in q.terms})
    ctx = gather_stats(index_dir, manifest, terms)
    dfs = {t: st[0] for t, st in ctx.term_stats.items()}
    repl = {q: _common_to_bool(q, dfs, ctx.coll.max_doc) for q in ctqs}
    return [(qid, _substitute(q, repl)) for qid, q in qitems]


def _substitute(q: Query, repl: dict) -> Query:
    """``q`` with each scoring MultiTermQuery and CommonTermsQuery replaced
    by its rewrite in ``repl``, and each SpanMultiTermQueryWrapper by a
    SpanOrQuery over its query's expansion."""
    if isinstance(q, SpanMultiTermQueryWrapper):
        exp = repl.get(q.query)
        if exp is None:
            return q
        return SpanOrQuery(tuple(
            SpanTermQuery(c.query.term, field=c.query.field)
            for c in exp.clauses), q.boost)
    if isinstance(q, CommonTermsQuery) or rewrite_target(q) is q:
        return repl.get(q, q)
    return map_subqueries(q, lambda c: _substitute(c, repl))


def expansion_to_bool(q, terms: dict[str, int]) -> BooleanQuery:
    """SCORING_BOOLEAN_QUERY_REWRITE: matched terms -> SHOULD TermQueries.
    Fuzzy terms carry the similarity boost ``1 - ed/min(|t|,|q|)`` in float32
    (exact match 1.0 — ``search/FuzzyTermsEnum.java:361-371``); the
    ``max_expansions`` highest-boost terms are kept (TopTermsRewrite) and
    clauses are ordered term-ascending (the deterministic float32 contract)."""
    F = np.float32
    scored: list[tuple[str, float]] = []
    for t, ed in sorted(terms.items()):
        if isinstance(q, FuzzyQuery) and ed > 0:
            m = min(len(t), len(q.term))
            boost = float(F(F(1.0) - F(F(ed) / F(m))))
        else:
            boost = 1.0
        scored.append((t, boost))
    scored.sort(key=lambda x: (-x[1], x[0]))
    scored = sorted(scored[: q.max_expansions])  # cap, then term order
    return BooleanQuery(
        tuple(BooleanClause(SHOULD, TermQuery(t, boost=b, field=q.field))
              for t, b in scored),
        0, q.boost)


@ray.remote
def _leaf_expand_task(index_dir: str, rows: list[dict], mtqs: list) -> list[dict]:
    out: list[dict[str, int]] = [dict() for _ in mtqs]
    for row in rows:
        leaf = open_leaf(index_dir, row)
        for i, q in enumerate(mtqs):
            for t, ed in collect_mtq_terms(leaf, q).items():
                cur = out[i].get(t)
                if cur is None or ed < cur:
                    out[i][t] = ed
    return out


def rewrite_queries(
    index_dir: str, manifest: dict, qitems: list[tuple[int, Query]]
) -> list[tuple[int, Query]]:
    """Expand every scoring MultiTermQuery against the WHOLE index (one
    fan-out over the leaves, all MTQs batched) and substitute the SHOULD
    BooleanQuery expansions — IndexSearcher.rewrite against global vocab."""
    mtqs: list = []
    for _, q in qitems:
        _collect(q, rewrite_target, mtqs)
    if not mtqs:
        return qitems
    union = _expand_queries_globally(index_dir, manifest, mtqs)
    repl = {q: expansion_to_bool(q, union[i]) for i, q in enumerate(mtqs)}
    return [(qid, _substitute(q, repl)) for qid, q in qitems]


def _expand_queries_globally(index_dir: str, manifest: dict,
                             mtqs: list) -> "list[dict[str, int]]":
    """Union {term: min edit distance} per MTQ across every leaf (the
    shared fan-out of rewrite_queries and fuzzy_like_this)."""
    partials = map_leaves(_leaf_expand_task, index_dir,
                          mf.leaf_rows(index_dir, manifest), mtqs)
    union: list[dict[str, int]] = [dict() for _ in mtqs]
    for p in partials:
        for i, d in enumerate(p):
            for t, ed in d.items():
                cur = union[i].get(t)
                if cur is None or ed < cur:
                    union[i][t] = ed
    return union


def gather_stats(
    index_dir: str, manifest: dict, terms: Sequence[str],
    similarity: str = "bm25",
    field_terms: Sequence[tuple[str, str]] = (),
) -> SearchContext:
    """Stats pass + roll-up -> broadcastable SearchContext.

    This is control-plane work (a handful of term-dict lookups per leaf), so
    it runs as plain Ray tasks rather than a Dataset execution — the Dataset
    machinery's fixed scheduling cost dwarfs the lookups themselves. The
    summed result is the ShardSearchingTestBase stats-exchange payload."""
    terms = sorted(set(terms))
    field_terms = sorted(set(field_terms))
    partials = []
    if terms or field_terms:
        partials = map_leaves(_leaf_stats_task, index_dir,
                              mf.leaf_rows(index_dir, manifest), terms,
                              field_terms)
    return make_context(manifest, partials, similarity)


def plan_queries(
    index_dir: str, manifest: dict,
    queries: Sequence[Query] | dict[int, Query], gather=gather_stats,
) -> tuple[list[tuple[int, Query]], SearchContext]:
    """The plan every pass over the leaves runs before it executes a query,
    whatever its transport (IndexSearcher.search: rewrite, then weights
    from collection stats): scoring-MultiTermQuery rewrite, CommonTermsQuery
    rewrite, the stats exchange ``gather(index_dir, manifest, terms,
    field_terms=...) -> SearchContext``, then top-level value-source
    resolution. -> (qid-sorted planned items, context); callers execute
    the PLANNED queries."""
    if not isinstance(queries, dict):
        queries = dict(enumerate(queries))
    qitems = rewrite_common_terms(index_dir, manifest, rewrite_queries(
        index_dir, manifest, sorted(queries.items())))
    pairs = set().union(*(collect_stats_terms(q) for _, q in qitems))
    ctx = gather(index_dir, manifest, sorted(t for f, t in pairs if f is None),
                 field_terms=sorted(p for p in pairs if p[0] is not None))
    return _resolve_vs_toplevel(index_dir, manifest, qitems, ctx), ctx


def search(
    index_dir: str,
    queries: Sequence[Query] | dict[int, Query],
    k: int = 10,
    *,
    algo: str = "exhaustive",
    similarity: str = "bm25",
    time_limit_s: float | None = None,
) -> pa.Table:
    """Run a batch of queries -> table (qid, rank[1-based], docid, score,
    total_hits), rank-ordered per qid with TopDocs.merge tie semantics.
    ``algo`` accepts "exhaustive" and "wand"; both run the same exact scorer.

    ``time_limit_s`` enables TimeLimitingCollector semantics
    (``search/TimeLimitingCollector.java:33,160``): collection stops when
    the wall clock passes the deadline and the PARTIAL results collected so
    far are returned, with a ``timed_out`` bool column appended (the
    TimeExceededException signal). The engine's collection unit is one
    (leaf x query) pass, so the abort lands between units — the greedy
    mode's keep-current-work contract at this granularity."""
    manifest = mf.read_index_manifest(index_dir)
    qitems, ctx = plan_queries(
        index_dir, manifest, queries,
        functools.partial(gather_stats, similarity=similarity))

    # fan out over (leaf × query-chunk) so few-shard indexes still parallelize
    n_chunks = max(1, min(len(qitems) // 8, 16))
    bounds = np.linspace(0, len(qitems), n_chunks + 1).astype(int)
    work = [(row, int(bounds[c]), int(bounds[c + 1]))
            for row in mf.leaf_rows(index_dir, manifest)
            for c in range(n_chunks)]
    deadline = (_time.time() + time_limit_s
                if time_limit_s is not None else None)
    # queries/ctx ride one object ref each (one plasma get per task)
    queries_ref, ctx_ref = ray.put(qitems), ray.put(ctx)
    parts = map_leaves(_score_task, index_dir, work, queries_ref, ctx_ref, k,
                       deadline)
    tbl = merge_top_docs(parts, k)
    if time_limit_s is not None:
        timed_out = any(bool((p["qid"] == -1).any()) for p in parts)
        tbl = tbl.append_column(
            "timed_out", pa.array([timed_out] * tbl.num_rows, pa.bool_()))
    return tbl


def fetch_doc_meta(index_dir: str, docids: Sequence[int]) -> pa.Table:
    """Stored-fields retrieval for a (small) set of global docIDs: read only
    the leaves that contain them, take local rows."""
    leaves = mf.leaf_rows(index_dir, mf.read_index_manifest(index_dir))
    bases = np.array([l["doc_base"] for l in leaves], dtype=np.int64)
    ids = np.asarray(sorted(set(int(d) for d in docids)), dtype=np.int64)
    leaf_idx = np.searchsorted(bases, ids, side="right") - 1
    tables = []
    import pyarrow.parquet as pq

    for li in np.unique(leaf_idx):
        l = leaves[int(li)]
        local = ids[leaf_idx == li] - l["doc_base"]
        dm = pq.read_table(os.path.join(index_dir, l["dir"], "docmap.parquet"))
        t = dm.take(pa.array(local))
        t = t.append_column("docid", pa.array(local + l["doc_base"], pa.int64()))
        tables.append(t)
    return pa.concat_tables(tables) if tables else pa.table({"docid": pa.array([], pa.int64())})


@ray.remote(num_cpus=1)
def _rtg_leaf_task(index_dir: str, leaves: list[dict], ids: list,
                   key_field: str) -> "pa.Table":
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    tables = []
    for l in leaves:
        path = os.path.join(index_dir, l["dir"], "docmap.parquet")
        t = pq.read_table(path, filters=[(key_field, "in", ids)])
        if t.num_rows == 0:
            continue
        # local row ordinal == docmap row position; recover it with a
        # second bounded read of just the key column (positions align)
        keys = pq.read_table(path, columns=[key_field])[key_field]
        local = np.flatnonzero(pc.is_in(
            keys, pa.array(ids, keys.type)).to_numpy(zero_copy_only=False))
        if l["deletes"]:
            live = np.load(l["deletes"])
            keep = live[local]
            t, local = t.filter(pa.array(keep)), local[keep]
        if t.num_rows:
            t = t.append_column(
                "docid", pa.array(local + l["doc_base"], pa.int64()))
            tables.append(t)
    return pa.concat_tables(tables) if tables else None


def real_time_get(
    index_dir: str, ids: Sequence, *,
    key_field: str = "doc_id", fields: Sequence[str] | None = None,
) -> pa.Table:
    """Re-expresses (NOT ports) Solr's RealTimeGetComponent (``solr/core/
    src/java/org/apache/solr/handler/component/RealTimeGetComponent.java``,
    the ``/get?ids=...`` handler): fetch the LATEST live version of each
    document by unique key. The reference consults the update log before
    the searcher; this engine's update protocol is manifest generations
    (updateDocument = tombstone + re-add publishing a new generation,
    ``pipelines/deletes.py``), so the newest manifest IS the realtime
    view — tombstoned versions are masked through liveDocs and, if a key
    was re-added without a delete, the highest global docID (the newest
    segment) wins, matching the reference's last-writer semantics.

    Scale shape: a k-bounded retrieval, never a scan — per leaf one
    key-predicate docmap read (row-group stats prune) fanned as plain Ray
    tasks (control-plane work, same shape as gather_stats), then a tiny
    driver reduce. Returns rows in REQUESTED id order (the /get response
    contract); missing or deleted ids simply don't appear.
    """
    leaves = mf.leaf_rows(index_dir, mf.read_index_manifest(index_dir))
    req = list(dict.fromkeys(ids))
    parts = [t for t in map_leaves(_rtg_leaf_task, index_dir, leaves, req,
                                   key_field) if t is not None]
    if not parts:
        return pa.table({key_field: pa.array([]),
                         "docid": pa.array([], pa.int64())})
    allt = pa.concat_tables(parts).to_pandas()
    # last-writer-wins: keep the highest global docid per key, then the
    # requested order
    allt = (allt.sort_values("docid").groupby(key_field, as_index=False)
            .last())
    pos = {v: i for i, v in enumerate(req)}
    allt = allt.sort_values(key_field,
                            key=lambda c: c.map(pos)).reset_index(drop=True)
    if fields is not None:
        keep = [key_field] + [f for f in fields if f != key_field]
        keep += ["docid"] if "docid" not in keep else []
        allt = allt[[c for c in keep if c in allt.columns]]
    return pa.Table.from_pandas(allt, preserve_index=False)


def fetch_term_vectors(index_dir: str, docids: Sequence[int]) -> pa.Table:
    """Term-vector retrieval (IndexReader.getTermVector analogue) for a
    (small) set of global docIDs -> (docid, term, freq, positions).

    Reads ONLY the tv.parquet sidecars of the leaves containing the docs,
    with a doc-range predicate — the sidecar is doc-major-sorted, so
    parquet row-group stats prune the read to the touched groups. Requires
    the index to have been built with ``store_term_vectors=True``."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    leaves = mf.leaf_rows(index_dir, mf.read_index_manifest(index_dir))
    bases = np.array([l["doc_base"] for l in leaves], dtype=np.int64)
    ids = np.asarray(sorted(set(int(d) for d in docids)), dtype=np.int64)
    leaf_idx = np.searchsorted(bases, ids, side="right") - 1
    tables = []
    for li in np.unique(leaf_idx):
        l = leaves[int(li)]
        path = os.path.join(index_dir, l["dir"], "tv.parquet")
        if not os.path.exists(path):
            raise ValueError(
                "index was built without term vectors "
                "(CorpusSpec.store_term_vectors=True)")
        local = ids[leaf_idx == li] - l["doc_base"]
        t = pq.read_table(
            path, filters=[("doc", ">=", int(local.min())),
                           ("doc", "<=", int(local.max()))])
        t = t.filter(pc.is_in(t["doc"], pa.array(local.astype(np.int32))))
        docid = pc.add(t["doc"].cast(pa.int64()), l["doc_base"])
        cols = {"docid": docid, "term": t["term"], "freq": t["freq"],
                "positions": t["positions"]}
        if "start_offsets" in t.column_names:  # WITH_POSITIONS_OFFSETS build
            cols["start_offsets"] = t["start_offsets"]
            cols["end_offsets"] = t["end_offsets"]
        tables.append(pa.table(cols))
    if not tables:
        return pa.table({"docid": pa.array([], pa.int64()),
                         "term": pa.array([], pa.string()),
                         "freq": pa.array([], pa.int32()),
                         "positions": pa.array([], pa.list_(pa.int32()))})
    return pa.concat_tables(tables)


def search_elevated(
    index_dir: str,
    query,
    elevate: "Sequence[int]",
    exclude: "Sequence[int]" = (),
    k: int = 10,
    force: bool = True,
) -> pa.Table:
    """Re-expresses (NOT ports) Solr's QueryElevationComponent
    (``solr/core/src/java/org/apache/solr/handler/component/
    QueryElevationComponent.java``): editorial overrides on top of the
    organic ranking — the configured ``elevate`` docIDs sort FIRST in
    config order (the ElevationComparatorSource priority sort), the
    ``exclude`` docIDs never return, and with ``force`` (forceElevation)
    elevated docs appear even when the query does not match them (score
    null, the reference's unscored force-include).  Organic results fill
    the remaining slots in BM25 order.  -> (rank, docid, score, elevated).
    """
    elevate = [int(d) for d in elevate]
    exclude = {int(d) for d in exclude}
    res = search(index_dir, {0: query},
                 k=k + len(elevate) + len(exclude)).to_pandas()
    score_of = dict(zip(res["docid"].astype(int),
                        res["score"].astype(float)))
    rows = []
    seen = set()
    for d in elevate:
        if d in exclude or d in seen:
            continue
        if d in score_of:
            rows.append((d, score_of[d], True))
            seen.add(d)
        elif force:
            rows.append((d, None, True))
            seen.add(d)
    for d, s in zip(res["docid"].astype(int), res["score"].astype(float)):
        if len(rows) >= k:
            break
        if d in seen or d in exclude:
            continue
        rows.append((d, s, False))
        seen.add(d)
    rows = rows[:k]
    return pa.table({
        "rank": pa.array(range(1, len(rows) + 1), pa.int64()),
        "docid": pa.array([r[0] for r in rows], pa.int64()),
        "score": pa.array([r[1] for r in rows], pa.float32()),
        "elevated": pa.array([r[2] for r in rows], pa.bool_()),
    })
