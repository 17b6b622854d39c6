"""Solr StatsComponent + pivot facets as Ray Data partial aggregates.

Re-expresses (NOT ports) two Solr analytics components over the engine's
distributed leaf passes:

- ``solr/core/src/java/org/apache/solr/handler/component/StatsValues
  Factory.java`` (NumericStatsValues): per numeric field over the query's
  match set — count, missing, min, max, sum, sumOfSquares, mean =
  sum/count, stddev = sqrt((count*sumOfSquares - sum^2)/(count*(count-1)))
  (``getStandardDeviation``, StatsValuesFactory.java:308), optionally
  FACETED by other fields (``stats.facet``: the same stats per facet
  value; accumulate() merges partials exactly as here).
- ``solr/core/src/java/org/apache/solr/handler/component/PivotFacetHelper
  .java`` (``facet.pivot=f1,f2,...``): hierarchical value counts — per
  level the values order by count desc (ties by value, the index order of
  facet.sort=count), ``mincount``/``limit`` apply per level, and each
  selected parent constrains the next level's doc set (``doPivots``'
  recursive subset). Missing values never emit a pivot row
  (facet.missing=false default) but parents still count docs whose child
  value is missing.

Scale shape: one vectorized pass per leaf; partials are (facet value ->
count/sum/min/max/...) rows — bounded by the value-dictionary size, never
by the match set — and a tiny driver reduce finishes. Sums and sums of
squares accumulate in int64 when the doc values are integral, so the
derived doubles (mean/stddev) are bit-deterministic across any partition
layout.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from ..queries import Query
from ..state import manifest as mf
from .search import gather_stats, leaf_dataset, open_leaf, plan_queries
from ..stages.search import execute


def field_stats(
    index_dir: str, query: Query, field: str,
    facet_field: str | None = None,
) -> pa.Table:
    """StatsComponent stats for one NUMERIC doc-values ``field`` over the
    query match set; with ``facet_field``, one row per facet value PLUS
    the overall row (facet_value = '') — the stats.facet response shape.

    -> (facet_value, count, missing, min, max, sum, sum_sq, mean, stddev),
    sorted by facet_value with the overall row first.
    """
    manifest = mf.read_index_manifest(index_dir)
    [(_, query)], ctx = plan_queries(index_dir, manifest, [query])
    ctx_ref = ray.put(ctx)
    bcast = ray.put((query, field, facet_field))

    def leaf_stats(batch: pd.DataFrame) -> pd.DataFrame:
        q, fld, facet = ray.get(bcast)
        ctx_l = ray.get(ctx_ref)
        frames = []
        for row in batch.to_dict("records"):
            leaf = open_leaf(index_dir, row)
            docids, _ = execute(q, leaf, ctx_l)
            if len(docids) == 0:
                continue
            vals = pd.Series(leaf.doc_values(fld, docids))
            present = vals.notna().to_numpy()
            keys = (pd.Series(leaf.doc_values(facet, docids))
                    .fillna("(missing)").astype(str)
                    if facet else pd.Series(np.repeat("", len(docids))))
            df = pd.DataFrame({"k": keys, "present": present})
            v = pd.to_numeric(vals.where(pd.Series(present)), errors="coerce")
            # integral doc values accumulate exactly in int64
            iv = v.fillna(0).to_numpy(dtype=np.int64)
            df["s"] = np.where(present, iv, 0)
            df["ss"] = np.where(present, iv * iv, 0)
            df["mn"] = np.where(present, iv, np.iinfo(np.int64).max)
            df["mx"] = np.where(present, iv, np.iinfo(np.int64).min)
            g = df.groupby("k", sort=False).agg(
                count=("present", "sum"), missing=("present", "size"),
                s=("s", "sum"), ss=("ss", "sum"),
                mn=("mn", "min"), mx=("mx", "max")).reset_index()
            g["missing"] = g["missing"] - g["count"]
            if facet:
                # every leaf also contributes the overall ('') partial
                tot = g.drop(columns="k").agg({
                    "count": "sum", "missing": "sum", "s": "sum",
                    "ss": "sum", "mn": "min", "mx": "max"})
                frames.append(pd.DataFrame([{"k": "", **tot.to_dict()}]))
            frames.append(g)
        if not frames:
            return pd.DataFrame({
                "k": pd.Series([], dtype=str),
                "count": pd.Series([], dtype=np.int64),
                "missing": pd.Series([], dtype=np.int64),
                "s": pd.Series([], dtype=np.int64),
                "ss": pd.Series([], dtype=np.int64),
                "mn": pd.Series([], dtype=np.int64),
                "mx": pd.Series([], dtype=np.int64)})
        return pd.concat(frames, ignore_index=True)

    ds = leaf_dataset(index_dir, manifest)
    partials = ds.map_batches(leaf_stats, batch_format="pandas",
                              batch_size=4).to_pandas()
    if len(partials) == 0:
        partials = pd.DataFrame({"k": [""], "count": [0], "missing": [0],
                                 "s": [0], "ss": [0],
                                 "mn": [np.iinfo(np.int64).max],
                                 "mx": [np.iinfo(np.int64).min]})
    merged = partials.groupby("k").agg(
        count=("count", "sum"), missing=("missing", "sum"),
        s=("s", "sum"), ss=("ss", "sum"),
        mn=("mn", "min"), mx=("mx", "max")).reset_index()

    def _std(c: int, s: int, ss: int) -> float:
        # StatsValuesFactory.getStandardDeviation: 0.0 when count <= 1
        if c <= 1:
            return 0.0
        return math.sqrt((c * float(ss) - float(s) * float(s))
                         / (c * (c - 1.0)))

    merged = merged.sort_values("k").reset_index(drop=True)
    c = merged["count"].to_numpy(dtype=np.int64)
    s = merged["s"].to_numpy(dtype=np.int64)
    ss = merged["ss"].to_numpy(dtype=np.int64)
    return pa.table({
        "facet_value": pa.array(merged["k"].tolist(), pa.string()),
        "count": pa.array(c, pa.int64()),
        "missing": pa.array(merged["missing"].to_numpy(np.int64)),
        "min": pa.array([int(v) if n else None
                         for v, n in zip(merged["mn"], c)], pa.int64()),
        "max": pa.array([int(v) if n else None
                         for v, n in zip(merged["mx"], c)], pa.int64()),
        "sum": pa.array(s, pa.int64()),
        "sum_sq": pa.array(ss, pa.int64()),
        "mean": pa.array([float(si) / ci if ci else None
                          for si, ci in zip(s, c)], pa.float64()),
        "stddev": pa.array([_std(int(ci), int(si), int(ssi)) if ci else None
                            for ci, si, ssi in zip(c, s, ss)], pa.float64()),
    })


def pivot_facets(
    index_dir: str, query: Query, fields: list[str],
    mincount: int = 1, limit: int = 100,
) -> pa.Table:
    """``facet.pivot`` over SORTED doc-values fields.  One leaf pass counts
    full value tuples (missing child encoded separately so parent counts
    stay faithful); the driver reduce applies per-level (count desc, value
    asc) ordering with ``mincount``/``limit``, each selected parent
    constraining its children — PivotFacetHelper.doPivots' recursion over
    pre-aggregated tuple counts instead of per-value DocSet intersections.

    -> one row per selected LEAF tuple: the field columns, each level's
    count (``<field>_count``), and the leaf ``count`` (== the last level's
    count) — the nested NamedList response flattened.
    """
    if not fields:
        raise ValueError("pivot_facets needs at least one field")
    manifest = mf.read_index_manifest(index_dir)
    [(_, query)], ctx = plan_queries(index_dir, manifest, [query])
    ctx_ref = ray.put(ctx)
    bcast = ray.put((query, list(fields)))
    _MISS = "\x00missing"

    def leaf_counts(batch: pd.DataFrame) -> pd.DataFrame:
        q, flds = ray.get(bcast)
        ctx_l = ray.get(ctx_ref)
        frames = []
        for row in batch.to_dict("records"):
            leaf = open_leaf(index_dir, row)
            docids, _ = execute(q, leaf, ctx_l)
            if len(docids) == 0:
                continue
            df = pd.DataFrame({
                f: pd.Series(leaf.doc_values(f, docids)).fillna(_MISS)
                .astype(str) for f in flds})
            g = df.groupby(flds, sort=False).size().rename("count")
            frames.append(g.reset_index())
        if not frames:
            return pd.DataFrame({**{f: pd.Series([], dtype=str)
                                    for f in flds},
                                 "count": pd.Series([], dtype=np.int64)})
        return pd.concat(frames, ignore_index=True)

    ds = leaf_dataset(index_dir, manifest)
    partials = ds.map_batches(leaf_counts, batch_format="pandas",
                              batch_size=4).to_pandas()
    if len(partials) == 0:
        cols = {f: pa.array([], pa.string()) for f in fields}
        cols.update({f"{f}_count": pa.array([], pa.int64())
                     for f in fields[:-1]})
        cols["count"] = pa.array([], pa.int64())
        return pa.table(cols)
    tuples = partials.groupby(fields, sort=False)["count"].sum().reset_index()

    def select(level: int, subset: pd.DataFrame) -> pd.DataFrame:
        """Recursive per-level selection over the tuple counts."""
        f = fields[level]
        counts = (subset.groupby(f)["count"].sum().reset_index()
                  .rename(columns={"count": "_c"}))
        counts = counts[counts[f] != _MISS]
        counts = counts[counts["_c"] >= mincount]
        counts = counts.sort_values(["_c", f],
                                    ascending=[False, True]).head(limit)
        rows = []
        for val, cnt in zip(counts[f], counts["_c"]):
            if level == len(fields) - 1:
                rows.append(pd.DataFrame({f: [val], "count": [int(cnt)]}))
                continue
            child = select(level + 1, subset[subset[f] == val])
            if len(child) == 0:
                continue
            child.insert(0, f"{f}_count", int(cnt))
            child.insert(0, f, val)
            rows.append(child)
        if not rows:
            return pd.DataFrame()
        return pd.concat(rows, ignore_index=True)

    out = select(0, tuples)
    if len(out) == 0:
        cols = {f: pa.array([], pa.string()) for f in fields}
        cols.update({f"{f}_count": pa.array([], pa.int64())
                     for f in fields[:-1]})
        cols["count"] = pa.array([], pa.int64())
        return pa.table(cols)
    return pa.Table.from_pandas(out, preserve_index=False)


def terms_component(
    index_dir: str, field: str | None = None, *,
    prefix: str | None = None, regex: str | None = None,
    lower: str | None = None, upper: str | None = None,
    include_lower: bool = True, include_upper: bool = True,
    mincount: int = 1, maxcount: int | None = None,
    limit: int = 10, sort: str = "count",
) -> pa.Table:
    """Solr TermsComponent (``solr/core/src/java/org/apache/solr/handler/
    component/TermsComponent.java``): enumerate a field's indexed terms
    with their docFreq — ``terms.prefix`` / ``terms.regex`` (full-match) /
    ``terms.lower``/``terms.upper`` bounds with include flags, then
    ``terms.mincount``/``terms.maxcount`` and ``terms.limit`` under
    ``terms.sort`` = ``count`` (df desc, term asc) or ``index`` (term asc).

    Scale shape: one column-pruned Dataset read over the segments' term
    dictionaries, every term predicate applied vectorized BEFORE the
    df-sum shuffle (only surviving terms move), then k-bounded per-block
    partials reduce exactly on the driver (df sums complete post-groupby,
    so mincount/maxcount filter full counts).  -> (term, df).
    """
    import os

    from ray.data.aggregate import Sum

    man = mf.read_index_manifest(index_dir)
    fname = "terms.parquet" if field is None else f"F.{field}.terms.parquet"
    files = [os.path.join(index_dir, s["dir"], fname)
             for s in man["segments"]]
    files = [f for f in files if os.path.exists(f)]
    if not files:
        return pa.table({"term": pa.array([], pa.string()),
                         "df": pa.array([], pa.int64())})
    ds = ray.data.read_parquet(files, columns=["term", "df"])

    anchored = f"^(?:{regex})$" if regex is not None else None

    def pre_filter(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        t = batch["term"]
        if t.type != pa.string() and t.type != pa.large_string():
            t = t.cast(pa.string())
            batch = batch.set_column(batch.schema.get_field_index("term"),
                                     "term", t)
        m = pa.array(np.ones(batch.num_rows, dtype=bool))
        if prefix is not None:
            m = pc.and_(m, pc.starts_with(t, prefix))
        if anchored is not None:
            m = pc.and_(m, pc.match_substring_regex(t, anchored))
        if lower is not None:
            cmp = pc.greater_equal if include_lower else pc.greater
            m = pc.and_(m, cmp(t, lower))
        if upper is not None:
            cmp = pc.less_equal if include_upper else pc.less
            m = pc.and_(m, cmp(t, upper))
        return batch.filter(m)

    ds = ds.map_batches(pre_filter, batch_format="pyarrow")
    merged = ds.groupby("term").aggregate(Sum("df", alias_name="df"))

    def partial_topk(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch[batch["df"] >= mincount]
        if maxcount is not None:
            b = b[b["df"] <= maxcount]
        if sort == "count":
            b = b.sort_values(["df", "term"], ascending=[False, True])
        else:
            b = b.sort_values("term")
        return b.head(limit)

    parts = merged.map_batches(partial_topk,
                               batch_format="pandas").to_pandas()
    out = partial_topk(parts).reset_index(drop=True)
    return pa.table({"term": pa.array(out["term"].tolist(), pa.string()),
                     "df": pa.array(out["df"].to_numpy(np.int64))})


def term_vector_component(
    index_dir: str, *,
    query: Query | None = None, k: int = 10,
    docids: "list[int] | None" = None,
    tf: bool = True, df: bool = False, tf_idf: bool = False,
    positions: bool = False, offsets: bool = False,
    tv_all: bool = False,
) -> pa.Table:
    """Solr TermVectorComponent (``solr/core/src/java/org/apache/solr/
    handler/component/TermVectorComponent.java:96-420``): per-document
    term-vector report over either an explicit ``tv.docIds`` list or the
    docList of a query's top-k hits — per (doc, term) the requested
    subset of ``tv.tf`` (freq), ``tv.positions``, ``tv.offsets``,
    ``tv.df`` (collection docFreq) and ``tv.tf_idf`` (the reference's
    ``freq / df`` double, TermVectorComponent.java:398); ``tv.all``
    switches every option on (``:164-170``).

    Scale shape: the doc set is k-bounded, so this is a retrieval path,
    not a scan — term vectors come from the doc-pruned tv.parquet
    sidecar reads (``fetch_term_vectors``: row-group predicate on the
    doc-major sort), and docFreq for the hit docs' distinct terms comes
    from the same bounded term-dict stats exchange every query uses
    (``gather_stats``), never a dictionary scan. Output rows sort by
    (docid, term) — the reference's TermsEnum order within each doc of
    the docList.
    """
    import pyarrow.compute as pc

    from .search import fetch_term_vectors, search

    if tv_all:
        tf = positions = offsets = df = tf_idf = True
    if docids is None:
        if query is None:
            raise ValueError("term_vector_component needs docids or a query")
        hits = search(index_dir, [query], k=k)
        docids = hits["docid"].to_pylist()
    docids = sorted(set(int(d) for d in docids))
    tvt = fetch_term_vectors(index_dir, docids)
    if offsets and "start_offsets" not in tvt.column_names:
        raise ValueError(
            "tv.offsets needs the offsets lane "
            "(CorpusSpec.store_tv_offsets=True)")
    order = pc.sort_indices(
        tvt, sort_keys=[("docid", "ascending"), ("term", "ascending")])
    tvt = tvt.take(order)

    cols: dict = {"docid": tvt["docid"], "term": tvt["term"]}
    if tf:
        cols["tf"] = tvt["freq"].cast(pa.int64())
    if positions:
        cols["positions"] = tvt["positions"]
    if offsets:
        cols["start_offsets"] = tvt["start_offsets"]
        cols["end_offsets"] = tvt["end_offsets"]
    if df or tf_idf:
        man = mf.read_index_manifest(index_dir)
        terms = sorted(set(tvt["term"].to_pylist()))
        ctx = gather_stats(index_dir, man, terms)
        dfs = np.array(
            [ctx.term_stats.get(t, (0, 0))[0]
             for t in tvt["term"].to_pylist()], dtype=np.int64)
        if df:
            cols["df"] = pa.array(dfs)
        if tf_idf:
            freqs = tvt["freq"].to_numpy().astype(np.float64)
            with np.errstate(divide="ignore", invalid="ignore"):
                cols["tf_idf"] = pa.array(
                    np.where(dfs > 0, freqs / dfs, 0.0))
    return pa.table(cols)


# --- LukeRequestHandler ------------------------------------------------------

_LUKE_POWS = 2 ** np.arange(63, dtype=np.int64)


def luke_index_info(index_dir: str) -> dict:
    """Solr LukeRequestHandler ``getIndexInfo`` (``solr/core/src/java/org/
    apache/solr/handler/admin/LukeRequestHandler.java:551-570``): top-level
    index metadata — numDocs, maxDoc, deletedDocs, segmentCount,
    hasDeletions, plus this engine's manifest generation as the ``version``
    analogue and the index root as ``directory``. Driver-only footer reads
    (manifest JSON + per-leaf liveDocs bitmaps); no data files open.
    """
    man = mf.read_index_manifest(index_dir)
    leaves = mf.leaf_rows(index_dir, man)
    max_doc = sum(l["num_docs"] for l in leaves)
    num_docs = sum(mf.live_docs(l) for l in leaves)
    deleted = max_doc - num_docs
    return {
        "numDocs": num_docs,
        "maxDoc": max_doc,
        "deletedDocs": deleted,
        "segmentCount": len(leaves),
        "hasDeletions": deleted > 0,
        "version": int(man.get("generation", 0)),
        "directory": index_dir,
    }


def luke_field_report(
    index_dir: str, field: str | None = None, *, num_terms: int = 10,
) -> dict:
    """Solr LukeRequestHandler ``getDetailedFieldInfo`` (``LukeRequest
    Handler.java:593-638``): for one indexed field — ``distinct`` (total
    term count), ``topTerms`` (the ``numTerms`` highest-docFreq terms,
    TopTermQueue ``:702-760``; ties break term-ascending here for
    determinism where the reference's PriorityQueue order is
    insertion-dependent), and the log2 docFreq ``histogram``
    (TermHistogram ``:677-698``: slot ``32 - nlz(max(0, df - 1))``,
    bucket label ``2^slot``).

    Scale shape (mirrors :func:`terms_component`): one column-pruned
    Dataset read over the segments' term dictionaries, a (term -> df-sum)
    groupby so composite docFreq matches MultiFields semantics, then each
    block emits a BOUNDED partial (its top ``num_terms`` rows + a 63-slot
    histogram + a distinct count) and the driver folds partials — nothing
    vocabulary-sized ever lands on the driver.

    Returns ``{"distinct": int, "top_terms": pa.Table(term, df),
    "histogram": pa.Table(bucket, count)}``.
    """
    import os

    from ray.data.aggregate import Sum

    man = mf.read_index_manifest(index_dir)
    from ..state.fields import fprefix

    fname = fprefix(field) + "terms.parquet"
    files = [os.path.join(index_dir, s["dir"], fname)
             for s in man["segments"]]
    files = [f for f in files if os.path.exists(f)]
    empty = {
        "distinct": 0,
        "top_terms": pa.table({"term": pa.array([], pa.string()),
                               "df": pa.array([], pa.int64())}),
        "histogram": pa.table({"bucket": pa.array([], pa.int64()),
                               "count": pa.array([], pa.int64())}),
    }
    if not files:
        return empty
    merged = (ray.data.read_parquet(files, columns=["term", "df"])
              .groupby("term").aggregate(Sum("df", alias_name="df")))

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        dfv = batch["df"].to_numpy(np.int64)
        slots = np.searchsorted(_LUKE_POWS, dfv, side="left")
        hist = np.bincount(slots, minlength=63)
        top = batch.sort_values(["df", "term"],
                                ascending=[False, True]).head(num_terms)
        rows = pd.DataFrame({
            "kind": ["top"] * len(top),
            "term": top["term"].astype(str).tolist(),
            "df": top["df"].to_numpy(np.int64),
            "slot": np.zeros(len(top), dtype=np.int64),
        })
        nz = np.nonzero(hist)[0]
        hrows = pd.DataFrame({
            "kind": ["hist"] * len(nz), "term": [""] * len(nz),
            "df": hist[nz].astype(np.int64), "slot": nz.astype(np.int64),
        })
        drow = pd.DataFrame({"kind": ["distinct"], "term": [""],
                             "df": np.array([len(batch)], dtype=np.int64),
                             "slot": np.array([0], dtype=np.int64)})
        return pd.concat([rows, hrows, drow], ignore_index=True)

    parts = merged.map_batches(partial, batch_format="pandas").to_pandas()
    if len(parts) == 0:
        return empty
    distinct = int(parts.loc[parts["kind"] == "distinct", "df"].sum())
    h = (parts[parts["kind"] == "hist"].groupby("slot")["df"].sum()
         .sort_index())
    tops = parts[parts["kind"] == "top"].sort_values(
        ["df", "term"], ascending=[False, True]).head(num_terms)
    return {
        "distinct": distinct,
        "top_terms": pa.table({
            "term": pa.array(tops["term"].tolist(), pa.string()),
            "df": pa.array(tops["df"].to_numpy(np.int64))}),
        "histogram": pa.table({
            "bucket": pa.array((_LUKE_POWS[h.index.to_numpy()]).astype(
                np.int64)),
            "count": pa.array(h.to_numpy(np.int64))}),
    }


def luke_report(index_dir: str, *, fields: "list[str | None] | None" = None,
                num_terms: int = 10) -> dict:
    """Full Luke admin report: index info + per-field detail for every
    indexed field (default content field reported under ``""``).
    ``LukeRequestHandler.java:115-160`` (handleRequestBody: index info +
    fl-selected field details)."""
    import os

    from ..state.fields import list_extra_fields

    man = mf.read_index_manifest(index_dir)
    if fields is None:
        fields = [None]
        extra: set[str] = set()
        for s in man["segments"]:
            d = os.path.join(index_dir, s["dir"])
            if os.path.isdir(d):
                extra.update(list_extra_fields(d))
        fields += sorted(extra)
    return {
        "index": luke_index_info(index_dir),
        "fields": {(f or ""): luke_field_report(index_dir, f,
                                                num_terms=num_terms)
                   for f in fields},
    }
