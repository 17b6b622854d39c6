"""Faceting / grouping / counting over query matches (reference modules
``lucene/facet`` and ``lucene/grouping`` re-expressed as Ray Data partial
aggregates).

Shapes that scale: each leaf task computes a SMALL partial (per-facet counts,
or per-group top-k rows); only partials cross the wire; the driver (or a tiny
groupby) finishes the reduction. Matching docs never materialize globally.
"""

from __future__ import annotations

import math
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from ..queries import Query
from ..stages.search import LeafSearcher, execute
from ..state import manifest as mf
from .search import leaf_dataset, open_leaf, plan_queries


def facet_counts(index_dir: str, query: Query, facet_col: str) -> pa.Table:
    """Count matching docs per value of a docmap column
    (``lucene/facet`` sorted-set counting analogue). -> (value, count)."""
    manifest = mf.read_index_manifest(index_dir)
    [(_, query)], ctx = plan_queries(index_dir, manifest, [query])
    ctx_ref = ray.put(ctx)
    q_ref = ray.put(query)

    def leaf_counts(batch: pd.DataFrame) -> pd.DataFrame:
        q = ray.get(q_ref)
        ctx_l = ray.get(ctx_ref)
        parts = []
        for row in batch.to_dict("records"):
            leaf = open_leaf(index_dir, row)
            docids, _ = execute(q, leaf, ctx_l)
            if len(docids) == 0:
                continue
            # SortedSetDocValues counting: bincount over the leaf's int32
            # ords, values looked up once from the segment dict
            ords, values = leaf.dv_sorted(facet_col)
            o = np.asarray(ords)[docids]
            o = o[o >= 0]
            cnt = np.bincount(o, minlength=len(values))
            nz = np.nonzero(cnt)[0]
            parts.append(pd.DataFrame({facet_col: values[nz],
                                       "count": cnt[nz]}))
        if not parts:
            return pd.DataFrame({facet_col: pd.Series([], dtype=object),
                                 "count": pd.Series([], dtype="int64")})
        return pd.concat(parts, ignore_index=True)

    ds = leaf_dataset(index_dir, manifest)
    partials = ds.map_batches(leaf_counts, batch_format="pandas", batch_size=4).to_pandas()
    if len(partials) == 0:
        return pa.table({facet_col: pa.array([], pa.string()),
                         "count": pa.array([], pa.int64())})
    out = partials.groupby(facet_col, as_index=False)["count"].sum()
    out = out.sort_values(facet_col).reset_index(drop=True)
    return pa.Table.from_pandas(out, preserve_index=False)


def group_facet_counts(
    index_dir: str, query: Query, group_field: str, facet_field: str,
    prefix: str | None = None, size: int = 10, min_count: int = 1,
    order_by_count: bool = True,
) -> tuple[pa.Table, int, int]:
    """TermGroupFacetCollector (``grouping/term/TermGroupFacetCollector
    .java:60-280`` + ``AbstractGroupFacetCollector.mergeSegmentResults``):
    per facet value, the number of DISTINCT GROUPS among the query's
    matches — with the reference's segment-scoped dedup faithfully kept
    (``mergeSegmentResults`` SUMS per-segment counts, so a group spanning
    segments counts once per segment). Facet field may be single-valued
    (SORTED) or multi-valued (SORTED_SET — the MV collector); a match
    whose facet is missing/empty adds its group to the missing bucket.
    -> (table (value, count) ordered by (count desc, value) or value,
    trimmed to ``size`` with ``min_count``, total_count, total_missing)."""
    from ..state import docvalues as dvals

    manifest = mf.read_index_manifest(index_dir)
    [(_, query)], ctx = plan_queries(index_dir, manifest, [query])
    ctx_ref = ray.put(ctx)
    q_ref = ray.put(query)

    def leaf_counts(batch: pd.DataFrame) -> pd.DataFrame:
        q = ray.get(q_ref)
        ctx_l = ray.get(ctx_ref)
        parts = []
        for row in batch.to_dict("records"):
            leaf = open_leaf(index_dir, row)
            docids, _ = execute(q, leaf, ctx_l)
            if len(docids) == 0:
                continue
            gords = np.asarray(leaf.dv_sorted(group_field)[0])[docids]
            kind = dvals.field_kind(os.path.join(index_dir, row["dir"]),
                                    facet_field)
            if kind == "sorted_set":
                offs, flat, fvalues = leaf.dv_sorted_set(facet_field)
                offs = np.asarray(offs)
                cnt = (offs[docids + 1] - offs[docids]).astype(np.int64)
                g_rep = np.repeat(gords, cnt)
                idx = (np.arange(int(cnt.sum()), dtype=np.int64)
                       - np.repeat(np.cumsum(cnt) - cnt, cnt)
                       + np.repeat(offs[docids].astype(np.int64), cnt))
                fords = np.asarray(flat)[idx]
                miss_groups = np.unique(gords[cnt == 0])
            else:
                fvalues = leaf.dv_sorted(facet_field)[1]
                fords = np.asarray(leaf.dv_sorted(facet_field)[0])[docids]
                g_rep = gords
                miss_groups = np.unique(g_rep[fords < 0])
                keep = fords >= 0
                g_rep, fords = g_rep[keep], fords[keep]
            # segment-scoped distinct (group, facet) pairs
            pair = (g_rep.astype(np.int64) << 32) | fords.astype(np.int64)
            u = np.unique(pair)
            fo = (u & 0xFFFFFFFF).astype(np.int64)
            c = np.bincount(fo, minlength=len(fvalues))
            nz = np.nonzero(c)[0]
            parts.append(pd.DataFrame({
                "value": fvalues[nz], "count": c[nz],
                "missing": 0}))
            parts.append(pd.DataFrame({
                "value": pd.Series([None], dtype=object),
                "count": pd.Series([0], dtype="int64"),
                "missing": pd.Series([len(miss_groups)], dtype="int64")}))
        if not parts:
            return pd.DataFrame({"value": pd.Series([], dtype=object),
                                 "count": pd.Series([], dtype="int64"),
                                 "missing": pd.Series([], dtype="int64")})
        return pd.concat(parts, ignore_index=True)

    ds = leaf_dataset(index_dir, manifest)
    partials = ds.map_batches(leaf_counts, batch_format="pandas",
                              batch_size=4).to_pandas()
    if len(partials) == 0 or "value" not in partials.columns:
        empty = pa.table({"value": pa.array([], pa.string()),
                          "count": pa.array([], pa.int64())})
        return empty, 0, 0
    total_missing = int(partials["missing"].sum())
    vals = partials[partials["value"].notna()]
    agg = vals.groupby("value", as_index=False)["count"].sum()
    if prefix is not None:
        agg = agg[agg["value"].astype(str).str.startswith(prefix)]
    total_count = int(agg["count"].sum())
    agg = agg[agg["count"] >= min_count]
    if order_by_count:  # (count desc, value asc) — orderByCountAndValue
        agg = agg.sort_values(["count", "value"],
                              ascending=[False, True])
    else:
        agg = agg.sort_values("value")
    agg = agg.head(size).reset_index(drop=True)
    return (pa.Table.from_pandas(agg, preserve_index=False),
            total_count, total_missing)


# TotalFacetCountsCache analogue: (index generation, field) -> total counts
# table (``facet/complements/TotalFacetCountsCache.java`` keys on the index
# commit; the manifest generation is this engine's commit identity)
_TOTAL_FACET_CACHE: dict = {}


def total_facet_counts(index_dir: str, facet_col: str) -> pd.DataFrame:
    """Per-value counts over ALL live docs — ``complements/
    TotalFacetCounts.java:60`` (computed once per index commit and cached,
    the TotalFacetCountsCache contract)."""
    manifest = mf.read_index_manifest(index_dir)
    key = (index_dir, manifest.get("generation"), facet_col)
    cached = _TOTAL_FACET_CACHE.get(key)
    if cached is not None:
        return cached

    def leaf_totals(batch: pd.DataFrame) -> pd.DataFrame:
        parts = []
        for row in batch.to_dict("records"):
            leaf = open_leaf(index_dir, row)
            ords, values = leaf.dv_sorted(facet_col)
            o = np.asarray(ords)
            if leaf.live is not None:
                o = o[leaf.live]
            o = o[o >= 0]
            cnt = np.bincount(o, minlength=len(values))
            nz = np.nonzero(cnt)[0]
            parts.append(pd.DataFrame({facet_col: values[nz],
                                       "count": cnt[nz]}))
        if not parts:
            return pd.DataFrame({facet_col: pd.Series([], dtype=object),
                                 "count": pd.Series([], dtype="int64")})
        return pd.concat(parts, ignore_index=True)

    ds = leaf_dataset(index_dir, manifest)
    partials = ds.map_batches(leaf_totals, batch_format="pandas",
                              batch_size=4).to_pandas()
    out = (partials.groupby(facet_col, as_index=False)["count"].sum()
           .sort_values(facet_col).reset_index(drop=True)
           if len(partials) else
           pd.DataFrame({facet_col: pd.Series([], dtype=object),
                         "count": pd.Series([], dtype="int64")}))
    if len(_TOTAL_FACET_CACHE) > 16:
        _TOTAL_FACET_CACHE.pop(next(iter(_TOTAL_FACET_CACHE)))
    _TOTAL_FACET_CACHE[key] = out
    return out


def facet_counts_complement(
    index_dir: str, query: Query, facet_col: str,
    complement_threshold: float = 0.6,
) -> tuple[pa.Table, bool]:
    """facet_counts through the complements optimization —
    ``old/OldFacetsAccumulator.java:79-99`` + ``ComplementCountingAggregator
    .java``: when the match set is large (``matches > numDocs *
    complementThreshold``; 0 forces, +inf disables), count the NON-matching
    docs instead and subtract from the cached TotalFacetCounts. Result is
    identical to the direct path by construction. -> (table,
    used_complements)."""
    manifest = mf.read_index_manifest(index_dir)
    num_docs = manifest["stats"]["max_doc"]
    # phase 1: cheap global match count
    [(_, query)], ctx = plan_queries(index_dir, manifest, [query])
    ctx_ref = ray.put(ctx)
    q_ref = ray.put(query)

    def leaf_match_counts(batch: pd.DataFrame) -> pd.DataFrame:
        q = ray.get(q_ref)
        ctx_l = ray.get(ctx_ref)
        ns = []
        for row in batch.to_dict("records"):
            leaf = open_leaf(index_dir, row)
            ns.append(len(execute(q, leaf, ctx_l)[0]))
        return pd.DataFrame({"n": ns})

    ds = leaf_dataset(index_dir, manifest)
    n_matches = int(ds.map_batches(leaf_match_counts, batch_format="pandas",
                                   batch_size=4).to_pandas()["n"].sum())
    use_complement = n_matches > num_docs * complement_threshold
    if not use_complement:
        return facet_counts(index_dir, query, facet_col), False

    total = total_facet_counts(index_dir, facet_col)

    def leaf_complement_counts(batch: pd.DataFrame) -> pd.DataFrame:
        q = ray.get(q_ref)
        ctx_l = ray.get(ctx_ref)
        parts = []
        for row in batch.to_dict("records"):
            leaf = open_leaf(index_dir, row)
            docids, _ = execute(q, leaf, ctx_l)
            mask = np.ones(leaf.num_docs, dtype=bool)
            mask[docids] = False
            if leaf.live is not None:
                mask &= leaf.live
            ords, values = leaf.dv_sorted(facet_col)
            o = np.asarray(ords)[mask]
            o = o[o >= 0]
            cnt = np.bincount(o, minlength=len(values))
            nz = np.nonzero(cnt)[0]
            parts.append(pd.DataFrame({facet_col: values[nz],
                                       "count": cnt[nz]}))
        if not parts:
            return pd.DataFrame({facet_col: pd.Series([], dtype=object),
                                 "count": pd.Series([], dtype="int64")})
        return pd.concat(parts, ignore_index=True)

    comp = ds.map_batches(leaf_complement_counts, batch_format="pandas",
                          batch_size=4).to_pandas()
    if len(comp) and facet_col in comp.columns:
        comp = comp.groupby(facet_col, as_index=False)["count"].sum()
    else:  # empty complement (e.g. MatchAll): schema-less empty frame
        comp = pd.DataFrame({facet_col: pd.Series([], dtype=object),
                             "count": pd.Series([], dtype="int64")})
    merged = total.merge(comp, on=facet_col, how="left",
                         suffixes=("_total", "_comp"))
    merged["count"] = (merged["count_total"]
                       - merged["count_comp"].fillna(0).astype("int64"))
    out = merged[merged["count"] > 0][[facet_col, "count"]]
    out = out.sort_values(facet_col).reset_index(drop=True)
    return pa.Table.from_pandas(out, preserve_index=False), True


def facet_counts_set(index_dir: str, query: Query, facet_col: str) -> pa.Table:
    """Count matching docs per value of a MULTI-VALUED (list<string>) docmap
    column — SortedSetDocValuesFacetCounts semantics
    (``lucene/facet/src/java/org/apache/lucene/facet/sortedset/
    SortedSetDocValuesFacetCounts.java:58``): each doc contributes each of
    its set's values once. -> (value, count) sorted by value."""
    manifest = mf.read_index_manifest(index_dir)
    [(_, query)], ctx = plan_queries(index_dir, manifest, [query])
    ctx_ref = ray.put(ctx)
    q_ref = ray.put(query)

    def leaf_counts(batch: pd.DataFrame) -> pd.DataFrame:
        q = ray.get(q_ref)
        ctx_l = ray.get(ctx_ref)
        parts = []
        for row in batch.to_dict("records"):
            leaf = open_leaf(index_dir, row)
            docids, _ = execute(q, leaf, ctx_l)
            if len(docids) == 0:
                continue
            offs, flat, values = leaf.dv_sorted_set(facet_col)
            offs = np.asarray(offs)
            s0 = offs[docids]
            cnt_d = offs[docids + 1] - s0
            tot = int(cnt_d.sum())
            if tot == 0:
                continue
            ends = np.cumsum(cnt_d)
            idx = (np.arange(tot, dtype=np.int64)
                   - np.repeat(ends - cnt_d, cnt_d) + np.repeat(s0, cnt_d))
            o = np.asarray(flat)[idx]
            cnt = np.bincount(o, minlength=len(values))
            nz = np.nonzero(cnt)[0]
            parts.append(pd.DataFrame({facet_col: values[nz],
                                       "count": cnt[nz]}))
        if not parts:
            return pd.DataFrame({facet_col: pd.Series([], dtype=object),
                                 "count": pd.Series([], dtype="int64")})
        return pd.concat(parts, ignore_index=True)

    ds = leaf_dataset(index_dir, manifest)
    partials = ds.map_batches(leaf_counts, batch_format="pandas",
                              batch_size=4).to_pandas()
    if len(partials) == 0:
        return pa.table({facet_col: pa.array([], pa.string()),
                         "count": pa.array([], pa.int64())})
    out = partials.groupby(facet_col, as_index=False)["count"].sum()
    out = out.sort_values(facet_col).reset_index(drop=True)
    return pa.Table.from_pandas(out, preserve_index=False)


def facet_counts_hierarchical(
    index_dir: str, query: Query, facet_col: str, delimiter: str = "/",
    max_depth: int | None = None,
) -> pa.Table:
    """Hierarchical (taxonomy) facet counts over a path-valued docmap column
    (``lucene/facet``'s taxonomy roll-up re-expressed: a doc labeled
    ``a/b/c`` increments every ancestor ordinal — ``a``, ``a/b``,
    ``a/b/c``; ``TaxonomyReader``/``FacetsCollector`` counting semantics).

    Per-leaf: matched docs' facet values counted per DISTINCT value, then
    prefixes expanded at the value (vocabulary) level — partial rows are
    (path, depth, count) per leaf, summed in one small groupby.
    -> (path, depth, count) sorted by path."""
    manifest = mf.read_index_manifest(index_dir)
    [(_, query)], ctx = plan_queries(index_dir, manifest, [query])
    ctx_ref = ray.put(ctx)
    q_ref = ray.put(query)

    def leaf_counts(batch: pd.DataFrame) -> pd.DataFrame:
        q = ray.get(q_ref)
        ctx_l = ray.get(ctx_ref)
        parts = []
        for row in batch.to_dict("records"):
            leaf = open_leaf(index_dir, row)
            docids, _ = execute(q, leaf, ctx_l)
            if len(docids) == 0:
                continue
            ords, values = leaf.dv_sorted(facet_col)
            o = np.asarray(ords)[docids]
            o = o[o >= 0]
            cnt = np.bincount(o, minlength=len(values))
            nz = np.nonzero(cnt)[0]
            rows_p, rows_d, rows_c = [], [], []
            for v, c in zip(values[nz], cnt[nz]):  # distinct values only
                segs = str(v).split(delimiter)
                depth = (len(segs) if max_depth is None
                         else min(len(segs), max_depth))
                for k in range(1, depth + 1):
                    rows_p.append(delimiter.join(segs[:k]))
                    rows_d.append(k)
                    rows_c.append(int(c))
            parts.append(pd.DataFrame({"path": rows_p, "depth": rows_d,
                                       "count": rows_c}))
        if not parts:
            return pd.DataFrame({"path": pd.Series([], dtype=object),
                                 "depth": pd.Series([], dtype="int64"),
                                 "count": pd.Series([], dtype="int64")})
        return pd.concat(parts, ignore_index=True)

    ds = leaf_dataset(index_dir, manifest)
    partials = ds.map_batches(leaf_counts, batch_format="pandas",
                              batch_size=4).to_pandas()
    if len(partials) == 0:
        return pa.table({"path": pa.array([], pa.string()),
                         "depth": pa.array([], pa.int64()),
                         "count": pa.array([], pa.int64())})
    out = partials.groupby(["path", "depth"], as_index=False)["count"].sum()
    out = out.sort_values("path").reset_index(drop=True)
    return pa.Table.from_pandas(out, preserve_index=False)


def facet_range_counts(
    index_dir: str, query: Query, field: str,
    ranges: "list[tuple[str, int | None, int | None]]",
) -> pa.Table:
    """Numeric range facets over a NUMERIC doc-values column — re-expresses
    (NOT ports) ``lucene/facet/src/java/org/apache/lucene/facet/range/
    LongRangeFacetCounts.java:37`` + ``LongRange.java`` (inclusive bounds,
    ranges may overlap, each range counted independently; docs missing the
    value count in no range).

    ``ranges`` is ``[(label, lo, hi)]`` with ``None`` = open bound (the
    reference's Long.MIN_VALUE/MAX_VALUE endpoints). Per-leaf partials are
    one (label, count) row per range — constant-size regardless of corpus
    — summed in a tiny driver reduce. -> (label, count) in range order."""
    manifest = mf.read_index_manifest(index_dir)
    [(_, query)], ctx = plan_queries(index_dir, manifest, [query])
    ctx_ref = ray.put(ctx)
    bcast = ray.put((query, list(ranges)))

    def leaf_counts(batch: pd.DataFrame) -> pd.DataFrame:
        q, rngs = ray.get(bcast)
        ctx_l = ray.get(ctx_ref)
        acc = np.zeros(len(rngs), dtype=np.int64)
        for row in batch.to_dict("records"):
            leaf = open_leaf(index_dir, row)
            docids, _ = execute(q, leaf, ctx_l)
            if len(docids) == 0:
                continue
            vals = leaf.doc_values(field, docids)
            present = pd.notna(vals)
            v = np.asarray(vals[present], dtype=np.int64)
            for i, (_lbl, lo, hi) in enumerate(rngs):
                m = np.ones(len(v), dtype=bool)
                if lo is not None:
                    m &= v >= lo
                if hi is not None:
                    m &= v <= hi
                acc[i] += int(m.sum())
        return pd.DataFrame({"ord": np.arange(len(rngs), dtype=np.int64),
                             "count": acc})

    ds = leaf_dataset(index_dir, manifest)
    partials = ds.map_batches(leaf_counts, batch_format="pandas",
                              batch_size=4).to_pandas()
    tot = partials.groupby("ord")["count"].sum() if len(partials) else {}
    return pa.table({
        "label": pa.array([r[0] for r in ranges], pa.string()),
        "count": pa.array([int(tot.get(i, 0)) for i in range(len(ranges))],
                          pa.int64()),
    })


def facet_counts_sampled(
    index_dir: str, query: Query, facet_col: str, *,
    k: int = 10, sample_ratio: float = 0.1, oversample: float = 2.0,
    fixer: str = "takmi",  # "takmi" | "amortized" | "none"
    seed: int = 42,
) -> pa.Table:
    """Sampled facet counts for huge result sets — re-expresses (NOT ports)
    ``lucene/facet/src/java/org/apache/lucene/facet/sampling/``:

    - ``RandomSampler.java`` — the matching doc set is sampled at
      ``sample_ratio`` (deterministic per-leaf RNG seeded by (seed,
      leaf ord), so runs are reproducible); ratio >= 1 short-circuits to
      exact counting (``Sampler.shouldSample``);
    - ``SamplingAccumulator.java`` + ``SamplingParams.oversampleFactor`` —
      facet counting runs over the sample and keeps the top
      ``ceil(oversample * k)`` sampled categories so the true top-k has a
      high chance of surviving sampling noise;
    - ``TakmiSampleFixer.java`` — ``fixer="takmi"`` recounts the surviving
      categories EXACTLY against the full result set (accuracy-first; here
      one extra masked bincount in the same leaf pass shape);
      ``fixer="amortized"`` rescales sampled counts by the actual sample
      ratio (the fast fixer); ``"none"`` returns raw sampled counts;
    - ``Sampler.trimResult`` — the oversampled list is trimmed back to k.

    -> (value, count) top-k by (count desc, value asc). Distribution
    shape: per-leaf partials are category-count rows over the sample (and,
    for takmi, over the full set restricted to surviving categories) —
    never doc-sized on the driver."""
    if sample_ratio >= 1.0:
        t = facet_counts(index_dir, query, facet_col).to_pandas()
        t = t.sort_values(["count", facet_col],
                          ascending=[False, True]).head(k)
        return pa.table({"value": pa.array(t[facet_col], pa.string()),
                         "count": pa.array(t["count"], pa.int64())})

    manifest = mf.read_index_manifest(index_dir)
    [(_, query)], ctx = plan_queries(index_dir, manifest, [query])
    ctx_ref = ray.put(ctx)
    bcast = ray.put((query, facet_col, float(sample_ratio), int(seed),
                     fixer == "takmi"))

    def leaf_sampled(batch: pd.DataFrame) -> pd.DataFrame:
        q, col, ratio, seed_l, want_exact = ray.get(bcast)
        ctx_l = ray.get(ctx_ref)
        parts = []
        for row in batch.to_dict("records"):
            leaf = open_leaf(index_dir, row)
            docids, _ = execute(q, leaf, ctx_l)
            if len(docids) == 0:
                continue
            rng = np.random.default_rng([seed_l, leaf.ord])
            picked = docids[rng.random(len(docids)) < ratio]
            ords, values = leaf.dv_sorted(col)
            ords = np.asarray(ords)
            rows = [pd.DataFrame({
                "value": pd.Series([], dtype=object),
                "sampled": pd.Series([], dtype="int64"),
                "exact": pd.Series([], dtype="int64"),
                "n_match": pd.Series([], dtype="int64"),
                "n_sampled": pd.Series([], dtype="int64")})]
            o = ords[picked]
            o = o[o >= 0]
            cnt_s = np.bincount(o, minlength=len(values))
            if want_exact:
                # the takmi exact lane rides the SAME pass: the costly part
                # per leaf is the query execute, which would have to rerun
                # for the reference's separate recount phase — one masked
                # bincount here is strictly cheaper than that second pass
                oe = ords[docids]
                oe = oe[oe >= 0]
                cnt_e = np.bincount(oe, minlength=len(values))
            else:
                cnt_e = np.zeros(len(values), dtype=np.int64)
            nz = np.nonzero(cnt_s | cnt_e)[0]
            rows.append(pd.DataFrame({
                "value": values[nz],
                "sampled": cnt_s[nz].astype(np.int64),
                "exact": cnt_e[nz].astype(np.int64),
                "n_match": np.int64(0),
                "n_sampled": np.int64(0),
            }))
            # one stats row per leaf for the actual sample ratio
            rows.append(pd.DataFrame({
                "value": [None], "sampled": [0], "exact": [0],
                "n_match": [len(docids)], "n_sampled": [len(picked)]}))
            parts.extend(rows)
        return (pd.concat(parts, ignore_index=True) if parts
                else pd.DataFrame())

    ds = leaf_dataset(index_dir, manifest)
    partials = ds.map_batches(leaf_sampled, batch_format="pandas",
                              batch_size=4).to_pandas()
    empty = pa.table({"value": pa.array([], pa.string()),
                      "count": pa.array([], pa.int64())})
    if "value" not in partials.columns or not len(partials):
        return empty
    n_match = int(partials["n_match"].sum())
    n_sampled = int(partials["n_sampled"].sum())
    cats = partials[partials["value"].notna()]
    if not len(cats) or n_sampled == 0:
        return empty
    agg = cats.groupby("value", as_index=False)[["sampled", "exact"]].sum()
    # oversampled top-cK by sampled count, then fix, then trim to k
    over_k = int(math.ceil(oversample * k))
    agg = agg.sort_values(["sampled", "value"],
                          ascending=[False, True]).head(over_k)
    actual_ratio = n_sampled / n_match
    if fixer == "takmi":
        agg["count"] = agg["exact"]
    elif fixer == "amortized":
        agg["count"] = np.rint(agg["sampled"] / actual_ratio).astype(np.int64)
    elif fixer == "none":
        agg["count"] = agg["sampled"]
    else:
        raise ValueError(f"unknown fixer {fixer!r}")
    agg = agg.sort_values(["count", "value"],
                          ascending=[False, True]).head(k)
    return pa.table({"value": pa.array(agg["value"], pa.string()),
                     "count": pa.array(agg["count"], pa.int64())})


def drill_down_query(base: Query, dims: "dict[str, list[str]]") -> Query:
    """Compose a DrillDownQuery (``lucene/facet/src/java/org/apache/lucene/
    facet/DrillDownQuery.java:47``): the base query plus one MUST clause per
    drill-down dim; multiple values within a dim OR together; dim clauses
    are constant-score with boost 0 so the composed score IS the base score
    (0.0f adds are float32 identities)."""
    from ..queries import (MUST, SHOULD, BooleanClause, BooleanQuery,
                           ConstantScoreQuery, TermQuery)

    clauses = [BooleanClause(MUST, base)]
    for dim in sorted(dims):
        vals = dims[dim]
        dq = (TermQuery(vals[0], field=dim) if len(vals) == 1 else
              BooleanQuery(tuple(BooleanClause(SHOULD, TermQuery(v, field=dim))
                                 for v in vals), 0))
        clauses.append(BooleanClause(MUST, ConstantScoreQuery(dq, boost=0.0)))
    return BooleanQuery(tuple(clauses), 0)


def drill_sideways(
    index_dir: str, base: Query, dims: "dict[str, list[str]]",
    facet_fields: "dict[str, str] | None" = None,
) -> "tuple[pa.Table, dict[str, pa.Table]]":
    """DrillSideways (``facet/DrillSideways.java:63``): hits are the full
    drill-down; each dim's facet counts are computed with THAT dim's filter
    removed (base AND every other dim), so the UI can show the counts a
    user would get by switching the selected value. ``facet_fields`` maps
    dim -> facet column (defaults to the dim itself).
    -> (drill-down docID table, {dim: (value, count) table})."""
    facet_fields = facet_fields or {}
    hits = match_doc_ids(index_dir, drill_down_query(base, dims))
    facets = {}
    for dim in sorted(dims):
        others = {d: v for d, v in dims.items() if d != dim}
        q = drill_down_query(base, others) if others else base
        facets[dim] = facet_counts(index_dir, q, facet_fields.get(dim, dim))
    return hits, facets


def _after_mask(df: pd.DataFrame, keys: "list[tuple[str, bool]]",
                cursor: tuple) -> pd.Series:
    """Rows strictly AFTER ``cursor`` in the (keys..., docid asc) total
    order — the searchAfter predicate of the paginating field collectors
    (``search/TopFieldCollector.java:1219`` PagingFieldCollector)."""
    after = pd.Series(False, index=df.index)
    eq = pd.Series(True, index=df.index)
    for (f, desc), c in zip(keys, cursor[:-1]):
        col = df[f]
        gt = (col < c) if desc else (col > c)
        after |= eq & gt
        eq &= col == c
    after |= eq & (df["docid"] > cursor[-1])
    return after


def sort_by_fields(
    index_dir: str, query: Query, keys: "list[tuple[str, bool]]",
    k: int = 10, after: "tuple | None" = None,
) -> pa.Table:
    """Top-k matches under a MULTI-key field sort — re-expresses (NOT
    ports) ``search/Sort.java`` + ``FieldComparator.java`` lexicographic
    comparator chains and the searchAfter cursor of
    ``TopFieldCollector.java:1219``. ``keys`` is ``[(field, descending)]``
    (SORTED string or NUMERIC doc-values); the final tie-break is docid
    ascending. ``after`` is the previous page's last row as
    ``(key values..., global docid)`` — only rows strictly after it
    compete (cursor pagination without re-collecting page 1).

    Per-leaf top-k partials under the same comparator are a superset of
    the global answer -> exact driver reduce.
    -> (rank, docid, key columns...)."""
    manifest = mf.read_index_manifest(index_dir)
    [(_, query)], ctx = plan_queries(index_dir, manifest, [query])
    ctx_ref = ray.put(ctx)
    bcast = ray.put((query, list(keys), after))
    names = [f for f, _ in keys]
    ascending = [not d for _, d in keys] + [True]

    def leaf_topk(batch: pd.DataFrame) -> pd.DataFrame:
        q, ks, aft = ray.get(bcast)
        ctx_l = ray.get(ctx_ref)
        parts = []
        for row in batch.to_dict("records"):
            leaf = open_leaf(index_dir, row)
            docids, _ = execute(q, leaf, ctx_l)
            if len(docids) == 0:
                continue
            df = pd.DataFrame({"docid": docids + leaf.doc_base})
            for f, _ in ks:
                df[f] = leaf.doc_values(f, docids)
            if aft is not None:
                df = df[_after_mask(df, ks, aft)]
            df = df.sort_values(names + ["docid"], ascending=ascending,
                                kind="mergesort").head(k)
            parts.append(df)
        if not parts:
            return pd.DataFrame({"docid": pd.Series([], dtype="int64"),
                                 **{f: pd.Series([], dtype=object)
                                    for f in names}})
        return pd.concat(parts, ignore_index=True)

    ds = leaf_dataset(index_dir, manifest)
    partials = ds.map_batches(leaf_topk, batch_format="pandas",
                              batch_size=4).to_pandas()
    if len(partials) == 0 or "docid" not in partials.columns:
        return pa.table({"rank": pa.array([], pa.int64()),
                         "docid": pa.array([], pa.int64()),
                         **{f: pa.array([], pa.string()) for f in names}})
    sel = partials.sort_values(names + ["docid"], ascending=ascending,
                               kind="mergesort").head(k).reset_index(drop=True)
    sel.insert(0, "rank", np.arange(1, len(sel) + 1, dtype=np.int64))
    return pa.Table.from_pandas(sel[["rank", "docid"] + names],
                                preserve_index=False)


def _group_values(leaf, ctx, group_col, docids):
    """Group keys of the matched docs: a docmap / dv column when
    ``group_col`` is a string, else a ValueSource node evaluated per doc
    (the ``grouping/function`` Function*Collector family —
    ``FunctionAllGroupsCollector.java`` / ``FunctionFirstPassGroupingCollector
    .java`` group by ``ValueSource.getValues`` exactly like this)."""
    if isinstance(group_col, str):
        return leaf.doc_values(group_col, docids)
    from ..functions.valuesource import evaluate as vs_eval

    return vs_eval(group_col, leaf, ctx, docids)


def _group_name(group_col) -> str:
    return group_col if isinstance(group_col, str) else "group"


def group_topk(
    index_dir: str, query: Query, group_col, per_group_k: int = 2
) -> pa.Table:
    """Top-k docs by BM25 within each group value (``lucene/grouping``
    two-pass collector analogue). Per-leaf per-group top-k partials are a
    superset of the global answer, so the driver reduce is exact.
    ``group_col`` is a field name or a ValueSource node (the
    ``grouping/function`` collectors — grouped by the computed value).
    -> (group value, rank, docid, score)."""
    manifest = mf.read_index_manifest(index_dir)
    [(_, query)], ctx = plan_queries(index_dir, manifest, [query])
    ctx_ref = ray.put(ctx)
    q_ref = ray.put(query)
    name = _group_name(group_col)

    def leaf_group_topk(batch: pd.DataFrame) -> pd.DataFrame:
        q = ray.get(q_ref)
        ctx_l = ray.get(ctx_ref)
        parts = []
        for row in batch.to_dict("records"):
            leaf = open_leaf(index_dir, row)
            docids, scores = execute(q, leaf, ctx_l)
            if len(docids) == 0:
                continue
            vals = _group_values(leaf, ctx_l, group_col, docids)
            df = pd.DataFrame({
                name: vals,
                "docid": docids + leaf.doc_base,
                "score": scores,
            })
            df = df.sort_values(["score", "docid"], ascending=[False, True],
                                kind="mergesort")
            parts.append(df.groupby(name, sort=False).head(per_group_k))
        if not parts:
            return pd.DataFrame({name: pd.Series([], dtype=object),
                                 "docid": pd.Series([], dtype="int64"),
                                 "score": pd.Series([], dtype="float32")})
        return pd.concat(parts, ignore_index=True)

    ds = leaf_dataset(index_dir, manifest)
    partials = ds.map_batches(leaf_group_topk, batch_format="pandas",
                              batch_size=4).to_pandas()
    if len(partials) == 0:
        return pa.table({name: pa.array([], pa.string()),
                         "rank": pa.array([], pa.int32()),
                         "docid": pa.array([], pa.int64()),
                         "score": pa.array([], pa.float32())})
    sc = partials["score"].to_numpy(np.float32)
    order = np.lexsort((partials["docid"].to_numpy(), -sc))
    partials = partials.iloc[order]
    out = partials.groupby(name, sort=True).head(per_group_k).copy()
    out["rank"] = out.groupby(name).cumcount() + 1
    out = out.sort_values([name, "rank"]).reset_index(drop=True)
    out["score"] = out["score"].astype(np.float32)
    return pa.Table.from_pandas(out[[name, "rank", "docid", "score"]],
                                preserve_index=False)


def group_topk_two_pass(
    index_dir: str, query: Query, group_col: str,
    n_groups: int = 10, per_group_k: int = 2, nbuckets: int = 256,
) -> pa.Table:
    """DISTRIBUTED two-pass grouping (``lucene/grouping``'s
    TermFirstPassGroupingCollector + TermSecondPassGroupingCollector),
    the high-cardinality-safe variant of :func:`group_topk`:

    - pass 1: each leaf emits ONE row per matched group (its best
      (score desc, docid asc) competitive sort value); rows shuffle by a
      bounded group-hash bucket; each bucket reduces to its own top-
      ``n_groups`` candidates, so the driver sees at most
      ``nbuckets * n_groups`` rows and picks the global top groups
      (best score desc, docid asc, group asc — AbstractFirstPassGrouping-
      Collector relevance order) — never one row per group.
    - pass 2: the selected group set broadcasts; each leaf re-scores and
      collects per-group top-``per_group_k`` partials for SELECTED groups
      only; the final merge is the TopDocs.merge order within each group.

    -> (group value, grp_rank, rank, docid, score). Like the reference's
    two-pass collectors, the query is executed twice (CachingCollector is
    the reference's own mitigation)."""

    manifest = mf.read_index_manifest(index_dir)
    [(_, query)], ctx = plan_queries(index_dir, manifest, [query])
    ctx_ref = ray.put(ctx)
    q_ref = ray.put(query)

    def leaf_of(row) -> LeafSearcher:
        return open_leaf(index_dir, row)

    def first_pass(batch: pd.DataFrame) -> pd.DataFrame:
        q = ray.get(q_ref)
        ctx_l = ray.get(ctx_ref)
        parts = []
        for row in batch.to_dict("records"):
            leaf = leaf_of(row)
            docids, scores = execute(q, leaf, ctx_l)
            if len(docids) == 0:
                continue
            vals = leaf.doc_values(group_col, docids)
            df = pd.DataFrame({"grp": vals,
                               "docid": docids + leaf.doc_base,
                               "score": scores})
            df = df.sort_values(["score", "docid"],
                                ascending=[False, True], kind="mergesort")
            parts.append(df.drop_duplicates("grp"))  # per-group best
        if not parts:
            return pd.DataFrame({"grp": pd.Series([], dtype=object),
                                 "docid": pd.Series([], dtype="int64"),
                                 "score": pd.Series([], dtype="float32"),
                                 "g": pd.Series([], dtype="int64")})
        out = pd.concat(parts, ignore_index=True)
        out["g"] = pd.util.hash_array(
            out["grp"].to_numpy(dtype=object)).astype(np.int64) % nbuckets
        return out

    def bucket_top(gb: pd.DataFrame) -> pd.DataFrame:
        gb = gb.sort_values(["score", "docid"], ascending=[False, True],
                            kind="mergesort").drop_duplicates("grp")
        return gb.head(n_groups)[["grp", "docid", "score"]]

    ds = leaf_dataset(index_dir, manifest)
    cand = (
        ds.map_batches(first_pass, batch_format="pandas", batch_size=4)
        .groupby("g")
        .map_groups(bucket_top, batch_format="pandas")
        .to_pandas()
    )
    empty = pa.table({group_col: pa.array([], pa.string()),
                      "grp_rank": pa.array([], pa.int64()),
                      "rank": pa.array([], pa.int64()),
                      "docid": pa.array([], pa.int64()),
                      "score": pa.array([], pa.float32())})
    if len(cand) == 0 or "grp" not in cand.columns:
        return empty
    sc = cand["score"].to_numpy(np.float32)
    order = np.lexsort((cand["grp"].to_numpy(dtype=object),
                        cand["docid"].to_numpy(), -sc))
    cand = cand.iloc[order].drop_duplicates("grp").head(n_groups)
    selected = list(cand["grp"])
    grp_rank = {g: i + 1 for i, g in enumerate(selected)}
    sel_ref = ray.put(set(selected))

    def second_pass(batch: pd.DataFrame) -> pd.DataFrame:
        q = ray.get(q_ref)
        ctx_l = ray.get(ctx_ref)
        sel = ray.get(sel_ref)
        parts = []
        for row in batch.to_dict("records"):
            leaf = leaf_of(row)
            docids, scores = execute(q, leaf, ctx_l)
            if len(docids) == 0:
                continue
            vals = leaf.doc_values(group_col, docids)
            df = pd.DataFrame({"grp": vals,
                               "docid": docids + leaf.doc_base,
                               "score": scores})
            df = df[df["grp"].isin(sel)]
            if len(df) == 0:
                continue
            df = df.sort_values(["score", "docid"],
                                ascending=[False, True], kind="mergesort")
            parts.append(df.groupby("grp", sort=False).head(per_group_k))
        if not parts:
            return pd.DataFrame({"grp": pd.Series([], dtype=object),
                                 "docid": pd.Series([], dtype="int64"),
                                 "score": pd.Series([], dtype="float32")})
        return pd.concat(parts, ignore_index=True)

    partials = ds.map_batches(second_pass, batch_format="pandas",
                              batch_size=4).to_pandas()
    if len(partials) == 0 or "grp" not in partials.columns:
        return empty
    sc = partials["score"].to_numpy(np.float32)
    order = np.lexsort((partials["docid"].to_numpy(), -sc))
    partials = partials.iloc[order]
    out = partials.groupby("grp", sort=False).head(per_group_k).copy()
    out["rank"] = out.groupby("grp").cumcount() + 1
    out["grp_rank"] = out["grp"].map(grp_rank).astype(np.int64)
    out = out.sort_values(["grp_rank", "rank"]).reset_index(drop=True)
    out["score"] = out["score"].astype(np.float32)
    out = out.rename(columns={"grp": group_col})
    return pa.Table.from_pandas(
        out[[group_col, "grp_rank", "rank", "docid", "score"]],
        preserve_index=False)


def match_doc_ids(index_dir: str, query: Query) -> pa.Table:
    """All matching global docIDs (sorted) — the docID-set view of a query
    (constant-score / filter semantics). Partial per-leaf sets concatenate
    without a shuffle because leaves partition the docID space."""
    manifest = mf.read_index_manifest(index_dir)
    [(_, query)], ctx = plan_queries(index_dir, manifest, [query])
    ctx_ref = ray.put(ctx)
    q_ref = ray.put(query)

    def leaf_hits(batch: pd.DataFrame) -> pd.DataFrame:
        q = ray.get(q_ref)
        ctx_l = ray.get(ctx_ref)
        parts = []
        for row in batch.to_dict("records"):
            leaf = open_leaf(index_dir, row)
            docids, _ = execute(q, leaf, ctx_l)
            parts.append(pd.DataFrame({"docid": docids + leaf.doc_base}))
        return pd.concat(parts, ignore_index=True) if parts else pd.DataFrame(
            {"docid": pd.Series([], dtype="int64")})

    ds = leaf_dataset(index_dir, manifest)
    out = ds.map_batches(leaf_hits, batch_format="pandas", batch_size=4).to_pandas()
    if "docid" not in out.columns:
        out = pd.DataFrame({"docid": pd.Series([], dtype="int64")})
    out = out.sort_values("docid").reset_index(drop=True)
    return pa.Table.from_pandas(out, preserve_index=False)


def collect_hits(index_dir: str, query: Query, collector) -> pa.Table:
    """PUBLIC Collector hook (``search/Collector.java`` analogue): the
    user-supplied ``collector(leaf_ord, doc_base, docids, scores) ->
    pd.DataFrame`` runs once per leaf INSIDE the distributed scoring pass
    (acceptsDocsOutOfOrder across leaves, in-order within a leaf — docids
    ascend); the per-leaf frames concatenate into the result. The callable
    must be serializable (it is broadcast to the actor pool)."""
    manifest = mf.read_index_manifest(index_dir)
    [(_, query)], ctx = plan_queries(index_dir, manifest, [query])
    bcast = ray.put((ctx, query, collector))

    def leaf_collect(batch: pd.DataFrame) -> pd.DataFrame:
        ctx_l, q, coll = ray.get(bcast)
        parts = []
        for row in batch.to_dict("records"):
            leaf = open_leaf(index_dir, row)
            docids, scores = execute(q, leaf, ctx_l)
            parts.append(coll(leaf.ord, leaf.doc_base, docids, scores))
        return (pd.concat(parts, ignore_index=True) if parts
                else pd.DataFrame())

    ds = leaf_dataset(index_dir, manifest)
    out = ds.map_batches(leaf_collect, batch_format="pandas",
                         batch_size=4).to_pandas()
    return pa.Table.from_pandas(out, preserve_index=False)


def sort_by_field(
    index_dir: str, query: Query, field: str, descending: bool = True, k: int = 10
) -> pa.Table:
    """Top-k matches ordered by a docmap (docvalues) column instead of score
    (``search/Sort.java`` / ``TopFieldCollector.java`` analogue). Per-leaf
    top-k by (field, docid) partials -> exact driver reduce.
    -> (rank, docid, field value)."""
    manifest = mf.read_index_manifest(index_dir)
    [(_, query)], ctx = plan_queries(index_dir, manifest, [query])
    ctx_ref = ray.put(ctx)
    q_ref = ray.put(query)

    def leaf_topk(batch: pd.DataFrame) -> pd.DataFrame:
        q = ray.get(q_ref)
        ctx_l = ray.get(ctx_ref)
        parts = []
        for row in batch.to_dict("records"):
            leaf = open_leaf(index_dir, row)
            docids, _ = execute(q, leaf, ctx_l)
            if len(docids) == 0:
                continue
            vals = leaf.doc_values(field, docids)
            key = -vals if descending else vals
            order = np.lexsort((docids, key))[:k]
            parts.append(pd.DataFrame({
                "docid": docids[order] + leaf.doc_base,
                field: vals[order],
            }))
        if not parts:
            return pd.DataFrame({"docid": pd.Series([], dtype="int64"),
                                 field: pd.Series([], dtype="int64")})
        return pd.concat(parts, ignore_index=True)

    ds = leaf_dataset(index_dir, manifest)
    partials = ds.map_batches(leaf_topk, batch_format="pandas", batch_size=4).to_pandas()
    if len(partials) == 0:
        return pa.table({"rank": pa.array([], pa.int64()),
                         "docid": pa.array([], pa.int64()),
                         field: pa.array([], pa.int64())})
    vals = partials[field].to_numpy()
    key = -vals if descending else vals
    order = np.lexsort((partials["docid"].to_numpy(), key))[:k]
    sel = partials.iloc[order].reset_index(drop=True)
    sel.insert(0, "rank", np.arange(1, len(sel) + 1, dtype=np.int64))
    return pa.Table.from_pandas(sel, preserve_index=False)


def export_matches(index_dir: str, query: Query, out_dir: str) -> int:
    """Export EVERY matching doc (meta + score) as partitioned Parquet — one
    atomically-written file per leaf, skipped when it already exists, so a
    failed export resumes where it stopped. This is the scale-correct way to
    materialize large result sets (matching docs never gather on the driver).
    Returns the number of exported rows."""
    import pyarrow.parquet as pq_

    manifest = mf.read_index_manifest(index_dir)
    [(_, query)], ctx = plan_queries(index_dir, manifest, [query])
    ctx_ref = ray.put(ctx)
    q_ref = ray.put(query)
    os.makedirs(out_dir, exist_ok=True)

    def leaf_export(batch: pd.DataFrame) -> pd.DataFrame:
        q = ray.get(q_ref)
        ctx_l = ray.get(ctx_ref)
        rows = []
        for row in batch.to_dict("records"):
            ord_ = int(row["leaf_ord"])
            final = os.path.join(out_dir, f"part-{ord_:05d}.parquet")
            if os.path.exists(final):
                rows.append({"leaf_ord": ord_,
                             "rows": pq_.read_metadata(final).num_rows,
                             "skipped": True})
                continue
            leaf = open_leaf(index_dir, {**row, "leaf_ord": ord_})
            docids, scores = execute(q, leaf, ctx_l)
            t = leaf.docmap.take(pa.array(docids))
            t = t.append_column("docid", pa.array(docids + leaf.doc_base))
            t = t.append_column("score", pa.array(scores))
            tmp = f"{final}.tmp-{os.getpid()}"
            pq_.write_table(t, tmp)
            os.rename(tmp, final)
            rows.append({"leaf_ord": ord_, "rows": t.num_rows, "skipped": False})
        return pd.DataFrame(rows)

    ds = leaf_dataset(index_dir, manifest)
    rep = ds.map_batches(leaf_export, batch_format="pandas", batch_size=2).to_pandas()
    return int(rep["rows"].sum())


def count_matches(index_dir: str, query: Query) -> int:
    """totalHits across the index (partial counts per leaf, summed)."""
    manifest = mf.read_index_manifest(index_dir)
    [(_, query)], ctx = plan_queries(index_dir, manifest, [query])
    ctx_ref = ray.put(ctx)
    q_ref = ray.put(query)

    def leaf_count(batch: pd.DataFrame) -> pd.DataFrame:
        q = ray.get(q_ref)
        ctx_l = ray.get(ctx_ref)
        rows = []
        for row in batch.to_dict("records"):
            leaf = open_leaf(index_dir, row)
            docids, _ = execute(q, leaf, ctx_l)
            rows.append({"n": len(docids)})
        return pd.DataFrame(rows)

    ds = leaf_dataset(index_dir, manifest)
    return int(ds.map_batches(leaf_count, batch_format="pandas",
                              batch_size=4).to_pandas()["n"].sum())


def high_freq_terms(
    index_dir: str, num_terms: int = 100, *, field: "str | None" = None,
    order: str = "df",
) -> pa.Table:
    """Top-N terms of the index by docFreq (default) or totalTermFreq —
    re-expresses (NOT ports) ``lucene/misc/src/java/org/apache/lucene/
    misc/HighFreqTerms.java:60-115`` (getHighFreqTerms + the -t flag;
    order (count desc, term asc) like its comparators).

    Distribution shape: each leaf's sorted term dict is ALREADY a parquet
    table, so this is one Dataset read of the (term, df, ttf) columns ->
    per-batch partial sums with a bounded bucket key -> per-bucket sum +
    per-bucket top-N (sound: buckets partition terms, so the global top-N
    is a subset of the per-bucket top-Ns) -> tiny driver merge.
    -> (term, df, ttf) rows, ordered."""
    import ray.data

    from ..state.fields import fprefix

    if order not in ("df", "ttf"):
        raise ValueError("order must be 'df' or 'ttf'")
    manifest = mf.read_index_manifest(index_dir)
    fp = fprefix(field)
    files = [os.path.join(index_dir, s["dir"], fp + "terms.parquet")
             for s in mf.leaf_rows(index_dir, manifest)]

    def partial(batch: pa.Table) -> pd.DataFrame:
        t = batch["term"].to_pandas().map(
            lambda b: b.decode("utf-8") if isinstance(b, bytes) else b)
        g = pd.DataFrame({
            "term": t,
            "df": batch["df"].to_numpy(zero_copy_only=False).astype(np.int64),
            "ttf": batch["ttf"].to_numpy(zero_copy_only=False).astype(
                np.int64),
        }).groupby("term", as_index=False).agg(df=("df", "sum"),
                                               ttf=("ttf", "sum"))
        h = pd.util.hash_array(g["term"].to_numpy(dtype=object))
        g["g"] = (h % 64).astype(np.int64)
        return g

    def bucket_top(gb: pd.DataFrame) -> pd.DataFrame:
        agg = gb.groupby("term", as_index=False).agg(df=("df", "sum"),
                                                     ttf=("ttf", "sum"))
        agg["neg"] = -agg[order].to_numpy()
        return agg.sort_values(["neg", "term"],
                               kind="mergesort").head(num_terms)[
            ["term", "df", "ttf"]]

    parts = (
        ray.data.read_parquet(files, columns=["term", "df", "ttf"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("g")
        .map_groups(bucket_top, batch_format="pandas")
        .to_pandas()
    )
    if len(parts) == 0:
        return pa.table({"term": pa.array([], pa.string()),
                         "df": pa.array([], pa.int64()),
                         "ttf": pa.array([], pa.int64())})
    parts["neg"] = -parts[order].to_numpy()
    sel = parts.sort_values(["neg", "term"], kind="mergesort").head(
        num_terms).reset_index(drop=True)
    return pa.table({"term": pa.array(sel["term"], pa.string()),
                     "df": pa.array(sel["df"].astype(np.int64)),
                     "ttf": pa.array(sel["ttf"].astype(np.int64))})


def auto_stop_words(
    index_dir: str, *, field: "str | None" = None,
    max_doc_freq: "int | None" = None, max_percent: float = 0.4,
) -> frozenset:
    """Index-derived stop set — re-expresses (NOT ports)
    ``analysis/common/.../query/QueryAutoStopWordAnalyzer.java:150-170``:
    every term whose index-wide docFreq exceeds ``max_doc_freq`` (default:
    ``max_percent * numDocs``, defaultMaxDocFreqPercent=0.4) becomes a stop
    word.  Distribution shape: one Dataset read of the per-leaf (term, df)
    dict columns -> per-batch partial sums -> bucketed groupby sum -> the
    filtered survivors (a handful of very-high-df terms) come back to the
    driver.  Apply the result query-side via ``stop_chain_spec`` (or any
    ``chain:...|stop:...`` analyzer)."""
    import ray.data

    from ..state.fields import fprefix

    manifest = mf.read_index_manifest(index_dir)
    leaves = mf.leaf_rows(index_dir, manifest)
    if max_doc_freq is None:
        num_docs = sum(mf.live_docs(l) for l in leaves)
        max_doc_freq = int(max_percent * num_docs)
    fp = fprefix(field)
    files = [os.path.join(index_dir, s["dir"], fp + "terms.parquet")
             for s in leaves]

    def partial(batch: pa.Table) -> pd.DataFrame:
        t = batch["term"].to_pandas().map(
            lambda b: b.decode("utf-8") if isinstance(b, bytes) else b)
        g = pd.DataFrame({
            "term": t,
            "df": batch["df"].to_numpy(zero_copy_only=False).astype(
                np.int64),
        }).groupby("term", as_index=False).agg(df=("df", "sum"))
        h = pd.util.hash_array(g["term"].to_numpy(dtype=object))
        g["g"] = (h % 64).astype(np.int64)
        return g

    def bucket_filter(gb: pd.DataFrame) -> pd.DataFrame:
        agg = gb.groupby("term", as_index=False).agg(df=("df", "sum"))
        return agg[agg["df"] > max_doc_freq][["term"]]

    out = (
        ray.data.read_parquet(files, columns=["term", "df"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("g")
        .map_groups(bucket_filter, batch_format="pandas")
        .to_pandas()
    )
    return frozenset(out["term"].tolist())


def stop_chain_spec(stops, base_filters: str = "lowercase") -> str:
    """Build a ``chain:`` analyzer spec that applies an auto-derived stop
    set after ``base_filters`` (QueryAutoStopWordAnalyzer's wrapped-analyzer
    composition, ``QueryAutoStopWordAnalyzer.java:175-190``)."""
    words = ",".join(sorted(stops))
    if not words:
        return f"chain:standard|{base_filters}"
    return f"chain:standard|{base_filters}|stop:{words}"


def facet_sum_associations(
    index_dir: str, query: Query, facet_col: str, value_field: str,
) -> pa.Table:
    """Association facets — re-expresses (NOT ports)
    ``lucene/facet/src/java/org/apache/lucene/facet/associations/
    SumIntAssociationFacetsAggregator.java`` (and the Float variant):
    instead of counting, each matching doc contributes its NUMERIC
    doc-values ``value_field`` to its ``facet_col`` category's total.
    Same constant-size per-leaf partial shape as ``facet_counts``
    (bincount with weights). -> (value, sum)."""
    manifest = mf.read_index_manifest(index_dir)
    [(_, query)], ctx = plan_queries(index_dir, manifest, [query])
    ctx_ref = ray.put(ctx)
    q_ref = ray.put(query)

    def leaf_sums(batch: pd.DataFrame) -> pd.DataFrame:
        q = ray.get(q_ref)
        ctx_l = ray.get(ctx_ref)
        parts = []
        for row in batch.to_dict("records"):
            leaf = open_leaf(index_dir, row)
            docids, _ = execute(q, leaf, ctx_l)
            if len(docids) == 0:
                continue
            ords, values = leaf.dv_sorted(facet_col)
            o = np.asarray(ords)[docids]
            vals = leaf.doc_values(value_field, docids).astype(np.float64)
            # skip docs WITHOUT the association (SumIntAssociationFacets-
            # Aggregator only aggregates docs carrying the value): a NaN
            # value must not poison its category's whole sum
            keep = (o >= 0) & ~np.isnan(vals)
            s = np.bincount(o[keep], weights=vals[keep],
                            minlength=len(values))
            nz = np.nonzero(s)[0]
            parts.append(pd.DataFrame({facet_col: values[nz],
                                       "sum": s[nz]}))
        if not parts:
            return pd.DataFrame({facet_col: pd.Series([], dtype=object),
                                 "sum": pd.Series([], dtype="float64")})
        return pd.concat(parts, ignore_index=True)

    ds = leaf_dataset(index_dir, manifest)
    partials = ds.map_batches(leaf_sums, batch_format="pandas",
                              batch_size=4).to_pandas()
    if len(partials) == 0:
        return pa.table({facet_col: pa.array([], pa.string()),
                         "sum": pa.array([], pa.float64())})
    out = partials.groupby(facet_col, as_index=False)["sum"].sum()
    out = out.sort_values(facet_col).reset_index(drop=True)
    return pa.Table.from_pandas(out, preserve_index=False)


def all_groups_count(index_dir: str, query: Query,
                     group_field) -> int:
    """AbstractAllGroupsCollector analogue (``grouping/.../
    AbstractAllGroupsCollector.java``): the number of DISTINCT group
    values among the matching docs (docs with no value form no group).
    ``group_field`` is a field name or a ValueSource node
    (FunctionAllGroupsCollector). Per-leaf partial = that leaf's
    distinct matched values only."""
    manifest = mf.read_index_manifest(index_dir)
    [(_, query)], ctx = plan_queries(index_dir, manifest, [query])
    ctx_ref = ray.put(ctx)
    q_ref = ray.put(query)

    def leaf_groups(batch: pd.DataFrame) -> pd.DataFrame:
        q = ray.get(q_ref)
        ctx_l = ray.get(ctx_ref)
        vals: set = set()
        for row in batch.to_dict("records"):
            leaf = open_leaf(index_dir, row)
            docids, _ = execute(q, leaf, ctx_l)
            if len(docids) == 0:
                continue
            if isinstance(group_field, str):
                ords, values = leaf.dv_sorted(group_field)
                o = np.unique(np.asarray(ords)[docids])
                vals.update(values[o[o >= 0]])
            else:
                vals.update(np.unique(_group_values(
                    leaf, ctx_l, group_field, docids)).tolist())
        return pd.DataFrame({"v": pd.Series(sorted(vals), dtype=object)})

    ds = leaf_dataset(index_dir, manifest)
    parts = ds.map_batches(leaf_groups, batch_format="pandas",
                           batch_size=4).to_pandas()
    return int(parts["v"].nunique()) if len(parts) else 0


def group_heads(index_dir: str, query: Query, group_field: str,
                sort_field: str, descending: bool = False) -> pa.Table:
    """AbstractAllGroupHeadsCollector analogue: ONE doc per group — the
    best under the (sort_field, docid) order among that group's matches.
    Per-leaf partial = one head per group per leaf; exact driver reduce.
    -> (group, docid, sort value), ordered by group."""
    manifest = mf.read_index_manifest(index_dir)
    [(_, query)], ctx = plan_queries(index_dir, manifest, [query])
    ctx_ref = ray.put(ctx)
    q_ref = ray.put(query)

    def leaf_heads(batch: pd.DataFrame) -> pd.DataFrame:
        q = ray.get(q_ref)
        ctx_l = ray.get(ctx_ref)
        parts = []
        for row in batch.to_dict("records"):
            leaf = open_leaf(index_dir, row)
            docids, _ = execute(q, leaf, ctx_l)
            if len(docids) == 0:
                continue
            gords, gvals = leaf.dv_sorted(group_field)
            g = np.asarray(gords)[docids]
            sv = leaf.doc_values(sort_field, docids)
            keep = g >= 0
            df = pd.DataFrame({
                "group": gvals[g[keep]],
                "docid": docids[keep] + leaf.doc_base,
                "value": sv[keep],
            })
            df = df.sort_values(
                ["group", "value", "docid"],
                ascending=[True, not descending, True],
                kind="mergesort").groupby("group", as_index=False).first()
            parts.append(df)
        if not parts:
            return pd.DataFrame({"group": pd.Series([], dtype=object),
                                 "docid": pd.Series([], dtype="int64"),
                                 "value": pd.Series([], dtype="int64")})
        return pd.concat(parts, ignore_index=True)

    ds = leaf_dataset(index_dir, manifest)
    parts = ds.map_batches(leaf_heads, batch_format="pandas",
                           batch_size=4).to_pandas()
    if len(parts) == 0:
        return pa.table({"group": pa.array([], pa.string()),
                         "docid": pa.array([], pa.int64()),
                         "value": pa.array([], pa.int64())})
    out = parts.sort_values(
        ["group", "value", "docid"], ascending=[True, not descending, True],
        kind="mergesort").groupby("group", as_index=False).first()
    return pa.Table.from_pandas(out.reset_index(drop=True),
                                preserve_index=False)


def distinct_values(index_dir: str, query: Query, group_field: str,
                    count_field: str) -> pa.Table:
    """AbstractDistinctValuesCollector analogue: per group, the number of
    DISTINCT ``count_field`` values among matches.  Per-leaf partial =
    distinct (group, value) pairs. -> (group, distinct_count)."""
    manifest = mf.read_index_manifest(index_dir)
    [(_, query)], ctx = plan_queries(index_dir, manifest, [query])
    ctx_ref = ray.put(ctx)
    q_ref = ray.put(query)

    def leaf_pairs(batch: pd.DataFrame) -> pd.DataFrame:
        q = ray.get(q_ref)
        ctx_l = ray.get(ctx_ref)
        parts = []
        for row in batch.to_dict("records"):
            leaf = open_leaf(index_dir, row)
            docids, _ = execute(q, leaf, ctx_l)
            if len(docids) == 0:
                continue
            gords, gvals = leaf.dv_sorted(group_field)
            g = np.asarray(gords)[docids]
            cv = leaf.doc_values(count_field, docids)
            keep = g >= 0
            parts.append(pd.DataFrame({
                "group": gvals[g[keep]], "value": cv[keep],
            }).drop_duplicates())
        if not parts:
            return pd.DataFrame({"group": pd.Series([], dtype=object),
                                 "value": pd.Series([], dtype=object)})
        return pd.concat(parts, ignore_index=True)

    ds = leaf_dataset(index_dir, manifest)
    parts = ds.map_batches(leaf_pairs, batch_format="pandas",
                           batch_size=4).to_pandas()
    if len(parts) == 0:
        return pa.table({"group": pa.array([], pa.string()),
                         "distinct_count": pa.array([], pa.int64())})
    out = (parts.drop_duplicates().groupby("group")["value"]
           .nunique().reset_index(name="distinct_count")
           .sort_values("group").reset_index(drop=True))
    return pa.Table.from_pandas(out, preserve_index=False)
