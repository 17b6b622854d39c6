"""ToParentBlockJoinCollector analogue: child hits GROUPED under their
ranked parents (TopGroups per parent).

Re-expresses (NOT ports) ``lucene/join/src/java/org/apache/lucene/search/
join/ToParentBlockJoinCollector.java:1`` + ``getTopGroups`` (:362-427):
the reference collects the top parents by the join query's parent score
while caching every matched child's (doc, score) per parent block, then
re-emits each selected parent's children sorted by the within-group sort.
Child ordering uses the TopScoreDocCollector contract (score desc, docID
asc on ties); ``within_group_offset``/``max_docs_per_group`` slice each
group like the reference's TopDocs window, and ``group_child_hits``
carries each group's total matched-child count (the GroupDocs.totalHits
field).

Distribution shape — deliberately better than the reference's
cache-everything collector: phase 1 is the engine's normal distributed
top-k on the JOIN query (k-sized partials per leaf, TopDocs.merge);
phase 2 re-runs the child query per leaf and keeps ONLY children whose
enclosing parent is in the broadcast top-k parent set, so the shuffled
rows are bounded by k_parents x block size, never corpus-sized. Blocks
never straddle leaves (the engine's addDocuments block contract), so the
child -> parent mapping is a local searchsorted against the leaf's
parents-filter postings.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..queries import TermQuery, ToParentBlockJoinQuery
from ..state import manifest as mf


def block_join_top_groups(
    index_dir: str,
    q: ToParentBlockJoinQuery,
    *,
    k_parents: int = 10,
    offset: int = 0,
    max_docs_per_group: int = 10,
    within_group_offset: int = 0,
    parent_sort: "list[tuple[str, bool]] | None" = None,
    within_group_sort: "list[tuple[str, bool]] | None" = None,
) -> pa.Table:
    """-> (parent_docid, parent_rank, parent_score, group_child_hits,
    child_rank, child_docid, child_score), parent_rank 1-based after
    ``offset``, child_rank 1-based after ``within_group_offset``; one row
    per returned child hit, ordered by (parent_rank, child_rank). Parents
    whose children are all sliced away keep NO rows (the reference returns
    an empty GroupDocs.scoreDocs array; we drop the group rows — the
    parent is still visible through lower offsets).

    Sort variants (the collector's ``Sort sort`` ctor arg and
    ``getTopGroups``'s ``withinGroupSort``): ``parent_sort`` ranks parents
    by doc-values fields ``[(field, descending)]`` via the engine's
    TopFieldCollector analogue instead of the join score — parent_score is
    then ``NaN``, the reference's untracked-scores sentinel
    (``ToParentBlockJoinCollector.java:106`` ``trackScores=false`` path).
    ``within_group_sort`` orders each group's children by their doc-values
    fields (tie-break docID asc — the TopFieldCollector docID tiebreak)
    instead of (score desc, docID asc); child scores stay populated, as
    the reference does when trackScores is on."""
    import ray
    import ray.data

    from ..stages.search import execute
    from .analytics import sort_by_fields
    from .search import leaf_dataset, open_leaf, plan_queries, search

    if parent_sort:
        res = sort_by_fields(index_dir, q, parent_sort,
                             k=offset + k_parents)
    else:
        res = search(index_dir, {0: q}, k=offset + k_parents)
    empty = pa.table({
        "parent_docid": pa.array([], pa.int64()),
        "parent_rank": pa.array([], pa.int32()),
        "parent_score": pa.array([], pa.float32()),
        "group_child_hits": pa.array([], pa.int64()),
        "child_rank": pa.array([], pa.int32()),
        "child_docid": pa.array([], pa.int64()),
        "child_score": pa.array([], pa.float32()),
    })
    sel = res.to_pandas().iloc[offset:]
    if not len(sel):
        return empty
    wanted = np.sort(sel["docid"].to_numpy(dtype=np.int64))
    rank_of = dict(zip(sel["docid"], range(1, len(sel) + 1)))
    if parent_sort:
        score_of = {d: float("nan") for d in sel["docid"]}
    else:
        score_of = dict(zip(sel["docid"], sel["score"]))
    wgs_fields = [f for f, _ in (within_group_sort or [])]

    manifest = mf.read_index_manifest(index_dir)
    [(_, child), (_, parent)], ctx = plan_queries(
        index_dir, manifest,
        [q.child, TermQuery(q.parent_value, field=q.parent_field)])
    bcast = ray.put((ctx, child, parent, q.boost, wanted))

    def leaf_children(batch: pd.DataFrame) -> pd.DataFrame:
        ctx_l, child_l, parent_l, boost_l, wanted_l = ray.get(bcast)
        parts = []
        for row in batch.to_dict("records"):
            base = int(row["doc_base"])
            nd = int(row["num_docs"])
            lo = np.searchsorted(wanted_l, base)
            hi = np.searchsorted(wanted_l, base + nd)
            if lo == hi:
                continue  # no selected parent lives in this leaf
            leaf = open_leaf(index_dir, row)
            parents, _ = execute(parent_l, leaf, ctx_l)
            cd, cs = execute(child_l, leaf, ctx_l, boost_l)
            if len(cd) == 0 or len(parents) == 0:
                continue
            idx = np.searchsorted(parents, cd, side="left")
            ok = idx < len(parents)
            cd, cs, idx = cd[ok], cs[ok], idx[ok]
            pdoc = parents[idx] + base
            keep = np.isin(pdoc, wanted_l, assume_unique=False)
            if not keep.any():
                continue
            data = {
                "parent_docid": pdoc[keep].astype(np.int64),
                "child_docid": (cd[keep] + base).astype(np.int64),
                "child_score": cs[keep].astype(np.float32),
            }
            for i, f in enumerate(wgs_fields):
                data[f"wgs{i}"] = leaf.doc_values(f, cd[keep])
            parts.append(pd.DataFrame(data))
        return (pd.concat(parts, ignore_index=True) if parts
                else pd.DataFrame())

    ds = leaf_dataset(index_dir, manifest)
    kids = ds.map_batches(leaf_children, batch_format="pandas",
                          batch_size=4).to_pandas()
    if "parent_docid" not in kids.columns:
        return empty

    out: dict[str, list] = {k: [] for k in empty.column_names}
    for pdoc, g in kids.groupby("parent_docid", sort=False):
        if within_group_sort:
            asc = [not d for _, d in within_group_sort] + [True]
            gs = g.sort_values(
                [f"wgs{i}" for i in range(len(within_group_sort))]
                + ["child_docid"], ascending=asc, kind="mergesort")
        else:
            order = np.lexsort((g["child_docid"].to_numpy(),
                                -g["child_score"].to_numpy(np.float32)))
            gs = g.iloc[order]
        gsel = gs.iloc[within_group_offset:
                       within_group_offset + max_docs_per_group]
        n = len(gsel)
        if n == 0:
            continue
        out["parent_docid"].extend([int(pdoc)] * n)
        out["parent_rank"].extend([int(rank_of[pdoc])] * n)
        out["parent_score"].extend([float(score_of[pdoc])] * n)
        out["group_child_hits"].extend([len(g)] * n)
        out["child_rank"].extend(range(within_group_offset + 1,
                                       within_group_offset + 1 + n))
        out["child_docid"].extend(gsel["child_docid"].tolist())
        out["child_score"].extend(gsel["child_score"].tolist())

    t = pa.table({
        "parent_docid": pa.array(out["parent_docid"], pa.int64()),
        "parent_rank": pa.array(out["parent_rank"], pa.int32()),
        "parent_score": pa.array(
            np.asarray(out["parent_score"], dtype=np.float32), pa.float32()),
        "group_child_hits": pa.array(out["group_child_hits"], pa.int64()),
        "child_rank": pa.array(out["child_rank"], pa.int32()),
        "child_docid": pa.array(out["child_docid"], pa.int64()),
        "child_score": pa.array(
            np.asarray(out["child_score"], dtype=np.float32), pa.float32()),
    })
    o = np.lexsort((t["child_rank"].to_numpy(), t["parent_rank"].to_numpy()))
    return t.take(o)


def block_grouping_top_groups(
    index_dir: str,
    query,
    group_end_query,
    *,
    k_groups: int = 10,
    max_docs_per_group: int = 10,
) -> pa.Table:
    """BlockGroupingCollector analogue (``grouping/BlockGroupingCollector
    .java:60-330``): for block-indexed groups (each group's docs contiguous,
    ``group_end_query`` matching the LAST doc of every block), rank groups
    by their BEST matching doc's score (relevance groupSort — the
    ``Sort.RELEVANCE`` path) and return each selected group's top docs.

    -> (group_ord 1-based, group_score, group_hits, rank, docid, score)
    ordered by (group_ord, rank); group_hits is GroupDocs.totalHits.
    Groups rank (score desc, group-head docid asc — the TopDocs tie rule).

    Distribution shape: blocks never straddle leaves, so each leaf emits
    its own top-``k_groups`` candidate groups (with per-group top docs,
    a k-bounded partial), and the driver merges — never the full match
    set."""
    import ray
    import ray.data

    from .search import leaf_dataset, open_leaf, plan_queries
    from ..stages.search import execute

    manifest = mf.read_index_manifest(index_dir)
    [(_, query), (_, group_end_query)], ctx = plan_queries(
        index_dir, manifest, [query, group_end_query])
    ctx_ref = ray.put(ctx)
    q_ref = ray.put((query, group_end_query))

    def leaf_groups(batch: pd.DataFrame) -> pd.DataFrame:
        q, geq = ray.get(q_ref)
        ctx_l = ray.get(ctx_ref)
        parts = []
        for row in batch.to_dict("records"):
            leaf = open_leaf(index_dir, row)
            ends = execute(geq, leaf, ctx_l)[0]
            if len(ends) == 0:
                continue
            docids, scores = execute(q, leaf, ctx_l)
            if len(docids) == 0:
                continue
            gidx = np.searchsorted(ends, docids)
            ok = gidx < len(ends)  # docs past the last end belong nowhere
            docids, scores, gidx = docids[ok], scores[ok], gidx[ok]
            if len(docids) == 0:
                continue
            # per-group best score + head doc + hit count
            order = np.lexsort((docids, -scores.astype(np.float64), gidx))
            d_s, s_s, g_s = docids[order], scores[order], gidx[order]
            first = np.unique(g_s, return_index=True)[1]
            counts = np.diff(np.append(first, len(g_s)))
            gscore = s_s[first]
            ghead = d_s[first]
            # leaf-local top k_groups candidate groups
            sel = np.lexsort((ghead, -gscore.astype(np.float64)))[:k_groups]
            for si in sel:
                lo = first[si]
                n = min(int(counts[si]), max_docs_per_group)
                parts.append(pd.DataFrame({
                    "gscore": np.float32(gscore[si]),
                    "ghead": int(ghead[si]) + leaf.doc_base,
                    "ghits": int(counts[si]),
                    "rank": np.arange(1, n + 1, dtype=np.int32),
                    "docid": d_s[lo:lo + n] + leaf.doc_base,
                    "score": s_s[lo:lo + n],
                }))
        if not parts:
            return pd.DataFrame({
                "gscore": pd.Series([], dtype="float32"),
                "ghead": pd.Series([], dtype="int64"),
                "ghits": pd.Series([], dtype="int64"),
                "rank": pd.Series([], dtype="int32"),
                "docid": pd.Series([], dtype="int64"),
                "score": pd.Series([], dtype="float32")})
        return pd.concat(parts, ignore_index=True)

    ds = leaf_dataset(index_dir, manifest)
    rows = ds.map_batches(leaf_groups, batch_format="pandas",
                          batch_size=4).to_pandas()
    if len(rows) == 0 or "ghead" not in rows.columns:
        return pa.table({"group_ord": pa.array([], pa.int32()),
                         "group_score": pa.array([], pa.float32()),
                         "group_hits": pa.array([], pa.int64()),
                         "rank": pa.array([], pa.int32()),
                         "docid": pa.array([], pa.int64()),
                         "score": pa.array([], pa.float32())})
    heads = (rows.drop_duplicates("ghead")
             .sort_values(["gscore", "ghead"], ascending=[False, True])
             .head(k_groups))
    out = []
    for gord, (_, h) in enumerate(heads.iterrows(), start=1):
        sub = rows[rows["ghead"] == h["ghead"]].sort_values("rank")
        out.append(pd.DataFrame({
            "group_ord": np.int32(gord),
            "group_score": np.float32(h["gscore"]),
            "group_hits": int(h["ghits"]),
            "rank": sub["rank"].to_numpy(),
            "docid": sub["docid"].to_numpy(),
            "score": sub["score"].to_numpy(),
        }))
    res = pd.concat(out, ignore_index=True)
    return pa.Table.from_pandas(res, preserve_index=False)


def sort_parents_by_child_field(
    index_dir: str,
    q: ToParentBlockJoinQuery,
    child_field: str,
    *,
    reverse: bool = False,
    order: "bool | None" = None,
    child_filter=None,
    k: int = 10,
) -> pa.Table:
    """Rank the join query's PARENT hits by a CHILD-level doc-values field.

    Re-expresses (NOT ports) ``join/ToParentBlockJoinSortField.java:32-82``
    + ``ToParentBlockJoinFieldComparator.java`` Lowest/Highest: each hit
    parent's sort key is the LOWEST (``order=False``) or HIGHEST
    (``order=True``) ``child_field`` value among its block's children —
    optionally restricted to ``child_filter`` matches (the ctor's
    childFilter) — and ``reverse`` flips the parent-level order; the
    2-arg reference ctor sets order = reverse, the default here. Parents
    whose qualifying children carry no value sort as NULL-LOWEST (the
    wrapped comparator's missing-value contract; docID asc tie-break).
    -> (rank, docid, <child_field>).

    Per-leaf top-k partials under the same comparator are a superset of
    the global top-k (blocks never straddle leaves), so the driver reduce
    re-sorts only len(leaves) x k rows."""
    import ray
    import ray.data

    from ..stages.search import execute
    from .search import leaf_dataset, open_leaf, plan_queries

    highest = reverse if order is None else order
    ascending = not reverse
    na_pos = "first" if ascending else "last"  # null == lowest value

    manifest = mf.read_index_manifest(index_dir)
    planned, ctx = plan_queries(
        index_dir, manifest,
        {0: q} if child_filter is None else {0: q, 1: child_filter})
    planned = dict(planned)
    bcast = ray.put((ctx, planned[0], planned.get(1)))

    def leaf_topk(batch: pd.DataFrame) -> pd.DataFrame:
        ctx_l, q_l, cf = ray.get(bcast)
        parts = []
        for row in batch.to_dict("records"):
            leaf = open_leaf(index_dir, row)
            hits, _ = execute(q_l, leaf, ctx_l)
            if len(hits) == 0:
                continue
            parents, _ = execute(
                TermQuery(q_l.parent_value, field=q_l.parent_field),
                leaf, ctx_l)
            # block ranges: children of parent p = (previous parent, p)
            pi = np.searchsorted(parents, hits)
            starts = np.where(pi > 0, parents[np.maximum(pi - 1, 0)] + 1, 0)
            counts = hits - starts
            encl = np.repeat(hits, counts)
            child = (np.arange(int(counts.sum()), dtype=np.int64)
                     - np.repeat(counts.cumsum() - counts, counts)
                     + np.repeat(starts, counts))
            if cf is not None and len(child):
                fdocs = execute(cf, leaf, ctx_l)[0]
                m = np.isin(child, fdocs)
                child, encl = child[m], encl[m]
            key = pd.Series([None] * len(hits), index=hits, dtype=object)
            if len(child):
                vals = leaf.doc_values(child_field, child)
                g = pd.DataFrame({"p": encl, "v": vals}).dropna(subset=["v"])
                if len(g):
                    agg = (g.groupby("p")["v"].max() if highest
                           else g.groupby("p")["v"].min())
                    key.update(agg)
            df = pd.DataFrame({"docid": hits + leaf.doc_base,
                               child_field: key.to_numpy()})
            df = df.sort_values([child_field, "docid"],
                                ascending=[ascending, True],
                                kind="mergesort", na_position=na_pos).head(k)
            parts.append(df)
        return (pd.concat(parts, ignore_index=True) if parts
                else pd.DataFrame())

    ds = leaf_dataset(index_dir, manifest)
    partials = ds.map_batches(leaf_topk, batch_format="pandas",
                              batch_size=4).to_pandas()
    if "docid" not in partials.columns or not len(partials):
        return pa.table({"rank": pa.array([], pa.int64()),
                         "docid": pa.array([], pa.int64()),
                         child_field: pa.array([], pa.string())})
    sel = partials.sort_values(
        [child_field, "docid"], ascending=[ascending, True],
        kind="mergesort", na_position=na_pos).head(k).reset_index(drop=True)
    sel.insert(0, "rank", np.arange(1, len(sel) + 1, dtype=np.int64))
    return pa.Table.from_pandas(sel, preserve_index=False)
