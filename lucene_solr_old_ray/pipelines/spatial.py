"""Spatial search: point fields, bounding boxes, distance top-k.

Re-expresses (NOT ports) the 4.x spatial module's PointVectorStrategy
(``lucene/spatial/src/java/org/apache/lucene/spatial/vector/
PointVectorStrategy.java:48-170``): a point is two NUMERIC fields; a
rectangle query is the conjunction of two NumericRangeQueries
(makeWithin's X-range AND Y-range); distance ranking is a value source
over the two numeric doc-values (makeDistanceValueSource). Coordinates
here are fixed-point integers (micro-degrees) so range endpoints and
squared-distance ranking are EXACT integer math end to end — the
engine's numeric fields are order-preserving int terms.

- :func:`bbox_query` -> a Query usable anywhere (the makeWithin analogue);
- :func:`distance_topk` -> top-k nearest by squared euclidean (exact
  int64) or haversine meters (doubles) over the NUMERIC doc-values
  sidecars — one per-leaf vectorized pass, per-leaf top-k partials, exact
  driver reduce (the same shape as the field-sort collector).
"""

from __future__ import annotations


import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from ..queries import (
    MUST,
    MUST_NOT,
    BooleanClause,
    BooleanQuery,
    NumericRangeQuery,
    Query,
)
from ..state import manifest as mf
from .search import leaf_dataset, open_leaf, plan_queries

EARTH_RADIUS_M = 6_371_008.7714  # spatial4j DistanceUtils.EARTH_MEAN_RADIUS


def bbox_query(xfield: str, yfield: str, x_min: int, x_max: int,
               y_min: int, y_max: int) -> Query:
    """Rectangle containment = X-range AND Y-range (PointVectorStrategy
    .makeWithin for a Rect). Bounds inclusive, fixed-point ints."""
    return BooleanQuery((
        BooleanClause(MUST, NumericRangeQuery(xfield, x_min, x_max)),
        BooleanClause(MUST, NumericRangeQuery(yfield, y_min, y_max)),
    ))


def disjoint_bbox_query(xfield: str, yfield: str, x_min: int, x_max: int,
                        y_min: int, y_max: int) -> Query:
    """Re-expresses ``spatial/prefix/DisjointSpatialFilter.java:40-95``:
    SpatialOperation.IsDisjointTo == HAS-the-field AND NOT Intersects —
    docs lacking a point never match (the reference intersects with
    FieldCache getDocsWithField before and-notting the intersects set)."""
    from ..queries import FieldValueFilterQuery

    return BooleanQuery((
        BooleanClause(MUST, FieldValueFilterQuery(xfield)),
        BooleanClause(MUST, FieldValueFilterQuery(yfield)),
        BooleanClause(MUST_NOT, bbox_query(xfield, yfield, x_min, x_max,
                                           y_min, y_max)),
    ))


def haversine_m(x1_udeg, y1_udeg, x2_udeg, y2_udeg) -> np.ndarray:
    """Great-circle meters between micro-degree points (spatial4j
    DistanceUtils.distHaversineRAD)."""
    lon1 = np.radians(np.asarray(x1_udeg, dtype=np.float64) / 1e6)
    lat1 = np.radians(np.asarray(y1_udeg, dtype=np.float64) / 1e6)
    lon2 = np.radians(np.asarray(x2_udeg, dtype=np.float64) / 1e6)
    lat2 = np.radians(np.asarray(y2_udeg, dtype=np.float64) / 1e6)
    h = (np.sin((lat2 - lat1) / 2.0) ** 2
         + np.cos(lat1) * np.cos(lat2) * np.sin((lon2 - lon1) / 2.0) ** 2)
    return 2.0 * EARTH_RADIUS_M * np.arcsin(np.sqrt(h))


def distance_topk(
    index_dir: str, xfield: str, yfield: str, x: int, y: int, k: int = 10,
    *, metric: str = "euclidean2", query: "Query | None" = None,
) -> pa.Table:
    """Top-k nearest docs to (x, y) -> (rank, docid, dist[, x, y]).
    ``metric="euclidean2"`` ranks by EXACT int64 squared distance in
    micro-degrees (deterministic, SQL-oracle-able); ``"haversine_m"``
    ranks by great-circle meters. ``query`` optionally pre-filters the
    candidates (e.g. a bbox — the filtered-distance pattern)."""
    if metric not in ("euclidean2", "haversine_m"):
        raise ValueError(f"unknown metric {metric!r}")
    manifest = mf.read_index_manifest(index_dir)
    ctx = None
    if query is not None:
        [(_, query)], ctx = plan_queries(index_dir, manifest, [query])
    q_ref = ray.put(query)
    ctx_ref = ray.put(ctx)

    def leaf_topk(batch: pd.DataFrame) -> pd.DataFrame:
        from ..stages.search import execute

        q = ray.get(q_ref)
        ctx_l = ray.get(ctx_ref)
        parts = []
        for row in batch.to_dict("records"):
            leaf = open_leaf(index_dir, row)
            if q is not None:
                docids, _ = execute(q, leaf, ctx_l)
            else:
                docids = np.arange(leaf.num_docs, dtype=np.int64)
                if leaf.live is not None:
                    docids = docids[np.asarray(leaf.live)[docids]]
            if len(docids) == 0:
                continue
            xs = pd.to_numeric(pd.Series(
                leaf.doc_values(xfield, docids)), errors="coerce")
            ys = pd.to_numeric(pd.Series(
                leaf.doc_values(yfield, docids)), errors="coerce")
            present = xs.notna() & ys.notna()
            docids = docids[present.to_numpy()]
            if len(docids) == 0:
                continue
            xv = xs[present].to_numpy(dtype=np.int64)
            yv = ys[present].to_numpy(dtype=np.int64)
            if metric == "euclidean2":
                d = ((xv - np.int64(x)) ** 2 + (yv - np.int64(y)) ** 2)
                d = d.astype(np.int64)
            else:
                d = haversine_m(xv, yv, np.int64(x), np.int64(y))
            o = np.lexsort((docids, d))[:k]
            parts.append(pd.DataFrame({
                "docid": docids[o] + leaf.doc_base,
                "dist": d[o], "x": xv[o], "y": yv[o]}))
        if not parts:
            return pd.DataFrame({"docid": pd.Series([], dtype="int64"),
                                 "dist": pd.Series([], dtype="float64"),
                                 "x": pd.Series([], dtype="int64"),
                                 "y": pd.Series([], dtype="int64")})
        return pd.concat(parts, ignore_index=True)

    ds = leaf_dataset(index_dir, manifest)
    partials = ds.map_batches(leaf_topk, batch_format="pandas",
                              batch_size=4).to_pandas()
    if len(partials) == 0 or "docid" not in partials.columns:
        return pa.table({"rank": pa.array([], pa.int64()),
                         "docid": pa.array([], pa.int64()),
                         "dist": pa.array([], pa.int64() if metric ==
                                          "euclidean2" else pa.float64())})
    sel = partials.sort_values(["dist", "docid"],
                               kind="mergesort").head(k).reset_index(drop=True)
    dist_arr = (pa.array(sel["dist"].astype(np.int64))
                if metric == "euclidean2"
                else pa.array(sel["dist"].astype(np.float64)))
    return pa.table({
        "rank": pa.array(np.arange(1, len(sel) + 1, dtype=np.int64)),
        "docid": pa.array(sel["docid"].astype(np.int64)),
        "dist": dist_arr,
    })


# --------------------------------------------------- shapes beyond the bbox
#
# Re-expresses (NOT ports) the WITHIN/INTERSECTS relation for circle and
# polygon QUERY shapes over point data
# (``spatial/src/java/org/apache/lucene/spatial/prefix/
# WithinPrefixTreeFilter.java:1`` lineage + spatial4j circle/JTS polygon
# geometry): the engine's two-phase shape is grid-cover CANDIDATE
# generation (the prefix-tree filter) followed by an EXACT per-doc
# geometric verification over the numeric doc-values — so unlike the
# reference's grid approximation, results here are exact (the cover only
# affects how many candidates the verify stage sees). Circle containment
# is great-circle (haversine, spatial4j CircleImpl); polygon containment
# is planar even-odd ray casting in lat/lon space (JTS semantics — JTS
# polygons are Euclidean in coordinate space).


def circle_bbox_udeg(x: int, y: int, radius_m: float):
    """Enclosing (x_min, x_max, y_min, y_max) micro-degree bbox of a
    great-circle radius around (x, y) (spatial4j
    DistanceUtils.calcBoxByDistFromPtDEG, clamped at the poles; longitude
    wrap is clamped to the world bounds — documented engine scope)."""
    import math

    rad_deg = math.degrees(radius_m / EARTH_RADIUS_M)
    lat = y / 1e6
    y_min = max(-90.0, lat - rad_deg)
    y_max = min(90.0, lat + rad_deg)
    # widest longitude span occurs at the extreme latitude of the box
    max_abs_lat = min(89.9999, max(abs(y_min), abs(y_max)))
    lon_span = rad_deg / max(1e-9, math.cos(math.radians(max_abs_lat)))
    x_min = max(-180.0, x / 1e6 - lon_span)
    x_max = min(180.0, x / 1e6 + lon_span)
    return (int(math.floor(x_min * 1e6)), int(math.ceil(x_max * 1e6)),
            int(math.floor(y_min * 1e6)), int(math.ceil(y_max * 1e6)))


def point_in_polygon(xs, ys, poly) -> np.ndarray:
    """Vectorized even-odd ray casting: True where (xs[i], ys[i]) lies
    inside the closed polygon ``poly`` = [(x, y), ...] (micro-degree ints,
    planar). Points exactly on a horizontal-crossing edge follow the
    half-open convention (lower endpoint in, upper out) — the standard
    crossing-number algorithm JTS RayCrossingCounter implements."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    inside = np.zeros(len(xs), dtype=bool)
    n = len(poly)
    for i in range(n):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % n]
        crosses = (y1 > ys) != (y2 > ys)
        if not crosses.any():
            continue
        t = (ys - y1) / (y2 - y1)
        cross_x = x1 + t * (x2 - x1)
        inside ^= crosses & (xs < cross_x)
    return inside


def _shape_candidates(index_dir, manifest, geo_field, bbox, max_levels,
                      tree):
    """Candidate filter query from the geohash-indexed field covering the
    shape's bbox, or None for a full scan (no geo field indexed)."""
    if geo_field is None:
        return None
    from .geoprefix import geo_intersects_query

    x_min, x_max, y_min, y_max = bbox
    return geo_intersects_query(
        geo_field, x_min / 1e6, y_min / 1e6, x_max / 1e6, y_max / 1e6,
        max_levels, tree=tree)


def _verify_shape(index_dir: str, xfield: str, yfield: str, cand_query,
                  verify) -> pa.Table:
    """Shared two-phase executor: per leaf, run the candidate query (or
    live-doc scan), read the numeric doc-values, keep docs passing the
    EXACT ``verify(xv, yv) -> bool mask`` -> (docid,) ascending."""
    manifest = mf.read_index_manifest(index_dir)
    ctx = None
    if cand_query is not None:
        [(_, cand_query)], ctx = plan_queries(index_dir, manifest,
                                              [cand_query])
    q_ref = ray.put(cand_query)
    ctx_ref = ray.put(ctx)
    v_ref = ray.put(verify)

    def leaf_verify(batch: pd.DataFrame) -> pd.DataFrame:
        from ..stages.search import execute

        q = ray.get(q_ref)
        ctx_l = ray.get(ctx_ref)
        verify_l = ray.get(v_ref)
        parts = []
        for row in batch.to_dict("records"):
            leaf = open_leaf(index_dir, row)
            if q is not None:
                docids, _ = execute(q, leaf, ctx_l)
            else:
                docids = np.arange(leaf.num_docs, dtype=np.int64)
                if leaf.live is not None:
                    docids = docids[np.asarray(leaf.live)[docids]]
            if len(docids) == 0:
                continue
            xs = pd.to_numeric(pd.Series(
                leaf.doc_values(xfield, docids)), errors="coerce")
            ys = pd.to_numeric(pd.Series(
                leaf.doc_values(yfield, docids)), errors="coerce")
            present = (xs.notna() & ys.notna()).to_numpy()
            docids = docids[present]
            if len(docids) == 0:
                continue
            keep = verify_l(xs[present].to_numpy(dtype=np.int64),
                            ys[present].to_numpy(dtype=np.int64))
            parts.append(pd.DataFrame(
                {"docid": docids[keep] + leaf.doc_base}))
        if not parts:
            return pd.DataFrame({"docid": pd.Series([], dtype="int64")})
        return pd.concat(parts, ignore_index=True)

    ds = leaf_dataset(index_dir, manifest)
    out = ds.map_batches(leaf_verify, batch_format="pandas",
                         batch_size=4).to_pandas()
    if "docid" not in out.columns:
        return pa.table({"docid": pa.array([], pa.int64())})
    return pa.table({"docid": pa.array(
        np.sort(out["docid"].to_numpy(dtype=np.int64)))})


def geo_within_circle(
    index_dir: str, xfield: str, yfield: str, x: int, y: int,
    radius_m: float, *, geo_field: str | None = None, max_levels: int = 7,
    tree: str = "geohash",
) -> pa.Table:
    """Docs whose point lies within ``radius_m`` great-circle meters of
    (x, y) micro-degrees -> (docid,) ascending, EXACT (haversine verify
    after the optional prefix-tree candidate cover)."""
    manifest = mf.read_index_manifest(index_dir)
    cand = _shape_candidates(index_dir, manifest, geo_field,
                             circle_bbox_udeg(x, y, radius_m),
                             max_levels, tree)

    def verify(xv, yv):
        return haversine_m(xv, yv, np.int64(x), np.int64(y)) <= radius_m

    return _verify_shape(index_dir, xfield, yfield, cand, verify)


def geo_within_polygon(
    index_dir: str, xfield: str, yfield: str,
    poly: "list[tuple[int, int]]", *, geo_field: str | None = None,
    max_levels: int = 7, tree: str = "geohash",
) -> pa.Table:
    """Docs whose point lies within the planar polygon ``poly``
    (micro-degree vertices, closed implicitly) -> (docid,) ascending,
    EXACT (even-odd ray-cast verify after the optional cover)."""
    if len(poly) < 3:
        raise ValueError("polygon needs >= 3 vertices")
    manifest = mf.read_index_manifest(index_dir)
    px = [p[0] for p in poly]
    py = [p[1] for p in poly]
    bbox = (min(px), max(px), min(py), max(py))
    cand = _shape_candidates(index_dir, manifest, geo_field, bbox,
                             max_levels, tree)

    def verify(xv, yv):
        return point_in_polygon(xv, yv, poly)

    return _verify_shape(index_dir, xfield, yfield, cand, verify)
