"""Deletes and updates: the liveDocs protocol
(``index/BufferedDeletesStream.java`` / ``codecs/LiveDocsFormat.java``
re-expressed manifest-first).

- ``delete_by_query`` computes matching docIDs per leaf (plain tasks over
  the leaf groups), merges them into per-leaf liveDocs bitmaps stored under
  ``index_dir/deletes/g<gen>/``, and publishes a new manifest generation whose
  segment entries carry the bitmap paths. Nothing in the segment files
  changes; like the reference, collection/term statistics keep counting
  deleted docs until they are physically reclaimed.
- search-time: every executor masks results through the leaf's liveDocs
  (deleted docs never match, including via MUST_NOT or constant-score paths).
- ``add_documents`` appends freshly built segments (docBase = old maxDoc) —
  with ``delete_by_query`` this is the reference's updateDocument
  (delete-by-term + add, ``index/IndexWriter.java:1494``).
- ``expunge_deletes`` physically reclaims: leaves with tombstones are rebuilt
  (postings decoded, dead docs dropped, local docIDs compacted, positions and
  docmap filtered), docBases re-prefix-summed, stats recomputed — the
  reclaim-deletes role of the reference's merges
  (``index/TieredMergePolicy.java:429-480``).
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data

from ..queries import Query
from ..stages.search import execute
from ..state import docvalues as dv
from ..state import manifest as mf
from .search import leaf_dataset, map_leaves, open_leaf, plan_queries


@ray.remote
def _mark_task(index_dir: str, rows: list[dict], query: Query, ctx,
               gen: int) -> dict[str, tuple[str | None, int]]:
    """leaf dir -> (liveDocs path relative to ``index_dir`` or None, deleted
    count) for ``rows``: the leaf's live bitmap with ``query``'s matches
    cleared, written to ``deletes/g<gen>/`` when any doc of the leaf is
    deleted."""
    out = {}
    for row in rows:
        leaf = open_leaf(index_dir, row)
        docids, _ = execute(query, leaf, ctx)
        live = (leaf.live.copy() if leaf.live is not None
                else np.ones(leaf.num_docs, dtype=bool))
        live[docids] = False
        n_del = int((~live).sum())
        rel = None
        if n_del:
            rel = os.path.join("deletes", f"g{gen}",
                               f"leaf-{int(row['leaf_ord']):05d}.npy")
            tmp = os.path.join(index_dir, rel + f".tmp-{os.getpid()}.npy")
            np.save(tmp, live, allow_pickle=False)
            os.replace(tmp, os.path.join(index_dir, rel))
        out[row["dir"]] = (rel, n_del)
    return out


def delete_by_query(index_dir: str, query: Query) -> dict:
    """Mark matching docs deleted; returns the new manifest. Idempotent."""
    manifest = mf.read_index_manifest(index_dir)
    gen = manifest["generation"] + 1
    out_dir = os.path.join(index_dir, "deletes", f"g{gen}")
    os.makedirs(out_dir, exist_ok=True)
    [(_, query)], ctx = plan_queries(index_dir, manifest, [query])
    rows = mf.leaf_rows(index_dir, manifest)
    marks: dict[str, tuple[str | None, int]] = {}
    for part in map_leaves(_mark_task, index_dir, rows, query, ctx, gen):
        marks.update(part)

    seg_of = {s["dir"]: s for s in manifest["segments"]}
    new_segments = []
    total_deleted = 0
    for row in rows:
        e = dict(seg_of[row["dir"]])
        rel, n_del = marks[row["dir"]]
        if rel is not None:
            e["deletes"] = rel
            e["num_deleted"] = n_del
        total_deleted += int(e.get("num_deleted", 0))
        new_segments.append(e)
    new_manifest = dict(manifest)
    new_manifest["segments"] = new_segments
    new_manifest["metrics"] = {"op": "delete_by_query",
                               "total_deleted": total_deleted}
    mf.publish_index_manifest(index_dir, new_manifest)
    return mf.read_index_manifest(index_dir)


def add_documents(index_dir: str, spec, *, target_docs_per_partition=50_000) -> dict:
    """Append new segments built from ``spec`` (docBase = current maxDoc) —
    the add half of updateDocument."""
    from ..sources.corpus import plan_partitions
    from ..stages.build import make_build_fn, segment_dir

    manifest = mf.read_index_manifest(index_dir)
    base = manifest["stats"]["max_doc"]
    part0 = mf.next_part_id(index_dir, manifest)
    plans = plan_partitions(spec, target_docs_per_partition)
    for p in plans:
        p.part_id += part0
        p.doc_base += base
    from dataclasses import asdict

    ds = ray.data.from_items([asdict(p) for p in plans],
                             override_num_blocks=len(plans))
    metrics = ds.map_batches(
        make_build_fn(spec, index_dir), batch_format="pandas", batch_size=1
    ).to_pandas()

    new_manifest = dict(manifest)
    new_manifest["segments"] = list(manifest["segments"]) + [
        {"dir": os.path.relpath(segment_dir(index_dir, p.part_id), index_dir),
         "part_id": p.part_id, "doc_base": p.doc_base, "num_docs": p.num_docs}
        for p in plans
    ]
    import json as _json

    field_tf = {n: int(fs["sum_total_term_freq"])
                for n, fs in manifest["stats"].get("fields", {}).items()}
    if "fields_json" in metrics.columns:
        for fj in metrics["fields_json"]:
            for n, m in _json.loads(fj or "{}").items():
                field_tf[n] = field_tf.get(n, 0) + int(m["sum_tf"])
    new_manifest["stats"] = {
        "max_doc": base + int(metrics["num_docs"].sum()),
        "sum_total_term_freq": manifest["stats"]["sum_total_term_freq"]
        + int(metrics["sum_tf"].sum()),
        **({"fields": {n: {"sum_total_term_freq": v}
                       for n, v in field_tf.items()}} if field_tf else {}),
    }
    new_manifest["metrics"] = {"op": "add_documents",
                               "added": int(metrics["num_docs"].sum())}
    mf.publish_index_manifest(index_dir, new_manifest)
    return mf.read_index_manifest(index_dir)


def expunge_deletes(index_dir: str) -> dict:
    """Physically drop deleted docs: rebuild tombstoned leaves with compacted
    docIDs, re-prefix-sum docBases, recompute stats."""
    from ..functions.codec import (
        decode_blob,
        decode_positions_blob,
        encode_chunk,
        encode_positions_chunk,
    )

    manifest = mf.read_index_manifest(index_dir)
    gen = manifest["generation"] + 1

    def rebuild_field(sd: str, prefix: str, live: np.ndarray,
                      remap: np.ndarray):
        """Drop dead docs from one field's postings; returns
        (terms, dfs, ttfs, blobs, pblobs|None, new_norms, sum_tf)."""
        terms_t = pq.read_table(os.path.join(sd, prefix + "terms.parquet"))
        blob_all = open(os.path.join(sd, prefix + "postings.bin"), "rb").read()
        has_pos = "pos_off" in terms_t.column_names
        pos_all = (open(os.path.join(sd, prefix + "positions.bin"), "rb").read()
                   if has_pos else b"")
        norms = np.frombuffer(
            open(os.path.join(sd, prefix + "norms.bin"), "rb").read(),
            dtype=np.uint8)
        new_norms = norms[live]
        names = terms_t["term"].to_pylist()
        offs = terms_t["off"].to_numpy()
        lens = terms_t["len"].to_numpy()
        if has_pos:
            poffs = terms_t["pos_off"].to_numpy()
            plens = terms_t["pos_len"].to_numpy()

        out_terms, dfs, ttfs, blobs, pblobs = [], [], [], [], []
        sum_tf = 0
        for i, term in enumerate(names):
            d, t = decode_blob(blob_all[offs[i] : offs[i] + lens[i]])
            keep = live[d]
            if has_pos:
                flat = decode_positions_blob(
                    pos_all[poffs[i] : poffs[i] + plens[i]])
                pkeep = np.repeat(keep, t.astype(np.int64))
                flat = flat[pkeep]
            d, t = d[keep], t[keep]
            if len(d) == 0:
                continue
            nd = remap[d].astype(np.uint32)
            out_terms.append(term)
            dfs.append(len(nd))
            ttfs.append(int(t.sum()))
            sum_tf += int(t.sum())
            blobs.append(encode_chunk(nd, t, new_norms))
            if has_pos:
                pblobs.append(encode_positions_chunk(flat))
        return (out_terms, dfs, ttfs, blobs, pblobs if has_pos else None,
                new_norms, sum_tf)

    def rebuild(batch: pd.DataFrame) -> pd.DataFrame:
        import json as _json

        from ..state.fields import fprefix, list_extra_fields

        rows = []
        for row in batch.to_dict("records"):
            if not row["deletes"]:
                rows.append({"leaf_ord": int(row["leaf_ord"]),
                             "dir": row["dir"],
                             "num_docs": int(row["num_docs"]),
                             "sum_tf": -1, "fields_json": "{}"})
                continue
            sd = os.path.join(index_dir, row["dir"])
            live = np.load(row["deletes"])
            remap = np.cumsum(live) - 1  # old local id -> new local id
            out_terms, dfs, ttfs, blobs, pblobs, new_norms, sum_tf = (
                rebuild_field(sd, "", live, remap))
            extras = {}
            for fname in list_extra_fields(sd):
                extras[fname] = rebuild_field(sd, fprefix(fname), live, remap)
            # write with the shared shard writer (expects shard descriptor)
            out_dir = os.path.join(index_dir, f"shards-g{gen}",
                                   f"shard-{int(row['leaf_ord']):05d}")
            os.makedirs(os.path.dirname(out_dir), exist_ok=True)
            dm = pq.read_table(os.path.join(sd, "docmap.parquet"))
            dm = dm.filter(pa.array(live))
            _write_plain_leaf(out_dir, out_terms, dfs, ttfs, blobs,
                              pblobs, new_norms, dm, sum_tf, extras)
            rows.append({"leaf_ord": int(row["leaf_ord"]),
                         "dir": os.path.relpath(out_dir, index_dir),
                         "num_docs": int(live.sum()), "sum_tf": sum_tf,
                         "fields_json": _json.dumps(
                             {f: e[6] for f, e in extras.items()})})
        return pd.DataFrame(rows)

    ds = leaf_dataset(index_dir, manifest)
    rep = ds.map_batches(rebuild, batch_format="pandas", batch_size=1).to_pandas()
    rep = rep.sort_values("leaf_ord")

    import json as _json

    seg_of = {s["dir"]: s for s in manifest["segments"]}
    segments = []
    doc_base = 0
    sum_tf_total = 0
    field_tf: dict[str, int] = {}
    for r in rep.itertuples(index=False):
        if r.sum_tf < 0:  # untouched leaf
            l = dict(seg_of[r.dir])
            sm = mf.read_json(os.path.join(index_dir, l["dir"], mf.SEGMENT_MANIFEST))
            sum_tf_total += sm["sum_tf"]
            for fn, fm in sm.get("fields", {}).items():
                field_tf[fn] = field_tf.get(fn, 0) + int(fm["sum_tf"])
        else:
            l = {"dir": r.dir, "part_id": r.leaf_ord, "num_docs": int(r.num_docs)}
            sum_tf_total += int(r.sum_tf)
            for fn, v in _json.loads(r.fields_json or "{}").items():
                field_tf[fn] = field_tf.get(fn, 0) + int(v)
        l["doc_base"] = doc_base
        l["num_docs"] = int(r.num_docs)
        l.pop("deletes", None)
        l.pop("num_deleted", None)
        doc_base += int(r.num_docs)
        segments.append(l)
    new_manifest = dict(manifest)
    new_manifest["kind"] = "shards"
    new_manifest["segments"] = segments
    new_manifest["stats"] = {
        "max_doc": doc_base, "sum_total_term_freq": sum_tf_total,
        **({"fields": {n: {"sum_total_term_freq": v}
                       for n, v in field_tf.items()}} if field_tf else {}),
    }
    new_manifest["metrics"] = {"op": "expunge_deletes"}
    mf.publish_index_manifest(index_dir, new_manifest)
    return mf.read_index_manifest(index_dir)


def _write_field(tmp, prefix, terms, dfs, ttfs, blobs, pblobs, norms):
    offs = np.zeros(len(terms), dtype=np.int64)
    lens_b = np.zeros(len(terms), dtype=np.int64)
    pos = 0
    with open(os.path.join(tmp, prefix + "postings.bin"), "wb") as f:
        for i, b in enumerate(blobs):
            f.write(b)
            offs[i] = pos
            lens_b[i] = len(b)
            pos += len(b)
    tcols = {"term": pa.array(terms, pa.string()),
             "df": pa.array(dfs, pa.int64()), "ttf": pa.array(ttfs, pa.int64()),
             "off": offs, "len": lens_b}
    if pblobs is not None:
        po = np.zeros(len(terms), dtype=np.int64)
        pl = np.zeros(len(terms), dtype=np.int64)
        pp = 0
        with open(os.path.join(tmp, prefix + "positions.bin"), "wb") as f:
            for i, b in enumerate(pblobs):
                f.write(b)
                po[i] = pp
                pl[i] = len(b)
                pp += len(b)
        tcols["pos_off"] = po
        tcols["pos_len"] = pl
    pq.write_table(pa.table(tcols), os.path.join(tmp, prefix + "terms.parquet"))
    with open(os.path.join(tmp, prefix + "norms.bin"), "wb") as f:
        f.write(norms.tobytes())


def _write_plain_leaf(out_dir, terms, dfs, ttfs, blobs, pblobs, norms, docmap,
                      sum_tf, extras=None):
    import shutil

    from ..state.fields import fprefix

    tmp = f"{out_dir}.tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp, exist_ok=True)
    _write_field(tmp, "", terms, dfs, ttfs, blobs, pblobs, norms)
    field_meta = {}
    for fname, (ft, fd, fttf, fb, fpb, fn, fstf) in (extras or {}).items():
        _write_field(tmp, fprefix(fname), ft, fd, fttf, fb, fpb, fn)
        field_meta[fname] = {"sum_tf": int(fstf), "num_terms": len(ft)}
    pq.write_table(docmap, os.path.join(tmp, "docmap.parquet"))
    dv.write_docvalues(tmp, docmap)
    mf.atomic_write_json(
        os.path.join(tmp, mf.SEGMENT_MANIFEST),
        {"name": os.path.basename(out_dir), "doc_base": 0,
         "num_docs": len(norms), "sum_tf": sum_tf, "num_terms": len(terms),
         "fields": field_meta,
         "hot_terms": {}, "lineage": {"expunged_from": True},
         "metrics": {}, "format_version": 1},
    )
    mf.publish_dir(tmp, out_dir)
