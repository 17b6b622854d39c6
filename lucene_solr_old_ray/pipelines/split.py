"""Index splitters — the ``lucene/misc`` splitter tools, manifest-native.

Re-expresses (NOT ports):

- ``misc/.../index/IndexSplitter.java`` — move WHOLE segments into a new
  index.  Here a split is a manifest referencing the chosen segment dirs
  (zero-copy, like ``compose.union_indexes``); stats are recomputed from
  the chosen segments' term dicts.
- ``misc/.../index/MultiPassIndexSplitter.java:60-105`` — N-way split by
  round-robin (keep ``j % n == i``) or sequential ranges
  (``[i*maxDoc//n, …)``, last part takes the remainder), expressed as
  synthetic per-leaf tombstone masks + ``expunge_deletes`` compaction.
  Bug-compatible quirk: like the reference's FakeDeleteIndexReader
  (undeleteAll before each part), PRIOR deletes are forgotten — every doc
  is distributed.
- ``misc/.../index/PKIndexSplitter.java`` — two-way split by a query
  predicate (docs passing -> first index, rest -> second); prior deletes
  ARE respected (DocumentFilteredAtomicIndexReader ands liveDocs).
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import ray
import ray.data

from ..queries import Query
from ..stages.search import execute
from ..state import manifest as mf
from .search import open_leaf, plan_queries


def _seg_stats(seg_abs_dir: str) -> tuple[int, dict[str, int]]:
    """(default-field sum_ttf, {field: sum_ttf}) read from the segment's
    term-dict parquet footers/columns."""
    sum_tf = 0
    fields: dict[str, int] = {}
    for fn in os.listdir(seg_abs_dir):
        if not fn.endswith("terms.parquet"):
            continue
        ttf = int(pq.read_table(os.path.join(seg_abs_dir, fn),
                                columns=["ttf"])["ttf"].to_pandas().sum())
        if fn == "terms.parquet":
            sum_tf = ttf
        elif fn.startswith("F.") and fn.endswith(".terms.parquet"):
            fields[fn[2: -len(".terms.parquet")]] = ttf
    return sum_tf, fields


def split_segments(index_dir: str, dest_dir: str,
                   segment_dirs: list[str]) -> dict:
    """IndexSplitter analogue: publish ``dest_dir`` as an index over the
    named segment dirs (relative names as listed in the source manifest).
    Segments are referenced in place — no file copies."""
    man = mf.read_index_manifest(index_dir)
    chosen = [r for r in mf.leaf_rows(index_dir, man)
              if r["dir"] in set(segment_dirs)]
    if len(chosen) != len(set(segment_dirs)):
        have = {s["dir"] for s in man["segments"]}
        raise ValueError(
            f"unknown segments: {sorted(set(segment_dirs) - have)}")
    os.makedirs(dest_dir, exist_ok=True)
    segments = []
    doc_base = 0
    sum_tf = 0
    field_tf: dict[str, int] = {}
    for part, s in enumerate(chosen):
        seg_abs = os.path.abspath(os.path.join(index_dir, s["dir"]))
        st, fst = _seg_stats(seg_abs)
        sum_tf += st
        for f, v in fst.items():
            field_tf[f] = field_tf.get(f, 0) + v
        entry = {"dir": seg_abs, "part_id": part, "doc_base": doc_base,
                 "num_docs": s["num_docs"]}
        if s["deletes"]:
            entry["deletes"] = s["deletes"]
            entry["num_deleted"] = s["num_docs"] - mf.live_docs(s)
        segments.append(entry)
        doc_base += s["num_docs"]
    manifest = {
        "kind": "split",
        "segments": segments,
        "stats": {"max_doc": doc_base, "sum_total_term_freq": sum_tf,
                  **({"fields": {n: {"sum_total_term_freq": v}
                                 for n, v in field_tf.items()}}
                     if field_tf else {})},
        "spec": {"split_of": os.path.abspath(index_dir),
                 "segments": sorted(segment_dirs)},
        "metrics": {"op": "split_segments", "leaves": len(segments)},
    }
    mf.publish_index_manifest(dest_dir, manifest)
    return mf.read_index_manifest(dest_dir)


@ray.remote
def _write_mask(out_dir: str, leaf_ord: int, doc_base: int, num_docs: int,
                mode: str, n: int, i: int, lo: int, hi: int,
                packed: "bytes | None") -> "tuple[str | None, int]":
    """Materialize ONE leaf's live mask inside a task (the per-leaf
    O(num_docs) work never touches the driver) -> (rel_path, n_deleted)."""
    if mode == "explicit":
        live = np.frombuffer(packed, dtype=bool).copy()
    else:
        g = doc_base + np.arange(num_docs, dtype=np.int64)
        live = ((g >= lo) & (g < hi)) if mode == "seq" \
            else ((g % n) == (i % n))
    if live.all():
        return None, 0
    rel = os.path.join("deletes", "g1", f"leaf-{leaf_ord:05d}.npy")
    tmp = os.path.join(out_dir, rel + f".{os.getpid()}.tmp.npy")
    np.save(tmp, live, allow_pickle=False)
    os.replace(tmp, os.path.join(out_dir, rel))
    return rel, int((~live).sum())


def _publish_with_masks(index_dir: str, out_dir: str, man: dict,
                        mask_specs: list, op: str) -> dict:
    """Publish out_dir referencing ALL source segments with per-leaf live
    masks (each computed + written by a Ray task), then expunge into
    compacted local leaves."""
    from .deletes import expunge_deletes

    os.makedirs(os.path.join(out_dir, "deletes", "g1"), exist_ok=True)
    leaves = mf.leaf_rows(index_dir, man)
    jobs = [
        _write_mask.remote(out_dir, i, l["doc_base"], l["num_docs"], *spec)
        for i, (l, spec) in enumerate(zip(leaves, mask_specs))
    ]
    results = ray.get(jobs)
    segments = []
    for i, (l, (rel, n_del)) in enumerate(zip(leaves, results)):
        entry = {
            "dir": os.path.abspath(os.path.join(index_dir, l["dir"])),
            "part_id": i, "doc_base": l["doc_base"],
            "num_docs": l["num_docs"],
        }
        if rel is not None:
            entry["deletes"] = os.path.abspath(os.path.join(out_dir, rel))
            entry["num_deleted"] = n_del
        segments.append(entry)
    manifest = {
        "kind": "split",
        "segments": segments,
        "stats": man["stats"],
        "spec": {"split_of": os.path.abspath(index_dir)},
        "metrics": {"op": op},
    }
    mf.publish_index_manifest(out_dir, manifest)
    return expunge_deletes(out_dir)


def multi_pass_split(index_dir: str, out_dirs: list[str],
                     seq: bool = False) -> list[dict]:
    """MultiPassIndexSplitter analogue -> one compacted index per part."""
    if len(out_dirs) < 2:
        raise ValueError("need at least two outputs")
    man = mf.read_index_manifest(index_dir)
    leaves = mf.leaf_rows(index_dir, man)
    max_doc = sum(l["num_docs"] for l in leaves)
    if max_doc < 2:
        raise ValueError("not enough documents for splitting")
    n = len(out_dirs)
    part_len = max_doc // n
    results = []
    for i, out_dir in enumerate(out_dirs):
        if seq:
            lo = part_len * i
            hi = max_doc if i == n - 1 else lo + part_len
            specs = [("seq", n, i, lo, hi, None) for _ in leaves]
        else:
            specs = [("rr", n, i, 0, 0, None) for _ in leaves]
        results.append(_publish_with_masks(index_dir, out_dir, man, specs,
                                           "multi_pass_split"))
    return results


def pk_split(index_dir: str, query: Query, out_matching: str,
             out_rest: str) -> tuple[dict, dict]:
    """PKIndexSplitter analogue: docs matching ``query`` -> first index,
    the rest -> second; existing tombstones respected in both."""
    man = mf.read_index_manifest(index_dir)
    items = mf.leaf_rows(index_dir, man)
    [(_, query)], ctx = plan_queries(index_dir, man, [query])
    ctx_ref = ray.put(ctx)
    q_ref = ray.put(query)

    def mark(batch: pd.DataFrame) -> pd.DataFrame:
        q = ray.get(q_ref)
        ctx_l = ray.get(ctx_ref)
        rows = []
        for row in batch.to_dict("records"):
            leaf = open_leaf(index_dir, row)
            docids, _ = execute(q, leaf, ctx_l)
            match = np.zeros(leaf.num_docs, dtype=bool)
            match[docids] = True
            live = (leaf.live if leaf.live is not None
                    else np.ones(leaf.num_docs, dtype=bool))
            rows.append({"leaf_ord": int(row["leaf_ord"]),
                         "match": (match & live).tobytes(),
                         "rest": (~match & live).tobytes(),
                         "n": leaf.num_docs})
        return pd.DataFrame(rows)

    ds = ray.data.from_items(items, override_num_blocks=max(1, len(items)))
    marks = (ds.map_batches(mark, batch_format="pandas", batch_size=2)
             .to_pandas().set_index("leaf_ord").sort_index())
    match_specs = [("explicit", 0, 0, 0, 0, marks.loc[i, "match"])
                   for i in range(len(items))]
    rest_specs = [("explicit", 0, 0, 0, 0, marks.loc[i, "rest"])
                  for i in range(len(items))]
    a = _publish_with_masks(index_dir, out_matching, man, match_specs,
                            "pk_split")
    b = _publish_with_masks(index_dir, out_rest, man, rest_specs,
                            "pk_split")
    return a, b
