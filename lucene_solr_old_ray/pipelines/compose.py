"""Index composition: union of indexes (IndexWriter.addIndexes analogue,
``index/IndexWriter.java:2399,2515``) as a manifest-level operation.

The union concatenates the source indexes' leaves with re-based docIDs — no
file is touched (leaf dirs are referenced by absolute path), matching the
reference's segment-copy semantics without the copy. A follow-up
``merge_index`` physically consolidates if desired (the addIndexes+forceMerge
pattern).
"""

from __future__ import annotations

import os

from ..state import manifest as mf


def union_indexes(dst_dir: str, src_dirs: list[str]) -> dict:
    """Publish dst as the union of the sources (doc order = source order)."""
    os.makedirs(dst_dir, exist_ok=True)
    segments = []
    doc_base = 0
    max_doc = 0
    sum_tf = 0
    field_tf: dict[str, int] = {}
    part = 0
    for src in src_dirs:
        man = mf.read_index_manifest(src)
        for fn, fs in man["stats"].get("fields", {}).items():
            field_tf[fn] = field_tf.get(fn, 0) + int(fs["sum_total_term_freq"])
        for leaf in mf.leaf_rows(src, man):
            entry = {
                "dir": os.path.abspath(os.path.join(src, leaf["dir"])),
                "part_id": part,
                "doc_base": doc_base + leaf["doc_base"],
                "num_docs": leaf["num_docs"],
            }
            if leaf["deletes"]:  # tombstones travel with the leaf
                entry["deletes"] = leaf["deletes"]
                entry["num_deleted"] = leaf["num_docs"] - mf.live_docs(leaf)
            segments.append(entry)
            part += 1
        max_doc += man["stats"]["max_doc"]
        sum_tf += man["stats"]["sum_total_term_freq"]
        doc_base += man["stats"]["max_doc"]
    manifest = {
        "kind": "union",
        "segments": segments,
        "stats": {"max_doc": max_doc, "sum_total_term_freq": sum_tf,
                  **({"fields": {n: {"sum_total_term_freq": v}
                                 for n, v in field_tf.items()}}
                     if field_tf else {})},
        "spec": {"union_of": [os.path.abspath(s) for s in src_dirs]},
        "metrics": {"sources": len(src_dirs), "leaves": len(segments)},
    }
    mf.publish_index_manifest(dst_dir, manifest)
    return mf.read_index_manifest(dst_dir)


def index_merge_tool(dst_dir: str, src_dirs: list[str],
                     fan_in: int = 8) -> dict:
    """``misc/.../IndexMergeTool.java`` analogue: merge several indexes
    into one physical index — the by-reference union followed by a real
    local-strategy merge round (addIndexes + forceMerge, exactly the
    tool's writer.addIndexes(...) + forceMerge(1) sequence)."""
    from .merge import merge_index

    union_indexes(dst_dir, src_dirs)
    merge_index(dst_dir, fan_in=max(fan_in, len(src_dirs) + 1),
                strategy="local")
    return mf.read_index_manifest(dst_dir)
