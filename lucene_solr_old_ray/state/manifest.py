"""Index / segment manifests: the engine's commit protocol.

Re-expresses the reference's two-phase, generation-numbered ``segments_N``
commit (``index/SegmentInfos.java:53-123``, ``index/IndexWriter.java:2726``) as
atomically-renamed JSON manifests:

- every segment (build output) and shard (merge output) directory is written to
  a ``*.tmp-<pid>`` path and ``os.rename``d into place — readers never observe
  a partial directory (rename is atomic on POSIX);
- the index root carries ``manifest-<generation>.json`` listing live segment
  dirs + global collection statistics; publishing a new generation is one
  atomic rename, and ``latest_generation`` picks the highest — a crashed build
  leaves the previous generation fully readable (checkpoint/rollback analogue
  of ``SegmentInfos`` generations);
- per-segment manifests carry input lineage (file, row groups, row range) and
  per-stage metrics (docs/s, postings/s), which is what makes builds resumable:
  a partition whose segment manifest already exists is skipped.
"""

from __future__ import annotations

import json
import os
from typing import Any

SEGMENT_MANIFEST = "manifest.json"


def atomic_write_json(path: str, obj: dict[str, Any]) -> None:
    tmp = f"{path}.tmp-{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump(obj, f, indent=1, sort_keys=True)
        f.flush()
        os.fsync(f.fileno())
    os.rename(tmp, path)


def read_json(path: str) -> dict[str, Any]:
    with open(path) as f:
        return json.load(f)


def publish_dir(tmp_dir: str, final_dir: str) -> bool:
    """Atomically promote a staged segment/shard directory. Returns False if a
    concurrent/previous attempt already published (orphan tmp is removed) —
    idempotent under Ray task retries."""
    try:
        os.rename(tmp_dir, final_dir)
        return True
    except OSError:
        if os.path.isdir(final_dir):
            import shutil

            shutil.rmtree(tmp_dir, ignore_errors=True)
            return False
        raise


def segment_exists(seg_dir: str) -> bool:
    return os.path.isfile(os.path.join(seg_dir, SEGMENT_MANIFEST))


def latest_generation(index_dir: str) -> int:
    gens = []
    if os.path.isdir(index_dir):
        for name in os.listdir(index_dir):
            if name.startswith("manifest-") and name.endswith(".json"):
                try:
                    gens.append(int(name[len("manifest-") : -len(".json")]))
                except ValueError:
                    pass
    return max(gens) if gens else 0


def read_index_manifest(index_dir: str) -> dict[str, Any]:
    gen = latest_generation(index_dir)
    if gen == 0:
        raise FileNotFoundError(f"no index manifest under {index_dir}")
    return read_json(os.path.join(index_dir, f"manifest-{gen}.json"))


def publish_index_manifest(index_dir: str, manifest: dict[str, Any]) -> int:
    gen = latest_generation(index_dir) + 1
    manifest = dict(manifest, generation=gen)
    atomic_write_json(os.path.join(index_dir, f"manifest-{gen}.json"), manifest)
    return gen


def next_part_id(index_dir: str, manifest: dict[str, Any]) -> int:
    """The next unused segment part id: one past the manifest's part ids and
    every ``segments/seg-NNNNNN`` directory on disk (like Lucene's
    ``SegmentInfos.counter``, it only ever increases). Segment directories
    are never deleted, so a new segment never lands in an older one's
    directory, whether a merge replaced the part ids or an earlier add
    failed before publishing its manifest."""
    parts = [int(s["part_id"]) for s in manifest.get("segments", ())]
    seg_root = os.path.join(index_dir, "segments")
    if os.path.isdir(seg_root):
        parts += [int(n[4:]) for n in os.listdir(seg_root)
                  if n.startswith("seg-") and n[4:].isdigit()]
    return 1 + max(parts, default=-1)


def leaf_rows(index_dir: str, manifest: dict[str, Any]) -> list[dict[str, Any]]:
    """The index's leaves as reader rows, the one view every reader opens:
    sorted by docBase, ``leaf_ord`` = position in that order (the
    IndexReaderContext ord), ``dir`` as stored (relative to ``index_dir``,
    or absolute in composed/split indexes), ``num_docs``, and ``deletes``
    = the liveDocs file as an absolute path ("" = no deletes: one string
    type, so Datasets over the rows keep one schema)."""
    segs = sorted(manifest["segments"], key=lambda s: s["doc_base"])
    return [
        {"dir": s["dir"], "doc_base": int(s["doc_base"]), "leaf_ord": i,
         "num_docs": int(s["num_docs"]),
         "deletes": (os.path.abspath(os.path.join(index_dir, s["deletes"]))
                     if s.get("deletes") else "")}
        for i, s in enumerate(segs)
    ]


def live_docs(row: dict[str, Any]) -> int:
    """numDocs of one leaf row: its docs minus the tombstones in its
    liveDocs file. (A manifest's ``num_deleted`` is not used: merge-written
    shards do not carry it.)"""
    if not row["deletes"]:
        return row["num_docs"]
    import numpy as np

    return int(np.load(row["deletes"]).sum())
