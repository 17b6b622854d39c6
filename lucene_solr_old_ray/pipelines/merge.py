"""Merge pipeline: tiered segment merge re-expressed as Ray Data stages.

``merge_index`` consumes the latest manifest (segments or previously merged
shards — the layouts are identical, so merging is closed under composition /
multi-round tiered merging) and publishes a new manifest generation listing
the merged shards. See stages/merge.py for the two strategies.
"""

from __future__ import annotations

import os

import pandas as pd
import ray.data

from ..stages.merge import (
    assemble_shard,
    local_merge_shard,
    merge_bucket,
    plan_merge,
    read_segment_term_rows,
    shard_dir,
)
from ..state import manifest as mf


def merge_index(
    index_dir: str,
    *,
    fan_in: int = 10,
    strategy: str = "termwise",
) -> dict:
    """One merge round. Returns the newly published index manifest."""
    manifest = mf.read_index_manifest(index_dir)
    gen = manifest["generation"]
    shards = plan_merge(manifest, index_dir, fan_in=fan_in)
    out_gen = gen + 1
    os.makedirs(os.path.join(index_dir, f"shards-g{out_gen}"), exist_ok=True)
    by_id = {s["shard_id"]: s for s in shards}

    if strategy == "local":
        ds = ray.data.from_items(
            [{"shard_id": s["shard_id"]} for s in shards],
            override_num_blocks=len(shards),
        )

        def run(batch: pd.DataFrame) -> pd.DataFrame:
            rows = [
                local_merge_shard(
                    index_dir,
                    shard_dir(index_dir, out_gen, int(sid)),
                    by_id[int(sid)],
                )
                for sid in batch["shard_id"]
            ]
            return pd.DataFrame(rows)

        metrics = ds.map_batches(run, batch_format="pandas", batch_size=1).to_pandas()
    elif strategy == "termwise":
        ds = ray.data.from_items(
            [{"shard_id": s["shard_id"]} for s in shards],
            override_num_blocks=len(shards),
        )

        def read(batch: pd.DataFrame) -> pd.DataFrame:
            return pd.concat(
                [read_segment_term_rows(index_dir, by_id[int(sid)])
                 for sid in batch["shard_id"]],
                ignore_index=True,
            )

        term_rows = ds.map_batches(read, batch_format="pandas", batch_size=1)
        # coarse-bucket shuffle (256 keys) + in-bucket pandas sub-groupby:
        # same (shard, term, salt) merge without per-term Ray group overhead
        merged = term_rows.groupby("g").map_groups(
            merge_bucket, batch_format="pandas"
        )

        def write(g: pd.DataFrame) -> pd.DataFrame:
            sid = int(g["shard_id"].iloc[0])
            row = assemble_shard(
                index_dir, shard_dir(index_dir, out_gen, sid), by_id[sid], g
            )
            return pd.DataFrame([row])

        metrics = (
            merged.groupby("shard_id")
            .map_groups(write, batch_format="pandas")
            .to_pandas()
        )
    else:
        raise ValueError(f"unknown merge strategy {strategy!r}")

    # carry liveDocs through the merge: a merged shard's bitmap is the
    # docBase-ordered concatenation of its inputs' bitmaps (deletions must
    # never resurrect; physical reclaim is expunge_deletes' job)
    import numpy as np

    deletes_of = {r["dir"]: r["deletes"]
                  for r in mf.leaf_rows(index_dir, manifest)}
    shard_deletes: dict[int, str] = {}
    for s in shards:
        segs = sorted(s["segments"], key=lambda x: x["seg_ord"])
        if any(deletes_of[g["dir"]] for g in segs):
            parts = []
            for g in segs:
                path = deletes_of[g["dir"]]
                parts.append(
                    np.load(path) if path
                    else np.ones(g["num_docs"], dtype=bool)
                )
            live = np.concatenate(parts)
            rel_out = os.path.join("deletes", f"g{out_gen}",
                                   f"shard-{s['shard_id']:05d}.npy")
            os.makedirs(os.path.join(index_dir, "deletes", f"g{out_gen}"),
                        exist_ok=True)
            tmp = os.path.join(index_dir, rel_out + f".tmp-{os.getpid()}.npy")
            np.save(tmp, live, allow_pickle=False)
            os.replace(tmp, os.path.join(index_dir, rel_out))
            shard_deletes[s["shard_id"]] = rel_out

    new_manifest = {
        "kind": "shards",
        "segments": [
            {
                "dir": os.path.relpath(
                    shard_dir(index_dir, out_gen, s["shard_id"]), index_dir
                ),
                "part_id": s["shard_id"],
                "doc_base": s["doc_base"],
                "num_docs": s["num_docs"],
                **({"deletes": shard_deletes[s["shard_id"]]}
                   if s["shard_id"] in shard_deletes else {}),
            }
            for s in shards
        ],
        "stats": manifest["stats"],
        "spec": manifest.get("spec", {}),
        "metrics": {
            "strategy": strategy,
            "fan_in": fan_in,
            "shards": len(shards),
            "merge_wall_s": float(metrics["wall_s"].sum()),
            "skipped_shards": int(metrics["skipped"].sum()),
        },
    }
    mf.publish_index_manifest(index_dir, new_manifest)
    return mf.read_index_manifest(index_dir)
