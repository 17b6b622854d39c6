"""Index sorting + early-terminating sorted collection.

Re-expresses (NOT ports) the ``lucene/misc`` sorter module
(``misc/src/java/org/apache/lucene/index/sorter/SortingMergePolicy.java``,
``SortingAtomicReader.java``, ``EarlyTerminatingSortingCollector.java``):

- ``build_sorted_index`` — the OFFLINE sort: the corpus Dataset is
  globally sorted by the sort column (one Ray Data range-partitioned
  shuffle) and written as sorted parquet, then indexed normally.  This is
  STRONGER than the reference's per-segment sorting: segments come out
  both internally sorted AND range-disjoint across segments, so a global
  sorted scan touches leaves in order.
- ``early_terminating_sorted_topk`` — EarlyTerminatingSortingCollector:
  for a match-all (or any) query sorted by the index sort key, each leaf
  stops after collecting its first k sort-order matches instead of
  scoring every doc; with range-disjoint segments the driver reduce then
  consumes leaves in sort order and stops as soon as k rows precede the
  next leaf's minimum.  Per-leaf work is O(k) dv reads, not O(num_docs).

The manifest records ``sorted_by`` so collectors can verify the index
sort matches the requested sort (the SortingMergePolicy contract that
EarlyTerminatingSortingCollector relies on).
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from ..queries import MatchAllDocsQuery, Query
from ..sources.corpus import CorpusSpec
from ..stages.search import execute
from ..state import manifest as mf
from .search import open_leaf, plan_queries


def build_sorted_index(
    spec: CorpusSpec, index_dir: str, sort_col: str,
    *, descending: bool = False, target_docs_per_partition: int = 50_000,
    **build_kwargs,
) -> dict:
    """Sort the corpus by ``sort_col`` (one Dataset shuffle), persist the
    sorted parquet under ``index_dir/sorted-input/``, build, and stamp the
    manifest with ``sorted_by``."""
    from .build_index import build_index

    sorted_dir = os.path.join(index_dir, "sorted-input")
    done = os.path.join(sorted_dir, "_SORTED")
    if not os.path.exists(done):
        os.makedirs(sorted_dir, exist_ok=True)
        ds = ray.data.read_parquet(list(spec.files))
        n_blocks = max(1, ds.count() // max(1, target_docs_per_partition))
        (ds.sort(sort_col, descending=descending)
            .repartition(n_blocks)
            .write_parquet(sorted_dir))
        with open(done, "w") as f:
            f.write(sort_col)
    files = tuple(sorted(
        os.path.join(sorted_dir, f) for f in os.listdir(sorted_dir)
        if f.endswith(".parquet")))
    sorted_spec = CorpusSpec(
        files=files, content_col=spec.content_col,
        meta_cols=spec.meta_cols, analyzer=spec.analyzer,
        extra_fields=spec.extra_fields, synonyms=spec.synonyms,
        store_term_vectors=spec.store_term_vectors,
        store_tv_offsets=spec.store_tv_offsets)
    build_index(sorted_spec, index_dir,
                target_docs_per_partition=target_docs_per_partition,
                **build_kwargs)
    man = mf.read_index_manifest(index_dir)
    man = dict(man)
    man["sorted_by"] = {"col": sort_col, "descending": descending}
    mf.publish_index_manifest(index_dir, man)
    return mf.read_index_manifest(index_dir)


def early_terminating_sorted_topk(
    index_dir: str, query: Query, field: str, k: int = 10,
    descending: bool = False,
) -> pa.Table:
    """Top-k by the index sort field with per-leaf early termination.
    Raises if the index was not built sorted by ``field`` in the same
    direction (EarlyTerminatingSortingCollector's precondition).
    -> (rank, docid, value)."""
    manifest = mf.read_index_manifest(index_dir)
    sb = manifest.get("sorted_by")
    if not sb or sb.get("col") != field or \
            bool(sb.get("descending")) != bool(descending):
        raise ValueError(
            f"index is not sorted by ({field}, descending={descending}); "
            f"manifest sorted_by={sb!r} — early termination needs the "
            f"index sort to match the query sort")
    [(_, query)], ctx = plan_queries(index_dir, manifest, [query])
    ctx_ref = ray.put(ctx)
    q_ref = ray.put(query)
    items = mf.leaf_rows(index_dir, manifest)

    def leaf_topk(batch: pd.DataFrame) -> pd.DataFrame:
        q = ray.get(q_ref)
        ctx_l = ray.get(ctx_ref)
        rows = []
        for row in batch.to_dict("records"):
            leaf = open_leaf(index_dir, row)
            # docID order IS sort order inside a sorted segment: keep the
            # first k matches and STOP — the early-termination contract.
            # Match-all never runs a scorer at all: the first k live docs
            # ARE the leaf's top-k (O(k) work per leaf).
            if isinstance(q, MatchAllDocsQuery):
                if leaf.live is not None:
                    docids = np.flatnonzero(leaf.live)[:k]
                else:
                    docids = np.arange(min(k, leaf.num_docs),
                                       dtype=np.int64)
            else:
                docids, _ = execute(q, leaf, ctx_l)
                docids = np.sort(docids)[:k]
            vals = leaf.doc_values(field, docids)
            for d, v in zip(docids, vals):
                rows.append({"docid": int(row["doc_base"]) + int(d),
                             "value": v,
                             "collected": len(docids)})
        return pd.DataFrame(rows)

    ds = ray.data.from_items(items, override_num_blocks=max(1, len(items)))
    parts = ds.map_batches(leaf_topk, batch_format="pandas",
                           batch_size=2).to_pandas()
    if len(parts) == 0:
        return pa.table({"rank": pa.array([], pa.int64()),
                         "docid": pa.array([], pa.int64()),
                         "value": pa.array([], pa.int64())})
    parts = parts.sort_values(
        ["value", "docid"], ascending=[not descending, True],
        kind="mergesort").head(k).reset_index(drop=True)
    return pa.table({
        "rank": pa.array(np.arange(1, len(parts) + 1, dtype=np.int64)),
        "docid": pa.array(parts["docid"].astype(np.int64)),
        "value": pa.array(parts["value"]),
    })
