"""Deduplication stages: exact, token-set Jaccard (exact, distributed),
n-gram (shingle) Jaccard, MinHash+LSH (approximate, scale path), SimHash,
embedding-cosine near-dup, and near-dup clustering.

Scale shapes (nothing corpus-sized ever lands on the driver):
- exact: content-hash in map_batches -> groupby(hash) keep-first — one shuffle
  of (hash, doc_id) pairs only, never the content.
- jaccard / jaccard_ngram: inverted-index candidate generation with
  PPJoin-style prefix filtering: tokens (or shingle hashes) get a global
  rarest-first order; each doc emits only its prefix of length
  |d| - ceil(τ|d|) + 1 (guaranteed-complete for threshold τ); candidate
  pairs come from per-term groups over those prefixes.
- verify: a TWO-SHUFFLE streaming join — (1) the candidate pairs' demand
  rows (doc, pair-bucket) join the corpus token-hash stream by doc,
  (2) the co-shipped hash sets meet their pairs in per-bucket groups where
  cross-band dedupe + exact Jaccard run vectorized. The driver materializes
  only the verified output (never token sets).
- clustering: min-label propagation with edges AND labels as Datasets;
  each round is two bucketed groupbys; the driver sees one changed-count
  scalar per round and the final labels.
- minhash_lsh: per-batch vectorized signatures over pre-hashed vocabularies
  -> (band, band_hash, doc) triples -> bounded-bucket groupby -> candidates
  -> the shared verify join. Sub-quadratic; recall probabilistic.
- embedding cosine: block-tiled exact pairwise join; each tile task reads
  only its two blocks' parquet ROW GROUPS.

Token sets travel as sorted uint64 FNV-1a hash arrays (8 bytes/token,
vocabulary-level hashing); exactness is up to 64-bit collisions, i.e.
vanishing at any per-group vocabulary this side of 2^32.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from ..functions.analysis import kept_stream_sorted
from .textstats import _docs_path, stable_hash64_batch

# coarse shuffle-bucket count: Ray's groupby/map_groups pays per-GROUP
# overhead, so millions of fine-grained keys are pathological — shuffle on
# a bounded bucket count and sub-group with pandas inside each bucket
_NBUCKETS = 256

_SHINGLE_SEED = np.uint64(0x9E3779B97F4A7C15)
_SHINGLE_PRIME = np.uint64(0x100000001B3)



def exact_dedup(sf_dir: str, write_to: str | None = None) -> pa.Table:
    """Keep-first per distinct text -> (doc_id=min over group, dup_count).
    ``write_to`` switches to the production shape: survivors stream to
    partitioned Parquet from the workers, a 1-row summary returns."""
    from ray.data.aggregate import Min, Sum

    ds = ray.data.read_parquet(_docs_path(sf_dir),
                               columns=["doc_id", "text"])

    def hash_partial(batch: pa.Table) -> pa.Table:
        # pre-aggregation (combiner): one row per distinct hash per batch,
        # so the groupby shuffle moves partials, not per-doc rows
        hashes = [hashlib.sha256((t or "").encode()).hexdigest()
                  for t in batch["text"].to_pylist()]
        df = pd.DataFrame({"doc_id": batch["doc_id"].to_numpy(
            zero_copy_only=False), "h": hashes})
        g = df.groupby("h", as_index=False).agg(
            doc_id=("doc_id", "min"), dup_count=("doc_id", "size"))
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = (
        ds.map_batches(hash_partial, batch_format="pyarrow")
        .groupby("h")
        .aggregate(Min("doc_id", alias_name="doc_id"),
                   Sum("dup_count", alias_name="dup_count"))
    )
    if write_to is not None:
        from ..pipelines.sink import write_results

        def strip(batch: pa.Table) -> pa.Table:
            return batch.select(["doc_id", "dup_count"]).cast(pa.schema([
                ("doc_id", pa.int64()), ("dup_count", pa.int64())]))

        n = write_results(agg.map_batches(strip, batch_format="pyarrow"),
                          write_to)
        return pa.table({"rows_written": pa.array([n], pa.int64()),
                         "out_dir": pa.array([write_to], pa.string())})
    out = agg.to_pandas()
    out = out[["doc_id", "dup_count"]].sort_values("doc_id").reset_index(drop=True)
    out["dup_count"] = out["dup_count"].astype("int64")
    return pa.Table.from_pandas(out, preserve_index=False)


# --- shared hash-stream plumbing -------------------------------------------


def incremental_dedup(sf_dir: str, seen_dir: str,
                      write_to: str | None = None) -> pa.Table:
    """Exact dedup of a NEW corpus shard against an EXISTING one — the
    incremental-ingestion pass a continuously-growing training corpus
    runs: a new doc drops iff its content sha256 already appears in the
    previously-ingested corpus (``seen_dir``); duplicates WITHIN the new
    shard are kept (run :func:`exact_dedup` for those — the two passes
    compose).

    Distribution shape: both corpora emit per-batch (hash, side) combiner
    partials; one bounded-bucket groupby marks the new-shard hashes that
    also appear on the seen side; ONLY the overlapping doc_ids come back
    to the driver and broadcast for the streaming keep filter — the
    shuffle moves hash rows, never content, and the broadcast is bounded
    by the overlap, never by either corpus. -> kept (doc_id, text) rows,
    or the 1-row sink summary with ``write_to``."""
    ds_new = ray.data.read_parquet(_docs_path(sf_dir),
                                   columns=["doc_id", "text"])
    ds_seen = ray.data.read_parquet(_docs_path(seen_dir),
                                    columns=["text"])

    def new_rows(batch: pa.Table) -> pd.DataFrame:
        h = [hashlib.sha256((t or "").encode()).hexdigest()
             for t in batch["text"].to_pylist()]
        df = pd.DataFrame({
            "h": h,
            "doc_id": batch["doc_id"].to_numpy(zero_copy_only=False)
            .astype(np.int64)})
        df["g"] = [int(x[:8], 16) % _NBUCKETS for x in df["h"]]
        return df

    def seen_rows(batch: pa.Table) -> pd.DataFrame:
        # combiner: one row per DISTINCT seen hash per batch
        h = sorted({hashlib.sha256((t or "").encode()).hexdigest()
                    for t in batch["text"].to_pylist()})
        df = pd.DataFrame({"h": h})
        df["doc_id"] = np.int64(-1)
        df["g"] = [int(x[:8], 16) % _NBUCKETS for x in h]
        return df

    def overlap(g: pd.DataFrame) -> pd.DataFrame:
        seen_h = set(g.loc[g["doc_id"] < 0, "h"])
        hit = g[(g["doc_id"] >= 0) & g["h"].isin(seen_h)]
        return pd.DataFrame({"doc_id": hit["doc_id"].to_numpy(
            dtype=np.int64)})

    hits = (
        ds_new.map_batches(new_rows, batch_format="pyarrow")
        .union(ds_seen.map_batches(seen_rows, batch_format="pyarrow"))
        .groupby("g")
        .map_groups(overlap, batch_format="pandas")
        .to_pandas()
    )
    drop = (np.unique(hits["doc_id"].to_numpy(dtype=np.int64))
            if len(hits) and "doc_id" in hits.columns
            else np.empty(0, dtype=np.int64))
    drop_ref = ray.put(drop)

    def keep(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        dr = ray.get(drop_ref)
        if len(dr) == 0:
            return batch
        d = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        idx = np.searchsorted(dr, d)
        hit = (idx < len(dr)) & (dr[np.minimum(idx, len(dr) - 1)] == d)
        return batch.filter(pa.array(~hit))

    res = ds_new.map_batches(keep, batch_format="pyarrow")
    if write_to is not None:
        from ..pipelines.sink import write_results

        n = write_results(res, write_to)
        return pa.table({"rows_written": pa.array([n], pa.int64()),
                         "out_dir": pa.array([write_to], pa.string())})
    out = res.to_pandas().sort_values("doc_id").reset_index(drop=True)
    return pa.Table.from_pandas(out, preserve_index=False)


def _unique_per_doc(d: np.ndarray, H: np.ndarray):
    """Distinct (doc, hash) pairs, sorted by (doc, hash) ->
    (docs int64, hashes uint64). ``d`` is batch-local doc index."""
    if len(d) == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint64)
    order = np.lexsort((H, d))
    ds_, hs_ = np.asarray(d, dtype=np.int64)[order], H[order]
    first = np.ones(len(ds_), dtype=bool)
    first[1:] = (ds_[1:] != ds_[:-1]) | (hs_[1:] != hs_[:-1])
    return ds_[first], hs_[first]


def _shingle_windows(d: np.ndarray, Hinst: np.ndarray, n: int):
    """Order-sensitive n-token shingle hashes over a doc-contiguous kept
    instance stream: FNV-style fold of each window of n consecutive token
    hashes that lies entirely inside one doc -> (docs, shingle_hashes)."""
    if len(d) < n:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint64)
    valid = d[: len(d) - n + 1] == d[n - 1 :]
    idx = np.flatnonzero(valid)
    h = np.full(len(idx), _SHINGLE_SEED, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for k in range(n):
            h = np.multiply(np.bitwise_xor(h, Hinst[idx + k]),
                            _SHINGLE_PRIME, dtype=np.uint64)
    return np.asarray(d, dtype=np.int64)[idx], h


def _doc_hash_stream(texts, shingle_n: int | None):
    """Per-doc DISTINCT token (or shingle) hashes of a text batch ->
    (docs int64 batch-local ascending, hashes uint64 sorted within doc).
    One Arrow-kernel tokenize; hashes computed on the batch vocabulary."""
    d, codes, uniques, _counts = kept_stream_sorted(texts)
    uh = stable_hash64_batch(list(uniques))
    Hinst = uh[codes] if len(codes) else np.empty(0, dtype=np.uint64)
    if shingle_n is not None:
        d2, H = _shingle_windows(d, Hinst, shingle_n)
        return _unique_per_doc(d2, H)
    return _unique_per_doc(d, Hinst)


def _hset_rows(batch: pa.Table, shingle_n: int | None) -> pd.DataFrame:
    """(doc_id global, hset bytes) rows: each doc's sorted distinct hash
    array packed little-endian — the token-set payload the verify join
    ships (docs with empty sets included, hset=b'')."""
    gid = np.asarray(batch["doc_id"].to_pylist(), dtype=np.int64)
    d, H = _doc_hash_stream(batch["text"], shingle_n)
    counts = np.bincount(d, minlength=batch.num_rows)
    offs = np.zeros(batch.num_rows + 1, dtype=np.int64)
    np.cumsum(counts, out=offs[1:])
    hsets = [H[offs[i]: offs[i + 1]].tobytes() for i in range(batch.num_rows)]
    return pd.DataFrame({"doc_id": gid, "hset": hsets})


_POPCNT = np.unpackbits(
    np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(axis=1).astype(np.int64)


_VERIFY_BUCKETS = 32  # verify-stage buckets: each participating doc's hash
# set ships at most this many times (vs. once per pair-hash bucket)


def _verify_pairs_ds(
    sf_dir: str, cand_ds, threshold: float, shingle_n: int | None = None,
    nbuckets: int = _NBUCKETS,
) -> pa.Table:
    """Distributed dedupe + exact-Jaccard verify of a candidate-pair DATASET.

    Token sets are CO-SHUFFLED with the pairs (never driver-held):
      stage 1 — pairs emit demand rows (doc, ph) for both endpoints; the
        corpus hash-set stream joins them by doc (bounded-bucket groupby),
        emitting one (ph, doc, hset) row per demanded (doc, bucket);
      stage 2 — pair rows and their docs' hset rows meet in per-ph groups:
        cross-band duplicate pairs drop there, then exact Jaccard runs
        vectorized (group-local bitmask + popcount when the group vocabulary
        is small, sorted-array intersects otherwise).
    The driver sees nothing bigger than the verified output."""
    corpus = ray.data.read_parquet(_docs_path(sf_dir),
                                   columns=["doc_id", "text"])

    # dedupe candidate pairs ONCE (cross-band duplicates collapse here) and
    # materialize: the deduped pair set feeds BOTH the demand side and the
    # verify side — without this the whole candidate-generation lineage
    # would execute twice and every later shuffle would carry the raw
    # (duplicated) pair stream
    def add_ph0(batch: pd.DataFrame) -> pd.DataFrame:
        if len(batch) == 0:
            return pd.DataFrame({"a": pd.Series([], dtype="int64"),
                                 "b": pd.Series([], dtype="int64"),
                                 "ph": pd.Series([], dtype="int64")})
        a = batch["a"].to_numpy(dtype=np.int64)
        b = batch["b"].to_numpy(dtype=np.int64)
        return pd.DataFrame({"a": a, "b": b,
                             "ph": (a * 1_000_003 + b) % nbuckets})

    def dedupe_ph(g: pd.DataFrame) -> pd.DataFrame:
        # (size prefiltering happens at candidate EMISSION — sizes ride the
        # prefix/bucket rows as columns, never a driver-held broadcast)
        g = g.drop_duplicates(["a", "b"])
        if len(g):
            # re-key for the verify stage: fewer buckets bound how many
            # times a doc's hash set ships
            a = g["a"].to_numpy(dtype=np.int64)
            b = g["b"].to_numpy(dtype=np.int64)
            g = g.assign(ph=(a * 1_000_003 + b) % _VERIFY_BUCKETS)
        return g

    cand_ds = (
        cand_ds.map_batches(add_ph0, batch_format="pandas")
        .groupby("ph")
        .map_groups(dedupe_ph, batch_format="pandas")
        .materialize()
    )

    # the docs the verify actually needs — only candidate-pair ENDPOINTS
    # ever ship a hash set, so the corpus tokenize pass below filters to
    # them BEFORE analyzing (bounded by the candidate set; non-candidate
    # docs cost nothing). The endpoint ids come back from the (already
    # materialized) deduped pairs, so this is candidate-sized, and the
    # broadcast is one sorted int64 array.
    def endpoint_rows(batch: pd.DataFrame) -> pd.DataFrame:
        if len(batch) == 0:
            return pd.DataFrame({"doc_id": pd.Series([], dtype="int64")})
        return pd.DataFrame({"doc_id": np.unique(np.concatenate(
            [batch["a"].to_numpy(dtype=np.int64),
             batch["b"].to_numpy(dtype=np.int64)]))})

    ep = cand_ds.map_batches(endpoint_rows,
                             batch_format="pandas").to_pandas()
    if len(ep) == 0:
        return pa.table({"doc_a": pa.array([], pa.int64()),
                         "doc_b": pa.array([], pa.int64()),
                         "jaccard": pa.array([], pa.float64())})
    need = np.unique(ep["doc_id"].to_numpy(dtype=np.int64))
    need_ref = ray.put(need)

    def token_rows(batch: pa.Table) -> pd.DataFrame:
        nd = ray.get(need_ref)
        d = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        idx = np.searchsorted(nd, d)
        hit = (idx < len(nd)) & (nd[np.minimum(idx, len(nd) - 1)] == d)
        if not hit.all():
            batch = batch.filter(pa.array(hit))
        r = _hset_rows(batch, shingle_n)
        return pd.DataFrame({
            "doc_id": r["doc_id"].astype("int64"),
            "ph": np.full(len(r), -1, dtype=np.int64),
            "hset": r["hset"],
            "g": (r["doc_id"].to_numpy() % nbuckets).astype(np.int64),
        })

    def demand_rows(batch: pd.DataFrame) -> pd.DataFrame:
        if len(batch) == 0:
            return pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                                 "ph": pd.Series([], dtype="int64"),
                                 "hset": pd.Series([], dtype=object),
                                 "g": pd.Series([], dtype="int64")})
        a = batch["a"].to_numpy(dtype=np.int64)
        b = batch["b"].to_numpy(dtype=np.int64)
        ph = batch["ph"].to_numpy(dtype=np.int64)
        doc = np.concatenate([a, b])
        phh = np.concatenate([ph, ph])
        out = pd.DataFrame({"doc_id": doc, "ph": phh}).drop_duplicates()
        out["hset"] = b""
        out["g"] = out["doc_id"] % nbuckets
        return out[["doc_id", "ph", "hset", "g"]]

    def join_by_doc(g: pd.DataFrame) -> pd.DataFrame:
        tok = g[g["ph"] < 0]
        dem = g[g["ph"] >= 0].drop_duplicates(["doc_id", "ph"])
        if len(dem) == 0 or len(tok) == 0:
            return pd.DataFrame({"ph": pd.Series([], dtype="int64"),
                                 "doc_id": pd.Series([], dtype="int64"),
                                 "a": pd.Series([], dtype="int64"),
                                 "b": pd.Series([], dtype="int64"),
                                 "hset": pd.Series([], dtype=object)})
        m = dem[["doc_id", "ph"]].merge(
            tok.drop_duplicates("doc_id")[["doc_id", "hset"]], on="doc_id")
        m["a"] = -1
        m["b"] = -1
        return m[["ph", "doc_id", "a", "b", "hset"]]

    def pair_rows(batch: pd.DataFrame) -> pd.DataFrame:
        if len(batch) == 0:
            return pd.DataFrame({"ph": pd.Series([], dtype="int64"),
                                 "doc_id": pd.Series([], dtype="int64"),
                                 "a": pd.Series([], dtype="int64"),
                                 "b": pd.Series([], dtype="int64"),
                                 "hset": pd.Series([], dtype=object)})
        a = batch["a"].to_numpy(dtype=np.int64)
        b = batch["b"].to_numpy(dtype=np.int64)
        return pd.DataFrame({"ph": batch["ph"].to_numpy(dtype=np.int64),
                             "doc_id": np.full(len(a), -1, dtype=np.int64),
                             "a": a, "b": b,
                             "hset": [b""] * len(a)})

    def verify_group(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({
            "doc_a": pd.Series([], dtype="int64"),
            "doc_b": pd.Series([], dtype="int64"),
            "jaccard": pd.Series([], dtype="float64")})
        pairs = g[g["doc_id"] < 0]  # already globally deduped
        toks = g[g["doc_id"] >= 0].drop_duplicates("doc_id")
        if len(pairs) == 0 or len(toks) == 0:
            return empty
        arrs = {int(r.doc_id): np.frombuffer(r.hset, dtype=np.uint64)
                for r in toks.itertuples()}
        doc_list = sorted(arrs)
        pos_of = {d_: i for i, d_ in enumerate(doc_list)}
        pa_ = pairs["a"].to_numpy(dtype=np.int64)
        pb_ = pairs["b"].to_numpy(dtype=np.int64)
        known = np.array([x in pos_of and y in pos_of
                          for x, y in zip(pa_, pb_)], dtype=bool)
        pa_, pb_ = pa_[known], pb_[known]
        if len(pa_) == 0:
            return empty
        vocab = (np.unique(np.concatenate([arrs[d_] for d_ in doc_list]))
                 if doc_list else np.empty(0, dtype=np.uint64))
        if len(vocab) <= 1 << 16:
            # group-local bitmask verify: packed AND + popcount, fully
            # vectorized over the whole pair batch
            nbits = max(1, len(vocab))
            bits = np.zeros((len(doc_list), nbits), dtype=np.uint8)
            for i, d_ in enumerate(doc_list):
                bits[i, np.searchsorted(vocab, arrs[d_])] = 1
            masks = np.packbits(bits, axis=1)
            sizes = bits.sum(axis=1).astype(np.int64)
            ia = np.fromiter((pos_of[int(x)] for x in pa_),
                             count=len(pa_), dtype=np.int64)
            ib = np.fromiter((pos_of[int(x)] for x in pb_),
                             count=len(pb_), dtype=np.int64)
            inter = _POPCNT[np.bitwise_and(masks[ia], masks[ib])].sum(axis=1)
            union = sizes[ia] + sizes[ib] - inter
            with np.errstate(invalid="ignore", divide="ignore"):
                j = inter / union
            j = np.where(union == 0, 1.0, j)
            keep = j >= threshold
            return pd.DataFrame({"doc_a": pa_[keep], "doc_b": pb_[keep],
                                 "jaccard": j[keep]})
        # large-vocab path: sort-merge intersect VECTORIZED over the whole
        # pair batch — flatten every pair's two (distinct-hash) sets tagged
        # by pair index, one lexsort, count adjacent (pair, hash)
        # duplicates (an element can only repeat within a pair if it is in
        # BOTH sides). One C-level sort per chunk replaces a per-pair
        # intersect1d loop (~40x at 100k+ candidate pairs).
        la = np.fromiter((len(arrs[int(x)]) for x in pa_),
                         count=len(pa_), dtype=np.int64)
        lb = np.fromiter((len(arrs[int(x)]) for x in pb_),
                         count=len(pb_), dtype=np.int64)
        out_a, out_b, out_j = [], [], []
        CH = 4_000_000  # flattened u64s per lexsort chunk
        lo = 0
        n_p = len(pa_)
        plen = la + lb
        while lo < n_p:
            hi = lo
            tot = 0
            while hi < n_p and (tot == 0 or tot + plen[hi] <= CH):
                tot += int(plen[hi])
                hi += 1
            parts = []
            for x, y in zip(pa_[lo:hi], pb_[lo:hi]):
                parts.append(arrs[int(x)])
                parts.append(arrs[int(y)])
            flat = (np.concatenate(parts) if parts
                    else np.empty(0, dtype=np.uint64))
            pid = np.repeat(np.arange(hi - lo, dtype=np.int64), plen[lo:hi])
            order = np.lexsort((flat, pid))
            s, p = flat[order], pid[order]
            dup = (s[1:] == s[:-1]) & (p[1:] == p[:-1])
            inter = np.bincount(p[1:][dup], minlength=hi - lo)
            union = plen[lo:hi] - inter
            with np.errstate(invalid="ignore", divide="ignore"):
                j = inter / union
            j = np.where(union == 0, 1.0, j)
            keep = j >= threshold
            out_a.append(pa_[lo:hi][keep])
            out_b.append(pb_[lo:hi][keep])
            out_j.append(j[keep])
            lo = hi
        return pd.DataFrame({
            "doc_a": pd.Series(np.concatenate(out_a) if out_a else [],
                               dtype="int64"),
            "doc_b": pd.Series(np.concatenate(out_b) if out_b else [],
                               dtype="int64"),
            "jaccard": pd.Series(np.concatenate(out_j) if out_j else [],
                                 dtype="float64")})

    tok_ds = corpus.map_batches(token_rows, batch_format="pyarrow")
    dem_ds = cand_ds.map_batches(demand_rows, batch_format="pandas")
    shipped = (
        tok_ds.union(dem_ds)
        .groupby("g")
        .map_groups(join_by_doc, batch_format="pandas")
    )
    pr_ds = cand_ds.map_batches(pair_rows, batch_format="pandas")
    verified = (
        shipped.union(pr_ds)
        .groupby("ph")
        .map_groups(verify_group, batch_format="pandas")
        .to_pandas()
    )
    if "doc_a" not in verified.columns:
        return pa.table({"doc_a": pa.array([], pa.int64()),
                         "doc_b": pa.array([], pa.int64()),
                         "jaccard": pa.array([], pa.float64())})
    verified = verified.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
    return pa.Table.from_pandas(verified, preserve_index=False)


# --- prefix-filtered inverted-index candidate generation --------------------


def _prefix_filtered_pairs(
    sf_dir: str, threshold: float, shingle_n: int | None,
    nbuckets: int = _NBUCKETS,
) -> pa.Table:
    """PPJoin-style prefix-filtered exact Jaccard over token sets
    (``shingle_n=None``) or order-sensitive n-gram shingle sets.

    Hashes get a global rarest-first order (df asc, hash asc); a doc with m
    distinct hashes emits only its first ``m - ceil(threshold*m) + 1``.
    Complete for the threshold: if J(A,B) >= t the smallest-ordered shared
    hash lies in BOTH prefixes, so the pair surfaces in its group. Hot
    terms thus emit pairs only from docs whose prefix reaches them — the
    df² blowup on stop-word-like terms disappears.

    FULLY Dataset-resident — no vocabulary-sized driver state and no
    broadcasts (the dense global rank is unnecessary: any total order works
    for prefix selection, and (df asc, hash asc) is computable in place).
    The (doc_id, DISTINCT hash) instance rows are the join fabric:

    1. bounded-bucket groupby BY HASH stamps each row with its hash's
       global df (rows are per distinct (doc, hash), so df(h) is just the
       group's row count — the df combine and the df join collapse into
       one shuffle);
    2. bounded-bucket groupby BY DOC sorts each doc's hashes by
       (df asc, hash asc) and keeps the first L as prefix rows — the doc's
       set size rides along as a column;
    3. bounded-bucket groupby BY HASH emits in-group candidate pairs,
       pruned by the sound size filter min(|A|,|B|) >= t * max(|A|,|B|)
       (J >= t implies it), sizes read from the co-grouped rows.

    Candidates verify via the co-shuffled exact-Jaccard join
    (:func:`_verify_pairs_ds`). The driver only ever sees the verified
    output pairs."""
    import ray

    ds = ray.data.read_parquet(_docs_path(sf_dir),
                               columns=["doc_id", "text"])

    def inst_rows(batch: pa.Table) -> pd.DataFrame:
        gid = np.asarray(batch["doc_id"].to_pylist(), dtype=np.int64)
        d, H = _doc_hash_stream(batch["text"], shingle_n)
        if len(d) == 0:
            return pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                                 "h": pd.Series([], dtype="int64"),
                                 "sz": pd.Series([], dtype="int64"),
                                 "hb": pd.Series([], dtype="int64")})
        m = np.bincount(d, minlength=batch.num_rows)
        return pd.DataFrame({
            "doc_id": gid[d],
            "h": H.view(np.int64),
            "sz": m[d].astype(np.int64),
            "hb": (H % np.uint64(nbuckets)).astype(np.int64),
        })

    def stamp_df(g: pd.DataFrame) -> pd.DataFrame:
        # rows are distinct (doc, hash): df(h) == in-group row count
        return pd.DataFrame({
            "doc_id": g["doc_id"],
            "h": g["h"],
            "sz": g["sz"],
            "df": g.groupby("h")["h"].transform("size").astype(np.int64),
            "db": (g["doc_id"] % nbuckets).astype(np.int64),
        })

    def emit_prefix(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"h": pd.Series([], dtype="int64"),
                              "doc_id": pd.Series([], dtype="int64"),
                              "sz": pd.Series([], dtype="int64"),
                              "g": pd.Series([], dtype="int64")})
        if len(g) == 0:
            return empty
        doc = g["doc_id"].to_numpy(dtype=np.int64)
        h = np.ascontiguousarray(
            g["h"].to_numpy(dtype=np.int64)).view(np.uint64)
        sz = g["sz"].to_numpy(dtype=np.int64)
        df_ = g["df"].to_numpy(dtype=np.int64)
        # per-doc rarest-first order: (doc, df asc, hash asc)
        o = np.lexsort((h, df_, doc))
        doc, h, sz = doc[o], h[o], sz[o]
        new = np.ones(len(doc), dtype=bool)
        new[1:] = doc[1:] != doc[:-1]
        starts = np.flatnonzero(new)
        run = np.cumsum(new) - 1
        pos = np.arange(len(doc), dtype=np.int64) - starts[run]
        L = sz - np.ceil(threshold * sz).astype(np.int64) + 1
        keep = pos < L
        hk = h[keep]
        return pd.DataFrame({
            "h": hk.view(np.int64),
            "doc_id": doc[keep],
            "sz": sz[keep],
            "g": (hk % np.uint64(nbuckets)).astype(np.int64),
        })

    def emit_pairs(gb: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for _, g in gb.groupby("h", sort=False):
            g = g.drop_duplicates("doc_id")
            if len(g) < 2:
                continue
            o = np.argsort(g["doc_id"].to_numpy(dtype=np.int64))
            ids = g["doc_id"].to_numpy(dtype=np.int64)[o]
            szs = g["sz"].to_numpy(dtype=np.int64)[o]
            ii, jj = np.triu_indices(len(ids), 1)
            sa, sb = szs[ii], szs[jj]
            ok = np.minimum(sa, sb) >= threshold * np.maximum(sa, sb)
            if ok.any():
                outs.append(pd.DataFrame({"a": ids[ii[ok]],
                                          "b": ids[jj[ok]]}))
        if not outs:
            return pd.DataFrame({"a": pd.Series([], dtype="int64"),
                                 "b": pd.Series([], dtype="int64")})
        return pd.concat(outs, ignore_index=True)

    cand_ds = (
        ds.map_batches(inst_rows, batch_format="pyarrow")
        .groupby("hb")
        .map_groups(stamp_df, batch_format="pandas")
        .groupby("db")
        .map_groups(emit_prefix, batch_format="pandas")
        .groupby("g")
        .map_groups(emit_pairs, batch_format="pandas")
    )
    return _verify_pairs_ds(sf_dir, cand_ds, threshold, shingle_n=shingle_n,
                            nbuckets=nbuckets)


def jaccard_pairs(sf_dir: str, threshold: float = 0.95) -> pa.Table:
    """Exact token-set Jaccard >= threshold -> (doc_a, doc_b, jaccard).

    Broadcast-bitset block join: each doc's token set becomes a bitmask over
    the global vocabulary; the packed matrix is broadcast via ``ray.put`` and
    every batch computes its block of the pair matrix with vectorized
    AND+popcount. Exact, zero shuffle. Right when the vocabulary is small
    relative to the corpus (dedup-ish corpora); for web-scale vocabularies
    use :func:`jaccard_pairs_inverted` (prefix-filtered) or
    :func:`minhash_lsh_pairs`."""
    import ray

    ds = ray.data.read_parquet(_docs_path(sf_dir),
                               columns=["doc_id", "text"])

    # pass 1: global vocabulary (per-batch partial uniques -> driver union)
    def batch_vocab(batch: pa.Table) -> pd.DataFrame:
        _, _, uniques, _ = kept_stream_sorted(batch["text"])
        return pd.DataFrame({"term": sorted(uniques)})

    vocab = sorted(set(
        ds.map_batches(batch_vocab, batch_format="pyarrow").to_pandas()["term"]
    ))
    vidx = {t: i for i, t in enumerate(vocab)}
    nbits = len(vocab)
    nbytes = (nbits + 7) // 8

    # pass 2: packed bitmask per doc (tiny: |docs| x vocab/8 bytes)
    def batch_masks(batch: pa.Table) -> pd.DataFrame:
        ids = batch["doc_id"].to_pylist()
        d, codes, uniques, _ = kept_stream_sorted(batch["text"])
        gmap = np.fromiter((vidx[u] for u in uniques),
                           count=len(uniques), dtype=np.int64)
        rows = np.zeros((len(ids), max(nbits, 1)), dtype=np.uint8)
        if len(codes):
            rows[d, gmap[codes]] = 1
        packed = np.packbits(rows[:, :nbits], axis=1) if nbits else \
            np.zeros((len(ids), 0), dtype=np.uint8)
        return pd.DataFrame({"doc_id": ids,
                             "mask": [p.tobytes() for p in packed]})

    masks = ds.map_batches(batch_masks, batch_format="pyarrow").to_pandas()
    masks = masks.sort_values("doc_id").reset_index(drop=True)
    ids_all = masks["doc_id"].to_numpy()
    M = np.frombuffer(b"".join(masks["mask"]), dtype=np.uint8).reshape(-1, nbytes)
    sizes_all = np.unpackbits(M, axis=1, count=nbits).sum(axis=1).astype(np.int64)
    mat_ref = ray.put((ids_all, M, sizes_all))

    # pass 3: block-vs-all AND + popcount
    def block(batch: pa.Table) -> pd.DataFrame:
        import ray as _r

        ids_g, Mg, sz_g = _r.get(mat_ref)
        ids_b = np.asarray(batch["doc_id"].to_pylist(), dtype=np.int64)
        sel = np.searchsorted(ids_g, ids_b)
        Mb = Mg[sel]
        sz_b = sz_g[sel]
        inter = np.zeros((len(ids_b), len(ids_g)), dtype=np.int64)
        for byte in range(Mg.shape[1]):
            inter += _POPCNT[np.bitwise_and(Mb[:, byte : byte + 1], Mg[:, byte])]
        union = sz_b[:, None] + sz_g[None, :] - inter
        with np.errstate(invalid="ignore", divide="ignore"):
            j = inter.astype(np.float64) / union
        j = np.where(union == 0, 0.0, j)  # two empty sets: no evidence, skip
        bi, gj = np.nonzero(j >= threshold)
        keep = ids_b[bi] < ids_g[gj]
        return pd.DataFrame({"doc_a": ids_b[bi][keep], "doc_b": ids_g[gj][keep],
                             "jaccard": j[bi, gj][keep]})

    out = ds.map_batches(block, batch_format="pyarrow").to_pandas()
    out = out.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
    return pa.Table.from_pandas(out, preserve_index=False)


def jaccard_pairs_inverted(
    sf_dir: str, threshold: float = 0.95, prefix_filter: bool = True
) -> pa.Table:
    """Exact token-set Jaccard via term-keyed pair generation — the general
    path when the vocabulary is large.

    ``prefix_filter=True`` (default, the scale path): PPJoin prefix
    filtering + the co-shuffled verify join (:func:`_prefix_filtered_pairs`).

    ``prefix_filter=False``: full df² pair counting (exact intersections by
    counting; no verify pass) — quadratic in hot-term df, test/debug only."""
    import ray
    from ray.data.aggregate import Count

    if prefix_filter:
        return _prefix_filtered_pairs(sf_dir, threshold, shingle_n=None)

    ds = ray.data.read_parquet(_docs_path(sf_dir),
                               columns=["doc_id", "text"])

    def explode(batch: pa.Table) -> pa.Table:
        gid = np.asarray(batch["doc_id"].to_pylist(), dtype=np.int64)
        d, codes, uniques, _ = kept_stream_sorted(batch["text"])
        key = d * max(1, len(uniques)) + codes
        uk = np.unique(key)
        dd = uk // max(1, len(uniques))
        cc = uk % max(1, len(uniques))
        return pa.table({"doc_id": pa.array(gid[dd], pa.int64()),
                         "term": pa.array([uniques[c] for c in cc],
                                          pa.string())})

    td = ds.map_batches(explode, batch_format="pyarrow")
    # set sizes: small table, broadcast
    sizes_df = (
        td.groupby("doc_id").aggregate(Count(alias_name="sz")).to_pandas()
    )
    sizes_ref = ray.put(dict(zip(sizes_df["doc_id"], sizes_df["sz"])))

    def emit_pairs(g: pd.DataFrame) -> pd.DataFrame:
        ids = np.sort(g["doc_id"].to_numpy())
        if len(ids) < 2:
            return pd.DataFrame({"a": pd.Series([], dtype="int64"),
                                 "b": pd.Series([], dtype="int64")})
        ii, jj = np.triu_indices(len(ids), 1)
        return pd.DataFrame({"a": ids[ii], "b": ids[jj]})

    pairs = td.groupby("term").map_groups(emit_pairs, batch_format="pandas")

    # partial combine inside map_batches (the pre-aggregation idiom: one row
    # per distinct pair per batch), final small sum on the driver — Ray's
    # per-key Python aggregate is far slower than this two-level combine
    def partial_count(batch: pd.DataFrame) -> pd.DataFrame:
        if len(batch) == 0:
            return pd.DataFrame({"a": pd.Series([], dtype="int64"),
                                 "b": pd.Series([], dtype="int64"),
                                 "inter": pd.Series([], dtype="int64")})
        g = batch.groupby(["a", "b"], as_index=False).size()
        return g.rename(columns={"size": "inter"})

    partials = pairs.map_batches(partial_count, batch_format="pandas").to_pandas()
    inter = partials.groupby(["a", "b"], as_index=False)["inter"].sum()

    sz = ray.get(sizes_ref)
    a = inter["a"].to_numpy()
    b = inter["b"].to_numpy()
    it = inter["inter"].to_numpy().astype(np.float64)
    union = np.array([sz[x] for x in a]) + np.array([sz[y] for y in b]) - it
    j = it / union
    keep = j >= threshold
    out = pd.DataFrame({"doc_a": a[keep], "doc_b": b[keep], "jaccard": j[keep]})
    out = out.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
    return pa.Table.from_pandas(out, preserve_index=False)


def jaccard_ngram_pairs(
    sf_dir: str, n: int = 3, threshold: float = 0.04
) -> pa.Table:
    """Exact n-gram (token shingle) Jaccard pairs — the order-sensitive
    variant of :func:`jaccard_pairs`: shingles are consecutive kept-token
    n-grams, so near-dups must share phrasing, not just vocabulary. Uses
    the SAME prefix-filtered inverted index + co-shuffled verify as the
    unigram path (shingle rank = df asc over shingle hashes); no broadcast
    shingle-vocab matrix, no all-pairs block join.

    Cost note: prefix-filter pruning power is ~(1 - threshold) of each
    shingle set, so the driver entry's deliberately LOW threshold (0.04,
    chosen to produce a non-trivial oracle answer on the synthetic corpus)
    approaches all-pairs work by construction — a production near-dup pass
    runs this at threshold >= 0.7 where the prefixes prune aggressively.
    -> (doc_a, doc_b, jaccard)."""
    return _prefix_filtered_pairs(sf_dir, threshold, shingle_n=n)


# --- MinHash + LSH ----------------------------------------------------------

_U64_MAX = np.uint64(0xFFFFFFFFFFFFFFFF)


def _perm_params(n_perm: int, seed: int = 42):
    """n_perm (a, b) pairs for the multiply-add uint64 hash family
    perm(h) = a*h + b (mod 2^64), a odd — fully vectorizable (no 61-bit
    modulus, which would need 128-bit products)."""
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 1 << 63, size=n_perm, dtype=np.uint64) * 2 + 1
    b = rng.integers(0, 1 << 63, size=n_perm, dtype=np.uint64)
    return a, b


def minhash_signatures_from_hashes(
    H: np.ndarray, counts: np.ndarray, a: np.ndarray, b: np.ndarray,
    chunk_tokens: int = 200_000,
) -> np.ndarray:
    """(n_docs, n_perm) uint64 minhash signatures from a doc-contiguous
    token-hash stream (``H`` uint64 instances, ``counts`` per doc):
    per-permutation affine maps with a segment-min (``np.minimum.reduceat``)
    over each doc's range. Duplicate tokens are harmless (min over a
    multiset == min over its set). Empty docs get all-ones signatures.
    Memory-bounded by ``chunk_tokens``."""
    n = len(counts)
    n_perm = len(a)
    out = np.full((n, n_perm), _U64_MAX, dtype=np.uint64)
    starts_all = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=starts_all[1:])
    lo = 0
    while lo < n:
        hi = lo
        tot = 0
        while hi < n and (tot == 0
                          or tot + counts[hi] <= chunk_tokens):
            tot += int(counts[hi])
            hi += 1
        seg = H[starts_all[lo]: starts_all[hi]]
        if len(seg):
            starts = starts_all[lo:hi] - starts_all[lo]
            clamped = np.minimum(starts, len(seg) - 1)
            with np.errstate(over="ignore"):
                M = a[:, None] * seg[None, :] + b[:, None]  # (n_perm, tot)
            sig = np.minimum.reduceat(M, clamped, axis=1).T  # (docs, n_perm)
            sig[counts[lo:hi] == 0] = _U64_MAX
            out[lo:hi] = sig
        lo = hi
    return out


_BAND_SEED = np.uint64(0xCBF29CE484222325)
_BAND_PRIME = np.uint64(0x100000001B3)


def _band_keys(sig: np.ndarray, bands: int) -> np.ndarray:
    """(n_docs, bands) uint64 band keys: FNV-style fold of each band's
    signature rows (vectorized across docs)."""
    n, n_perm = sig.shape
    rows_per_band = n_perm // bands
    keys = np.empty((n, bands), dtype=np.uint64)
    with np.errstate(over="ignore"):
        for bi in range(bands):
            k = np.full(n, _BAND_SEED, dtype=np.uint64)
            for r in range(rows_per_band):
                k = np.multiply(np.bitwise_xor(k, sig[:, bi * rows_per_band + r]),
                                _BAND_PRIME, dtype=np.uint64)
            keys[:, bi] = k
    return keys


def minhash_lsh_pairs(
    sf_dir: str,
    threshold: float = 0.95,
    n_perm: int = 128,
    bands: int = 16,
) -> pa.Table:
    """Approximate near-dup pairs: LSH candidates verified by exact Jaccard.
    -> (doc_a, doc_b, jaccard). Rows-only check (probabilistic recall;
    P(miss pair at τ=0.95 with 16 bands × 8 rows) ≈ 2e-8).

    Scale shape: signatures vectorized per batch over the pre-hashed batch
    vocabulary; banding shuffles only (band, key, keyvec, doc, set-size)
    rows — each doc's DISTINCT-hash set size rides its own band rows, so
    there is no driver-held sizes broadcast; candidate emission inside each
    band bucket is SIZE-WINDOWED (docs sorted by set size; a pair emits
    only if min >= t*max — a sound requirement of J >= t) and
    FIRST-BAND-UNIQUE (each row carries the doc's full band-key vector; a
    pair is emitted only by its earliest colliding band, so near-dup
    clusters don't flood the verify shuffle with bands-fold duplicate
    pairs); verification is the co-shuffled exact-Jaccard join
    (:func:`_verify_pairs_ds`)."""
    import ray

    a, b = _perm_params(n_perm)
    ds = ray.data.read_parquet(_docs_path(sf_dir),
                               columns=["doc_id", "text"])

    def sig_rows(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch["doc_id"].to_pylist(), dtype=np.int64)
        d, codes, uniques, counts = kept_stream_sorted(batch["text"])
        uh = stable_hash64_batch(list(uniques))
        H = uh[codes] if len(codes) else np.empty(0, dtype=np.uint64)
        sig = minhash_signatures_from_hashes(H, counts, a, b)
        # distinct-hash set size per doc (the quantity Jaccard compares)
        du, _ = _unique_per_doc(d, H)
        sz = np.bincount(du, minlength=batch.num_rows).astype(np.int64)
        keys = _band_keys(sig, bands)
        n = len(ids)
        flat_keys = keys.reshape(-1).view(np.int64)
        # each band row carries the doc's FULL band-key vector so a pair is
        # emitted only from its FIRST colliding band (globally unique
        # emission, no 16x cross-band duplicate pair stream to shuffle)
        kb = np.ascontiguousarray(keys).view(np.uint8).reshape(n, bands * 8)
        return pa.table({
            "doc_id": pa.array(np.repeat(ids, bands)),
            "sz": pa.array(np.repeat(sz, bands)),
            "band": pa.array(np.tile(np.arange(bands, dtype=np.int32), n)),
            "bkey": pa.array(flat_keys),
            "keys": pa.FixedSizeBinaryArray.from_buffers(
                pa.binary(bands * 8), n * bands,
                [None, pa.py_buffer(np.repeat(kb, bands, axis=0).tobytes())]),
            # coarse shuffle key (bounded Ray group count)
            "g": pa.array((flat_keys % _NBUCKETS).astype(np.int64)),
        })

    def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        """Per-doc sliding-window emission inside each (band, bucket).

        MEASURED DECISION (round 5, paired fresh-process A/B on sf0.1,
        t=0.95, identical 239,418-pair outputs): two "vectorized" variants
        were built and benchmarked against this loop —
        (a) per-bucket searchsorted + repeat/arange pair expansion with a
            full-band-key gather mask: 14.5 s vs 9.7-11.1 s for the loop;
        (b) whole-group lexsort + packed (bucket, size) searchsorted with
            an argmax first-band mask: 69-74 s — the ~10.6M candidate
            pairs each gather two full 16x8-byte key rows (≈2.7 GB of
            fancy-indexed traffic per group pass), where this loop reads
            small CONTIGUOUS `kmat[i+1:j, :bi]` slices and skips band-0
            checks entirely.
        The buckets are mostly tiny (near-dup clusters), so the per-doc
        Python overhead is bounded by bucket membership and the loop wins;
        the j pointer is monotone per bucket, so the window scan is
        amortized O(bucket size)."""
        outs = []
        for (band, _bk), sub in g.groupby(["band", "bkey"], sort=False):
            sub = sub.drop_duplicates("doc_id")
            if len(sub) < 2:
                continue
            ids = sub["doc_id"].to_numpy(dtype=np.int64)
            s = sub["sz"].to_numpy(dtype=np.int64)
            kmat = np.frombuffer(
                b"".join(sub["keys"]), dtype=np.uint64).reshape(len(sub), -1)
            oi = np.argsort(ids, kind="stable")
            ids, s, kmat = ids[oi], s[oi], kmat[oi]
            # size-windowed emission: sort by set size; only pairs with
            # min >= t*max can reach the threshold
            o = np.argsort(s, kind="stable")
            ids, s, kmat = ids[o], s[o], kmat[o]
            bi = int(band)
            aa, bb = [], []
            j = 0
            for i in range(len(ids)):
                hi = s[i] / threshold if threshold > 0 else np.inf
                j = max(j, i + 1)
                while j < len(ids) and s[j] <= hi:
                    j += 1
                if j > i + 1:
                    part = ids[i + 1: j]
                    # first-colliding-band rule: skip the pair if an
                    # EARLIER band also collides (that band emits it) —
                    # globally unique emission without a dedup shuffle
                    if bi > 0:
                        seen = (kmat[i + 1: j, :bi]
                                == kmat[i, :bi]).any(axis=1)
                        part = part[~seen]
                        if not len(part):
                            continue
                    x = np.minimum(ids[i], part)
                    y = np.maximum(ids[i], part)
                    aa.append(x)
                    bb.append(y)
            if aa:
                outs.append(pd.DataFrame({"a": np.concatenate(aa),
                                          "b": np.concatenate(bb)}))
        if not outs:
            return pd.DataFrame({"a": pd.Series([], dtype="int64"),
                                 "b": pd.Series([], dtype="int64")})
        return pd.concat(outs, ignore_index=True)

    cand_ds = (
        ds.map_batches(sig_rows, batch_format="pyarrow")
        .groupby("g")
        .map_groups(bucket_pairs, batch_format="pandas")
    )
    return _verify_pairs_ds(sf_dir, cand_ds, threshold)


def dedup_clusters(sf_dir: str, threshold: float = 0.95) -> pa.Table:
    """Near-duplicate CLUSTERS: connected components over the exact Jaccard
    pair graph, via DATASET-RESIDENT min-label propagation — edges and
    labels stay Ray Datasets; each round is two bounded-bucket groupbys
    (join labels onto edges by dst, then per-node min + changed count);
    the driver sees one changed-count scalar per round. Converges in
    O(component diameter) rounds. -> (doc_id, cluster) where cluster = min
    doc_id of the component. (The final table is returned driver-side
    because that IS the output; at 100 TB the same labels Dataset would
    ``write_parquet`` instead.)"""
    import ray

    pairs = jaccard_pairs_inverted(sf_dir, threshold=threshold)
    corpus_ids = ray.data.read_parquet(_docs_path(sf_dir),
                                       columns=["doc_id"])
    if pairs.num_rows == 0:
        out = corpus_ids.to_pandas().sort_values("doc_id")
        out["cluster"] = out["doc_id"]
        return pa.Table.from_pandas(out.reset_index(drop=True),
                                    preserve_index=False)

    a = pairs["doc_a"].to_numpy()
    b = pairs["doc_b"].to_numpy()
    edges_pd = pd.DataFrame({
        "dst": np.concatenate([b, a]),
        "src": np.concatenate([a, b]),
    })
    edges = ray.data.from_pandas(edges_pd).repartition(
        max(1, min(64, len(edges_pd) // 50_000 + 1))).materialize()
    nodes = np.unique(np.concatenate([a, b]))
    labels = ray.data.from_pandas(
        pd.DataFrame({"node": nodes, "label": nodes})).materialize()

    def edge_rows(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "key": batch["dst"].astype("int64"),
            "src": batch["src"].astype("int64"),
            "label": np.full(len(batch), -1, dtype=np.int64),
            "g": (batch["dst"].to_numpy() % _NBUCKETS).astype(np.int64)})

    def label_rows(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "key": batch["node"].astype("int64"),
            "src": np.full(len(batch), -1, dtype=np.int64),
            "label": batch["label"].astype("int64"),
            "g": (batch["node"].to_numpy() % _NBUCKETS).astype(np.int64)})

    def propagate(g: pd.DataFrame) -> pd.DataFrame:
        """Per dst-bucket: each edge emits (node=src, cand=label_of_dst);
        each label row also emits its own (node, cand=label, self=1)."""
        lab = g[g["src"] < 0][["key", "label"]]
        ed = g[g["src"] >= 0]
        m = ed.merge(lab, on="key", suffixes=("", "_dst"))
        out = pd.DataFrame({
            "node": np.concatenate([m["src"].to_numpy(dtype=np.int64),
                                    lab["key"].to_numpy(dtype=np.int64)]),
            "cand": np.concatenate([m["label_dst"].to_numpy(dtype=np.int64),
                                    lab["label"].to_numpy(dtype=np.int64)]),
            "self": np.concatenate([np.zeros(len(m), dtype=np.int64),
                                    np.ones(len(lab), dtype=np.int64)]),
        })
        out["g2"] = out["node"] % _NBUCKETS
        return out

    def relabel(g: pd.DataFrame) -> pd.DataFrame:
        mn = g.groupby("node")["cand"].min()
        olds = g[g["self"] == 1].drop_duplicates("node") \
            .set_index("node")["cand"]
        out = pd.DataFrame({"node": mn.index.to_numpy(dtype=np.int64),
                            "label": mn.to_numpy(dtype=np.int64)})
        old = out["node"].map(olds).fillna(out["label"]).astype("int64")
        out["changed"] = (out["label"] != old).astype(np.int64)
        return out

    for _ in range(64):  # rounds bounded by component diameter
        msgs = (
            edges.map_batches(edge_rows, batch_format="pandas")
            .union(labels.map_batches(label_rows, batch_format="pandas"))
            .groupby("g")
            .map_groups(propagate, batch_format="pandas")
        )
        new_labels = (
            msgs.groupby("g2")
            .map_groups(relabel, batch_format="pandas")
            .materialize()
        )
        changed = new_labels.sum("changed") or 0
        labels = new_labels.drop_columns(["changed"]).materialize()
        if changed == 0:
            break

    # stitch labels onto the full corpus id list (left join; unlabeled docs
    # are their own cluster)
    def corpus_rows(batch: pa.Table) -> pd.DataFrame:
        ids = np.asarray(batch["doc_id"].to_pylist(), dtype=np.int64)
        return pd.DataFrame({"key": ids,
                             "label": np.full(len(ids), -1, dtype=np.int64),
                             "g": ids % _NBUCKETS})

    def final_label_rows(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"key": batch["node"].astype("int64"),
                             "label": batch["label"].astype("int64"),
                             "g": (batch["node"].to_numpy() % _NBUCKETS
                                   ).astype(np.int64)})

    def stitch(g: pd.DataFrame) -> pd.DataFrame:
        lab = g[g["label"] >= 0].set_index("key")["label"]
        docs = g[g["label"] < 0]["key"]
        mapped = docs.map(lab)
        return pd.DataFrame({
            "doc_id": docs.to_numpy(dtype=np.int64),
            "cluster": mapped.fillna(docs).astype("int64").to_numpy()})

    out = (
        corpus_ids.map_batches(corpus_rows, batch_format="pyarrow")
        .union(labels.map_batches(final_label_rows, batch_format="pandas"))
        .groupby("g")
        .map_groups(stitch, batch_format="pandas")
        .to_pandas()
    )
    out = out.sort_values("doc_id").reset_index(drop=True)
    return pa.Table.from_pandas(out, preserve_index=False)


def simhash_pairs(sf_dir: str, max_hamming: int = 8) -> pa.Table:
    """SimHash near-dup pairs: 64-bit fingerprints banded into 4x16-bit keys
    (pigeonhole guarantee for hamming <= 3; larger distances probabilistic)
    -> per-band groupby carries both fingerprints, so Hamming verification
    happens INSIDE each group (vectorized popcount) — nothing but the final
    pairs reaches the driver. -> (doc_a, doc_b, hamming)."""
    from .textstats import fingerprints_ds

    fp = fingerprints_ds(sf_dir)

    def band_rows(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch["doc_id"].to_pylist(), dtype=np.int64)
        sims = np.asarray(batch["simhash"].to_pylist(),
                          dtype=np.int64).view(np.uint64)
        n = len(ids)
        bands = np.arange(4, dtype=np.uint64)
        keys = (sims[:, None] >> (bands[None, :] * np.uint64(16))) \
            & np.uint64(0xFFFF)
        flat_keys = keys.reshape(-1).view(np.int64)
        band_col = np.tile(np.arange(4, dtype=np.int64), n)
        return pa.table({
            "band": pa.array(band_col.astype(np.int32)),
            "bkey": pa.array(flat_keys),
            "doc_id": pa.array(np.repeat(ids, 4)),
            "sim": pa.array(np.repeat(sims.view(np.int64), 4)),
            # coarse shuffle key (bounded Ray group count; see minhash)
            "g": pa.array((band_col * 65536 + flat_keys) % _NBUCKETS),
        })

    def group_pairs(gb: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for _, g in gb.groupby(["band", "bkey"], sort=False):
            g = g.drop_duplicates("doc_id").sort_values("doc_id")
            if len(g) < 2:
                continue
            ids = g["doc_id"].to_numpy()
            sims = g["sim"].to_numpy().astype(np.int64).view(np.uint64)
            ii, jj = np.triu_indices(len(ids), 1)
            x = np.bitwise_xor(sims[ii], sims[jj])
            h = np.zeros(len(x), dtype=np.int64)
            for _ in range(64):  # vectorized popcount (bounded unroll)
                h += (x & np.uint64(1)).astype(np.int64)
                x >>= np.uint64(1)
                if not x.any():
                    break
            keep = h <= max_hamming
            outs.append(pd.DataFrame({"doc_a": ids[ii][keep],
                                      "doc_b": ids[jj][keep],
                                      "hamming": h[keep]}))
        if not outs:
            return pd.DataFrame({"doc_a": pd.Series([], dtype="int64"),
                                 "doc_b": pd.Series([], dtype="int64"),
                                 "hamming": pd.Series([], dtype="int64")})
        return pd.concat(outs, ignore_index=True)

    out = (
        fp.map_batches(band_rows, batch_format="pyarrow")
        .groupby("g")
        .map_groups(group_pairs, batch_format="pandas")
        .to_pandas()
    )
    out = (out.drop_duplicates(["doc_a", "doc_b"])
           .sort_values(["doc_a", "doc_b"]).reset_index(drop=True))
    return pa.Table.from_pandas(out, preserve_index=False)


def embedding_dedup_pairs(
    sf_dir: str, threshold: float = 0.4, target_block: int = 4096
) -> pa.Table:
    """Embedding-cosine near-dup pairs (vec_a < vec_b, cos >= threshold).

    EXACT all-pairs as a block-partitioned pairwise join: the corpus is cut
    into ROW-GROUP-aligned blocks; one task per block pair (i <= j) reads
    only ITS two blocks' row groups from storage, normalizes, and emits its
    tile of the similarity matrix. Per-task memory and I/O are two blocks —
    nothing broadcasts the whole matrix and the driver sees only result
    pairs. (Work is inherently O(N²/2) tiles; for sub-quadratic near-dup at
    high thresholds use LSH/minhash paths.)"""
    import ray
    import pyarrow.parquet as pq

    path = f"{sf_dir}/embeddings.parquet"
    meta = pq.ParquetFile(path).metadata
    # blocks are whole ROW GROUPS (>= target_block rows each) so a tile task
    # reads only its two blocks' row groups, never the full file
    rg_rows = [meta.row_group(i).num_rows for i in range(meta.num_row_groups)]
    rg_of_block: list[list[int]] = []
    cur: list[int] = []
    cur_rows = 0
    for gi, rows in enumerate(rg_rows):
        cur.append(gi)
        cur_rows += rows
        if cur_rows >= target_block:
            rg_of_block.append(cur)
            cur, cur_rows = [], 0
    if cur:
        rg_of_block.append(cur)
    nblocks = len(rg_of_block)
    tiles = [{"i": i, "j": j} for i in range(nblocks)
             for j in range(i, nblocks)]

    def read_block(i: int):
        pf = pq.ParquetFile(path)
        t = pf.read_row_groups(rg_of_block[i], columns=["vec_id", "embedding"])
        ids = np.asarray(t["vec_id"].to_pylist(), dtype=np.int64)
        v = np.asarray(t["embedding"].to_pylist(), dtype=np.float64)
        return ids, v / np.linalg.norm(v, axis=1, keepdims=True)

    def tile(batch: pd.DataFrame) -> pd.DataFrame:
        frames = []
        for i, j in zip(batch["i"], batch["j"]):
            ids_a, va = read_block(int(i))
            ids_b, vb = (ids_a, va) if i == j else read_block(int(j))
            sims = va @ vb.T
            ai, bj = np.nonzero(sims >= threshold)
            xa, xb = ids_a[ai], ids_b[bj]
            if i != j:
                # off-diagonal tiles: normalize pair order instead of
                # filtering — correctness must not depend on vec_id being
                # nondecreasing with row order (tile (j,i) never runs)
                lo, hi = np.minimum(xa, xb), np.maximum(xa, xb)
            else:
                lo, hi = xa, xb
            keep = lo < hi
            frames.append(pd.DataFrame({
                "vec_a": lo[keep], "vec_b": hi[keep],
                "cos_bp": np.rint(sims[ai, bj][keep] * 10000).astype(np.int64),
            }))
        if not frames:
            return pd.DataFrame({"vec_a": pd.Series([], dtype="int64"),
                                 "vec_b": pd.Series([], dtype="int64"),
                                 "cos_bp": pd.Series([], dtype="int64")})
        return pd.concat(frames, ignore_index=True)

    ds = ray.data.from_items(tiles, override_num_blocks=len(tiles))
    out = ds.map_batches(tile, batch_format="pandas", batch_size=1).to_pandas()
    out = out.sort_values(["vec_a", "vec_b"]).reset_index(drop=True)
    return pa.Table.from_pandas(out, preserve_index=False)


def _para_partial_batch(batch: pa.Table, min_chars: int) -> pa.Table:
    """Per-batch paragraph-hash combiner: one (hash, min key, count) row
    per distinct long-enough paragraph in the batch (key packs
    (doc_id, paragraph index))."""
    rows_h: list[str] = []
    rows_key: list[int] = []
    for d, t in zip(batch["doc_id"].to_pylist(),
                    batch["text"].to_pylist()):
        for i, p in enumerate((t or "").split("\n\n")):
            if len(p.strip()) < min_chars:
                continue
            rows_h.append(
                hashlib.sha256(p.strip().encode()).hexdigest())
            rows_key.append(int(d) * 100_000 + i)
    df = pd.DataFrame({"h": rows_h, "k": rows_key})
    g = df.groupby("h", as_index=False).agg(k=("k", "min"),
                                            c=("k", "size"))
    return pa.Table.from_pandas(g, preserve_index=False)


def _para_owner_ref(ds, min_chars: int):
    """First-occurrence owner map for DUPLICATED paragraphs only
    (hash -> packed (doc_id, index) key), broadcast via ``ray.put``.
    The c>1 filter runs DATASET-side, so the driver pull and the
    broadcast hold only the boilerplate set, never the corpus's full
    paragraph vocabulary."""
    from ray.data.aggregate import Min, Sum

    owners_pd = (
        ds.map_batches(lambda b: _para_partial_batch(b, min_chars),
                       batch_format="pyarrow")
        .groupby("h")
        .aggregate(Min("k", alias_name="k"), Sum("c", alias_name="c"))
        .map_batches(lambda b: b.filter(
            pa.compute.greater(b["c"], 1)), batch_format="pyarrow")
        .to_pandas()
    )
    if owners_pd.empty or "h" not in owners_pd.columns:
        # no duplicated paragraphs anywhere (an empty aggregate frame
        # carries no columns): every doc keeps all its paragraphs
        return ray.put({})
    return ray.put(dict(zip(owners_pd["h"], owners_pd["k"])))


def _para_rewrite_doc(doc_id: int, text: str, owners: dict,
                      min_chars: int) -> tuple[str, int]:
    """Keep-first paragraph rewrite of one doc -> (kept_text, dropped)."""
    kept: list[str] = []
    dropped = 0
    for i, p in enumerate((text or "").split("\n\n")):
        s = p.strip()
        if len(s) < min_chars:
            kept.append(p)
            continue
        h = hashlib.sha256(s.encode()).hexdigest()
        own = owners.get(h)
        if own is None or own == int(doc_id) * 100_000 + i:
            kept.append(p)
        else:
            dropped += 1
    return "\n\n".join(kept), dropped


def paragraph_dedup(sf_dir: str, min_chars: int = 20,
                    write_to: str | None = None) -> pa.Table:
    """Paragraph-level exact dedup — the C4/RefinedWeb-style pass that
    drops REPEATED PARAGRAPHS corpus-wide while keeping each document
    (re-expresses the "remove duplicated substrings/lines" cleaning stage
    of large-scale training-data pipelines; doc-level exact_dedup drops
    whole docs, this drops shared boilerplate inside them).

    Paragraphs = ``\\n\\n``-separated blocks (single ``\\n`` lines fold
    into their block); blocks shorter than ``min_chars`` are never
    deduped (quote/heading noise). The FIRST occurrence (lowest (doc_id,
    paragraph index)) keeps the paragraph; later occurrences drop it.

    Distribution shape: one hash per distinct paragraph per batch leaves
    the map stage (combiner), the groupby moves partials, and the small
    owner table (hash -> first (doc, idx)) broadcasts back for the
    rewrite pass — same two-step shape as exact_dedup, nothing
    corpus-sized on the driver. -> (doc_id, kept_text, dropped_paras)."""
    ds = ray.data.read_parquet(_docs_path(sf_dir),
                               columns=["doc_id", "text"])
    owner_ref = _para_owner_ref(ds, min_chars)

    def rewrite(batch: pa.Table) -> pa.Table:
        owners = ray.get(owner_ref)
        out_rows = []
        for d, t in zip(batch["doc_id"].to_pylist(),
                        batch["text"].to_pylist()):
            kept_text, dropped = _para_rewrite_doc(d, t, owners, min_chars)
            out_rows.append({"doc_id": int(d),
                             "kept_text": kept_text,
                             "dropped_paras": dropped})
        return pa.Table.from_pandas(pd.DataFrame(out_rows),
                                    preserve_index=False)

    res = ds.map_batches(rewrite, batch_format="pyarrow")
    if write_to is not None:
        from ..pipelines.sink import write_results

        n = write_results(res, write_to)
        return pa.table({"rows_written": pa.array([n], pa.int64()),
                         "out_dir": pa.array([write_to], pa.string())})
    out = (res.to_pandas().sort_values("doc_id").reset_index(drop=True))
    return pa.Table.from_pandas(out, preserve_index=False)


# --- corpus-wide exact substring dedup (Lee et al. 2021 lineage) ---------

# Whitespace-token windows: a doc's tokens are maximal \S+ runs (Python
# str.split() semantics).  Window identity travels as TWO independent
# 64-bit polynomial hashes over the per-token FNV-1a lanes, so a false
# pair needs a simultaneous collision in both lanes (~2^-128): exact in
# practice at any corpus size, fully vectorized.
_SSD_KEYBASE = 1 << 21  # max tokens per doc for the packed (doc, start) key
_SSD_BASE1 = np.uint64(0x100000001B3)           # FNV prime (odd)
_SSD_BASE2 = np.uint64(0x9E3779B97F4A7C15)      # golden-ratio odd constant
_SSD_RE = None  # compiled lazily per process


def _ssd_tokens(text: str) -> list[str]:
    global _SSD_RE
    if _SSD_RE is None:
        import re

        _SSD_RE = re.compile(r"\S+")
    return _SSD_RE.findall(text or "")


def _ssd_mix(h: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer -> a second token-hash lane independent of
    FNV-1a's byte recurrence (vectorized, uint64 wraparound)."""
    with np.errstate(over="ignore"):
        z = (h + np.uint64(0x9E3779B97F4A7C15)).astype(np.uint64)
        z = np.multiply(z ^ (z >> np.uint64(30)),
                        np.uint64(0xBF58476D1CE4E5B9), dtype=np.uint64)
        z = np.multiply(z ^ (z >> np.uint64(27)),
                        np.uint64(0x94D049BB133111EB), dtype=np.uint64)
        return (z ^ (z >> np.uint64(31))).astype(np.uint64)


def _ssd_powers(base: np.uint64, window: int) -> np.ndarray:
    p = np.empty(window, dtype=np.uint64)
    p[-1] = np.uint64(1)
    with np.errstate(over="ignore"):
        for i in range(window - 2, -1, -1):
            p[i] = np.multiply(p[i + 1], base, dtype=np.uint64)
    return p


def _ssd_batch_windows(batch: pa.Table, window: int):
    """All valid token-window starts of a batch -> (doc_ids_per_window,
    start_idx_per_window, w1, w2 int64 hash lanes, tokens_per_doc,
    token_lists).  Vocabulary-level token hashing (factorize once per
    batch), window hashing via one sliding-window matmul per lane."""
    docs = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    texts = batch["text"].to_pylist()
    tok_lists = [_ssd_tokens(t) for t in texts]
    counts = np.fromiter((len(t) for t in tok_lists),
                         count=len(tok_lists), dtype=np.int64)
    flat = [t for toks in tok_lists for t in toks]
    if flat:
        codes, uniques = pd.factorize(np.asarray(flat, dtype=object))
        uh = stable_hash64_batch(list(uniques))
        h1 = uh[codes]
        h2 = _ssd_mix(h1)
    else:
        h1 = h2 = np.empty(0, dtype=np.uint64)
    n = len(h1)
    m = n - window + 1
    if m <= 0:
        e = np.empty(0, dtype=np.int64)
        return e, e, e, e, counts, tok_lists
    sw1 = np.lib.stride_tricks.sliding_window_view(h1, window)
    sw2 = np.lib.stride_tricks.sliding_window_view(h2, window)
    p1 = _ssd_powers(_SSD_BASE1, window)
    p2 = _ssd_powers(_SSD_BASE2, window)
    with np.errstate(over="ignore"):
        w1 = np.multiply(sw1, p1, dtype=np.uint64).sum(
            axis=1, dtype=np.uint64)
        w2 = np.multiply(sw2, p2, dtype=np.uint64).sum(
            axis=1, dtype=np.uint64)
    # flat positions whose whole window lies inside one doc
    ends = np.cumsum(counts)
    starts = ends - counts
    doc_of = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    pos = np.arange(n, dtype=np.int64) - starts[doc_of]
    valid = np.nonzero((pos + window <= counts[doc_of]) &
                       (np.arange(n) < m))[0]
    return (docs[doc_of[valid]], pos[valid],
            w1[valid].view(np.int64), w2[valid].view(np.int64),
            counts, tok_lists)


def _ssd_owner_ref(ds, window: int):
    """First-occurrence owner frame for DUPLICATED token windows only
    ((w1, w2) double-hash -> packed min (doc_id, start) key), broadcast
    via ``ray.put``; the c>1 cut bounds it by duplicated content."""
    from ray.data.aggregate import Min, Sum

    def win_partial(batch: pa.Table) -> pa.Table:
        d, s, w1, w2, _, _ = _ssd_batch_windows(batch, window)
        df = pd.DataFrame({"w1": w1, "w2": w2,
                           "k": d * _SSD_KEYBASE + s})
        g = df.groupby(["w1", "w2"], as_index=False).agg(
            k=("k", "min"), c=("k", "size"))
        return pa.Table.from_pandas(g, preserve_index=False)

    owners_pd = (
        ds.map_batches(win_partial, batch_format="pyarrow")
        .groupby(["w1", "w2"])
        .aggregate(Min("k", alias_name="k"), Sum("c", alias_name="c"))
        .to_pandas()
    )
    if owners_pd.empty or "w1" not in owners_pd.columns:
        owners_pd = pd.DataFrame({"w1": pd.Series([], dtype="int64"),
                                  "w2": pd.Series([], dtype="int64"),
                                  "k": pd.Series([], dtype="int64")})
    else:
        owners_pd = owners_pd[owners_pd["c"] > 1][["w1", "w2", "k"]]
    return ray.put(owners_pd.reset_index(drop=True))


def _ssd_rewrite_batch_marks(batch: pa.Table, owners: pd.DataFrame,
                             window: int):
    """Non-owner duplicated-window occurrences of a batch -> per-doc
    removal marks. Returns (docs, tok_lists, hs, hrow): window starts
    ``hs`` to remove, each attributed to batch row ``hrow``."""
    d, s, w1, w2, _, tok_lists = _ssd_batch_windows(batch, window)
    wins = pd.DataFrame({"w1": w1, "w2": w2, "d": d, "s": s})
    hit = wins.merge(owners, on=["w1", "w2"], how="inner")
    # non-owner occurrences mark their token range for removal
    hit = hit[hit["d"] * _SSD_KEYBASE + hit["s"] != hit["k"]]
    docs = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    row_of = pd.Series(np.arange(len(docs)), index=docs)
    hs = hit["s"].to_numpy()
    hrow = (row_of[hit["d"].to_numpy()].to_numpy() if len(hit)
            else np.empty(0, dtype=np.int64))
    return docs, tok_lists, hs, hrow


def _ssd_rewrite_core(batch: pa.Table, owners: pd.DataFrame, window: int):
    """Keep-first window rewrite of a batch -> (doc_ids, kept_texts,
    dropped_token_counts, dup_window_counts); kept tokens rejoin with
    single spaces (token-level op)."""
    docs, tok_lists, hs, hrow = _ssd_rewrite_batch_marks(
        batch, owners, window)
    kept_texts: list[str] = []
    dropped = np.zeros(len(docs), dtype=np.int64)
    dupw = np.zeros(len(docs), dtype=np.int64)
    for r, toks in enumerate(tok_lists):
        nt = len(toks)
        mine = hs[hrow == r]
        if len(mine):
            diff = np.zeros(nt + 1, dtype=np.int64)
            np.add.at(diff, mine, 1)
            np.add.at(diff, np.minimum(mine + window, nt), -1)
            drop = np.cumsum(diff[:-1]) > 0
            kept_texts.append(" ".join(
                t for t, dd in zip(toks, drop) if not dd))
            dropped[r] = int(drop.sum())
            dupw[r] = len(mine)
        else:
            kept_texts.append(" ".join(toks))
    return docs, kept_texts, dropped, dupw


def substring_dedup(sf_dir: str, window: int = 50,
                    write_to: str | None = None) -> pa.Table:
    """Corpus-wide EXACT substring dedup — every duplicated run of
    ``window`` whitespace tokens is removed from all but its FIRST
    occurrence (lowest (doc_id, start token)), re-expressing the
    suffix-array substring-dedup pass of Lee et al. 2021 ("Deduplicating
    Training Data Makes Language Models Better") as a windowed-hash
    groupby: a span duplicated for L >= window tokens yields L-window+1
    duplicated windows whose union marks exactly that span.

    Distribution shape (the 100-TB story): the map stage emits ONE row
    per distinct window hash per batch (combiner), the groupby moves
    those partials keyed on the 128-bit window hash, and only the
    DUPLICATED-window owner table (bounded by the corpus's duplicated
    content, not its size) broadcasts back for the rewrite pass —
    the same two-step shape as exact_dedup/paragraph_dedup.  Unlike the
    suffix-array original there is no corpus-wide sorted structure;
    exactness comes from the double 64-bit window hash (collision
    ~2^-128) plus first-owner tie-breaks identical to min (doc, start).

    Output rows (doc_id asc): ``kept_text`` = surviving tokens rejoined
    with single spaces (token-level op — original inter-token whitespace
    is not preserved), ``dropped_tokens``, ``dup_windows`` (non-owner
    duplicated window occurrences).  Docs shorter than ``window`` pass
    through untouched.  ``write_to`` switches to the production sink:
    rewritten docs stream to partitioned Parquet from the workers and a
    1-row footer-counted summary returns."""
    if window < 2:
        raise ValueError("window must be >= 2 tokens")
    ds = ray.data.read_parquet(_docs_path(sf_dir),
                               columns=["doc_id", "text"])
    owner_ref = _ssd_owner_ref(ds, window)

    def rewrite(batch: pa.Table) -> pa.Table:
        owners = ray.get(owner_ref)
        docs, kept, dropped, dupw = _ssd_rewrite_core(batch, owners, window)
        return pa.Table.from_pandas(
            pd.DataFrame({"doc_id": docs, "kept_text": kept,
                          "dropped_tokens": dropped, "dup_windows": dupw}),
            preserve_index=False)

    res = ds.map_batches(rewrite, batch_format="pyarrow")
    if write_to is not None:
        from ..pipelines.sink import write_results

        n = write_results(res, write_to)
        return pa.table({"rows_written": pa.array([n], pa.int64()),
                         "out_dir": pa.array([write_to], pa.string())})
    out = res.to_pandas().sort_values("doc_id").reset_index(drop=True)
    return pa.Table.from_pandas(out, preserve_index=False)


def _eval_window_ref(eval_texts, window: int):
    """Build the broadcast (sorted w1, w2) window-hash arrays for an eval
    set (list of strings or a Parquet path with a ``text`` column) — the
    small side of the decontamination broadcast join."""
    if isinstance(eval_texts, str):
        import pyarrow.parquet as pq

        eval_texts = pq.read_table(
            eval_texts, columns=["text"])["text"].to_pylist()
    ev = pa.table({"doc_id": pa.array(range(len(eval_texts)), pa.int64()),
                   "text": pa.array([t or "" for t in eval_texts],
                                    pa.string())})
    _, _, ew1, ew2, _, _ = _ssd_batch_windows(ev, window)
    order = np.argsort(ew1, kind="stable")
    return ray.put((ew1[order], ew2[order]))


def _decontam_mark_batch(batch: pa.Table, bad_ref, window: int,
                         action: str) -> pa.Table:
    """Flag or filter one batch against the broadcast eval window-hash set
    (shared by decontaminate and the composed curation_pipeline step)."""
    bw1, bw2 = ray.get(bad_ref)
    d, _s, w1, w2, _counts, _toks = _ssd_batch_windows(batch, window)
    if len(bw1) and len(w1):
        idx = np.searchsorted(bw1, w1)
        idx = np.minimum(idx, len(bw1) - 1)
        # lane-1 hit, confirmed on lane 2 (uniform hashes: duplicate
        # w1 values with differing w2 are ~2^-64, but confirm anyway
        # against the matched slot)
        hit = (bw1[idx] == w1) & (bw2[idx] == w2)
    else:
        hit = np.zeros(len(w1), dtype=bool)
    docs = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    dirty = pd.Series(d[hit]).value_counts()
    nd = dirty.reindex(docs, fill_value=0).to_numpy(dtype=np.int64)
    if action == "flag":
        return pa.table({"doc_id": pa.array(docs, pa.int64()),
                         "contaminated": pa.array(nd > 0, pa.bool_()),
                         "dirty_windows": pa.array(nd, pa.int64())})
    return batch.filter(pa.array(nd == 0))


def decontaminate(sf_dir: str, eval_texts, window: int = 13,
                  action: str = "flag",
                  write_to: str | None = None) -> pa.Table:
    """Benchmark decontamination — flag (or drop) corpus documents that
    share any ``window``-token run with an evaluation set (the GPT-3
    appendix-C / PaLM / Llama train-test-overlap pass; 13 grams is the
    GPT-3 default).

    ``eval_texts`` is the SMALL side: a list of strings or a Parquet path
    with a ``text`` column.  Its window hashes (same double-64-bit lanes
    as :func:`substring_dedup`) build on the driver and broadcast once via
    ``ray.put``; the corpus side is ONE streaming map_batches membership
    pass — no shuffle at all, the canonical broadcast-join shape for a
    tiny reference set against 100 TB.

    ``action="flag"`` returns (doc_id, contaminated, dirty_windows);
    ``action="filter"`` returns only clean docs (doc_id, text) — the
    drop-the-document policy.  ``write_to`` streams either form to
    partitioned Parquet from the workers with a 1-row summary return."""
    if window < 2:
        raise ValueError("window must be >= 2 tokens")
    if action not in ("flag", "filter"):
        raise ValueError("action must be 'flag' or 'filter'")
    bad_ref = _eval_window_ref(eval_texts, window)

    ds = ray.data.read_parquet(_docs_path(sf_dir),
                               columns=["doc_id", "text"])

    res = ds.map_batches(
        lambda b: _decontam_mark_batch(b, bad_ref, window, action),
        batch_format="pyarrow")
    if write_to is not None:
        from ..pipelines.sink import write_results

        n = write_results(res, write_to)
        return pa.table({"rows_written": pa.array([n], pa.int64()),
                         "out_dir": pa.array([write_to], pa.string())})
    out = res.to_pandas().sort_values("doc_id").reset_index(drop=True)
    return pa.Table.from_pandas(out, preserve_index=False)


def semdedup(sf_dir: str, n_clusters: int = 16, eps: float = 0.95,
             seed: int = 42, write_to: str | None = None) -> pa.Table:
    """SemDeDup (Abbas et al. 2023) — semantic dedup over the embedding
    table: k-means-cluster the embeddings, then within each cluster
    greedily keep only examples whose cosine similarity to every
    already-kept example is below ``eps``.  Candidates are visited in the
    paper's keep-low-centroid-similarity order (similarity to the
    cluster centroid ascending, vec_id tie-break), so the survivor of a
    near-duplicate group is its most "peripheral" member — deterministic
    given the seed.

    Scale shape: centroids train on a bounded sample (the IVF training
    contract, shared with :mod:`stages.ann`); assignment is one
    streaming map_batches; the ONLY shuffle moves each embedding to its
    cluster's group once (`groupby(cluster).map_groups`), and the
    per-cluster O(m^2) pairwise pass is bounded by cluster size —
    raise ``n_clusters`` to cap it (the paper's shape).  Returns
    (vec_id, cluster, centroid_sim, keep) for every vector."""
    import ray

    from .ann import _normalized, _train_centroids

    C = _train_centroids(sf_dir, n_clusters, seed)
    c_ref = ray.put(C)

    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                               columns=["vec_id", "embedding"])

    def assign(batch: pa.Table) -> pa.Table:
        C_l = ray.get(c_ref)
        v = _normalized(np.asarray(batch["embedding"].to_pylist(),
                                   dtype=np.float64))
        sims = v @ C_l.T
        cl = np.argmax(sims, axis=1).astype(np.int64)
        return batch.append_column(
            "cluster", pa.array(cl)).append_column(
            "centroid_sim", pa.array(sims[np.arange(len(cl)), cl]))

    def cluster_pass(group: pd.DataFrame) -> pd.DataFrame:
        v = _normalized(np.asarray(group["embedding"].tolist(),
                                   dtype=np.float64))
        order = np.lexsort((group["vec_id"].to_numpy(),
                            group["centroid_sim"].to_numpy()))
        keep = np.zeros(len(group), dtype=bool)
        kept_rows: list[int] = []
        for i in order:
            if not kept_rows or float(
                    np.max(v[kept_rows] @ v[i])) < eps:
                keep[i] = True
                kept_rows.append(i)
        out = group[["vec_id", "cluster", "centroid_sim"]].copy()
        out["keep"] = keep
        return out

    res = (ds.map_batches(assign, batch_format="pyarrow")
           .groupby("cluster")
           .map_groups(cluster_pass, batch_format="pandas"))
    if write_to is not None:
        from ..pipelines.sink import write_results

        n = write_results(res, write_to)
        return pa.table({"rows_written": pa.array([n], pa.int64()),
                         "out_dir": pa.array([write_to], pa.string())})
    out = res.to_pandas().sort_values("vec_id").reset_index(drop=True)
    return pa.Table.from_pandas(out, preserve_index=False)


# --- winnowing fingerprints (Schleimer et al. 2003, the MOSS scheme) -----

_WIN_BASE = np.uint64(1099511628211)


def _winnow_doc(text: str, k: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Selected (position, fingerprint) pairs for one document: k-gram
    polynomial hashes over codepoints, min per w-window with the robust
    RIGHTMOST tie rule, consecutive duplicate selections collapsed —
    guarantees any match of length >= w + k - 1 shares a fingerprint."""
    cps = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)
    n = len(cps) - k + 1
    if n <= 0:
        e = np.empty(0, dtype=np.int64)
        return e, e
    sw = np.lib.stride_tricks.sliding_window_view(
        cps.astype(np.uint64), k)
    pw = _ssd_powers(_WIN_BASE, k)
    with np.errstate(over="ignore"):
        h = np.multiply(sw, pw, dtype=np.uint64).sum(axis=1,
                                                     dtype=np.uint64)
    m = n - w + 1
    if m <= 0:
        # document shorter than one window: select the global minimum
        # (rightmost on ties), the paper's degenerate case
        rev = h[::-1]
        pos = len(h) - 1 - int(np.argmin(rev))
        return (np.array([pos], dtype=np.int64),
                h[[pos]].view(np.int64))
    hw = np.lib.stride_tricks.sliding_window_view(h, w)
    # rightmost argmin: argmin over the reversed window
    idx = (w - 1) - np.argmin(hw[:, ::-1], axis=1)
    pos = np.arange(m, dtype=np.int64) + idx
    keep = np.ones(m, dtype=bool)
    keep[1:] = pos[1:] != pos[:-1]
    pos = np.unique(pos[keep])
    return pos, h[pos].view(np.int64)


def winnow_fingerprints(sf_dir: str, k: int = 5, w: int = 4) -> pa.Table:
    """Per-doc winnowing fingerprints -> (doc_id, pos, fp) rows.  One
    streaming pass; each doc's selection is local (no shuffle)."""
    if k < 1 or w < 1:
        raise ValueError("k and w must be >= 1")
    ds = ray.data.read_parquet(_docs_path(sf_dir),
                               columns=["doc_id", "text"])

    def fps(batch: pa.Table) -> pa.Table:
        frames = []
        for d, t in zip(batch["doc_id"].to_pylist(),
                        batch["text"].to_pylist()):
            pos, h = _winnow_doc(t or "", k, w)
            frames.append(pd.DataFrame({
                "doc_id": np.full(len(pos), int(d), dtype=np.int64),
                "pos": pos, "fp": h}))
        if not frames:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "pos": pa.array([], pa.int64()),
                             "fp": pa.array([], pa.int64())})
        return pa.Table.from_pandas(pd.concat(frames, ignore_index=True),
                                    preserve_index=False)

    out = (ds.map_batches(fps, batch_format="pyarrow")
           .to_pandas().sort_values(["doc_id", "pos"])
           .reset_index(drop=True))
    return pa.Table.from_pandas(out, preserve_index=False)


def winnow_matches(sf_dir: str, k: int = 5, w: int = 4,
                   min_shared: int = 2) -> pa.Table:
    """MOSS-style candidate pairs: docs sharing >= ``min_shared`` DISTINCT
    winnowed fingerprints -> (doc_a, doc_b, n_shared).  Shape: the map
    stage emits one (fp, doc) row per DISTINCT fingerprint per doc
    (combiner), a bounded-bucket groupby meets the posting lists, and
    per-fp pair expansion + the pair count reduce run inside the bucket —
    the inverted-index candidate shape shared with jaccard_pairs."""
    if min_shared < 1:
        raise ValueError("min_shared must be >= 1")
    ds = ray.data.read_parquet(_docs_path(sf_dir),
                               columns=["doc_id", "text"])

    def fp_rows(batch: pa.Table) -> pa.Table:
        frames = []
        for d, t in zip(batch["doc_id"].to_pylist(),
                        batch["text"].to_pylist()):
            _, h = _winnow_doc(t or "", k, w)
            u = np.unique(h)
            frames.append(pd.DataFrame({
                "fp": u, "doc_id": np.full(len(u), int(d),
                                           dtype=np.int64)}))
        df = (pd.concat(frames, ignore_index=True) if frames
              else pd.DataFrame({"fp": [], "doc_id": []}))
        df["bucket"] = (df["fp"].to_numpy().astype(np.uint64)
                        % np.uint64(_NBUCKETS)).astype(np.int64)
        return pa.Table.from_pandas(df, preserve_index=False)

    def bucket_pairs_(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["fp", "doc_id"])
        frames = []
        for _, rows in g.groupby("fp", sort=False):
            ids = rows["doc_id"].to_numpy()
            if len(ids) < 2:
                continue
            a, b = np.triu_indices(len(ids), k=1)
            frames.append(pd.DataFrame({"doc_a": ids[a], "doc_b": ids[b]}))
        if not frames:
            return pd.DataFrame({"doc_a": pd.Series([], dtype="int64"),
                                 "doc_b": pd.Series([], dtype="int64"),
                                 "n_shared": pd.Series([], dtype="int64")})
        pairs = pd.concat(frames, ignore_index=True)
        out = pairs.groupby(["doc_a", "doc_b"], as_index=False).size()
        out = out.rename(columns={"size": "n_shared"})
        return out

    parts = (
        ds.map_batches(fp_rows, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(bucket_pairs_, batch_format="pandas")
        .to_pandas()
    )
    # a pair's shared fps can span buckets: one tiny final fold
    out = (parts.groupby(["doc_a", "doc_b"], as_index=False)["n_shared"]
           .sum())
    out = out[out["n_shared"] >= min_shared]
    out = out.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
    return pa.Table.from_pandas(out, preserve_index=False)
