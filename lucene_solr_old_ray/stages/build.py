"""Segment build stage: one Parquet partition -> one immutable index segment.

This is the DWPT flush collapsed into a single ``map_batches`` task (SURVEY
§3.1): read the partition's row groups, run the analysis chain, invert to
per-term postings, encode, and atomically publish a segment directory.
Re-expresses (NOT ports) ``index/DocumentsWriterPerThread`` +
``index/FreqProxTermsWriter.java:85-110`` (sort terms in UTF-8 order at flush;
Python ``sorted`` on str == UTF-8 byte order since UTF-8 preserves code-point
order) + ``codecs/lucene41/Lucene41PostingsWriter.java`` (the codec step).

Segment directory layout::

    seg-XXXXXX/
      terms.parquet     term, df, ttf, off, len   (sorted by term)
      postings.bin      concatenated per-term chunk blobs
      norms.bin         uint8 norm byte per local docID
      docmap.parquet    meta cols + sha256 + field_len + norm_byte
      manifest.json     doc_base, num_docs, sum_tf, lineage, metrics

Resumability: if ``manifest.json`` already exists for a partition the task
returns its recorded metrics without reading any data (checkpoint skip).
Retries are safe: output is staged under a pid-suffixed tmp dir and
os.rename'd into place.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import time

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from ..functions.analysis import analyze_batch
from ..functions.codec import encode_chunk
from ..functions.smallfloat import encode_norm
from ..state import docvalues as dv
from ..state import manifest as mf
from ..state.fields import fprefix
from ..sources.corpus import CorpusSpec


def segment_dir(index_dir: str, part_id: int) -> str:
    return os.path.join(index_dir, "segments", f"seg-{part_id:06d}")


def _invert_subbatch(
    ab, doc_offset: int, acc: dict[str, list], with_positions: bool = False,
    with_offsets: bool = False,
) -> int:
    """Accumulate (term -> [(docids, tfs, positions|None), ...]) from one
    analyzed sub-batch. Returns number of postings added. Vectorized: one
    np.unique over the (term_code, doc) key space (the BytesRefHash +
    FreqProx parallel-array analogue, ``index/TermsHashPerField.java:103-105``).
    With positions, a stable argsort groups token instances by (term, doc)
    while preserving in-doc position order (FreqProx writeProx analogue)."""
    if len(ab.term_codes) == 0:
        return 0
    n_docs = len(ab.field_lengths)
    key = ab.term_codes.astype(np.int64) * n_docs + ab.doc_ids
    spay = soff = eoff = None
    if with_positions:
        order = np.argsort(key, kind="stable")
        skey = key[order]
        spos = ab.positions[order].astype(np.uint32)
        if ab.payloads is not None:
            spay = ab.payloads[order].astype(np.uint32)
        if with_offsets and ab.start_offsets is not None:
            # offsets lane (IndexOptions ..._AND_OFFSETS): rides the same
            # stable (term, doc) regrouping, stays position-aligned
            soff = ab.start_offsets[order].astype(np.uint32)
            eoff = ab.end_offsets[order].astype(np.uint32)
        uk, first, counts = np.unique(skey, return_index=True, return_counts=True)
    else:
        uk, counts = np.unique(key, return_counts=True)
        first = spos = None
    codes = (uk // n_docs).astype(np.int64)
    docs = (uk % n_docs + doc_offset).astype(np.uint32)
    tfs = counts.astype(np.uint32)
    # split by term code (codes ascending; docids ascending within a code)
    bounds = np.flatnonzero(np.diff(codes)) + 1
    starts = np.concatenate(([0], bounds))
    ends = np.concatenate((bounds, [len(codes)]))
    uniques = ab.uniques
    for s, e in zip(starts, ends):
        term = uniques[codes[s]]
        if with_positions:
            p0 = first[s]
            p1 = first[e] if e < len(first) else len(spos)
            acc.setdefault(term, []).append(
                (docs[s:e], tfs[s:e], spos[p0:p1],
                 spay[p0:p1] if spay is not None else None,
                 soff[p0:p1] if soff is not None else None,
                 eoff[p0:p1] if eoff is not None else None))
        else:
            acc.setdefault(term, []).append(
                (docs[s:e], tfs[s:e], None, None, None, None))
    return len(uk)


def _tv_subbatch(ab, doc_offset: int, with_positions: bool) -> pa.Table:
    """Doc-major term-vector rows of one analyzed sub-batch ->
    (doc int32, term str, freq int32, positions list<int32>|null
    [, start_offsets, end_offsets list<int32>]).
    Re-expresses ``index/TermVectorsTermsWriter.java``'s per-doc (term,
    freq, positions[, offsets]) payload as columnar parquet rows; offsets
    columns appear only when the analyzed batch carries the offsets lane
    (CorpusSpec.store_tv_offsets — WITH_POSITIONS_OFFSETS). ``ab=None`` ->
    the empty schema table."""
    schema = pa.schema([
        ("doc", pa.int32()), ("term", pa.string()), ("freq", pa.int32()),
        ("positions", pa.list_(pa.int32())),
    ])
    if ab is None or len(ab.term_codes) == 0:
        if ab is not None and ab.start_offsets is not None:
            schema = schema.append(pa.field("start_offsets",
                                            pa.list_(pa.int32())))
            schema = schema.append(pa.field("end_offsets",
                                            pa.list_(pa.int32())))
        return schema.empty_table()
    nu = len(ab.uniques)
    key = ab.doc_ids.astype(np.int64) * nu + ab.term_codes
    order = np.argsort(key, kind="stable")
    skey = key[order]
    uk, first, counts = np.unique(skey, return_index=True, return_counts=True)
    docs = (uk // nu + doc_offset).astype(np.int32)
    terms = ab.uniques[(uk % nu).astype(np.int64)]
    loff = np.zeros(len(uk) + 1, dtype=np.int64)
    np.cumsum(counts, out=loff[1:])
    loff = pa.array(loff.astype(np.int32), pa.int32())

    def lanes(vals: np.ndarray) -> pa.ListArray:
        return pa.ListArray.from_arrays(
            loff, pa.array(vals[order].astype(np.int32), pa.int32()))

    if with_positions and len(ab.positions):
        plist = lanes(ab.positions)
    else:
        plist = pa.nulls(len(uk), pa.list_(pa.int32()))
    cols = {
        "doc": pa.array(docs, pa.int32()),
        "term": pa.array(terms, pa.string()),
        "freq": pa.array(counts.astype(np.int32), pa.int32()),
        "positions": plist,
    }
    if ab.start_offsets is not None:
        cols["start_offsets"] = lanes(ab.start_offsets)
        cols["end_offsets"] = lanes(ab.end_offsets)
    return pa.table(cols)


def _analyze_numeric(col) -> "object":
    """One order-preserving value term per non-null row (numeric field,
    functions/numeric.py). Nulls index nothing and have field length 0."""
    from ..functions.analysis import AnalyzedBatch
    from ..functions.numeric import numeric_term

    import pandas as pd

    vals = col.to_pylist()
    n = len(vals)
    doc_ids = []
    terms = []
    for i, v in enumerate(vals):
        if v is None:
            continue
        doc_ids.append(i)
        terms.append(numeric_term(int(v)))
    if terms:
        codes, uniques = pd.factorize(np.asarray(terms, dtype=object),
                                      sort=False)
        codes = codes.astype(np.int64)
        uniques = np.asarray(uniques, dtype=object)
    else:
        codes = np.empty(0, dtype=np.int64)
        uniques = np.empty(0, dtype=object)
    doc_arr = np.asarray(doc_ids, dtype=np.int32)
    lens = np.zeros(n, dtype=np.int32)
    lens[doc_arr] = 1
    return AnalyzedBatch(doc_arr, np.zeros(len(doc_arr), dtype=np.int32),
                         codes, uniques, lens)


def _flush_field(
    tmp: str, prefix: str, acc: dict[str, list], norms: np.ndarray,
    store_positions: bool,
) -> tuple[list[str], np.ndarray, int]:
    """Flush one field's accumulated postings: sort terms (UTF-8 order),
    encode chunk blobs (+ positions), write ``{prefix}terms.parquet`` and
    ``{prefix}postings.bin`` (+ ``{prefix}positions.bin``) under ``tmp``.
    Returns (terms, dfs, postings_bytes)."""
    terms = sorted(acc)
    k = len(terms)
    offs = np.zeros(k, dtype=np.int64)
    lens_b = np.zeros(k, dtype=np.int64)
    pos_offs = np.zeros(k, dtype=np.int64)
    pos_lens = np.zeros(k, dtype=np.int64)
    dfs = np.zeros(k, dtype=np.int64)
    ttfs = np.zeros(k, dtype=np.int64)

    has_payloads = store_positions and any(
        parts and parts[0][3] is not None for parts in acc.values())
    has_offsets = store_positions and any(
        parts and parts[0][4] is not None for parts in acc.values())
    per_term: list = []
    for i, term in enumerate(terms):
        parts = acc[term]
        if len(parts) == 1:
            docids, tfs, positions, payloads, soffs, eoffs = parts[0]
        else:
            docids = np.concatenate([p[0] for p in parts])
            tfs = np.concatenate([p[1] for p in parts])
            positions = (np.concatenate([p[2] for p in parts])
                         if store_positions else None)
            payloads = (np.concatenate([p[3] for p in parts])
                        if has_payloads else None)
            soffs = (np.concatenate([p[4] for p in parts])
                     if has_offsets else None)
            eoffs = (np.concatenate([p[5] for p in parts])
                     if has_offsets else None)
        per_term.append((docids, tfs, positions, payloads, soffs, eoffs))
        dfs[i] = len(docids)
        ttfs[i] = int(tfs.sum())

    # batch-encode all single-block terms at once (the Zipf-dominant case);
    # only multi-block terms take the per-term path
    from ..functions.codec import BLOCK_SIZE, encode_chunks_batch

    blobs: list[bytes] = [b""] * k
    single = np.flatnonzero(dfs <= BLOCK_SIZE) if k else np.empty(0, np.int64)
    if len(single):
        flat_d = np.concatenate([per_term[i][0] for i in single])
        flat_t = np.concatenate([per_term[i][1] for i in single])
        for i, b in zip(single, encode_chunks_batch(
                flat_d, flat_t, dfs[single], norms)):
            blobs[i] = b
    for i in np.flatnonzero(dfs > BLOCK_SIZE):
        blobs[i] = encode_chunk(per_term[i][0], per_term[i][1], norms)

    pos_blobs: list[bytes] = []
    pay_blobs: list[bytes] = []
    soff_blobs: list[bytes] = []
    eoff_blobs: list[bytes] = []
    if store_positions and k:
        from ..functions.codec import encode_positions_batch

        flat_p = np.concatenate([pt[2] for pt in per_term])
        pos_blobs = encode_positions_batch(flat_p, ttfs)
        if has_payloads:
            # payload lane: same u32-chunk format, aligned 1:1 with the
            # positions lane (the .pay-stream analogue)
            flat_pay = np.concatenate([pt[3] for pt in per_term])
            pay_blobs = encode_positions_batch(flat_pay, ttfs)
        if has_offsets:
            # offsets lanes: start + end char offsets, same u32-chunk
            # format, aligned 1:1 with positions (the lucene41 .pos
            # startOffset/endOffset lanes of ..._AND_OFFSETS)
            soff_blobs = encode_positions_batch(
                np.concatenate([pt[4] for pt in per_term]), ttfs)
            eoff_blobs = encode_positions_batch(
                np.concatenate([pt[5] for pt in per_term]), ttfs)
    pay_offs = np.zeros(k, dtype=np.int64)
    pay_lens = np.zeros(k, dtype=np.int64)
    soff_offs = np.zeros(k, dtype=np.int64)
    soff_lens = np.zeros(k, dtype=np.int64)
    eoff_offs = np.zeros(k, dtype=np.int64)
    eoff_lens = np.zeros(k, dtype=np.int64)
    pos = 0
    ppos = 0
    ypos = 0
    spos_b = 0
    epos_b = 0
    for i in range(k):
        offs[i] = pos
        lens_b[i] = len(blobs[i])
        pos += lens_b[i]
        if store_positions:
            pos_offs[i] = ppos
            pos_lens[i] = len(pos_blobs[i])
            ppos += len(pos_blobs[i])
        if has_payloads:
            pay_offs[i] = ypos
            pay_lens[i] = len(pay_blobs[i])
            ypos += len(pay_blobs[i])
        if has_offsets:
            soff_offs[i] = spos_b
            soff_lens[i] = len(soff_blobs[i])
            spos_b += len(soff_blobs[i])
            eoff_offs[i] = epos_b
            eoff_lens[i] = len(eoff_blobs[i])
            epos_b += len(eoff_blobs[i])

    with open(os.path.join(tmp, prefix + "postings.bin"), "wb") as f:
        for b in blobs:
            f.write(b)
    tcols = {"term": pa.array(terms, pa.string()),
             "df": dfs, "ttf": ttfs, "off": offs, "len": lens_b}
    if store_positions:
        with open(os.path.join(tmp, prefix + "positions.bin"), "wb") as f:
            for b in pos_blobs:
                f.write(b)
        tcols["pos_off"] = pos_offs
        tcols["pos_len"] = pos_lens
    if has_payloads:
        with open(os.path.join(tmp, prefix + "payloads.bin"), "wb") as f:
            for b in pay_blobs:
                f.write(b)
        tcols["pay_off"] = pay_offs
        tcols["pay_len"] = pay_lens
    if has_offsets:
        with open(os.path.join(tmp, prefix + "soffs.bin"), "wb") as f:
            for b in soff_blobs:
                f.write(b)
        with open(os.path.join(tmp, prefix + "eoffs.bin"), "wb") as f:
            for b in eoff_blobs:
                f.write(b)
        tcols["soff_off"] = soff_offs
        tcols["soff_len"] = soff_lens
        tcols["eoff_off"] = eoff_offs
        tcols["eoff_len"] = eoff_lens
    pq.write_table(pa.table(tcols), os.path.join(tmp, prefix + "terms.parquet"))
    from ..functions.bloom import write_bloom

    write_bloom(terms, os.path.join(tmp, prefix + "bloom.npy"))
    return terms, dfs, int(pos)


def build_segment(
    spec: CorpusSpec,
    index_dir: str,
    part_id: int,
    file: str,
    row_groups: list[int],
    doc_base: int,
    num_docs: int,
    row_start: int,
    slice_start: int = 0,
    sub_batch_docs: int = 4096,
    store_positions: bool = True,
) -> dict:
    """Build one segment; returns a metrics row."""
    seg = segment_dir(index_dir, part_id)
    if mf.segment_exists(seg):
        import json as _json

        m = mf.read_json(os.path.join(seg, mf.SEGMENT_MANIFEST))
        lin = m.get("lineage", {})
        have = (m["doc_base"], m["num_docs"], lin.get("file"),
                lin.get("row_groups"), lin.get("row_start"))
        want = (doc_base, num_docs, file, list(row_groups), row_start)
        if have != want:
            raise ValueError(
                f"{seg} holds (doc_base, num_docs, file, row_groups, "
                f"row_start) {have}, planned {want}: "
                "refusing to resume a different segment")
        return {**m["metrics"], "part_id": part_id, "num_docs": m["num_docs"],
                "sum_tf": m["sum_tf"],
                "fields_json": _json.dumps(m.get("fields", {})),
                "skipped": True}

    t0 = time.perf_counter()
    pf = pq.ParquetFile(file)
    # fields[0] is the default content field; extras follow (FieldInfos order)
    fields = [(None, spec.content_col, spec.analyzer, store_positions,
               "text")] + [
        (fs.name, fs.col, fs.analyzer,
         fs.store_positions and store_positions and fs.kind == "text",
         getattr(fs, "kind", "text"))
        for fs in spec.extra_fields
    ]
    cols = list(dict.fromkeys(
        [spec.content_col, *(fs.col for fs in spec.extra_fields),
         *spec.meta_cols]))
    # byte-aware sub-batching: very wide content rows (100KB+ source files)
    # must not blow up the analyze batch — target ~32 MB of content per batch
    try:
        md = pf.metadata
        tot_bytes = tot_rows = 0
        ci = pf.schema_arrow.get_field_index(spec.content_col)
        for rg in row_groups:
            rgm = md.row_group(rg)
            tot_bytes += rgm.column(ci).total_uncompressed_size
            tot_rows += rgm.num_rows
        if tot_rows:
            avg = max(1, tot_bytes // tot_rows)
            sub_batch_docs = int(min(sub_batch_docs,
                                     max(256, 32 * 1024 * 1024 // avg)))
    except Exception:
        pass  # metadata quirks: keep the configured batch size
    accs: list[dict[str, list]] = [dict() for _ in fields]
    flen_parts: list[list[np.ndarray]] = [[] for _ in fields]
    n_post = [0] * len(fields)
    n_inst = [0] * len(fields)  # indexed token instances incl. overlap subtokens
    meta_tables: list[pa.Table] = []
    store_tv = bool(getattr(spec, "store_term_vectors", False))
    tv_offsets = bool(getattr(spec, "store_tv_offsets", False))
    post_offsets = bool(getattr(spec, "store_offsets", False))
    tv_parts: list[pa.Table] = []
    sha_list: list[str] = []
    doc_off = 0
    tok_s = 0.0
    skip = slice_start
    remaining = num_docs
    for batch in pf.iter_batches(batch_size=sub_batch_docs, row_groups=row_groups,
                                 columns=cols):
        if remaining <= 0:
            break
        if skip >= batch.num_rows:
            skip -= batch.num_rows
            continue
        if skip or batch.num_rows > remaining + skip:
            batch = batch.slice(skip, min(batch.num_rows - skip, remaining))
            skip = 0
        tb = pa.Table.from_batches([batch])
        remaining -= tb.num_rows
        texts = tb[spec.content_col].to_pylist()
        sha_list.extend(
            hashlib.sha256((t or "").encode("utf-8")).hexdigest() for t in texts
        )
        t1 = time.perf_counter()
        for fi, (_fname, col, anlz, wpos, kind) in enumerate(fields):
            if kind == "numeric":
                ab = _analyze_numeric(tb[col])
            else:
                ab = analyze_batch(
                    tb[col], with_positions=wpos, analyzer=anlz,
                    synonyms=(dict(spec.synonyms)
                              if getattr(spec, "synonyms", None) else None),
                    with_offsets=(fi == 0 and (post_offsets
                                               or (store_tv and tv_offsets))),
                )  # zero-copy Arrow in
            n_post[fi] += _invert_subbatch(
                ab, doc_off, accs[fi], wpos,
                with_offsets=(fi == 0 and post_offsets))
            n_inst[fi] += len(ab.term_codes)
            flen_parts[fi].append(ab.field_lengths)
            if fi == 0 and store_tv:
                tv_parts.append(_tv_subbatch(ab, doc_off, wpos))
        tok_s += time.perf_counter() - t1
        meta_tables.append(tb.select([c for c in spec.meta_cols]))
        doc_off += len(texts)
    assert doc_off == num_docs, f"partition {part_id}: read {doc_off} != planned {num_docs}"

    # flush every field: sort terms (UTF-8 order), encode, write files
    t2 = time.perf_counter()
    tmp = f"{seg}.tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp, exist_ok=True)
    field_meta: dict[str, dict] = {}
    hot_terms: dict[str, int] = {}
    lens = norms = None
    n_terms_main = 0
    pbytes_main = 0
    for fi, (fname, _col, _anlz, wpos, _kind) in enumerate(fields):
        lens_f = (np.concatenate(flen_parts[fi]) if flen_parts[fi]
                  else np.zeros(0, dtype=np.int32))
        norms_f = encode_norm(lens_f)
        prefix = fprefix(fname)
        terms_f, dfs_f, pbytes_f = _flush_field(
            tmp, prefix, accs[fi], norms_f, wpos)
        with open(os.path.join(tmp, prefix + "norms.bin"), "wb") as f:
            f.write(norms_f.tobytes())
        if fi == 0:
            lens, norms = lens_f, norms_f
            n_terms_main = len(terms_f)
            pbytes_main = pbytes_f
            # per-segment df partial aggregate of the hottest terms: consumed
            # by the merge planner for skew-aware salting (SURVEY §4 "Skew")
            if len(terms_f):
                top = np.argsort(dfs_f)[::-1][:50]
                hot_terms = {terms_f[i]: int(dfs_f[i]) for i in top}
        else:
            # sumTotalTermFreq counts every indexed instance (overlap
            # subtokens included; discountOverlaps applies to norms only)
            field_meta[fname] = {"sum_tf": int(n_inst[fi]),
                                 "num_terms": len(terms_f),
                                 "postings": int(n_post[fi])}
    sum_tf = int(n_inst[0])
    encode_s = time.perf_counter() - t2

    docmap = pa.concat_tables(meta_tables) if meta_tables else pa.table({})
    docmap = docmap.append_column("sha256", pa.array(sha_list, pa.string()))
    docmap = docmap.append_column("field_len", pa.array(lens.astype(np.int32)))
    docmap = docmap.append_column("norm_byte", pa.array(norms.astype(np.uint8)))
    pq.write_table(docmap, os.path.join(tmp, "docmap.parquet"))
    dv.write_docvalues(tmp, docmap)
    if store_tv:
        tv = (pa.concat_tables(tv_parts) if tv_parts
              else _tv_subbatch(None, 0, False))
        # doc-ascending row groups -> the reader's per-doc fetch prunes to
        # one row group via parquet min/max stats
        pq.write_table(tv, os.path.join(tmp, "tv.parquet"),
                       row_group_size=65536)

    wall = time.perf_counter() - t0
    n_postings = n_post[0]
    metrics = {
        "docs": num_docs,
        "postings": n_postings,
        "terms": n_terms_main,
        "postings_bytes": int(pbytes_main),
        "tokenize_s": round(tok_s, 4),
        "encode_s": round(encode_s, 4),
        "wall_s": round(wall, 4),
        "docs_per_s": round(num_docs / wall, 1) if wall > 0 else 0.0,
        "postings_per_s": round(n_postings / wall, 1) if wall > 0 else 0.0,
    }
    mf.atomic_write_json(
        os.path.join(tmp, mf.SEGMENT_MANIFEST),
        {
            "name": os.path.basename(seg),
            "part_id": part_id,
            "doc_base": doc_base,
            "num_docs": num_docs,
            "sum_tf": sum_tf,
            "num_terms": n_terms_main,
            "fields": field_meta,
            "hot_terms": hot_terms,
            "lineage": {"file": file, "row_groups": list(row_groups),
                        "row_start": row_start, "num_rows": num_docs},
            "metrics": metrics,
            "format_version": 1,
        },
    )
    mf.publish_dir(tmp, seg)
    import json as _json

    return {**metrics, "part_id": part_id, "num_docs": num_docs,
            "sum_tf": sum_tf, "fields_json": _json.dumps(field_meta),
            "skipped": False}


def make_build_fn(spec: CorpusSpec, index_dir: str, sub_batch_docs: int = 4096,
                  store_positions: bool = True):
    """Returns the map_batches function over partition-descriptor rows."""

    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for r in batch.to_dict("records"):
            rows.append(
                build_segment(
                    spec, index_dir,
                    part_id=int(r["part_id"]), file=r["file"],
                    row_groups=[int(x) for x in r["row_groups"]],
                    doc_base=int(r["doc_base"]), num_docs=int(r["num_docs"]),
                    row_start=int(r["row_start"]),
                    slice_start=int(r.get("slice_start", 0)),
                    sub_batch_docs=sub_batch_docs,
                    store_positions=store_positions,
                )
            )
        return pd.DataFrame(rows)

    return fn
