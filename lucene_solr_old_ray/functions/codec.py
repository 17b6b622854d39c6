"""Postings codec: 128-entry bit-packed blocks with block-max skip data.

Re-expresses (NOT ports) the reference's Lucene41 postings layout
(``codecs/lucene41/Lucene41PostingsFormat.java:40-384`` — BLOCK_SIZE=128
FOR-packed doc-delta/freq blocks with per-block bit width; skip entries every
block) as a numpy-vectorized, self-describing binary blob, extended with a
per-block impact table (max tf, max norm byte), written for Block-Max WAND
pruning (Ding & Suel, SIGIR'11 — the reference has only multi-level skip
lists, ``codecs/MultiLevelSkipListWriter.java``). The searcher no longer
prunes (exhaustive scoring measured faster), so no reader uses the impacts;
they stay until a format change drops them.

A term's postings value is a **blob = sequence of chunks**. Each chunk is
self-contained (its docIDs are chunk-local, shifted by the chunk's
``doc_offset`` at decode time), which makes segment merge a byte-level
concatenation: patch each incoming chunk's ``doc_offset`` by the segment's
docBase and append — no decode/re-encode, preserving strict docID order
(mirrors SegmentMerger's docBase remapping, ``index/SegmentMerger.java:75-135``).

Chunk layout (little-endian)::

    u32 ndocs
    u32 nblocks          # ceil(ndocs / 128)
    u32 doc_offset       # added to every decoded docID
    u32 packed_len       # byte length of the packed region
    u32 last_docids[nblocks]   # chunk-local last docID per block (skip data)
    u32 max_tfs[nblocks]       # block impact: max term freq
    u8  max_norms[nblocks]     # block impact: max norm byte (= shortest doc)
    u32 offsets[nblocks+1]     # byte offsets of blocks within packed region
    packed region: per block: u8 wdoc, u8 wtf, bitpacked(doc_delta-?),
                   bitpacked(tf-1)

Doc deltas are stored as ``delta - 1`` with ``delta[0] = docid[0] + 1``
(strictly ascending docIDs ⇒ all stored values ≥ 0); widths are exact bit
widths (0..32), width 0 ⇒ zero bytes (the reference's all-equal optimization,
``ForUtil.java:157-214``, generalized).
"""

from __future__ import annotations

import numpy as np

BLOCK_SIZE = 128
_HDR = 16  # bytes of fixed chunk header


def pack_ints(arr: np.ndarray, width: int) -> bytes:
    """Bit-pack uint32 values into ``width`` bits each (big-endian bit order
    within the stream). width==0 -> b''."""
    if width == 0 or len(arr) == 0:
        return b""
    a = arr.astype(np.uint32)
    shifts = np.arange(width - 1, -1, -1, dtype=np.uint32)
    bits = ((a[:, None] >> shifts[None, :]) & 1).astype(np.uint8)
    return np.packbits(bits.reshape(-1)).tobytes()


def unpack_ints(buf: np.ndarray, n: int, width: int) -> np.ndarray:
    """Inverse of pack_ints -> uint32 array of length n."""
    if width == 0:
        return np.zeros(n, dtype=np.uint32)
    bits = np.unpackbits(buf, count=n * width).reshape(n, width).astype(np.uint32)
    shifts = np.arange(width - 1, -1, -1, dtype=np.uint32)
    return (bits << shifts[None, :]).sum(axis=1, dtype=np.uint32)


def _width(arr: np.ndarray) -> int:
    if len(arr) == 0:
        return 0
    m = int(arr.max())
    return m.bit_length()


def _widths_of_rows(vals2d: np.ndarray) -> np.ndarray:
    """Per-row exact bit widths of a (k, BLOCK_SIZE) uint32 matrix."""
    mx = vals2d.max(axis=1)
    return np.where(
        mx == 0, 0,
        (np.floor(np.log2(np.maximum(mx, 1).astype(np.float64))) + 1).astype(np.int64),
    )


def _pack_rows(vals2d: np.ndarray, widths: np.ndarray) -> list[bytes]:
    """Pack each (BLOCK_SIZE-wide) row at its own width. Rows are grouped by
    width and packed in one ``np.packbits(axis=1)`` per group — BLOCK_SIZE*w
    bits is always a whole number of bytes, so rows never share a byte."""
    out: list[bytes] = [b""] * len(vals2d)
    for w in np.unique(widths):
        w = int(w)
        rows = np.flatnonzero(widths == w)
        if w == 0:
            continue
        shifts = np.arange(w - 1, -1, -1, dtype=np.uint32)
        bits = ((vals2d[rows][:, :, None] >> shifts[None, None, :]) & 1).astype(
            np.uint8
        ).reshape(len(rows), -1)
        packed = np.packbits(bits, axis=1)
        for i, r in enumerate(rows):
            out[r] = packed[i].tobytes()
    return out


def encode_chunk(
    docids: np.ndarray, tfs: np.ndarray, norms: np.ndarray | None
) -> bytes:
    """Encode one chunk (doc_offset=0). ``docids`` strictly ascending uint32
    (chunk-local), ``tfs`` >= 1, ``norms`` = the segment's per-doc norm bytes
    (indexed by local docID) used only to compute block impact data.
    Full 128-entry blocks are packed vectorized across blocks (grouped by bit
    width); only the tail block takes the scalar path."""
    n = len(docids)
    assert n > 0
    docids = docids.astype(np.uint32)
    tfs = tfs.astype(np.uint32)
    deltas = np.diff(docids.astype(np.int64), prepend=-1).astype(np.uint32) - 1
    tfm1 = tfs - 1
    nblocks = (n + BLOCK_SIZE - 1) // BLOCK_SIZE
    nfull = n // BLOCK_SIZE

    doc_norms = (
        norms[docids] if norms is not None else np.full(n, 255, dtype=np.uint8)
    )
    parts: list[bytes] = []
    if nfull:
        d2 = deltas[: nfull * BLOCK_SIZE].reshape(nfull, BLOCK_SIZE)
        t2 = tfm1[: nfull * BLOCK_SIZE].reshape(nfull, BLOCK_SIZE)
        wd = _widths_of_rows(d2)
        wt = _widths_of_rows(t2)
        pd = _pack_rows(d2, wd)
        pt = _pack_rows(t2, wt)
        for bi in range(nfull):
            parts.append(bytes((int(wd[bi]), int(wt[bi]))) + pd[bi] + pt[bi])
    if nblocks > nfull:  # tail block
        s = nfull * BLOCK_SIZE
        bd, bt = deltas[s:], tfm1[s:]
        twd, twt = _width(bd), _width(bt)
        parts.append(bytes((twd, twt)) + pack_ints(bd, twd) + pack_ints(bt, twt))

    last_docids = np.empty(nblocks, dtype=np.uint32)
    max_tfs = np.empty(nblocks, dtype=np.uint32)
    max_norms = np.empty(nblocks, dtype=np.uint8)
    if nfull:
        last_docids[:nfull] = docids[BLOCK_SIZE - 1 : nfull * BLOCK_SIZE : BLOCK_SIZE]
        max_tfs[:nfull] = tfs[: nfull * BLOCK_SIZE].reshape(nfull, BLOCK_SIZE).max(axis=1)
        max_norms[:nfull] = (
            doc_norms[: nfull * BLOCK_SIZE].reshape(nfull, BLOCK_SIZE).max(axis=1)
        )
    if nblocks > nfull:
        s = nfull * BLOCK_SIZE
        last_docids[-1] = docids[-1]
        max_tfs[-1] = tfs[s:].max()
        max_norms[-1] = doc_norms[s:].max()

    lens = np.fromiter((len(p) for p in parts), dtype=np.int64, count=nblocks)
    offsets = np.zeros(nblocks + 1, dtype=np.uint32)
    offsets[1:] = np.cumsum(lens)
    pos = int(offsets[-1])

    header = np.array([n, nblocks, 0, pos], dtype=np.uint32).tobytes()
    return b"".join(
        [
            header,
            last_docids.tobytes(),
            max_tfs.tobytes(),
            max_norms.tobytes(),
            offsets.tobytes(),
            *parts,
        ]
    )


def encode_chunks_batch(
    flat_docids: np.ndarray,
    flat_tfs: np.ndarray,
    ns: np.ndarray,
    norms: np.ndarray | None,
) -> list[bytes]:
    """Encode MANY single-block terms (each n <= BLOCK_SIZE) in one vectorized
    pass — byte-identical to per-term ``encode_chunk``. ``flat_docids`` /
    ``flat_tfs`` are the terms' postings concatenated; ``ns`` their lengths.
    Under realistic Zipf vocabularies most terms are tiny, so this removes
    the per-term numpy overhead from the flush hot loop."""
    k = len(ns)
    ns = ns.astype(np.int64)
    starts = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(ns, out=starts[1:])
    d = flat_docids.astype(np.uint32)
    t = flat_tfs.astype(np.uint32)
    d64 = d.astype(np.int64)
    prev = np.empty_like(d64)
    prev[1:] = d64[:-1]
    prev[starts[:-1]] = -1
    deltas = (d64 - prev - 1).astype(np.uint32)
    tfm1 = t - 1

    maxd = np.maximum.reduceat(deltas, starts[:-1]) if len(d) else np.empty(0)
    maxt1 = np.maximum.reduceat(tfm1, starts[:-1]) if len(d) else np.empty(0)
    def _w(mx):
        return np.where(
            mx == 0, 0,
            (np.floor(np.log2(np.maximum(mx, 1).astype(np.float64))) + 1)
            .astype(np.int64))
    wd = _w(maxd)
    wt = _w(maxt1)

    def _pack_group(vals: np.ndarray, widths: np.ndarray) -> list[bytes]:
        out: list[bytes] = [b""] * k
        # group by (width, pow2-size bucket) so one long term cannot force
        # full-width padding onto thousands of tiny ones
        size_bucket = np.uint64(1) << np.uint64(
            np.ceil(np.log2(np.maximum(ns, 1))).astype(np.int64))
        gkey = (widths.astype(np.int64) << 40) + size_bucket.astype(np.int64)
        for key in np.unique(gkey):
            w = int(key >> 40)
            rows = np.flatnonzero(gkey == key)
            if w == 0:
                continue
            ns_g = ns[rows]
            L = int(ns_g.max())
            M = np.zeros((len(rows), L), dtype=np.uint32)
            ridx = np.repeat(np.arange(len(rows)), ns_g)
            total = int(ns_g.sum())
            csum = np.cumsum(ns_g)
            cidx = np.arange(total) - np.repeat(csum - ns_g, ns_g)
            if len(rows) == k:  # single group: vals already laid out in order
                M[ridx, cidx] = vals
            else:
                flat_idx = np.repeat(starts[rows], ns_g) + cidx
                M[ridx, cidx] = vals[flat_idx]
            shifts = np.arange(w - 1, -1, -1, dtype=np.uint32)
            bits = ((M[:, :, None] >> shifts[None, None, :]) & 1).astype(
                np.uint8).reshape(len(rows), -1)
            packed = np.packbits(bits, axis=1)
            nbytes_t = (ns_g * w + 7) // 8
            for i, r in enumerate(rows):
                out[r] = packed[i, : nbytes_t[i]].tobytes()
        return out

    pd_ = _pack_group(deltas, wd)
    pt_ = _pack_group(tfm1, wt)

    doc_norms = norms[d] if norms is not None else np.full(len(d), 255, np.uint8)
    last = d[starts[1:] - 1] if len(d) else np.empty(0, np.uint32)
    maxtf = np.maximum.reduceat(t, starts[:-1]) if len(d) else np.empty(0)
    maxnorm = (np.maximum.reduceat(doc_norms, starts[:-1])
               if len(d) else np.empty(0))

    plens = 2 + (ns * wd + 7) // 8 + (ns * wt + 7) // 8
    # fixed 33-byte header per term, fields little-endian
    H = np.zeros((k, 33), dtype=np.uint8)
    hv = np.zeros((k, 4), dtype=np.uint32)  # n, nblocks, doc_offset, plen
    hv[:, 0] = ns
    hv[:, 1] = 1
    hv[:, 3] = plens
    H[:, 0:16] = hv.view(np.uint8).reshape(k, 16)
    H[:, 16:20] = last.astype(np.uint32)[:, None].view(np.uint8).reshape(k, 4)
    H[:, 20:24] = maxtf.astype(np.uint32)[:, None].view(np.uint8).reshape(k, 4)
    H[:, 24] = maxnorm.astype(np.uint8)
    # offsets[0]=0 already; offsets[1]=plen
    H[:, 29:33] = plens.astype(np.uint32)[:, None].view(np.uint8).reshape(k, 4)

    out: list[bytes] = []
    wdb = wd.astype(np.uint8)
    wtb = wt.astype(np.uint8)
    for i in range(k):
        out.append(
            H[i].tobytes() + bytes((wdb[i], wtb[i])) + pd_[i] + pt_[i]
        )
    return out


def chunk_total_size(ndocs: int, nblocks: int, packed_len: int) -> int:
    return _HDR + nblocks * 9 + (nblocks + 1) * 4 + packed_len


class ChunkView:
    """Zero-copy view over one chunk of a blob (arrays reference the blob
    buffer). Used by the searcher for skip/advance."""

    __slots__ = (
        "ndocs", "nblocks", "doc_offset", "last_docids", "max_tfs",
        "max_norms", "offsets", "packed", "size",
    )

    def __init__(self, buf: np.ndarray, start: int):
        hdr = buf[start : start + _HDR].view(np.uint32)
        self.ndocs = int(hdr[0])
        self.nblocks = int(hdr[1])
        self.doc_offset = int(hdr[2])
        packed_len = int(hdr[3])
        p = start + _HDR
        nb = self.nblocks
        self.last_docids = buf[p : p + 4 * nb].view(np.uint32); p += 4 * nb
        self.max_tfs = buf[p : p + 4 * nb].view(np.uint32); p += 4 * nb
        self.max_norms = buf[p : p + nb]; p += nb
        self.offsets = buf[p : p + 4 * (nb + 1)].view(np.uint32); p += 4 * (nb + 1)
        self.packed = buf[p : p + packed_len]
        self.size = chunk_total_size(self.ndocs, nb, packed_len)

    def decode_block(self, bi: int) -> tuple[np.ndarray, np.ndarray]:
        """Decode block bi -> (docids int64 with doc_offset applied, tfs uint32)."""
        s = int(self.offsets[bi])
        e = int(self.offsets[bi + 1])
        raw = self.packed[s:e]
        n = min(BLOCK_SIZE, self.ndocs - bi * BLOCK_SIZE)
        wd, wt = int(raw[0]), int(raw[1])
        db = 2 + ((n * wd + 7) // 8)
        deltas = unpack_ints(raw[2:db], n, wd).astype(np.int64) + 1
        tfs = unpack_ints(raw[db:], n, wt) + 1
        docids = np.cumsum(deltas) - 1
        if bi > 0:
            docids += int(self.last_docids[bi - 1]) + 1
        docids += self.doc_offset
        return docids, tfs

    def decode_all(self) -> tuple[np.ndarray, np.ndarray]:
        n = self.ndocs
        nfull = n // BLOCK_SIZE
        if nfull < 2:  # small chunks: per-block path is cheapest
            ids = np.empty(n, dtype=np.int64)
            tfs = np.empty(n, dtype=np.uint32)
            for bi in range(self.nblocks):
                s = bi * BLOCK_SIZE
                e = min(s + BLOCK_SIZE, n)
                d, t = self.decode_block(bi)
                ids[s:e] = d
                tfs[s:e] = t
            return ids, tfs

        # vectorized full-block decode: group blocks by bit width and
        # unpack each group with one np.unpackbits (inverse of the grouped
        # encoder; byte alignment is guaranteed by 128*w % 8 == 0)
        ids = np.empty(n, dtype=np.int64)
        tfs = np.empty(n, dtype=np.uint32)
        offs = self.offsets[:nfull].astype(np.int64)
        wd = self.packed[offs].astype(np.int64)
        wt = self.packed[offs + 1].astype(np.int64)

        def _unpack_group(rows, base_off, w, out2d):
            if w == 0:
                out2d[rows] = 0
                return
            nb = BLOCK_SIZE * w // 8
            idx = base_off[rows][:, None] + np.arange(nb)
            raw = np.asarray(self.packed)[idx]
            bits = np.unpackbits(raw, axis=1).reshape(len(rows), BLOCK_SIZE, w)
            shifts = np.arange(w - 1, -1, -1, dtype=np.uint32)
            out2d[rows] = (bits.astype(np.uint32) << shifts[None, None, :]).sum(
                axis=2, dtype=np.uint32)

        deltas2d = np.empty((nfull, BLOCK_SIZE), dtype=np.uint32)
        tfs2d = np.empty((nfull, BLOCK_SIZE), dtype=np.uint32)
        for w in np.unique(wd):
            _unpack_group(np.flatnonzero(wd == w), offs + 2, int(w), deltas2d)
        tf_base = offs + 2 + (BLOCK_SIZE * wd + 7) // 8
        for w in np.unique(wt):
            _unpack_group(np.flatnonzero(wt == w), tf_base, int(w), tfs2d)

        csum = np.cumsum(deltas2d.astype(np.int64) + 1, axis=1) - 1
        bases = np.empty(nfull, dtype=np.int64)
        bases[0] = self.doc_offset
        bases[1:] = self.last_docids[: nfull - 1].astype(np.int64) + 1 + self.doc_offset
        ids[: nfull * BLOCK_SIZE] = (csum + bases[:, None]).reshape(-1)
        tfs[: nfull * BLOCK_SIZE] = (tfs2d + 1).reshape(-1)
        for bi in range(nfull, self.nblocks):  # tail
            s = bi * BLOCK_SIZE
            d, t = self.decode_block(bi)
            ids[s:n] = d
            tfs[s:n] = t
        return ids, tfs


def iter_chunks(blob: bytes | np.ndarray) -> list[ChunkView]:
    buf = np.frombuffer(blob, dtype=np.uint8) if isinstance(blob, (bytes, bytearray, memoryview)) else blob
    views = []
    pos = 0
    total = len(buf)
    while pos < total:
        cv = ChunkView(buf, pos)
        views.append(cv)
        pos += cv.size
    return views


def decode_blob(blob: bytes | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Decode a full blob -> (docids int64 ascending, tfs uint32)."""
    parts = [cv.decode_all() for cv in iter_chunks(blob)]
    if len(parts) == 1:
        return parts[0]
    return (
        np.concatenate([p[0] for p in parts]),
        np.concatenate([p[1] for p in parts]),
    )


def shift_blob(blob: bytes, doc_offset: int) -> bytes:
    """Add ``doc_offset`` to every chunk's doc_offset field (merge docBase
    remap). Pure byte surgery — no decode."""
    if doc_offset == 0:
        return blob
    out = bytearray(blob)
    buf = np.frombuffer(blob, dtype=np.uint8)
    pos = 0
    while pos < len(buf):
        hdr = buf[pos : pos + _HDR].view(np.uint32)
        new_off = np.uint32(int(hdr[2]) + doc_offset)
        out[pos + 8 : pos + 12] = new_off.tobytes()
        pos += chunk_total_size(int(hdr[0]), int(hdr[1]), int(hdr[3]))
    return bytes(out)


def blob_ndocs(blob: bytes | np.ndarray) -> int:
    return sum(cv.ndocs for cv in iter_chunks(blob))


# ---------------------------------------------------------------------------
# positions sidecar (the .pos analogue, Lucene41PostingsFormat "PosFile").
# A term's positions value is a sequence of chunks aligned 1:1 with its
# postings chunks; positions are doc-local, so merge is plain byte concat
# (no patching at all). Layout per chunk (little-endian):
#   u32 n_positions, u8 width, bitpacked absolute positions
# Per-doc slices are recovered from the postings tfs (prefix sums).
# ---------------------------------------------------------------------------


def encode_positions_chunk(positions: np.ndarray) -> bytes:
    """positions: uint32 array, doc-major (ascending within each doc)."""
    n = len(positions)
    w = _width(positions.astype(np.uint32)) if n else 0
    return (
        np.uint32(n).tobytes()
        + bytes((w,))
        + pack_ints(positions.astype(np.uint32), w)
    )


def encode_positions_batch(
    flat_positions: np.ndarray, ns: np.ndarray
) -> list[bytes]:
    """Encode many terms' position chunks in one grouped pass (byte-identical
    to per-term ``encode_positions_chunk``)."""
    k = len(ns)
    ns = ns.astype(np.int64)
    starts = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(ns, out=starts[1:])
    vals = flat_positions.astype(np.uint32)
    assert (ns >= 1).all(), "every term has at least one position (ttf >= 1)"
    mx = np.maximum.reduceat(vals, starts[:-1]) if len(vals) else np.zeros(0)
    widths = np.where(
        mx == 0, 0,
        (np.floor(np.log2(np.maximum(mx, 1).astype(np.float64))) + 1)
        .astype(np.int64))
    size_bucket = np.uint64(1) << np.uint64(
        np.ceil(np.log2(np.maximum(ns, 1))).astype(np.int64))
    # width in the high bits, far above any size bucket (ns < 2^40)
    gkey = (widths << 40) + size_bucket.astype(np.int64)
    packed_out: list[bytes] = [b""] * k
    for key in np.unique(gkey):
        w = int(key >> 40)
        rows = np.flatnonzero(gkey == key)
        if w == 0:
            continue
        ns_g = ns[rows]
        L = int(ns_g.max())
        M = np.zeros((len(rows), L), dtype=np.uint32)
        ridx = np.repeat(np.arange(len(rows)), ns_g)
        csum = np.cumsum(ns_g)
        cidx = np.arange(int(ns_g.sum())) - np.repeat(csum - ns_g, ns_g)
        flat_idx = np.repeat(starts[rows], ns_g) + cidx
        M[ridx, cidx] = vals[flat_idx]
        shifts = np.arange(w - 1, -1, -1, dtype=np.uint32)
        bits = ((M[:, :, None] >> shifts[None, None, :]) & 1).astype(
            np.uint8).reshape(len(rows), -1)
        packed = np.packbits(bits, axis=1)
        nbytes_t = (ns_g * w + 7) // 8
        for i, r in enumerate(rows):
            packed_out[r] = packed[i, : nbytes_t[i]].tobytes()
    out = []
    wb = widths.astype(np.uint8)
    nsu = ns.astype(np.uint32)
    for i in range(k):
        out.append(nsu[i].tobytes() + bytes((wb[i],)) + packed_out[i])
    return out


def decode_positions_blob(blob: bytes | np.ndarray) -> np.ndarray:
    """Decode all chunks -> one flat uint32 array (doc-major across chunks,
    matching the postings chunk order)."""
    buf = (np.frombuffer(blob, dtype=np.uint8)
           if isinstance(blob, (bytes, bytearray, memoryview)) else blob)
    out = []
    pos = 0
    while pos < len(buf):
        n = int(buf[pos : pos + 4].view(np.uint32)[0])
        w = int(buf[pos + 4])
        nbytes = (n * w + 7) // 8
        out.append(unpack_ints(buf[pos + 5 : pos + 5 + nbytes], n, w))
        pos += 5 + nbytes
    return np.concatenate(out) if out else np.empty(0, dtype=np.uint32)


def _read_u32_at(buf: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Vectorized little-endian u32 gather at (unaligned) byte positions."""
    return (buf[p].astype(np.uint32)
            | (buf[p + 1].astype(np.uint32) << np.uint32(8))
            | (buf[p + 2].astype(np.uint32) << np.uint32(16))
            | (buf[p + 3].astype(np.uint32) << np.uint32(24)))


def shift_segment_blob(
    blob_all: bytes, offs: np.ndarray, lens: np.ndarray, doc_offset: int
) -> bytes:
    """Add ``doc_offset`` to EVERY chunk's doc_offset field across a whole
    segment postings blob in one vectorized level-walk: level k patches the
    k-th chunk of every term that has one (gather/scatter on the byte
    array); iterations = max chunks per term, not number of terms. Byte-
    identical to per-term :func:`shift_blob`."""
    if doc_offset == 0 or len(blob_all) == 0:
        return blob_all
    buf = np.frombuffer(blob_all, dtype=np.uint8).copy()
    p = np.asarray(offs, dtype=np.int64).copy()
    end = np.asarray(offs, dtype=np.int64) + np.asarray(lens, dtype=np.int64)
    active = p < end
    off32 = np.uint32(doc_offset)
    while active.any():
        pa_ = p[active]
        nblocks = _read_u32_at(buf, pa_ + 4).astype(np.int64)
        packed = _read_u32_at(buf, pa_ + 12).astype(np.int64)
        with np.errstate(over="ignore"):
            cur = _read_u32_at(buf, pa_ + 8) + off32
        buf[pa_ + 8] = (cur & np.uint32(0xFF)).astype(np.uint8)
        buf[pa_ + 9] = ((cur >> np.uint32(8)) & np.uint32(0xFF)).astype(np.uint8)
        buf[pa_ + 10] = ((cur >> np.uint32(16)) & np.uint32(0xFF)).astype(np.uint8)
        buf[pa_ + 11] = ((cur >> np.uint32(24)) & np.uint32(0xFF)).astype(np.uint8)
        p[active] = pa_ + _HDR + nblocks * 9 + (nblocks + 1) * 4 + packed
        active = p < end
    return buf.tobytes()
