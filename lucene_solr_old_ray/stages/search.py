"""Query execution: leaf searchers, boolean algebra over posting lists, BM25.

Re-expresses (NOT ports) the reference's search path (SURVEY §3.2):

- ``search/IndexSearcher.java:259,674`` — weights built from GLOBAL statistics
  (df/ttf summed across every leaf, ``index/TermContext.java:81-101``) before
  any leaf is scored; here the stats pass runs as a map_batches sweep and the
  summed stats are broadcast to searcher actors via the object store
  (the ShardSearchingTestBase distributed-stats protocol,
  ``test-framework/.../search/ShardSearchingTestBase.java:139-148``).
- ``search/BooleanQuery.java`` / ``ConjunctionScorer`` / ``DisjunctionSumScorer``
  / ``MinShouldMatchSumScorer`` / ``ReqExclScorer`` — re-expressed as sorted
  docID-array set algebra (intersection via searchsorted, union via unique,
  MUST_NOT as anti-join); scores are float32 sums accumulated in CLAUSE ORDER
  (the reference sums float-by-float in scorer order; clause order is our
  documented deterministic equivalent — coord()==queryNorm()==1 for BM25,
  ``search/similarities/Similarity.java:122-141``).
- ``search/TopScoreDocCollector.java:37-259`` + ``search/HitQueue.java:76-81``
  — per-leaf top-k with (score desc, docID asc) tie-break via one lexsort.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..functions import bm25
from ..functions.codec import decode_blob, decode_positions_blob, iter_chunks
from ..state import docvalues as dvals
from ..queries import (
    MUST,
    MUST_NOT,
    SHOULD,
    BooleanQuery,
    ConstantScoreQuery,
    BoostingQuery,
    DuplicateFilterQuery,
    TermsFilterQuery,
    CustomScoreQuery,
    DisjunctionMaxQuery,
    FilteredQuery,
    FunctionQuery,
    FuzzyQuery,
    NGramPhraseQuery,
    NumericRangeQuery,
    RegexpQuery,
    MatchAllDocsQuery,
    PhraseQuery,
    ngram_phrase_rewrite,
    PrefixQuery,
    Query,
    TermQuery,
    TermRangeQuery,
    WildcardQuery,
)


_BLOOM_UNSET = object()  # sentinel: bloom sidecar not yet probed on disk

# Process-wide LRU of decoded postings: (segment identity, field prefix,
# term id) -> read-only arrays from LeafSearcher.decoded. Segments are
# immutable and liveDocs apply after decoding, so an entry stays valid for
# every reader of its segment, whatever its deletes generation. Bounded by
# array bytes; each worker process and actor runs one task at a time, so
# the plain dict needs no lock.
_DECODED_MAX_BYTES = 256 << 20
_DECODED: OrderedDict = OrderedDict()
_DECODED_STATS = {"hits": 0, "misses": 0, "evictions": 0, "bytes": 0}


def decoded_cache_stats() -> dict[str, int]:
    """This process's decoded-postings cache counters: hits, misses,
    evictions, bytes (held now) and entries."""
    return dict(_DECODED_STATS, entries=len(_DECODED))


def _bytes_view(leaf_dir: str, name: str, lens: np.ndarray) -> np.ndarray:
    """A leaf file as a plain uint8 ndarray over its read-only mmap: slices
    of it skip np.memmap's per-slice subclass overhead."""
    if lens.sum() == 0:
        return np.zeros(0, dtype=np.uint8)
    mm = np.memmap(os.path.join(leaf_dir, name), dtype=np.uint8, mode="r")
    return np.asarray(mm).view(np.ndarray)


class LeafSearcher:
    """One open segment/shard: term dict and norms in RAM, postings read from
    read-only mmaps (``store/MMapDirectory.java:79`` analogue). Loaded once
    per actor per leaf and cached across query batches. A term's postings
    are decoded once per process and kept in the byte-bounded
    :data:`_DECODED` LRU, shared by every reader of the segment
    (:meth:`decoded`)."""

    def __init__(self, leaf_dir: str, doc_base: int, leaf_ord: int, num_docs: int,
                 deletes_path: str | None = None, field: str | None = None):
        from ..state.fields import fprefix

        self.dir = leaf_dir
        self.field = field
        fp = fprefix(field)
        # liveDocs bitmap (None = no deletes); stats stay pre-delete like the
        # reference until expunge (codecs/LiveDocsFormat.java semantics)
        self.live = np.load(deletes_path) if deletes_path else None
        self.doc_base = doc_base
        self.ord = leaf_ord
        self.num_docs = num_docs
        self._siblings: dict[str, LeafSearcher] = {}
        tpath = os.path.join(leaf_dir, fp + "terms.parquet")
        # segment identity for the decoded cache: inode+mtime guard against
        # a rebuilt index at the same path
        st = os.stat(tpath)
        self._seg_key = (leaf_dir, fp, st.st_ino, st.st_mtime_ns)
        t = pq.read_table(tpath)
        # Term dict as compact UTF-8 bytes + offsets (BlockTreeTermsReader's
        # byte-oriented dict, NOT a Python object array): one bytes buffer +
        # an int offset array; lookups bisect with C-level memcmp. UTF-8 byte
        # order == code-point order, matching the codec's term sort.
        tarr = t["term"].combine_chunks()
        if isinstance(tarr, pa.ChunkedArray):
            tarr = (tarr.chunk(0) if tarr.num_chunks else
                    pa.array([], pa.string()))
        bufs = tarr.buffers()
        if bufs[1] is None or len(tarr) == 0:
            self._toff = np.zeros(1, dtype=np.int64)
            self._tbuf = b""
        else:
            odt = np.int64 if pa.types.is_large_string(tarr.type) else np.int32
            offs = np.frombuffer(bufs[1], dtype=odt)
            offs = offs[tarr.offset : tarr.offset + len(tarr) + 1]
            self._toff = offs.astype(np.int64)
            self._tbuf = bufs[2].to_pybytes()[self._toff[0] : self._toff[-1]]
            if self._toff[0]:
                self._toff = self._toff - self._toff[0]
        self.nterms = len(tarr)
        self.df = t["df"].to_numpy()
        self.ttf = t["ttf"].to_numpy()
        self.off = t["off"].to_numpy()
        self.len = t["len"].to_numpy()
        self.postings_mm = _bytes_view(leaf_dir, fp + "postings.bin",
                                       self.len)
        self.has_positions = "pos_off" in t.column_names
        if self.has_positions:
            self.pos_off = t["pos_off"].to_numpy()
            self.pos_len = t["pos_len"].to_numpy()
            self.positions_mm = _bytes_view(leaf_dir, fp + "positions.bin",
                                            self.pos_len)
        self.has_payloads = "pay_off" in t.column_names
        if self.has_payloads:
            self.pay_off = t["pay_off"].to_numpy()
            self.pay_len = t["pay_len"].to_numpy()
            self.payloads_mm = _bytes_view(leaf_dir, fp + "payloads.bin",
                                           self.pay_len)
        self.has_offsets = "soff_off" in t.column_names
        if self.has_offsets:
            self.soff_off = t["soff_off"].to_numpy()
            self.soff_len = t["soff_len"].to_numpy()
            self.eoff_off = t["eoff_off"].to_numpy()
            self.eoff_len = t["eoff_len"].to_numpy()
            self.soffs_mm = _bytes_view(leaf_dir, fp + "soffs.bin",
                                        self.soff_len)
            self.eoffs_mm = _bytes_view(leaf_dir, fp + "eoffs.bin",
                                        self.eoff_len)
        self.norms = np.frombuffer(
            open(os.path.join(leaf_dir, fp + "norms.bin"), "rb").read(),
            dtype=np.uint8
        )
        self._docmap = None
        self._bloom = _BLOOM_UNSET  # lazy-loaded bloom.npy (may be absent)
        self._filter_cache: dict = {}  # CachingWrapperFilter analogue (per leaf)

    def sibling(self, field: str | None) -> "LeafSearcher":
        """The same segment's reader for another indexed field (shared docID
        space / liveDocs / docmap; per-field terms+postings+norms files —
        the FieldInfos per-field reader, ``index/FieldInfos.java``)."""
        if field == self.field or (field is None and self.field is None):
            return self
        if self.field is not None:
            raise ValueError("sibling() must be called on the default-field reader")
        ls = self._siblings.get(field)
        if ls is None:
            ls = LeafSearcher(self.dir, self.doc_base, self.ord, self.num_docs,
                              field=field)
            ls.live = self.live  # share tombstones
            ls._root = self  # back-ref for cross-field span masking
            self._siblings[field] = ls
        return ls

    def term_at(self, ti: int) -> bytes:
        o = self._toff
        return self._tbuf[o[ti] : o[ti + 1]]

    def term_str(self, ti: int) -> str:
        return self.term_at(ti).decode("utf-8")

    def _bisect(self, key: bytes, right: bool) -> int:
        """searchsorted over the byte-packed term dict (left/right side)."""
        lo, hi = 0, self.nterms
        off, buf = self._toff, self._tbuf
        while lo < hi:
            mid = (lo + hi) >> 1
            t = buf[off[mid] : off[mid + 1]]
            if (t <= key) if right else (t < key):
                lo = mid + 1
            else:
                hi = mid
        return lo

    def lookup(self, term: str) -> int:
        key = term.encode("utf-8")
        bloom = self._bloom
        if bloom is _BLOOM_UNSET:
            from ..functions.bloom import load_bloom
            from ..state.fields import fprefix

            bloom = self._bloom = load_bloom(self.dir, fprefix(self.field))
        if bloom is not None:
            # BloomFilteringPostingsFormat short-circuit: definitely-absent
            # terms skip the dict bisect (no false negatives, CheckIndexed)
            from ..functions.bloom import maybe_contains

            if not maybe_contains(bloom, key):
                return -1
        i = self._bisect(key, right=False)
        if i < self.nterms and self.term_at(i) == key:
            return i
        return -1

    def term_range(self, lo, hi, inc_lo: bool, inc_hi: bool) -> tuple[int, int]:
        """Index range [s, e) of terms within the bounds (term-dict scan of
        MultiTermQuery rewrites)."""
        s = 0 if lo is None else self._bisect(
            lo.encode("utf-8"), right=not inc_lo)
        e = self.nterms if hi is None else self._bisect(
            hi.encode("utf-8"), right=inc_hi)
        return s, max(s, e)

    def prefix_range(self, prefix: str) -> tuple[int, int]:
        """[s, e) of terms starting with ``prefix``. The exclusive upper bound
        increments the last prefix BYTE with carry, so terms whose next code
        point is supplementary-plane (> U+FFFF) are included — unlike the
        prefix+'\\uffff' bound (``search/PrefixTermsEnum.java`` byte-prefix
        semantics)."""
        key = prefix.encode("utf-8")
        s = self._bisect(key, right=False)
        up = bytearray(key)
        while up and up[-1] == 0xFF:
            up.pop()
        if not up:
            return s, self.nterms
        up[-1] += 1
        return s, max(s, self._bisect(bytes(up), right=False))

    def terms_range_arrow(self, s: int, e: int) -> pa.Array:
        """Dict range [s, e) as a ZERO-COPY Arrow string view over the
        packed term buffer (no per-term ``term_str`` calls) — the input to
        vectorized MTQ expansion kernels."""
        arr = self._filter_cache.get("terms_arrow")
        if arr is None:
            arr = pa.Array.from_buffers(
                pa.large_utf8(), self.nterms,
                [None, pa.py_buffer(self._toff), pa.py_buffer(self._tbuf)])
            self._filter_cache["terms_arrow"] = arr
        return arr.slice(s, e - s)

    def terms_range_np(self, s: int, e: int) -> np.ndarray:
        """Decoded terms of dict range [s, e) as one object ndarray (one
        batch decode pass)."""
        return np.asarray(
            self.terms_range_arrow(s, e).to_numpy(zero_copy_only=False))

    def blob(self, ti: int) -> np.ndarray:
        o = int(self.off[ti])
        return self.postings_mm[o : o + int(self.len[ti])]

    def is_decoded(self, ti: int) -> bool:
        """Whether term ``ti``'s postings are in the decoded cache."""
        return (self._seg_key, ti) in _DECODED

    def decoded(self, ti: int) -> tuple[np.ndarray, ...]:
        """Term ``ti``'s decoded postings: (docids, tfs), plus (flat
        positions, per-doc starts into flat) when the field has positions.
        Read-only arrays from the process-wide cache; decoded on a miss."""
        key = (self._seg_key, ti)
        hit = _DECODED.get(key)
        if hit is not None:
            _DECODED.move_to_end(key)
            _DECODED_STATS["hits"] += 1
            return hit
        _DECODED_STATS["misses"] += 1
        docids, tfs = decode_blob(self.blob(ti))
        entry = (docids, tfs)
        if self.has_positions:
            po = int(self.pos_off[ti])
            flat = decode_positions_blob(
                self.positions_mm[po : po + int(self.pos_len[ti])])
            starts = np.zeros(len(tfs) + 1, dtype=np.int64)
            np.cumsum(tfs, out=starts[1:])
            entry = (docids, tfs, flat, starts)
        for a in entry:
            a.flags.writeable = False
        _DECODED[key] = entry
        _DECODED_STATS["bytes"] += sum(a.nbytes for a in entry)
        while _DECODED_STATS["bytes"] > _DECODED_MAX_BYTES:
            _, old = _DECODED.popitem(last=False)
            _DECODED_STATS["bytes"] -= sum(a.nbytes for a in old)
            _DECODED_STATS["evictions"] += 1
        return entry

    def postings(self, term: str) -> tuple[np.ndarray, np.ndarray]:
        """-> (docids, tfs), read-only."""
        ti = self.lookup(term)
        if ti < 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint32)
        return self.decoded(ti)[:2]

    def chunks(self, term: str):
        ti = self.lookup(term)
        return [] if ti < 0 else iter_chunks(self.blob(ti))

    def postings_with_positions(
        self, term: str
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """-> (docids, tfs, flat positions, per-doc start offsets into flat),
        read-only. Doc d's positions are flat[starts[i]:starts[i+1]] where i
        is the index of d in docids."""
        return self._positions(self.lookup(term))

    def _positions(self, ti: int):
        """:meth:`postings_with_positions` of term ordinal ``ti`` (-1 =
        absent)."""
        if ti < 0 or not self.has_positions:
            e = np.empty(0, dtype=np.int64)
            return e, np.empty(0, dtype=np.uint32), np.empty(0, dtype=np.uint32), \
                np.zeros(1, dtype=np.int64)
        return self.decoded(ti)

    def postings_with_payloads(
        self, term: str
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """-> (docids, tfs, flat positions, per-doc starts, flat payloads);
        the payload lane is aligned 1:1 with the positions lane (the
        ``Lucene41PostingsFormat`` .pay-stream analogue)."""
        if not getattr(self, "has_payloads", False):
            raise ValueError(
                "field was indexed without payloads (use a payload-producing "
                "analyzer, e.g. 'delimited_payload')")
        ti = self.lookup(term)
        docids, tfs, flat, starts = self._positions(ti)
        if ti < 0:
            return docids, tfs, flat, starts, np.empty(0, dtype=np.uint32)
        yo = int(self.pay_off[ti])
        pay = decode_positions_blob(
            self.payloads_mm[yo : yo + int(self.pay_len[ti])])
        return docids, tfs, flat, starts, pay

    def postings_with_offsets(
        self, term: str
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray,
               np.ndarray, np.ndarray]:
        """-> (docids, tfs, flat positions, per-doc starts, flat
        start_offsets, flat end_offsets); the offsets lanes are aligned 1:1
        with positions (``DocsAndPositionsEnum.FLAG_OFFSETS`` — the
        IndexOptions ..._AND_OFFSETS read path the PostingsHighlighter
        requires, ``postingshighlight/PostingsHighlighter.java:505``)."""
        if not getattr(self, "has_offsets", False):
            raise ValueError(
                "field was indexed without offsets, cannot highlight "
                "(build with CorpusSpec.store_offsets=True)")
        ti = self.lookup(term)
        docids, tfs, flat, starts = self._positions(ti)
        if ti < 0:
            e = np.empty(0, dtype=np.uint32)
            return docids, tfs, flat, starts, e, e
        so = int(self.soff_off[ti])
        eo = int(self.eoff_off[ti])
        soffs = decode_positions_blob(
            self.soffs_mm[so : so + int(self.soff_len[ti])])
        eoffs = decode_positions_blob(
            self.eoffs_mm[eo : eo + int(self.eoff_len[ti])])
        return docids, tfs, flat, starts, soffs, eoffs

    @property
    def docmap(self):
        if self._docmap is None:
            self._docmap = pq.read_table(os.path.join(self.dir, "docmap.parquet"))
        return self._docmap

    def dv_sorted(self, field: str):
        """SORTED doc-values for ``field``: (per-doc int32 ords memmap,
        sorted value dict). Cached per leaf (DocValues reader reuse)."""
        key = ("dv_sorted", field)
        if key not in self._filter_cache:
            self._filter_cache[key] = dvals.read_sorted(self.dir, field)
        return self._filter_cache[key]

    def doc_values(self, field: str, docids: np.ndarray) -> np.ndarray:
        """Matched docs' values of a doc-values field (sort/group/facet
        path — reads ONLY that field's typed sidecar, never the whole
        stored-fields row store)."""
        return dvals.take_values(self.dir, field, docids,
                                 cache=self._filter_cache)

    def dv_sorted_set(self, field: str):
        """SORTED_SET doc-values: (int64 offsets, int32 flat ords unique+
        ascending per doc, value dict). Cached per leaf."""
        key = ("dv_sorted_set", field)
        if key not in self._filter_cache:
            self._filter_cache[key] = dvals.read_sorted_set(self.dir, field)
        return self._filter_cache[key]

    def dv_numeric_f32(self, field: str) -> np.ndarray:
        """NUMERIC doc-values as a per-doc float32 array (missing -> 0.0f,
        the FieldCache default) — the FloatFieldSource value stream for
        function queries. Cached per leaf."""
        key = ("dv_num_f32", field)
        v = self._filter_cache.get(key)
        if v is None:
            arr, miss = dvals.read_numeric(self.dir, field)
            v = np.asarray(arr, dtype=np.float32)
            if miss is not None:
                v = np.where(np.asarray(miss), np.float32(0.0), v)
            self._filter_cache[key] = v
        return v


@dataclass
class SearchContext:
    """Broadcast once per query batch: global collection + term statistics.
    ``similarity`` selects the scoring strategy (the Similarity SPI hook,
    SURVEY §2.10): "bm25" (default) or "classic" (TF-IDF w/ coord+queryNorm).
    """

    coll: bm25.CollectionStats
    term_stats: dict[str, tuple[int, int]]  # term -> (df, ttf) summed over leaves
    similarity: str = "bm25"
    # per-NAMED-field statistics (default field uses the unqualified members):
    # field -> CollectionStats (same max_doc, per-field sumTotalTermFreq) and
    # field -> {term -> (df, ttf)} — Lucene's CollectionStatistics/TermStatistics
    # are always per field (search/IndexSearcher.java:929-945)
    field_colls: dict[str, bm25.CollectionStats] | None = None
    field_term_stats: dict[str, dict[str, tuple[int, int]]] | None = None

    def __post_init__(self):
        self.cache = bm25.norm_cache(self.coll.avgdl)
        self._wv: dict[tuple[str | None, str, float], np.float32] = {}
        self._fcaches: dict[str, np.ndarray] = {}

    def cache_for(self, field: str | None) -> np.ndarray:
        if field is None:
            return self.cache
        c = self._fcaches.get(field)
        if c is None:
            coll = (self.field_colls or {}).get(field)
            if coll is None:
                raise KeyError(f"no collection stats for field {field!r}")
            c = bm25.norm_cache(coll.avgdl)
            self._fcaches[field] = c
        return c

    def stats_for(self, field: str | None, term: str) -> tuple[int, int]:
        if field is None:
            return self.term_stats.get(term, (0, 0))
        return (self.field_term_stats or {}).get(field, {}).get(term, (0, 0))

    def weight(self, term: str, boost: float, field: str | None = None) -> np.float32:
        key = (field, term, boost)
        w = self._wv.get(key)
        if w is None:
            df = self.stats_for(field, term)[0]
            w = bm25.weight_value(bm25.idf(df, self.coll.max_doc), boost)
            self._wv[key] = w
        return w


def collect_leaf_stats(leaf: LeafSearcher, terms: list[str]) -> dict[str, tuple[int, int]]:
    out = {}
    for t in terms:
        ti = leaf.lookup(t)
        if ti >= 0:
            out[t] = (int(leaf.df[ti]), int(leaf.ttf[ti]))
    return out


# ---------------------------------------------------------------------------
# scoring executors (exhaustive DAAT)
# ---------------------------------------------------------------------------


def _scores_for_term(
    leaf: LeafSearcher, ctx: SearchContext, term: str, boost: float,
    field: str | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    lf = leaf.sibling(field)
    docids, tfs = lf.postings(term)
    if len(docids) == 0:
        return docids, np.empty(0, dtype=np.float32)
    wv = ctx.weight(term, boost, field)
    scores = bm25.score_postings(tfs, lf.norms[docids], wv, ctx.cache_for(field))
    return docids, scores


def _const_docs(leaf: LeafSearcher, ti_range: tuple[int, int]) -> np.ndarray:
    """Union of docIDs of a run of terms (constant-score MultiTermQuery
    rewrite)."""
    s, e = ti_range
    if s >= e:
        return np.empty(0, dtype=np.int64)
    parts = [leaf.decoded(ti)[0] for ti in range(s, e)]
    return np.unique(np.concatenate(parts)) if parts else np.empty(0, dtype=np.int64)


def _const_docs_of(leaf: LeafSearcher, tis: list[int]) -> np.ndarray:
    parts = [leaf.decoded(ti)[0] for ti in tis]
    return np.unique(np.concatenate(parts)) if parts else np.empty(0, dtype=np.int64)


def _wildcard_mask(arr, pattern: str) -> np.ndarray:
    """Bool mask of which strings in ``arr`` (a pa.Array or object ndarray)
    match the anchored wildcard: one VECTORIZED LIKE pass (``*``/``?`` map
    exactly onto SQL LIKE ``%``/``_`` — no regex-engine semantics in play).
    Shared by the term-dict expansion and the FieldCache rewrite (which
    runs the same predicate over a doc-values value dictionary)."""
    import pyarrow.compute as pc

    if not isinstance(arr, (pa.Array, pa.ChunkedArray)):
        arr = pa.array(arr, type=pa.large_utf8())
    if "\\" in pattern:
        # Arrow's LIKE->RE2 translation mishandles an ESCAPED backslash
        # when the pattern also contains % (observed: match_like(["\\"],
        # "%\\\\") = false though "\\\\" alone matches); backslash-bearing
        # patterns take the exact regex path instead (rare)
        import re as _re

        rx = _re.compile("".join(
            ".*" if c == "*" else "." if c == "?" else _re.escape(c)
            for c in pattern) + r"\Z")
        strs = np.asarray(arr.to_numpy(zero_copy_only=False))
        return np.fromiter((rx.match(t) is not None for t in strs),
                           count=len(strs), dtype=bool)
    like = "".join("%" if c == "*" else "_" if c == "?"
                   else "\\" + c if c in ("%", "_") else c
                   for c in pattern)
    return np.asarray(pc.match_like(arr, like))


def _expand_wildcard(leaf: LeafSearcher, pattern: str) -> list[int]:
    """Term-dict expansion: narrow by the literal prefix, then one
    vectorized :func:`_wildcard_mask` pass over the range's packed term
    buffer (the TermsEnum-over-automaton analogue)."""
    first = len(pattern)
    for i, ch in enumerate(pattern):
        if ch in "*?":
            first = i
            break
    prefix = pattern[:first]
    s, e = leaf.prefix_range(prefix) if prefix else (0, leaf.nterms)
    if e <= s:
        return []
    mask = _wildcard_mask(leaf.terms_range_arrow(s, e), pattern)
    return (s + np.flatnonzero(mask)).tolist()


def _regexp_literal_prefix(pattern: str) -> str:
    """Leading literal characters of a regex (stop at the first char that
    could be an operator) — the term-dict narrowing prefix.

    A top-level alternation makes any leading literal OPTIONAL
    (``slow|small`` must match terms starting 'small' too), so the prefix
    is only usable when no unescaped ``|`` exists at paren depth 0 outside
    a character class; otherwise return "" (full-dict scan). Patterns using
    Lucene-only operators (complement/intersection/anystring/interval) can
    invalidate any leading literal (``~(spark)`` matches terms NOT starting
    's'), so they always full-scan."""
    from ..functions.regexp import has_lucene_operators

    if has_lucene_operators(pattern):
        return ""
    depth = 0
    in_class = False
    i = 0
    while i < len(pattern):
        ch = pattern[i]
        if ch == "\\":
            i += 2
            continue
        if in_class:
            if ch == "]":
                in_class = False
        elif ch == "[":
            in_class = True
        elif ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "|" and depth == 0:
            return ""
        i += 1
    out = []
    for ch in pattern:
        if ch.isalnum() or ch == "_":
            out.append(ch)
        else:
            break
    # a trailing quantifier applies to the last literal: drop it then
    if out and len(pattern) > len(out) and pattern[len(out)] in "*?+{":
        out.pop()
    return "".join(out)


def regexp_automaton_walk(leaf: LeafSearcher, pattern: str,
                          s: int, e: int) -> tuple[list[int], int]:
    """Regexp-automaton TermsEnum intersection over dict range [s, e) via
    Brzozowski derivatives (``RegExp.java`` -> ``CompiledAutomaton``
    seekCeil, re-expressed — functions/regexp.py): one residual-language
    node per prefix depth, LCP-shared between consecutive terms; a prefix
    whose derivative is provably empty skips its whole subtree with a
    binary search. Exact for the full Lucene operator set (complement,
    intersection, intervals). Returns (matching term indexes, visited)."""
    from ..functions.regexp import (
        compile_regexp,
        deriv,
        is_empty_lang,
        nullable,
    )

    ast = compile_regexp(pattern).ast
    nodes: list = [ast]
    prefix = ""
    out: list[int] = []
    ti = s
    visited = 0
    dcache: dict[tuple, dict[str, tuple]] = {}
    while ti < e:
        t = leaf.term_str(ti)
        visited += 1
        lcp = 0
        lim = min(len(t), len(prefix), len(nodes) - 1)
        while lcp < lim and t[lcp] == prefix[lcp]:
            lcp += 1
        del nodes[lcp + 1:]
        dead_at = 0
        for d in range(lcp, len(t)):
            cur = nodes[d]
            cd = dcache.setdefault(cur, {})
            nxt = cd.get(t[d])
            if nxt is None:
                nxt = deriv(cur, t[d])
                cd[t[d]] = nxt
            nodes.append(nxt)
            if is_empty_lang(nxt):
                dead_at = d + 1
                break
        if dead_at:
            dead = t[:dead_at]
            del nodes[dead_at:]
            prefix = dead
            _, pe = leaf.prefix_range(dead)
            ti = max(min(pe, e), ti + 1)
            continue
        if nullable(nodes[len(t)]):
            out.append(ti)
        prefix = t
        ti += 1
    return out, visited


def _re_walk_safe(pattern: str) -> bool:
    """True when the pattern means the same thing under the Lucene RegExp
    grammar and Python ``re`` (no backslash escapes — ``\\d`` is a class in
    re, a literal in Lucene —, no ``^``/``$`` anchors, no ``(?`` groups)."""
    return not ("\\" in pattern or "^" in pattern or "$" in pattern
                or "(?" in pattern)


def _expand_regexp(leaf: LeafSearcher, pattern: str) -> list[int]:
    """Term-dict expansion of an anchored regexp, narrowed by the literal
    prefix (``search/RegexpQuery.java:49``).

    Patterns are Lucene RegExp syntax (``util/automaton/RegExp.java``) —
    including complement ``~``, intersection ``&``, anystring ``@`` and
    intervals ``<n-m>`` (functions/regexp.py). The common operator subset
    (literals, ``| ? * + {n,m} [..] .``) means the same thing in Python
    ``re``, which stays as the fast matcher ONLY for patterns where the two
    grammars agree (:func:`_re_walk_safe`); anything with backslash escapes
    or ``^``/``$`` (literals in Lucene, metachars in ``re``) goes through the
    exact :class:`LuceneRegexp` matcher. Large dicts (>= 200k terms in the
    narrowed range) take the derivative automaton walk above instead of a
    full-range scan."""
    import re as _re

    from ..functions.regexp import compile_regexp, has_lucene_operators

    prefix = _regexp_literal_prefix(pattern)
    s, e = leaf.prefix_range(prefix) if prefix else (0, leaf.nterms)
    if e <= s:
        return []
    if e - s >= _FUZZY_AUTOMATON_MIN_TERMS:
        try:
            return regexp_automaton_walk(leaf, pattern, s, e)[0]
        except ValueError:
            pass  # not parseable as Lucene RegExp: fall through to re
    strs = leaf.terms_range_np(s, e)  # one batch decode, no per-term calls
    if has_lucene_operators(pattern) or not _re_walk_safe(pattern):
        try:
            lrx = compile_regexp(pattern)
            return [s + i for i, t in enumerate(strs) if lrx.fullmatch(t)]
        except ValueError:
            pass  # not parseable as Lucene RegExp: last-resort Python re
    rx = _re.compile(pattern)
    return [s + i for i, t in enumerate(strs) if rx.fullmatch(t)]


def _mtq_value_mask(q, values: np.ndarray) -> np.ndarray:
    """Evaluate a MultiTermQuery's term predicate over a SORTED(_SET)
    doc-values VALUE DICTIONARY instead of the index term dict — the
    TermsEnum the FieldCache rewrite intersects
    (``search/FieldCacheRewriteMethod.java:62-95`` getTermsEnum over
    ``FieldCache.getTermsIndex``). ``values`` is the leaf's sorted value
    dict (object ndarray); returns a bool mask over it. The dict is
    result-set-bounded (distinct values of one dv field per leaf), so one
    vectorized pass is the whole cost — no index terms are touched."""
    n = len(values)
    if isinstance(q, TermQuery):
        i = int(np.searchsorted(values, q.term))
        m = np.zeros(n, dtype=bool)
        if i < n and values[i] == q.term:
            m[i] = True
        return m
    if isinstance(q, PrefixQuery):
        # contiguous run in the sorted dict (UTF-8 order == code-point order)
        m = np.zeros(n, dtype=bool)
        s = int(np.searchsorted(values, q.prefix))
        e = s
        p = q.prefix
        while e < n and str(values[e]).startswith(p):
            e += 1
        m[s:e] = True
        return m
    if isinstance(q, TermRangeQuery):
        m = np.ones(n, dtype=bool)
        if q.lower is not None:
            s = int(np.searchsorted(
                values, q.lower, side="left" if q.include_lower else "right"))
            m[:s] = False
        if q.upper is not None:
            e = int(np.searchsorted(
                values, q.upper, side="right" if q.include_upper else "left"))
            m[e:] = False
        return m
    if isinstance(q, WildcardQuery):
        return _wildcard_mask(values, q.pattern)
    if isinstance(q, RegexpQuery):
        from ..functions.regexp import compile_regexp, has_lucene_operators

        if has_lucene_operators(q.pattern) or not _re_walk_safe(q.pattern):
            lrx = compile_regexp(q.pattern)
            return np.fromiter(
                (lrx.fullmatch(t) for t in values), count=n, dtype=bool)
        import re as _re

        rx = _re.compile(q.pattern)
        return np.fromiter((rx.fullmatch(t) is not None for t in values),
                           count=n, dtype=bool)
    raise ValueError(
        f"FieldCacheRewriteMethod supports Term/Prefix/TermRange/Wildcard/"
        f"Regexp queries, not {type(q).__name__}")


def collect_mtq_terms(leaf: LeafSearcher, q) -> dict[str, int]:
    """Matching terms of a MultiTermQuery in one leaf -> {term: edit_distance}
    (distance 0 for non-fuzzy MTQs). The per-leaf half of ScoringRewrite's
    term collection (``search/ScoringRewrite.java``)."""
    lf = leaf.sibling(q.field)
    if isinstance(q, PrefixQuery):
        s, e = lf.prefix_range(q.prefix)
        return {t: 0 for t in lf.terms_range_np(s, e)}
    if isinstance(q, WildcardQuery):
        return {lf.term_str(ti): 0 for ti in _expand_wildcard(lf, q.pattern)}
    if isinstance(q, RegexpQuery):
        return {lf.term_str(ti): 0 for ti in _expand_regexp(lf, q.pattern)}
    if isinstance(q, FuzzyQuery):
        # exact distances ride along for the similarity boosts
        return _expand_fuzzy(lf, q.term, q.max_edits, with_distances=True,
                             transpositions=q.transpositions)
    raise TypeError(f"not a MultiTermQuery: {type(q).__name__}")


def fuzzy_distances_batch(strs: list[str], q: str,
                          transpositions: bool = False) -> np.ndarray:
    """Vectorized edit distances of every string to ``q``: the DP runs
    column-by-column (bounded by the longest candidate) with every row
    operation vectorized ACROSS candidates — no per-term Python DP.

    ``transpositions=True`` counts an adjacent-character swap as ONE edit
    (optimal-string-alignment Damerau — the semantics of the reference's
    ``FuzzyQuery.defaultTranspositions=true`` /
    ``util/automaton/LevenshteinAutomata.java`` with transpositions).
    The engine-wide DEFAULT stays plain Levenshtein (``False``) — a
    documented re-expression choice so results stay expressible as the
    DuckDB ``levenshtein`` oracle; flip the flag for reference-default
    behavior."""
    n = len(strs)
    if n == 0:
        return np.empty(0, dtype=np.int32)
    lens = np.fromiter((len(s) for s in strs), dtype=np.int64, count=n)
    L = int(lens.max())
    if L == 0:
        return np.full(n, len(q), dtype=np.int32)
    # utf-32 decode yields the code-point matrix without per-char loops
    flat = np.frombuffer("".join(strs).encode("utf-32-le"), dtype="<u4")
    M = np.zeros((n, L), dtype=np.uint32)
    ends = np.cumsum(lens)
    col = np.arange(int(ends[-1]), dtype=np.int64) - np.repeat(ends - lens, lens)
    row = np.repeat(np.arange(n, dtype=np.int64), lens)
    M[row, col] = flat
    dp = np.broadcast_to(np.arange(L + 1, dtype=np.int32), (n, L + 1)).copy()
    dp2 = None  # row i-2 (for the transposition case)
    for i, qc in enumerate(q, 1):
        ndp = np.empty_like(dp)
        ndp[:, 0] = i
        sub = (M != np.uint32(ord(qc))).astype(np.int32)
        for j in range(1, L + 1):
            ndp[:, j] = np.minimum(
                np.minimum(dp[:, j] + 1, ndp[:, j - 1] + 1),
                dp[:, j - 1] + sub[:, j - 1])
        if transpositions and i >= 2:
            # q[i-2:i] swapped == s[j-2:j]  ->  dp2[:, j-2] + 1
            qp = np.uint32(ord(q[i - 2]))
            qn = np.uint32(ord(qc))
            for j in range(2, L + 1):
                tmask = (M[:, j - 1] == qp) & (M[:, j - 2] == qn)
                cand = dp2[:, j - 2] + 1
                ndp[:, j] = np.where(tmask,
                                     np.minimum(ndp[:, j], cand), ndp[:, j])
        dp2 = dp
        dp = ndp
    return dp[np.arange(n), lens].astype(np.int32)


# dict sizes above this use the automaton walk (sublinear via subtree seek)
# instead of the full-vocabulary vectorized DP scan
_FUZZY_AUTOMATON_MIN_TERMS = 200_000


def fuzzy_automaton_walk(leaf: LeafSearcher, term: str, max_edits: int,
                         transpositions: bool = False):
    """Levenshtein-automaton TermsEnum intersection, re-expressed (NOT
    ported) over the SORTED packed dict instead of an FST
    (``util/automaton/LevenshteinAutomata.java`` +
    ``CompiledAutomaton.getTermsEnum`` seek semantics,
    ``search/FuzzyQuery.java:54``):

    - walk terms in sorted order keeping one banded DP row per PREFIX depth;
      consecutive terms share their LCP's rows, so each term costs only its
      new suffix characters;
    - when a prefix's row minimum exceeds ``max_edits`` the automaton has no
      live state for that subtree: binary-search past every term sharing the
      dead prefix (the TermsEnum seekCeil jump) — this is what makes the
      walk sublinear on large dictionaries.

    ``transpositions=True`` = adjacent-swap counts as one edit (the
    reference DEFAULT, ``FuzzyQuery.defaultTranspositions=true``); the
    engine default stays plain Levenshtein — see
    :func:`fuzzy_distances_batch` for the documented re-expression choice.

    Returns ({term: distance}, terms_visited) — visited counts DP-advanced
    terms, for the sublinearity assertion in tests."""
    m = len(term)
    q = term
    rows: list[list[int]] = [list(range(m + 1))]
    prefix = ""
    out: dict[str, int] = {}
    ti = 0
    visited = 0
    nt = leaf.nterms
    while ti < nt:
        t = leaf.term_str(ti)
        visited += 1
        lcp = 0
        lim = min(len(t), len(prefix), len(rows) - 1)
        while lcp < lim and t[lcp] == prefix[lcp]:
            lcp += 1
        del rows[lcp + 1:]
        dead_at = 0
        for d in range(lcp, len(t)):
            prev = rows[d]
            c = t[d]
            new = [prev[0] + 1] * (m + 1)
            best = new[0]
            for j in range(1, m + 1):
                v = prev[j - 1] + (c != q[j - 1])
                if prev[j] + 1 < v:
                    v = prev[j] + 1
                if new[j - 1] + 1 < v:
                    v = new[j - 1] + 1
                if (transpositions and d >= 1 and j >= 2
                        and c == q[j - 2] and t[d - 1] == q[j - 1]):
                    v2 = rows[d - 1][j - 2] + 1
                    if v2 < v:
                        v = v2
                new[j] = v
                if v < best:
                    best = v
            rows.append(new)
            if best > max_edits:
                dead_at = d + 1
                break
        if dead_at:
            # no live automaton state at this prefix: seek past its subtree
            dead = t[:dead_at]
            del rows[dead_at:]  # rows above the dead prefix stay valid
            prefix = dead
            _, e = leaf.prefix_range(dead)
            ti = max(e, ti + 1)
            continue
        dist = rows[len(t)][m]
        if dist <= max_edits:
            out[t] = int(dist)
        prefix = t
        ti += 1
    return out, visited


def _expand_fuzzy(leaf: LeafSearcher, term: str, max_edits: int,
                  with_distances: bool = False,
                  transpositions: bool = False):
    """Fuzzy term expansion. Small dicts: byte-length band prune + one
    vectorized DP over the survivors. Large dicts (>= 200k terms): the
    automaton walk above — sublinear, no full-vocabulary pass."""
    if leaf.nterms >= _FUZZY_AUTOMATON_MIN_TERMS:
        dists, _ = fuzzy_automaton_walk(leaf, term, max_edits,
                                        transpositions=transpositions)
        if with_distances:
            return dists
        return sorted(leaf.lookup(t) for t in dists)
    kb = len(term.encode("utf-8"))
    blens = np.diff(leaf._toff)
    cand = np.flatnonzero((blens >= kb - 4 * max_edits)
                          & (blens <= kb + 4 * max_edits))
    if len(cand) == 0:
        return ({} if with_distances else [])
    strs = [leaf.term_str(int(ti)) for ti in cand]
    dists = fuzzy_distances_batch(strs, term, transpositions=transpositions)
    ok = dists <= max_edits
    if with_distances:
        return {strs[i]: int(dists[i]) for i in np.flatnonzero(ok)}
    return [int(cand[i]) for i in np.flatnonzero(ok)]


def execute(
    q: Query, leaf: LeafSearcher, ctx: SearchContext, boost: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate a query on one leaf -> (local docids ascending, float32 scores)."""
    if ctx.similarity == "classic" or (
            ctx.similarity or "").startswith("sweetspot"):
        from .classic import execute_classic

        docids, scores = execute_classic(q, leaf, ctx)
        return _apply_live(leaf, docids, scores)
    from ..functions.simbase import is_simbase

    if is_simbase(ctx.similarity):
        from .simbase import execute_simbase

        docids, scores = execute_simbase(q, leaf, ctx)
        return _apply_live(leaf, docids, scores)
    if leaf.live is not None:
        docids, scores = _execute_raw(q, leaf, ctx, boost)
        return _apply_live(leaf, docids, scores)
    return _execute_raw(q, leaf, ctx, boost)


def _apply_live(leaf, docids, scores):
    if leaf.live is None or len(docids) == 0:
        return docids, scores
    m = leaf.live[docids]
    return docids[m], scores[m]


def _execute_raw(
    q: Query, leaf: LeafSearcher, ctx: SearchContext, boost: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(q, (PrefixQuery, WildcardQuery, RegexpQuery, FuzzyQuery)) \
            and q.rewrite == "scoring_boolean":
        # ScoringRewrite happens against GLOBAL stats before leaves execute
        # (pipelines.search.plan_queries); reaching a leaf un-rewritten
        # would score with wrong (per-leaf) expansions
        raise ValueError(
            f"{type(q).__name__}(rewrite='scoring_boolean') must be "
            "rewritten before leaf execution (plan the query with "
            "pipelines.search.plan_queries)")
    if isinstance(q, TermQuery):
        return _scores_for_term(leaf, ctx, q.term, boost * q.boost, q.field)
    if isinstance(q, MatchAllDocsQuery):
        docs = np.arange(leaf.num_docs, dtype=np.int64)
        return docs, np.full(leaf.num_docs, np.float32(boost * q.boost), dtype=np.float32)
    if isinstance(q, FunctionQuery):
        docs = np.arange(leaf.num_docs, dtype=np.int64)
        if isinstance(q.field, str):
            vals = leaf.dv_numeric_f32(q.field)
        else:
            from ..functions.valuesource import evaluate as vs_eval

            vals = vs_eval(q.field, leaf, ctx, docs)
        return docs, (np.float32(boost * q.boost) * vals).astype(np.float32)
    if isinstance(q, CustomScoreQuery):
        docids, scores = execute(q.query, leaf, ctx, boost * q.boost)
        if isinstance(q.field, str):
            vals = leaf.dv_numeric_f32(q.field)[docids]
        else:
            from ..functions.valuesource import evaluate as vs_eval

            vals = vs_eval(q.field, leaf, ctx, docids)
        return docids, (scores * vals).astype(np.float32)
    if isinstance(q, DuplicateFilterQuery):
        docids, scores = execute(q.query, leaf, ctx, boost * q.boost)
        ords, _vals = leaf.dv_sorted(q.field)
        ords = np.asarray(ords)
        live = (leaf.live if leaf.live is not None
                else np.ones(leaf.num_docs, dtype=bool))
        m = live & (ords >= 0)
        n_ord = int(ords.max()) + 1 if m.any() else 0
        if n_ord == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float32)
        idx = np.flatnonzero(m)
        if q.keep == "last":
            kept = np.full(n_ord, -1, dtype=np.int64)
            np.maximum.at(kept, ords[idx], idx)
        else:
            kept = np.full(n_ord, np.iinfo(np.int64).max, dtype=np.int64)
            np.minimum.at(kept, ords[idx], idx)
        sel = (ords[docids] >= 0) & (kept[np.maximum(ords[docids], 0)]
                                     == docids)
        return docids[sel], scores[sel]
    if isinstance(q, BoostingQuery):
        # BoostingQuery.java coord override: only-match -> 1.0x, matched
        # both -> demote x; context alone never matches (boost-0 SHOULD)
        docids, scores = execute(q.match, leaf, ctx, boost)
        cdocs, _ = execute(q.context, leaf, ctx, 0.0)
        both = np.isin(docids, cdocs)
        if both.any():
            scores = scores.copy()
            scores[both] = (scores[both]
                            * np.float32(q.demote)).astype(np.float32)
        return docids, scores
    if isinstance(q, PrefixQuery):
        lf = leaf.sibling(q.field)
        docs = _const_docs(lf, lf.prefix_range(q.prefix))
        return docs, np.full(len(docs), np.float32(boost * q.boost), dtype=np.float32)
    if isinstance(q, TermRangeQuery):
        lf = leaf.sibling(q.field)
        docs = _const_docs(
            lf, lf.term_range(q.lower, q.upper, q.include_lower, q.include_upper)
        )
        return docs, np.full(len(docs), np.float32(boost * q.boost), dtype=np.float32)
    if isinstance(q, NumericRangeQuery):
        from ..functions.numeric import numeric_bounds

        lf = leaf.sibling(q.field)
        try:
            lo, hi = numeric_bounds(q.lower, q.upper,
                                    q.include_lower, q.include_upper)
        except OverflowError:  # open bound nudged past the int64 domain
            return (np.empty(0, dtype=np.int64),
                    np.empty(0, dtype=np.float32))
        docs = _const_docs(lf, lf.term_range(lo, hi, True, True))
        return docs, np.full(len(docs), np.float32(boost * q.boost), dtype=np.float32)
    if isinstance(q, WildcardQuery):
        lf = leaf.sibling(q.field)
        docs = _const_docs_of(lf, _expand_wildcard(lf, q.pattern))
        return docs, np.full(len(docs), np.float32(boost * q.boost), dtype=np.float32)
    if isinstance(q, RegexpQuery):
        lf = leaf.sibling(q.field)
        docs = _const_docs_of(lf, _expand_regexp(lf, q.pattern))
        return docs, np.full(len(docs), np.float32(boost * q.boost), dtype=np.float32)
    if isinstance(q, FuzzyQuery):
        lf = leaf.sibling(q.field)
        docs = _const_docs_of(lf, _expand_fuzzy(
            lf, q.term, q.max_edits, transpositions=q.transpositions))
        return docs, np.full(len(docs), np.float32(boost * q.boost), dtype=np.float32)
    if isinstance(q, DisjunctionMaxQuery):
        return _execute_dismax(q, leaf, ctx, boost)
    if isinstance(q, BooleanQuery):
        return _execute_bool(q, leaf, ctx, boost)
    if isinstance(q, PhraseQuery):
        return _execute_phrase(q, leaf, ctx, boost)
    if isinstance(q, NGramPhraseQuery):
        return _execute_phrase(ngram_phrase_rewrite(q), leaf, ctx, boost)
    from ..queries import MultiPhraseQuery

    if isinstance(q, MultiPhraseQuery):
        return _execute_multi_phrase(q, leaf, ctx, boost)
    if isinstance(q, ConstantScoreQuery):
        docs, _ = execute(q.query, leaf, ctx, 1.0)
        return docs, np.full(len(docs), np.float32(boost * q.boost), dtype=np.float32)
    if isinstance(q, TermsFilterQuery):
        # TermsFilter: docID union, no tf decode, constant score
        lf = leaf.sibling(q.field)
        parts = [lf.postings(t)[0] for t in q.terms]
        docs = (np.unique(np.concatenate(parts)) if parts
                else np.empty(0, dtype=np.int64))
        return docs, np.full(len(docs), np.float32(boost * q.boost),
                             dtype=np.float32)
    from ..queries import (BooleanFilterQuery, ChainedFilterQuery,
                           DocTermOrdsRangeFilterQuery,
                           FieldCacheRangeFilterQuery, FieldValueFilterQuery)

    if isinstance(q, DocTermOrdsRangeFilterQuery):
        offsets, flat_ords, values = leaf.dv_sorted_set(q.field)
        lo = 0
        if q.lower is not None:
            lo = int(np.searchsorted(values, q.lower))
            if lo < len(values) and values[lo] == q.lower \
                    and not q.include_lower:
                lo += 1
        hi = len(values) - 1
        if q.upper is not None:
            hi = int(np.searchsorted(values, q.upper, side="right")) - 1
            if hi >= 0 and values[hi] == q.upper and not q.include_upper:
                hi -= 1
        flat = np.asarray(flat_ords)
        in_range = (flat >= lo) & (flat <= hi)
        # any-value-matches per doc: max over each doc's slice
        per_doc = np.zeros(leaf.num_docs, dtype=bool)
        if in_range.any():
            offs = np.asarray(offsets)
            hits = np.flatnonzero(in_range)
            docs_of = np.searchsorted(offs, hits, side="right") - 1
            per_doc[np.unique(docs_of)] = True
        docs = np.flatnonzero(per_doc).astype(np.int64)
        return docs, np.full(len(docs), np.float32(boost * q.boost),
                             dtype=np.float32)

    if isinstance(q, FieldValueFilterQuery):
        has = _docs_with_field(leaf, q.field)
        if q.negate:
            has = ~has
        docs = np.flatnonzero(has).astype(np.int64)
        return docs, np.full(len(docs), np.float32(boost * q.boost),
                             dtype=np.float32)
    from ..queries import FunctionRangeQuery

    if isinstance(q, FunctionRangeQuery):
        docs = np.arange(leaf.num_docs, dtype=np.int64)
        if isinstance(q.source, str):
            vals = leaf.dv_numeric_f32(q.source)
        else:
            from ..functions.valuesource import evaluate as vs_eval

            vals = vs_eval(q.source, leaf, ctx, docs)
        m = np.ones(leaf.num_docs, dtype=bool)
        if q.lower is not None:
            lo = np.float32(q.lower)
            m &= (vals >= lo) if q.include_lower else (vals > lo)
        if q.upper is not None:
            hi = np.float32(q.upper)
            m &= (vals <= hi) if q.include_upper else (vals < hi)
        docs = docs[m]
        return docs, np.full(len(docs), np.float32(boost * q.boost),
                             dtype=np.float32)
    if isinstance(q, FieldCacheRangeFilterQuery):
        if q.kind == "numeric":
            from ..state import docvalues as dvals

            key = ("fcr_num", q.field)
            cached = leaf._filter_cache.get(key)
            if cached is None:
                cached = dvals.read_numeric(leaf.dir, q.field)
                leaf._filter_cache[key] = cached
            arr, miss = cached
            vals = np.asarray(arr)
            m = np.ones(leaf.num_docs, dtype=bool) if miss is None \
                else ~np.asarray(miss)
            if q.lower is not None:
                m &= (vals >= q.lower) if q.include_lower else (vals > q.lower)
            if q.upper is not None:
                m &= (vals <= q.upper) if q.include_upper else (vals < q.upper)
        else:  # string: ordinal comparison against the bounds' positions
            ords, values = leaf.dv_sorted(q.field)
            o = np.asarray(ords)
            m = o >= 0
            if q.lower is not None:
                lo = np.searchsorted(values, q.lower)
                if not q.include_lower or (lo < len(values)
                                           and values[lo] != q.lower):
                    if lo < len(values) and values[lo] == q.lower:
                        lo += 1
                m &= o >= lo
            if q.upper is not None:
                hi = np.searchsorted(values, q.upper, side="right") - 1
                if not q.include_upper and hi >= 0 \
                        and values[hi] == q.upper:
                    hi -= 1
                m &= o <= hi
        docs = np.flatnonzero(m).astype(np.int64)
        return docs, np.full(len(docs), np.float32(boost * q.boost),
                             dtype=np.float32)
    from ..queries import FieldCacheRewriteQuery, FieldCacheTermsFilterQuery

    if isinstance(q, FieldCacheTermsFilterQuery):
        # FieldCacheTermsFilter: each term -> its ord in the sorted value
        # dict (absent terms contribute nothing), then one ord-set probe
        # per doc; ord -1 (missing) never matches
        ords, values = leaf.dv_sorted(q.field)
        sel = np.zeros(len(values), dtype=bool)
        for t in q.terms:
            i = int(np.searchsorted(values, t))
            if i < len(values) and values[i] == t:
                sel[i] = True
        o = np.asarray(ords)
        m = (o >= 0) & sel[np.maximum(o, 0)]
        docs = np.flatnonzero(m).astype(np.int64)
        return docs, np.full(len(docs), np.float32(boost * q.boost),
                             dtype=np.float32)
    if isinstance(q, FieldCacheRewriteQuery):
        if q.multi_valued:  # DocTermOrdsRewriteMethod: ANY value matches
            offsets, flat_ords, values = leaf.dv_sorted_set(q.field)
            vmask = _mtq_value_mask(q.query, values)
            flat = np.asarray(flat_ords)
            per_doc = np.zeros(leaf.num_docs, dtype=bool)
            in_match = vmask[flat] if len(flat) else np.zeros(0, dtype=bool)
            if in_match.any():
                offs = np.asarray(offsets)
                hits = np.flatnonzero(in_match)
                docs_of = np.searchsorted(offs, hits, side="right") - 1
                per_doc[np.unique(docs_of)] = True
            docs = np.flatnonzero(per_doc).astype(np.int64)
        else:  # FieldCacheRewriteMethod: single SORTED value per doc
            ords, values = leaf.dv_sorted(q.field)
            vmask = _mtq_value_mask(q.query, values)
            o = np.asarray(ords)
            m = (o >= 0) & vmask[np.maximum(o, 0)]
            docs = np.flatnonzero(m).astype(np.int64)
        return docs, np.full(len(docs), np.float32(boost * q.boost),
                             dtype=np.float32)
    if isinstance(q, BooleanFilterQuery):
        # BooleanFilter.getDocIdSet order: SHOULDs OR'd, MUST_NOTs and-notted
        # (all-docs start when no positive clause yet), MUSTs and'd
        res = None
        has_should = False
        for c in q.clauses:
            if c.occur == SHOULD:
                has_should = True
                d = execute(c.query, leaf, ctx, 1.0)[0]
                res = d if res is None else np.union1d(res, d)
        if has_should and res is None:
            res = np.empty(0, dtype=np.int64)
        for c in q.clauses:
            if c.occur == MUST_NOT:
                if res is None:
                    res = np.arange(leaf.num_docs, dtype=np.int64)
                d = execute(c.query, leaf, ctx, 1.0)[0]
                if len(d):
                    res = res[~np.isin(res, d, assume_unique=True)]
        for c in q.clauses:
            if c.occur == MUST:
                d = execute(c.query, leaf, ctx, 1.0)[0]
                res = d if res is None else res[np.isin(res, d,
                                                        assume_unique=True)]
        if res is None:
            res = np.empty(0, dtype=np.int64)
        return res.astype(np.int64), np.full(
            len(res), np.float32(boost * q.boost), dtype=np.float32)
    if isinstance(q, ChainedFilterQuery):
        n = len(q.filters)
        ops = ([q.logic] * n if isinstance(q.logic, str) else list(q.logic))
        if len(ops) != n:
            raise ValueError("Invalid number of elements in logic array")
        sets = [execute(f, leaf, ctx, 1.0)[0] for f in q.filters]
        i = 0
        if ops[0] == "and":
            res = sets[0]
            i = 1
        elif ops[0] == "andnot":
            alln = np.arange(leaf.num_docs, dtype=np.int64)
            res = alln[~np.isin(alln, sets[0], assume_unique=True)]
            i = 1
        else:  # or / xor start empty (initialResult)
            res = np.empty(0, dtype=np.int64)
        for j in range(i, n):
            d = sets[j]
            if ops[j] == "or":
                res = np.union1d(res, d)
            elif ops[j] == "and":
                res = res[np.isin(res, d, assume_unique=True)]
            elif ops[j] == "andnot":
                res = res[~np.isin(res, d, assume_unique=True)]
            elif ops[j] == "xor":
                res = np.setxor1d(res, d, assume_unique=True)
            else:
                raise ValueError(f"unknown chain logic {ops[j]!r}")
        return res.astype(np.int64), np.full(
            len(res), np.float32(boost * q.boost), dtype=np.float32)
    if isinstance(q, FilteredQuery):
        docids, scores = execute(q.query, leaf, ctx, boost * q.boost)
        fkey = repr(q.filter)
        fdocs = leaf._filter_cache.get(fkey)
        if fdocs is None:
            fdocs, _ = execute(q.filter, leaf, ctx, 1.0)
            if len(leaf._filter_cache) > 128:
                leaf._filter_cache.pop(next(iter(leaf._filter_cache)))
            leaf._filter_cache[fkey] = fdocs
        keep = np.isin(docids, fdocs, assume_unique=True)
        return docids[keep], scores[keep]
    from ..queries import (PayloadTermQuery, SpanFirstQuery, SpanNearQuery,
                           SpanNotQuery, SpanOrQuery,
                           SpanPositionRangeQuery, SpanTermQuery,
                           ToChildBlockJoinQuery, ToParentBlockJoinQuery)
    if isinstance(q, ToParentBlockJoinQuery):
        from .blockjoin import execute_to_parent

        return execute_to_parent(q, leaf, ctx, boost, execute)
    if isinstance(q, ToChildBlockJoinQuery):
        from .blockjoin import execute_to_child

        return execute_to_child(q, leaf, ctx, boost, execute)
    if isinstance(q, PayloadTermQuery):
        from .spans import execute_payload_term

        return execute_payload_term(q, leaf, ctx, boost)
    from ..queries import (PayloadNearQuery, SpanNearPayloadCheckQuery,
                           SpanPayloadCheckQuery)

    if isinstance(q, SpanPayloadCheckQuery):
        from .spans import execute_payload_check

        return execute_payload_check(q, leaf, ctx, boost)
    if isinstance(q, SpanNearPayloadCheckQuery):
        from .spans import execute_near_payload_check

        return execute_near_payload_check(q, leaf, ctx, boost)
    if isinstance(q, PayloadNearQuery):
        from .spans import execute_payload_near

        return execute_payload_near(q, leaf, ctx, boost)
    from ..queries import FieldMaskingSpanQuery

    if isinstance(q, (SpanTermQuery, SpanNearQuery, SpanOrQuery,
                      SpanNotQuery, SpanFirstQuery,
                      SpanPositionRangeQuery, FieldMaskingSpanQuery)):
        from .spans import execute_span

        return execute_span(q, leaf, ctx, boost)
    raise TypeError(f"unknown query type {type(q)}")


def _docs_with_field(leaf: LeafSearcher, field: str) -> np.ndarray:
    """getDocsWithField (``search/FieldCache.java``): per-doc bool mask of
    docs holding a value — SORTED ords >= 0, or NUMERIC ~missing bits."""
    key = ("docs_with", field)
    cached = leaf._filter_cache.get(key)
    if cached is not None:
        return cached
    try:
        ords, _vals = leaf.dv_sorted(field)
        mask = np.asarray(ords) >= 0
    except Exception:
        from ..state import docvalues as dvals

        arr, miss = dvals.read_numeric(leaf.dir, field)
        mask = (np.ones(len(np.asarray(arr)), dtype=bool) if miss is None
                else ~np.asarray(miss))
    leaf._filter_cache[key] = mask
    return mask


def phrase_match_freqs(
    q: PhraseQuery, leaf: LeafSearcher
) -> tuple[LeafSearcher, np.ndarray, np.ndarray]:
    """Match phase of phrase execution -> (field-sibling leaf, local docids
    ascending, float32 phrase freqs > 0). Shared by the BM25/classic scorer
    below and the SimilarityBase executor (which scores the same freqs as a
    sum of per-term scores — the MultiStats contract,
    ``SimilarityBase.java:194-205``)."""
    leaf = leaf.sibling(q.field)
    docids, freqs = _phrase_freqs_raw(q, leaf)
    return leaf, docids, freqs


def _execute_phrase(
    q: PhraseQuery, leaf: LeafSearcher, ctx: SearchContext, boost: float
):
    """Phrase scoring over positions, vectorized over the candidate docs.

    slop == 0: ExactPhraseScorer semantics (``search/ExactPhraseScorer.java:26``)
    — docs where term_i occurs at position p+i for some p; phrase freq =
    number of such p. Computed as one k-way ``np.intersect1d`` over
    (doc << 32 | shifted position) keys — no per-doc Python loop.

    slop > 0: Lucene-exact SloppyPhraseScorer semantics
    (``search/SloppyPhraseScorer.java:32``): greedy minimal-alignment
    matching; each match contributes ``1/(matchLength+1)``; freq is the
    float32 running sum (see stages/sloppy.py). The 2-distinct-term case is
    fully vectorized (closed form); longer/repeating phrases run the
    faithful per-doc queue walk over the matched docs only.

    Either way the freq scores like a term with tf=freq and idf = float32
    sum of the terms' idfs (BM25Similarity idfExplain / PhraseWeight)."""
    leaf, docids, mfreqs = phrase_match_freqs(q, leaf)
    empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float32))
    if len(docids) == 0:
        return empty
    # idf = float32 += accumulation over the phrase's terms (idfExplain)
    sum_idf = np.float32(0.0)
    for t in q.terms:
        df = ctx.stats_for(q.field, t)[0]
        sum_idf = np.float32(sum_idf + bm25.idf(df, ctx.coll.max_doc))
    wv = bm25.weight_value(sum_idf, boost * q.boost)
    scores = bm25.score_postings(
        mfreqs, leaf.norms[docids], wv, ctx.cache_for(q.field)
    )
    return docids, scores


def _execute_multi_phrase(q, leaf: LeafSearcher, ctx: SearchContext,
                          boost: float):
    """MultiPhraseQuery scoring (``search/MultiPhraseQuery.java:176-290``):
    each slot's position stream is the UNION of its alternative terms'
    positions (UnionDocsAndPositionsEnum — unique'd, duplicate
    same-position alternatives count once), then the usual exact/sloppy
    phrase machinery runs; idf = float32 sum over ALL terms in termArrays
    order (slot order, add order within a slot)."""
    from ..queries import PhraseQuery

    leaf = leaf.sibling(q.field)
    empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float32))
    if not leaf.has_positions:
        raise ValueError("index was built without positions (store_positions)")
    # union (doc, tf, positions) per slot: merge each alternative's
    # postings_with_positions into one synthetic stream
    per_slot = []
    for slot in q.terms:
        parts = [leaf.postings_with_positions(t) for t in slot]
        parts = [p for p in parts if len(p[0])]
        if not parts:
            return empty
        if len(parts) == 1:
            per_slot.append(parts[0])
            continue
        keys = []
        for d, _tfs, flat, starts in parts:
            cnt = np.diff(starts)
            docs_rep = np.repeat(d, cnt)
            keys.append((docs_rep.astype(np.int64) << 32)
                        | flat.astype(np.int64))
        u = np.unique(np.concatenate(keys))
        docs = (u >> 32)
        di, first = np.unique(docs, return_index=True)
        counts = np.diff(np.append(first, len(u)))
        starts_u = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
        per_slot.append((di, counts.astype(np.int64),
                         (u & 0xFFFFFFFF).astype(np.int64), starts_u))

    # delegate to the shared phrase match machinery via a synthetic leaf
    # view: reuse _phrase_freqs_core on the per-slot streams
    offs = (q.positions if getattr(q, "positions", None) is not None
            else tuple(range(len(q.terms))))
    if q.positions is not None and q.slop:
        raise NotImplementedError(
            "explicit phrase positions require slop == 0")
    docids, freqs = _phrase_freqs_core(per_slot, offs, q.slop,
                                       [tuple(slot) for slot in q.terms])
    if len(docids) == 0:
        return empty
    sum_idf = np.float32(0.0)
    for slot in q.terms:
        for t in slot:
            df = ctx.stats_for(q.field, t)[0]
            sum_idf = np.float32(sum_idf + bm25.idf(df, ctx.coll.max_doc))
    wv = bm25.weight_value(sum_idf, boost * q.boost)
    scores = bm25.score_postings(
        freqs, leaf.norms[docids], wv, ctx.cache_for(q.field))
    return docids, scores


def _phrase_freqs_raw(
    q: PhraseQuery, leaf: LeafSearcher
) -> tuple[np.ndarray, np.ndarray]:
    """(local docids, float32 phrase freqs) on the already-sibling leaf."""
    if not leaf.has_positions:
        raise ValueError("index was built without positions (store_positions)")
    empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float32))
    per_term = [leaf.postings_with_positions(t) for t in q.terms]
    if any(len(p[0]) == 0 for p in per_term):
        return empty
    offs = (q.positions if getattr(q, "positions", None) is not None
            else tuple(range(len(q.terms))))
    if q.positions is not None and q.slop:
        raise NotImplementedError(
            "explicit phrase positions require slop == 0")
    return _phrase_freqs_core(per_term, offs, q.slop, list(q.terms))


def _phrase_freqs_core(
    per_term: list, offs, slop: int, slot_keys: list
) -> tuple[np.ndarray, np.ndarray]:
    """Shared exact/sloppy phrase match over per-slot position streams
    (each ``(docids, tfs, flat_positions, starts)``); ``slot_keys`` carry
    slot identity for the repeating-slot detection (term strings for
    PhraseQuery, term tuples for MultiPhraseQuery)."""
    empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float32))
    base = per_term[0][0]
    for d, *_ in per_term[1:]:
        base = base[np.isin(base, d, assume_unique=True)]
    if len(base) == 0:
        return empty

    k = len(per_term)
    guard = max(offs) + 1  # keeps shifted positions non-negative in the key

    def keys_for(i: int) -> np.ndarray:
        """Sorted unique (base_index << 32 | pos - offs[i] + guard) keys of
        slot i restricted to the base docs (flat multi-range gather)."""
        d, _tfs, flat, starts = per_term[i]
        j = np.searchsorted(d, base)
        s0 = starts[j].astype(np.int64)
        cnt = starts[j + 1].astype(np.int64) - s0
        tot = int(cnt.sum())
        if tot == 0:
            return np.empty(0, dtype=np.int64)
        ends = np.cumsum(cnt)
        idx = np.arange(tot, dtype=np.int64) - np.repeat(ends - cnt, cnt) \
            + np.repeat(s0, cnt)
        pos = flat[idx].astype(np.int64) - offs[i] + guard
        docs_rep = np.repeat(np.arange(len(base), dtype=np.int64), cnt)
        return np.unique((docs_rep << 32) | pos)

    keys = [keys_for(i) for i in range(k)]
    if slop == 0:
        cand = keys[0]
        for kk in keys[1:]:
            cand = np.intersect1d(cand, kk, assume_unique=True)
            if len(cand) == 0:
                return empty
        di, cnt = np.unique(cand >> 32, return_counts=True)
        freqs = np.zeros(len(base), dtype=np.float32)
        freqs[di] = cnt
    elif k == 2 and slot_keys[0] != slot_keys[1]:
        from .sloppy import two_term_sloppy_freqs

        freqs = two_term_sloppy_freqs(keys[0], keys[1], slop, len(base))
    else:
        from .sloppy import sloppy_freq_doc

        tid = {}
        term_ids = [tid.setdefault(t, len(tid)) for t in slot_keys]
        docs_of = [kk >> 32 for kk in keys]
        pos_of = [kk & 0xFFFFFFFF for kk in keys]
        freqs = np.zeros(len(base), dtype=np.float32)
        for bi in range(len(base)):
            plists = []
            for i in range(k):
                lo = int(np.searchsorted(docs_of[i], bi))
                hi = int(np.searchsorted(docs_of[i], bi, side="right"))
                plists.append(pos_of[i][lo:hi])
            freqs[bi] = sloppy_freq_doc(plists, term_ids, slop)

    match = freqs > 0
    return base[match], freqs[match]


def _execute_dismax(
    q: DisjunctionMaxQuery, leaf: LeafSearcher, ctx: SearchContext, boost: float
):
    parts = [execute(d, leaf, ctx, boost * q.boost) for d in q.disjuncts]
    parts = [(d, s) for d, s in parts if len(d)]
    if not parts:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float32)
    union = np.unique(np.concatenate([d for d, _ in parts]))
    # -inf seed: every union doc matches >=1 clause, so max is over ACTUAL
    # clause scores (a zero seed would clamp all-negative maxima to 0,
    # diverging from DisjunctionMaxQuery)
    smax = np.full(len(union), -np.inf, dtype=np.float32)
    ssum = np.zeros(len(union), dtype=np.float32)
    for d, s in parts:
        idx = np.searchsorted(union, d)
        np.maximum.at(smax, idx, s)
        ssum[idx] = np.add(ssum[idx], s, dtype=np.float32)
    # scoreMax + (scoreSum - scoreMax) * tieBreaker, float32 steps
    t = np.subtract(ssum, smax, dtype=np.float32)
    t = np.multiply(t, np.float32(q.tie_breaker), dtype=np.float32)
    return union, np.add(smax, t, dtype=np.float32)


def gather_tfs(
    leaf: LeafSearcher, term: str, targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Term frequencies for the sorted ``targets`` docids, decoding ONLY the
    128-doc blocks that can contain a target — the skip-list advance analogue
    (``codecs/lucene41/Lucene41PostingsReader.java:446-492``; per-block
    last-doc array replaces the multi-level skip list).
    -> (found mask, tfs aligned with targets)."""
    found = np.zeros(len(targets), dtype=bool)
    tfs = np.zeros(len(targets), dtype=np.uint32)
    for cv in leaf.chunks(term):
        lastg = cv.last_docids.astype(np.int64) + cv.doc_offset
        bidx = np.searchsorted(lastg, targets)  # nondecreasing (both sorted)
        valid = np.flatnonzero(bidx < cv.nblocks)
        if len(valid) == 0:
            continue
        vb = bidx[valid]
        run_starts = np.concatenate(([0], np.flatnonzero(np.diff(vb)) + 1))
        run_ends = np.concatenate((run_starts[1:], [len(vb)]))
        for rs, re_ in zip(run_starts, run_ends):
            bi = int(vb[rs])
            d, t = cv.decode_block(bi)
            sel = valid[rs:re_]
            pos = np.searchsorted(d, targets[sel])
            ok = pos < len(d)
            ok[ok] = d[pos[ok]] == targets[sel][ok]
            hit = sel[ok]
            found[hit] = True
            tfs[hit] = t[pos[ok]]
    return found, tfs


def _tfs_for_targets(
    leaf: LeafSearcher, term: str, targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Adaptive advance: searchsorted on the cached decoded postings when
    the term is cached or the candidate set is dense relative to the term's
    block count (where skipping would decode everything anyway, with
    per-block overhead on top); otherwise a block-selective decode that
    leaves the cache alone."""
    ti = leaf.lookup(term)
    if ti < 0:
        return np.zeros(len(targets), dtype=bool), np.zeros(len(targets), np.uint32)
    df = int(leaf.df[ti])
    nblocks = (df + 127) // 128
    if len(targets) < nblocks // 2 and not leaf.is_decoded(ti):
        return gather_tfs(leaf, term, targets)
    d, t = leaf.decoded(ti)[:2]
    pos = np.searchsorted(d, targets)
    ok = pos < len(d)
    ok[ok] = d[pos[ok]] == targets[ok]
    tfs = np.zeros(len(targets), dtype=np.uint32)
    tfs[ok] = t[pos[ok]]
    return ok, tfs


def _bool_all_terms(q: BooleanQuery) -> bool:
    # every clause a TermQuery (field-qualified included — the leapfrog
    # dispatches each clause through its field's sibling reader; all fields
    # of a segment share one docID space, so the intersection is field-free)
    return all(isinstance(c.query, TermQuery) for c in q.clauses)


def _execute_bool_terms_leapfrog(
    q: BooleanQuery, leaf: LeafSearcher, ctx: SearchContext, b: float
):
    """Fast path when every clause is a TermQuery and at least one MUST
    exists: fully decode only the rarest MUST term (the ConjunctionScorer
    lead, ``search/ConjunctionScorer.java:28,57-84``); every other clause
    advances via block-selective ``gather_tfs``. Bit-identical scores: per-doc
    accumulation still happens in CLAUSE ORDER over the surviving docids.
    Field-qualified clauses read/score through their sibling field reader
    (own term dict, norms and norm cache)."""
    musts = [(i, c.query) for i, c in enumerate(q.clauses) if c.occur == MUST]
    shoulds = [(i, c.query) for i, c in enumerate(q.clauses) if c.occur == SHOULD]
    nots = [c.query for c in q.clauses if c.occur == MUST_NOT]

    dfs = []
    for i, tq in musts:
        lf = leaf.sibling(tq.field)
        ti = lf.lookup(tq.term)
        if ti < 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float32)
        dfs.append((int(lf.df[ti]), i, tq))
    dfs.sort(key=lambda x: (x[0], x[1]))
    _, lead_i, lead_q = dfs[0]
    base, lead_tfs = leaf.sibling(lead_q.field).postings(lead_q.term)
    per_clause_tf: dict[int, np.ndarray] = {}
    for df_, i, tq in dfs[1:]:
        found, tfs = _tfs_for_targets(leaf.sibling(tq.field), tq.term, base)
        base = base[found]
        lead_tfs = lead_tfs[found]
        for k in per_clause_tf:
            per_clause_tf[k] = per_clause_tf[k][found]
        per_clause_tf[i] = tfs[found]
        if len(base) == 0:
            return base, np.empty(0, dtype=np.float32)
    per_clause_tf[lead_i] = lead_tfs

    norms_of: dict[str | None, np.ndarray] = {}

    def norms_for(field: str | None) -> np.ndarray:
        n = norms_of.get(field)
        if n is None:
            n = leaf.sibling(field).norms[base]
            norms_of[field] = n
        return n

    scores = np.zeros(len(base), dtype=np.float32)
    match_count = np.zeros(len(base), dtype=np.int32)
    for ci, c in enumerate(q.clauses):  # clause order accumulation
        if c.occur == MUST:
            tq = c.query
            wv = ctx.weight(tq.term, b * tq.boost, tq.field)
            scores = np.add(
                scores,
                bm25.score_postings(per_clause_tf[ci], norms_for(tq.field),
                                    wv, ctx.cache_for(tq.field)),
                dtype=np.float32)
        elif c.occur == SHOULD:
            tq = c.query
            found, tfs = _tfs_for_targets(
                leaf.sibling(tq.field), tq.term, base)
            if found.any():
                wv = ctx.weight(tq.term, b * tq.boost, tq.field)
                add = np.zeros(len(base), dtype=np.float32)
                add[found] = bm25.score_postings(
                    tfs[found], norms_for(tq.field)[found], wv,
                    ctx.cache_for(tq.field))
                scores = np.add(scores, add, dtype=np.float32)
                match_count += found
    if shoulds and q.min_should_match > 0:
        keep = match_count >= q.min_should_match
        base, scores = base[keep], scores[keep]
        # keep cached norm gathers aligned if MUST_NOT still needs base
        norms_of.clear()
    for nq in nots:
        if len(base) == 0:
            break
        found, _ = _tfs_for_targets(leaf.sibling(nq.field), nq.term, base)
        base, scores = base[~found], scores[~found]
    return base, scores


def _execute_bool(
    q: BooleanQuery, leaf: LeafSearcher, ctx: SearchContext, boost: float
):
    b = boost * q.boost
    if any(c.occur == MUST for c in q.clauses) and _bool_all_terms(q):
        return _execute_bool_terms_leapfrog(q, leaf, ctx, b)
    # evaluate every clause once, in clause order; accumulation below also
    # runs in STRICT clause order (the documented float32 contract — MUST and
    # SHOULD contributions interleave exactly as written in the query)
    results = [
        (c.occur, execute(c.query, leaf, ctx, b if c.occur != MUST_NOT else 1.0))
        for c in q.clauses
    ]
    musts = [r for o, r in results if o == MUST]
    shoulds = [r for o, r in results if o == SHOULD]
    nots = [r[0] for o, r in results if o == MUST_NOT]
    msm = q.min_should_match

    if musts:
        base = musts[0][0]
        for d, _ in musts[1:]:
            base = base[np.isin(base, d, assume_unique=True)]
        if len(base) == 0:
            return base, np.empty(0, dtype=np.float32)
        scores = np.zeros(len(base), dtype=np.float32)
        match_count = np.zeros(len(base), dtype=np.int32)
        for occur, (d, s) in results:
            if occur == MUST:
                idx = np.searchsorted(d, base)
                scores = np.add(scores, s[idx], dtype=np.float32)
            elif occur == SHOULD:
                pos = np.searchsorted(d, base)
                pos_ok = pos < len(d)
                hit = np.zeros(len(base), dtype=bool)
                hit[pos_ok] = d[pos[pos_ok]] == base[pos_ok]
                add = np.zeros(len(base), dtype=np.float32)
                add[hit] = s[np.searchsorted(d, base[hit])]
                scores = np.add(scores, add, dtype=np.float32)
                match_count += hit
        if shoulds and msm > 0:
            keep = match_count >= msm
            base, scores = base[keep], scores[keep]
        docids = base
    elif shoulds:
        need = max(msm, 1)
        union = np.unique(np.concatenate([d for d, _ in shoulds]))
        scores = np.zeros(len(union), dtype=np.float32)
        count = np.zeros(len(union), dtype=np.int32)
        for d, s in shoulds:  # clause order (only SHOULDs score here)
            idx = np.searchsorted(union, d)
            scores[idx] = np.add(scores[idx], s, dtype=np.float32)
            count[idx] += 1
        keep = count >= need
        docids, scores = union[keep], scores[keep]
    else:
        # only MUST_NOT (or empty): matches nothing (BooleanQuery semantics)
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float32)

    if nots and len(docids):
        excl = np.unique(np.concatenate(nots)) if len(nots) > 1 else nots[0]
        if len(excl):
            keep = ~np.isin(docids, excl, assume_unique=True)
            docids, scores = docids[keep], scores[keep]
    return docids, scores


def explain(
    q: Query, leaf: LeafSearcher, ctx: SearchContext, docid: int, boost: float = 1.0
) -> dict:
    """Explanation tree for one (query, local docid) — the ``Weight.explain``
    / CheckHits.checkExplanations analogue: the returned ``value`` is
    bit-identical to the score the executor produces for that doc."""
    def node(match, value, desc, details=()):
        return {"match": bool(match), "value": float(value),
                "description": desc, "details": list(details)}

    if isinstance(q, TermQuery):
        lf = leaf.sibling(q.field)
        docids, tfs = lf.postings(q.term)
        i = int(np.searchsorted(docids, docid))
        if i >= len(docids) or docids[i] != docid:
            return node(False, 0.0, f"no matching term {q.term!r}")
        df = ctx.stats_for(q.field, q.term)[0]
        term_idf = bm25.idf(df, ctx.coll.max_doc)
        wv = ctx.weight(q.term, boost * q.boost, q.field)
        nb = int(lf.norms[docid])
        sc = bm25.score_postings(
            tfs[i : i + 1], lf.norms[docid : docid + 1], wv,
            ctx.cache_for(q.field))[0]
        return node(True, sc,
                    f"weight({q.term} in {docid}) [BM25], product of:",
                    [node(True, term_idf,
                          f"idf(docFreq={df}, maxDocs={ctx.coll.max_doc})"),
                     node(True, float(tfs[i]), "termFreq"),
                     node(True, float(ctx.cache_for(q.field)[nb]),
                          f"normCache[normByte={nb}] (k1=1.2, b=0.75, "
                          f"avgdl={float(ctx.coll.avgdl)})")])
    if isinstance(q, BooleanQuery):
        docids, scores = _execute_bool(q, leaf, ctx, boost * q.boost)
        i = int(np.searchsorted(docids, docid))
        if i >= len(docids) or docids[i] != docid:
            return node(False, 0.0, "no match on required clauses")
        details = []
        for c in q.clauses:
            sub = explain(c.query, leaf, ctx, docid, boost * q.boost)
            sub["description"] = f"[{c.occur}] " + sub["description"]
            if sub["match"] or c.occur == MUST_NOT:
                details.append(sub)
        return node(True, scores[i], "sum of:", details)
    # generic fallback: evaluate and report the produced score
    docids, scores = execute(q, leaf, ctx, boost)
    i = int(np.searchsorted(docids, docid))
    if i >= len(docids) or docids[i] != docid:
        return node(False, 0.0, f"no match ({type(q).__name__})")
    return node(True, scores[i], f"{type(q).__name__} score")


def top_k(
    docids: np.ndarray, scores: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """(score desc, docID asc) — HitQueue.lessThan semantics, one lexsort."""
    if len(docids) > k:
        order = np.lexsort((docids, -scores))[:k]
    else:
        order = np.lexsort((docids, -scores))
    return docids[order], scores[order]
