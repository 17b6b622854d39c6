"""PostingsHighlighter: sentence-passage snippets scored from the POSTINGS
offsets lane — no re-analysis, no term vectors.

Re-expresses (NOT ports) ``lucene/highlighter/src/java/org/apache/lucene/
search/postingshighlight/PostingsHighlighter.java:485-612`` (highlightDoc:
sentence snippets treated as miniature documents, intersected with the
offsets-bearing postings in start-offset order) + ``PassageScorer.java:72-104``
(weight = (k1+1)*ln(1 + (1 + contentLen/pivot + 0.5)/(totalTermFreq + 0.5)),
tf = freq/(freq + k1*((1-b) + b*passageLen/pivot)), norm = 1 + 1/ln(pivot +
passageStart), defaults k1=1.2 b=0.75 pivot=87) + ``Passage.java`` (bounded
min-heap of n passages by (score, startOffset), matches sorted per passage)
+ ``DefaultPassageFormatter.java:61-89`` (ellipsis between unconnected
passages, overlap-safe term wrapping). The field must be indexed with
``CorpusSpec.store_offsets=True`` (IndexOptions ..._AND_OFFSETS); a missing
lane raises exactly like the reference's IllegalArgumentException.

Sentence boundaries re-express ``BreakIterator.getSentenceInstance(Locale
.ROOT)`` for the engine's text domain: a sentence ends after a run of
``.!?`` followed by whitespace (the following whitespace belongs to the
preceding sentence, as in UAX#29), plus the text bounds.

Distribution shape: the hit set is k-sized. Per-term occurrence offsets are
gathered by ONE pass over the index leaves (term-major postings reads,
doc-filtered to the hits — constant rows per (hit, term)); passage scoring
+ formatting stream over the corpus parquet rows exactly like the other
highlighters (the stored-text row store is never materialized).
"""

from __future__ import annotations

import heapq
import math

import numpy as np
import pandas as pd
import pyarrow as pa

from ..queries import Query, collect_terms
from ..state import manifest as mf
from .search import fetch_doc_meta, rewrite_queries, search

DEFAULT_K1 = 1.2
DEFAULT_B = 0.75
DEFAULT_PIVOT = 87.0
DEFAULT_MAX_LENGTH = 10_000

_SENT_END = ".!?"


def sentence_breaks(text: str) -> np.ndarray:
    """Sorted boundary offsets (0 and len always included): after each run
    of sentence terminators + following whitespace."""
    bounds = [0]
    i, n = 0, len(text)
    while i < n:
        if text[i] in _SENT_END:
            while i < n and text[i] in _SENT_END:
                i += 1
            while i < n and text[i].isspace():
                i += 1
            if bounds[-1] != i:
                bounds.append(i)
        else:
            i += 1
    if bounds[-1] != n:
        bounds.append(n)
    return np.asarray(bounds, dtype=np.int64)


def _preceding(breaks: np.ndarray, pos: int) -> int:
    """Largest boundary < pos (BreakIterator.preceding)."""
    i = int(np.searchsorted(breaks, pos, side="left")) - 1
    return int(breaks[i]) if i >= 0 else 0


def _following(breaks: np.ndarray, pos: int) -> int:
    """Smallest boundary > pos (the bi.next() after preceding(pos+1))."""
    i = int(np.searchsorted(breaks, pos, side="right"))
    return int(breaks[i]) if i < len(breaks) else int(breaks[-1])


def highlight_doc(
    content: str,
    term_occs: "dict[str, tuple[np.ndarray, np.ndarray]]",
    max_passages: int = 1,
    *,
    k1: float = DEFAULT_K1,
    b: float = DEFAULT_B,
    pivot: float = DEFAULT_PIVOT,
    max_length: int = DEFAULT_MAX_LENGTH,
    break_iterator: str = "sentence",
) -> list[dict]:
    """The highlightDoc walk over one document. ``term_occs`` maps each
    query term to its (start_offsets, end_offsets) arrays IN POSITION ORDER
    (the postings lane order). Returns passages ascending by start:
    ``{"start", "end", "score", "matches": [(s, e)]}``; empty-match docs
    get the first ``max_passages`` sentences with score NaN
    (getEmptyHighlight). ``break_iterator="whole"`` treats the (truncated)
    text as ONE passage — ``postingshighlight/WholeBreakIterator.java``,
    the getBreakIterator override for whole-field highlights."""
    content_len = min(len(content), max_length)
    if break_iterator == "whole":
        breaks = np.asarray([0, content_len], dtype=np.int64)
    elif break_iterator == "sentence":
        breaks = sentence_breaks(content[:content_len])
    else:
        raise ValueError(f"unknown break_iterator {break_iterator!r}")
    num_docs = np.float32(1.0 + content_len / pivot)

    # enums: [next_index, starts, ends, weight] per matching term
    heap: list = []
    serial = 0
    for t in sorted(term_occs):
        ss, ee = term_occs[t]
        if len(ss) == 0:
            continue
        w = np.float32((k1 + 1.0)
                       * math.log(1.0 + (float(num_docs) + 0.5)
                                  / (len(ss) + 0.5)))
        heapq.heappush(heap, (int(ss[0]), serial, [0, ss, ee, w]))
        serial += 1

    if not heap:
        out = []
        for i in range(min(max_passages, len(breaks) - 1)):
            out.append({"start": int(breaks[i]), "end": int(breaks[i + 1]),
                        "score": float("nan"), "matches": []})
        return out

    # bounded min-heap of passages by (score, startOffset)
    passage_pq: list = []
    cur_start, cur_end = -1, -1
    cur_score = np.float32(0.0)
    cur_matches: list = []

    def finalize() -> None:
        nonlocal cur_start, cur_end, cur_score, cur_matches
        if cur_start < 0:
            return
        score = np.float32(
            cur_score * np.float32(1.0 + 1.0 / math.log(pivot + cur_start)))
        if not (len(passage_pq) == max_passages
                and score < passage_pq[0][0]):
            heapq.heappush(passage_pq,
                           (score, cur_start, cur_end, cur_matches))
            if len(passage_pq) > max_passages:
                heapq.heappop(passage_pq)
        cur_start, cur_end = -1, -1
        cur_score = np.float32(0.0)
        cur_matches = []

    while heap:
        start, sid, en = heapq.heappop(heap)
        i, ss, ee, w = en
        start, end = int(ss[i]), int(ee[i])
        # LUCENE-5166: a hit spanning the content limit is ignored
        if start < content_len and end > content_len:
            continue
        if start >= cur_end:
            finalize()
            if start >= content_len:
                continue  # enum past the truncated content: drop it
            cur_start = max(_preceding(breaks, start + 1), 0)
            cur_end = min(_following(breaks, start), content_len)
        tf = 0
        while True:
            tf += 1
            cur_matches.append((start, end))
            i += 1
            if i == len(ss):
                break
            start, end = int(ss[i]), int(ee[i])
            if start >= cur_end or end > content_len:
                en[0] = i
                heapq.heappush(heap, (start, sid, en))
                break
        plen = cur_end - cur_start
        tf_w = np.float32(tf / (tf + k1 * ((1.0 - b) + b * plen / pivot)))
        cur_score = np.float32(cur_score + np.float32(w * tf_w))
    finalize()

    out = [{"start": s, "end": e, "score": float(sc),
            "matches": sorted(m)}
           for sc, s, e, m in sorted(passage_pq, key=lambda p: p[1])]
    if not out:  # every occurrence fell past the content limit
        return [{"start": int(breaks[i]), "end": int(breaks[i + 1]),
                 "score": float("nan"), "matches": []}
                for i in range(min(max_passages, len(breaks) - 1))]
    return out


def format_passages(passages: list[dict], content: str,
                    pre: str = "<b>", post: str = "</b>",
                    ellipsis: str = "... ") -> str:
    """DefaultPassageFormatter.format: passages ascending, ellipsis between
    unconnected ones, overlap-safe match wrapping."""
    sb: list[str] = []
    pos = 0
    for p in passages:
        if p["start"] > pos > 0:
            sb.append(ellipsis)
        pos = p["start"]
        for s, e in p["matches"]:
            if s > pos:
                sb.append(content[pos:s])
            if e > pos:
                sb.append(pre)
                sb.append(content[max(pos, s):e])
                sb.append(post)
                pos = e
        sb.append(content[pos:max(pos, p["end"])])
        pos = p["end"]
    return "".join(sb)


def fetch_postings_offsets(
    index_dir: str, docids: "list[int]", terms: "list[str]",
) -> pa.Table:
    """Per-(hit doc, term) occurrence offsets straight from the postings
    offsets lane: one distributed pass over the leaves, each reading only
    its own terms' lanes and slicing the hit docs' rows.
    -> (docid, term, freq, starts list<int32>, ends list<int32>)."""
    import ray
    import ray.data

    from .search import leaf_dataset, open_leaf

    manifest = mf.read_index_manifest(index_dir)
    want = np.asarray(sorted(set(int(d) for d in docids)), dtype=np.int64)
    bcast = ray.put((want, sorted(set(terms))))

    def leaf_fetch(batch: pd.DataFrame) -> pd.DataFrame:
        want_l, terms_l = ray.get(bcast)
        rows = []
        for row in batch.to_dict("records"):
            base = int(row["doc_base"])
            nd = int(row["num_docs"])
            lo = np.searchsorted(want_l, base)
            hi = np.searchsorted(want_l, base + nd)
            if lo == hi:
                continue
            local = want_l[lo:hi] - base
            leaf = open_leaf(index_dir, row)
            for t in terms_l:
                d, tfs, _flat, starts, so, eo = leaf.postings_with_offsets(t)
                if len(d) == 0:
                    continue
                sel = np.flatnonzero(np.isin(d, local, assume_unique=True))
                for j in sel:
                    rows.append((int(d[j]) + base, t, int(tfs[j]),
                                 so[starts[j]:starts[j + 1]].astype(np.int32),
                                 eo[starts[j]:starts[j + 1]].astype(np.int32)))
        return pd.DataFrame({
            "docid": pd.Series([r[0] for r in rows], dtype="int64"),
            "term": pd.Series([r[1] for r in rows], dtype=object),
            "freq": pd.Series([r[2] for r in rows], dtype="int64"),
            "starts": pd.Series([r[3] for r in rows], dtype=object),
            "ends": pd.Series([r[4] for r in rows], dtype=object),
        })

    ds = leaf_dataset(index_dir, manifest)
    out = ds.map_batches(leaf_fetch, batch_format="pandas",
                         batch_size=4).to_pandas()
    return pa.table({
        "docid": pa.array(out["docid"].to_numpy(dtype=np.int64)
                          if len(out) else [], pa.int64()),
        "term": pa.array(list(out["term"]) if len(out) else [], pa.string()),
        "freq": pa.array(out["freq"].to_numpy(dtype=np.int64)
                         if len(out) else [], pa.int64()),
        "starts": pa.array([list(map(int, s)) for s in out["starts"]]
                           if len(out) else [], pa.list_(pa.int32())),
        "ends": pa.array([list(map(int, s)) for s in out["ends"]]
                         if len(out) else [], pa.list_(pa.int32())),
    })


def highlight_hits_postings(
    index_dir: str,
    corpus_parquet: str,
    query: Query,
    k: int = 10,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    max_passages: int = 1,
    pre: str = "<b>",
    post: str = "</b>",
    ellipsis: str = "... ",
    max_length: int = DEFAULT_MAX_LENGTH,
) -> pa.Table:
    """Search, then snippet the top-k hits from the postings offsets lane.
    -> (doc_id, rank, snippet, score_bp) sorted by rank; score_bp is the
    best passage's score in basis points (NaN empty-highlights -> -1)."""
    import ray
    import ray.data

    res = search(index_dir, {0: query}, k=k)
    empty = pa.table({"doc_id": pa.array([], pa.int64()),
                      "rank": pa.array([], pa.int64()),
                      "snippet": pa.array([], pa.string()),
                      "score_bp": pa.array([], pa.int64())})
    if res.num_rows == 0:
        return empty
    docids = res["docid"].to_pylist()
    meta = fetch_doc_meta(index_dir, docids)
    id_of = dict(zip(meta["docid"].to_pylist(), meta[id_col].to_pylist()))
    rank_of = {id_of[d]: r for d, r in zip(docids, res["rank"].to_pylist())}

    # the REWRITTEN query's terms: an MTQ marks its expansion (no stats
    # exchange: passage weights use the document's own term frequencies)
    [(_, planned)] = rewrite_queries(
        index_dir, mf.read_index_manifest(index_dir), [(0, query)])
    occ = fetch_postings_offsets(index_dir, docids,
                                 sorted(collect_terms(planned)))
    occs: dict = {id_of[d]: {} for d in docids}
    for d, t, ss, ee in zip(occ["docid"].to_pylist(),
                            occ["term"].to_pylist(),
                            occ["starts"].to_pylist(),
                            occ["ends"].to_pylist()):
        occs[id_of[d]][t] = (np.asarray(ss, dtype=np.int64),
                             np.asarray(ee, dtype=np.int64))
    bcast = ray.put((occs, rank_of,
                     (max_passages, pre, post, ellipsis, max_length)))

    def snip(batch: pa.Table) -> pa.Table:
        occs_l, rank_l, (mp, pre_l, post_l, ell, mlen) = ray.get(bcast)
        rows = []
        for did, txt in zip(batch[id_col].to_pylist(),
                            batch[text_col].to_pylist()):
            to = occs_l.get(did)
            if to is None:
                continue
            ps = highlight_doc(txt or "", to, mp, max_length=mlen)
            if not ps:
                continue
            best = max((p["score"] for p in ps
                        if not math.isnan(p["score"])), default=None)
            rows.append({
                "doc_id": did, "rank": int(rank_l[did]),
                "snippet": format_passages(ps, txt or "", pre_l, post_l, ell),
                "score_bp": (int(round(best * 10000)) if best is not None
                             else -1)})
        return pa.Table.from_pylist(rows, schema=empty.schema)

    ds = ray.data.read_parquet(corpus_parquet, columns=[id_col, text_col])
    out = ds.map_batches(snip, batch_format="pyarrow").to_pandas()
    if out.empty:  # no passage anywhere: the frame has no columns
        return empty
    out = out.sort_values("rank").reset_index(drop=True)
    return pa.Table.from_pandas(out, preserve_index=False)
