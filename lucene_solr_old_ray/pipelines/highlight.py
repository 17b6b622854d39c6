"""Query highlighting: best-fragment snippets for search hits.

Re-expresses (NOT ports) the reference highlighter's default pipeline
(``lucene/highlighter/src/java/org/apache/lucene/search/highlight/
Highlighter.java:57`` + ``SimpleFragmenter.java`` + ``QueryTermScorer.java``
+ ``SimpleHTMLFormatter.java``):

- hit texts are RE-ANALYZED with offsets (the stored-field re-analysis path
  the reference uses when term vectors are absent);
- fragments are fixed-size character windows advanced at token boundaries
  (SimpleFragmenter: a token starts a new fragment when its end offset
  crosses the next fragment boundary);
- fragment score = sum of the query terms' idf weights, one per matched
  token occurrence (QueryTermScorer with index-reader weights);
- the top ``max_fragments`` fragments (score desc, position asc) are
  emitted with matched tokens wrapped in pre/post tags.

Distribution shape: highlighting runs as a ``map_batches`` over the hit
docs' source rows (fetched by doc_id from the corpus parquet — the row
store); query terms + weights broadcast. Hit sets are k-sized, so this is
a cheap tail stage after search.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions import bm25
from ..functions.analysis import tokenize_with_offsets
from ..queries import Query, collect_terms
from ..state import manifest as mf
from .search import fetch_doc_meta, plan_queries, search

_EMPTY = pa.table({"doc_id": pa.array([], pa.int64()),
                   "rank": pa.array([], pa.int64()),
                   "frag": pa.array([], pa.int64()),
                   "snippet": pa.array([], pa.string()),
                   "score_bp": pa.array([], pa.int64())})


def _best_fragments(
    text: str, weights: dict[str, float], frag_size: int, max_fragments: int,
    pre: str, post: str,
    toks: list[tuple[str, int, int]] | None = None,
) -> list[tuple[float, str]]:
    """(score, formatted fragment) of the best fragments of one text.
    ``toks`` is the (term, start, end) stream — re-analyzed when None
    (Highlighter.java's TokenSources re-analysis path), or supplied from
    stored term vectors (the FastVectorHighlighter input)."""
    if toks is None:
        toks = tokenize_with_offsets(text or "")
    if not toks:
        return []
    # SimpleFragmenter: assign tokens to fixed-size char windows, breaking
    # only at token starts
    frags: list[dict] = []
    cur = {"start": 0, "end": 0, "score": 0.0, "marks": []}
    boundary = frag_size
    for t, s, e in toks:
        if e > boundary and s > cur["start"]:
            cur["end"] = s
            frags.append(cur)
            cur = {"start": s, "end": s, "score": 0.0, "marks": []}
            boundary = s + frag_size
        w = weights.get(t)
        if w is not None:
            cur["score"] += w
            cur["marks"].append((s, e))
    cur["end"] = len(text)
    frags.append(cur)

    scored = [f for f in frags if f["score"] > 0.0]
    scored.sort(key=lambda f: (-f["score"], f["start"]))
    out = []
    for f in scored[:max_fragments]:
        piece = text[f["start"] : f["end"]]
        res = []
        prev = f["start"]
        for s, e in f["marks"]:
            res.append(piece[prev - f["start"] : s - f["start"]])
            res.append(pre + text[s:e] + post)
            prev = e
        res.append(piece[prev - f["start"] :])
        out.append((f["score"], "".join(res).strip()))
    return out


def _highlight_corpus(
    index_dir: str, query: Query, corpus_parquet: str, id_col: str,
    text_col: str, streams: dict, rank_of: dict, frag_size: int,
    max_fragments: int, pre: str, post: str,
) -> pa.Table:
    """Snippet the hit docs of the corpus rows: ``streams`` maps each hit's
    id to its (term, start, end) stream, or to None to re-analyze its text.
    Terms weigh their idf in the PLANNED query — an MTQ weighs its
    expansion, as WeightedSpanTermExtractor does after ``rewrite``."""
    import ray
    import ray.data

    [(_, planned)], ctx = plan_queries(
        index_dir, mf.read_index_manifest(index_dir), [query])
    weights = {t: float(bm25.idf(ctx.term_stats.get(t, (0, 0))[0],
                                 ctx.coll.max_doc))
               for t in sorted(collect_terms(planned))}
    bcast = ray.put((streams, weights, rank_of))

    def snip(batch: pa.Table) -> pa.Table:
        streams_l, weights_l, rank_l = ray.get(bcast)
        rows = []
        for did, txt in zip(batch[id_col].to_pylist(),
                            batch[text_col].to_pylist()):
            if did not in streams_l:
                continue
            for fi, (sc, frag) in enumerate(_best_fragments(
                    txt, weights_l, frag_size, max_fragments, pre, post,
                    toks=streams_l[did])):
                rows.append({"doc_id": did, "rank": int(rank_l[did]),
                             "frag": fi, "snippet": frag,
                             "score_bp": int(round(sc * 10000))})
        return pa.Table.from_pylist(rows, schema=_EMPTY.schema)

    ds = ray.data.read_parquet(corpus_parquet, columns=[id_col, text_col])
    out = ds.map_batches(snip, batch_format="pyarrow").to_pandas()
    if out.empty:  # no fragment anywhere: the frame has no columns
        return _EMPTY
    out = out.sort_values(["rank", "frag"]).reset_index(drop=True)
    return pa.Table.from_pandas(out, preserve_index=False)


def highlight_hits(
    index_dir: str,
    corpus_parquet: str,
    query: Query,
    k: int = 10,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    frag_size: int = 120,
    max_fragments: int = 1,
    pre: str = "<b>",
    post: str = "</b>",
) -> pa.Table:
    """Search, then snippet the top-k hits.
    -> (doc_id, rank, frag, snippet, score_bp) sorted by (rank, frag)."""
    res = search(index_dir, {0: query}, k=k)
    if res.num_rows == 0:
        return _EMPTY
    meta = fetch_doc_meta(index_dir, res["docid"].to_pylist())
    id_of = dict(zip(meta["docid"].to_pylist(), meta[id_col].to_pylist()))
    rank_of = {id_of[d]: r for d, r in zip(res["docid"].to_pylist(),
                                           res["rank"].to_pylist())}
    return _highlight_corpus(index_dir, query, corpus_parquet, id_col,
                             text_col, dict.fromkeys(rank_of), rank_of,
                             frag_size, max_fragments, pre, post)


def highlight_hits_fvh(
    index_dir: str,
    corpus_parquet: str,
    query: Query,
    k: int = 10,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    frag_size: int = 120,
    max_fragments: int = 1,
    pre: str = "<b>",
    post: str = "</b>",
) -> pa.Table:
    """FastVectorHighlighter path: snippets from STORED term-vector offsets,
    no re-analysis of hit texts.

    Re-expresses (NOT ports) ``lucene/highlighter/src/java/org/apache/
    lucene/search/vectorhighlight/FastVectorHighlighter.java:44`` — the
    token stream is reconstructed from the index's tv.parquet offsets lane
    (build with ``CorpusSpec.store_term_vectors=True, store_tv_offsets=
    True``), so stemmed/filtered terms still mark their ORIGINAL character
    spans. Output is bit-identical to :func:`highlight_hits` on the same
    index (parity-tested): the stored stream equals the re-analyzed one by
    construction, minus the per-hit tokenize cost.

    Distribution shape: the hit set is k-sized, so term vectors are fetched
    with doc-pruned row-group reads (fetch_term_vectors) and only the text
    SLICING streams over the corpus rows."""
    from .search import fetch_term_vectors

    res = search(index_dir, {0: query}, k=k)
    if res.num_rows == 0:
        return _EMPTY
    docids = res["docid"].to_pylist()
    meta = fetch_doc_meta(index_dir, docids)
    id_of = dict(zip(meta["docid"].to_pylist(), meta[id_col].to_pylist()))
    rank_of = {id_of[d]: r for d, r in zip(docids, res["rank"].to_pylist())}

    tv = fetch_term_vectors(index_dir, docids)
    if "start_offsets" not in tv.column_names:
        raise ValueError(
            "index has no term-vector offsets lane "
            "(CorpusSpec.store_tv_offsets=True)")
    # per-doc (term, start, end) stream in offset order — the reconstructed
    # OffsetAttribute view FVH reads instead of re-analyzing
    streams: dict = {}
    tvp = tv.to_pandas()
    for docid, g in tvp.groupby("docid"):
        terms = np.repeat(g["term"].to_numpy(dtype=object),
                          [len(s) for s in g["start_offsets"]])
        ss = np.concatenate([np.asarray(s) for s in g["start_offsets"]])
        ee = np.concatenate([np.asarray(e) for e in g["end_offsets"]])
        o = np.argsort(ss, kind="stable")
        streams[id_of[int(docid)]] = [
            (str(t), int(s), int(e))
            for t, s, e in zip(terms[o], ss[o], ee[o])]

    return _highlight_corpus(index_dir, query, corpus_parquet, id_col,
                             text_col, streams, rank_of, frag_size,
                             max_fragments, pre, post)
