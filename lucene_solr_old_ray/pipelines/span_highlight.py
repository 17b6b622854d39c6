"""Span-aware highlighting: phrase/span queries mark ONLY the token
occurrences that participate in an actual span match.

Re-expresses (NOT ports) the reference's position-sensitive highlighter
stack:

- ``highlighter/src/java/.../highlight/WeightedSpanTermExtractor.java:93``
  — the query-tree extraction: PhraseQuery converts to a SpanNearQuery
  (largest position gap added to slop, in-order iff slop == 0), span
  queries are evaluated against the CURRENT document (the reference builds
  a one-doc MemoryIndex from the token stream and runs getSpans; we match
  the span tree directly over the document's per-term position lists with
  the engine's NearSpans protocols) and every extracted term records the
  matched [start, end-1] position windows; plain term queries extract
  position-INsensitive. The reference's PositionCheckingMap semantics are
  kept: a term ever extracted position-insensitively stays insensitive.
- ``highlight/QueryScorer.java:150`` (getTokenScore) — a token scores its
  term weight iff its term is extracted and (when position-sensitive) its
  position lies inside a recorded span; fragment score accumulates each
  DISTINCT matched term once (foundTerms), reset per fragment.
- ``highlight/SimpleSpanFragmenter.java:64`` — fixed-size fragments that
  never split a span match: when a token starts a span, breaking waits
  until the span's end position has passed; a fragment also never starts
  within half a fragment of the text end. (Divergence, documented: the
  reference's fragmenter position lags one token because isNewFragment is
  first called at the second token group; we track the true position.)
- ``highlight/WeightedSpanTermExtractor.java:499``
  (getWeightedSpanTermsWithScores) — optional reader-weighted mode
  multiplies each term weight by the DefaultSimilarity idf
  ``ln(maxDoc / (df + 1)) + 1`` from the engine's global stats pass.

Scope notes (not stubs): payload conditions inside span queries are
ignored at highlight time (the re-analyzed stream carries no payloads —
PayloadTermQuery/SpanPayloadCheckQuery highlight like SpanTermQuery);
FieldMaskingSpanQuery matches over the single shadowed token stream,
exactly like the reference's DelegatingAtomicReader which shadows every
field into one.

Distribution shape: identical to ``highlight.py`` — extraction events are
computed once on the driver (query-sized), per-document span matching +
fragmenting run inside ``map_batches`` over the corpus row store with the
k-sized hit set broadcast; the tv-sourced variant reads only the hit
docs' term-vector row groups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa

from ..queries import (
    BooleanQuery,
    BoostingQuery,
    CommonTermsQuery,
    ConstantScoreQuery,
    CustomScoreQuery,
    DisjunctionMaxQuery,
    FieldMaskingSpanQuery,
    FilteredQuery,
    NGramPhraseQuery,
    PayloadTermQuery,
    PhraseQuery,
    Query,
    SpanFirstQuery,
    SpanMultiTermQueryWrapper,
    SpanNearQuery,
    SpanNotQuery,
    SpanOrQuery,
    SpanPayloadCheckQuery,
    SpanPositionRangeQuery,
    SpanTermQuery,
    TermQuery,
    ngram_phrase_rewrite,
    span_weight_terms,
)
from ..state import manifest as mf
from ..stages.spans import near_ordered_matches, near_unordered_matches


# ---------------------------------------------------------------------------
# extraction: query tree -> ordered put events (driver-side, query-sized)

def _phrase_to_span_near(q: PhraseQuery) -> SpanNearQuery:
    """The PhraseQuery conversion (WeightedSpanTermExtractor.java:103-137):
    largest position increment > 1 is added to the slop; in-order iff the
    resulting slop is 0."""
    slop = q.slop
    if q.positions:
        largest = 0
        last = q.positions[0]
        for p in q.positions[1:]:
            largest = max(largest, p - last)
            last = p
        if largest > 1:
            slop += largest
    clauses = tuple(SpanTermQuery(t, q.field) for t in q.terms)
    return SpanNearQuery(clauses, slop, in_order=(slop == 0), boost=q.boost)


def extraction_events(query: Query) -> list[tuple]:
    """Ordered extraction events of a query tree:
    ``("plain", terms, boost)`` (extractWeightedTerms) or
    ``("span", span_query, boost, terms)`` (extractWeightedSpanTerms).
    Event ORDER matters — a later plain put clears position sensitivity
    (PositionCheckingMap)."""
    events: list[tuple] = []

    def walk(q) -> None:
        if isinstance(q, BooleanQuery):
            for c in q.clauses:
                if c.occur != "MUST_NOT":
                    walk(c.query)
        elif isinstance(q, NGramPhraseQuery):
            walk(ngram_phrase_rewrite(q))
        elif isinstance(q, PhraseQuery):
            sp = _phrase_to_span_near(q)
            events.append(("span", sp, q.boost,
                           sorted(span_weight_terms(sp))))
        elif isinstance(q, TermQuery):
            events.append(("plain", [q.term], q.boost))
        elif isinstance(q, SpanMultiTermQueryWrapper):
            raise ValueError(
                "SpanMultiTermQueryWrapper must be rewritten before "
                "highlighting (pipelines.search.plan_queries)")
        elif isinstance(q, (SpanTermQuery, SpanNearQuery, SpanOrQuery,
                            SpanNotQuery, SpanFirstQuery,
                            SpanPositionRangeQuery, FieldMaskingSpanQuery,
                            PayloadTermQuery, SpanPayloadCheckQuery)):
            events.append(("span", q, q.boost,
                           sorted(span_weight_terms(q))))
        elif isinstance(q, FilteredQuery):
            walk(q.query)
        elif isinstance(q, ConstantScoreQuery):
            walk(q.query)
        elif isinstance(q, CommonTermsQuery):
            # specialized like the reference: terms extract PLAIN without
            # the df-dependent rewrite (WeightedSpanTermExtractor.java:148)
            events.append(("plain", list(q.terms), q.boost))
        elif isinstance(q, DisjunctionMaxQuery):
            for d in q.disjuncts:
                walk(d)
        elif isinstance(q, CustomScoreQuery):
            walk(q.query)
        elif isinstance(q, BoostingQuery):
            walk(q.match)  # the context query only modulates scores
        # everything else (MatchAll, Function, numeric/multi-term before
        # rewrite, block joins) extracts nothing — like the reference's
        # silent fall-through for unknown leaf queries

    walk(query)
    return events


# ---------------------------------------------------------------------------
# per-document span matching over the token stream's position lists

def doc_spans(q, posmap: dict[str, list[int]]) -> list[tuple[int, int]]:
    """Span matches [(start, end)) of a span-query tree over ONE document's
    per-term sorted position lists — the MemoryIndex getSpans walk, run
    with the engine's NearSpans protocols (stages/spans.py)."""
    if isinstance(q, (SpanTermQuery, PayloadTermQuery, SpanPayloadCheckQuery)):
        return [(p, p + 1) for p in posmap.get(q.term, ())]
    if isinstance(q, SpanOrQuery):
        out = [sp for c in q.clauses for sp in doc_spans(c, posmap)]
        out.sort()
        return out
    if isinstance(q, SpanNearQuery):
        sub = [doc_spans(c, posmap) for c in q.clauses]
        if any(not s for s in sub):
            return []
        fn = near_ordered_matches if q.in_order else near_unordered_matches
        return fn(sub, q.slop)
    if isinstance(q, SpanNotQuery):
        inc = doc_spans(q.include, posmap)
        exc = doc_spans(q.exclude, posmap)
        if not exc:
            return inc
        return [(s, e) for s, e in inc
                if not any(x_end > s - q.pre and e + q.post > x_start
                           for x_start, x_end in exc)]
    if isinstance(q, SpanFirstQuery):
        return [(s, e) for s, e in doc_spans(q.match, posmap) if e <= q.end]
    if isinstance(q, SpanPositionRangeQuery):
        return [(s, e) for s, e in doc_spans(q.match, posmap)
                if s >= q.start and e <= q.end]
    if isinstance(q, FieldMaskingSpanQuery):
        return doc_spans(q.inner, posmap)  # single shadowed stream
    raise TypeError(f"not a span query: {type(q)}")


@dataclass
class WeightedSpanTerm:
    """``highlight/WeightedSpanTerm.java``: weight + inclusive [start, end]
    position windows; ``checkPosition`` is a linear window scan."""

    weight: float
    position_sensitive: bool = False
    spans: list[tuple[int, int]] = field(default_factory=list)

    def check_position(self, position: int) -> bool:
        return any(s <= position <= e for s, e in self.spans)


def weighted_span_terms(
    events: list[tuple],
    posmap: dict[str, list[int]],
    idf: dict[str, float] | None = None,
) -> dict[str, WeightedSpanTerm]:
    """Fold the extraction events for ONE document -> term map.

    - plain put REPLACES: the entry becomes position-insensitive and stays
      so (PositionCheckingMap.put);
    - span put with no matches in this doc adds nothing (the reference's
      "no spans found" early return);
    - span put on an existing entry only appends position spans.
    ``idf`` multiplies each final weight (getWeightedSpanTermsWithScores).
    """
    terms: dict[str, WeightedSpanTerm] = {}
    insensitive: set[str] = set()
    for ev in events:
        if ev[0] == "plain":
            _, ts, boost = ev
            for t in ts:
                terms[t] = WeightedSpanTerm(boost)
                insensitive.add(t)
        else:
            _, spanq, boost, ts = ev
            matches = doc_spans(spanq, posmap)
            if not matches:
                continue
            windows = [(s, e - 1) for s, e in matches]
            for t in ts:
                wst = terms.get(t)
                if wst is None:
                    terms[t] = WeightedSpanTerm(
                        boost, t not in insensitive, list(windows))
                else:
                    wst.spans.extend(windows)
    if idf:
        for t, wst in terms.items():
            wst.weight *= idf.get(t, 1.0)
    return terms


def default_idf(df: int, max_doc: int) -> float:
    """DefaultSimilarity idf, the reference's reader-weighted highlight
    factor (WeightedSpanTermExtractor.java:520)."""
    return float(math.log(max_doc / (df + 1.0)) + 1.0)


# ---------------------------------------------------------------------------
# the Highlighter loop: QueryScorer token scoring + fragmenter

def html_encode(s: str) -> str:
    """``highlight/SimpleHTMLEncoder.java``: escape snippet text so marked
    fragments are safe to embed in HTML."""
    return (s.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;")
            .replace("'", "&#x27;").replace("/", "&#x2F;"))


def best_text_fragments(
    text: str,
    toks: list[tuple[str, int, int, int]],
    wst: dict[str, WeightedSpanTerm],
    *,
    frag_size: int = 100,
    max_fragments: int = 2,
    fragmenter: str = "span",  # "span" | "simple" | "null"
    pre: str = "<b>",
    post: str = "</b>",
    encoder: str = "default",  # "default" | "html" (SimpleHTMLEncoder)
    max_chars_to_analyze: int | None = None,
    merge_contiguous: bool = False,
) -> list[tuple[float, str]]:
    """(score, formatted fragment) of the best fragments — the
    ``Highlighter.getBestTextFragments`` walk with QueryScorer semantics:
    fragment score = sum of DISTINCT matched terms' weights; every
    token with a positive token score is wrapped.

    ``fragmenter="null"`` is the NullFragmenter (one fragment = the whole
    text, the field-level highlight mode); ``max_chars_to_analyze``
    re-expresses Highlighter.setMaxDocCharsToAnalyze /
    OffsetLimitTokenFilter — tokens starting at or past the limit are not
    analyzed (the text beyond still appends to the last fragment)."""
    if max_chars_to_analyze is not None:
        toks = [t for t in toks if t[2] < max_chars_to_analyze]
    enc = html_encode if encoder == "html" else (lambda s: s)
    if encoder not in ("default", "html"):
        raise ValueError(f"unknown encoder {encoder!r}")
    if not toks:
        return []
    if fragmenter == "null":
        frag_size = max(len(text), 1) + 1  # never breaks
        fragmenter = "simple"
    frags: list[dict] = []  # {start, end, score, marks}
    cur = {"start": 0, "score": 0.0, "marks": [], "found": set()}
    num_frags = 1
    wait_for_pos = -1
    prev_end = 0
    n = len(text)
    for i, (t, p, s, e) in enumerate(toks):
        if i > 0:
            # fragmenter decision BEFORE this token joins a fragment
            if fragmenter == "span":
                # >= not ==: a stop-word hole can jump PAST the waited
                # position; the reference's equality test then never
                # clears waitForPos and fragmentation freezes for the
                # rest of the doc (a known quirk we fix, documented)
                if wait_for_pos >= 0 and p >= wait_for_pos:
                    wait_for_pos = -1
                br = wait_for_pos == -1
                if br:
                    w = wst.get(t)
                    if w is not None:
                        for ws, we in w.spans:
                            if ws == p:
                                wait_for_pos = we + 1
                                break
                    br = (e >= frag_size * num_frags
                          and (n - e) >= (frag_size >> 1))
            else:
                br = e >= frag_size * num_frags
            if br:
                num_frags += 1
                cur["end"] = prev_end
                frags.append(cur)
                cur = {"start": prev_end, "score": 0.0, "marks": [],
                       "found": set()}
        elif fragmenter == "span":
            w = wst.get(t)
            if w is not None:
                for ws, we in w.spans:
                    if ws == p:
                        wait_for_pos = we + 1
                        break
        # QueryScorer.getTokenScore
        w = wst.get(t)
        score = 0.0
        if w is not None and (not w.position_sensitive
                              or w.check_position(p)):
            score = w.weight
        if score > 0.0:
            cur["marks"].append((s, e))
            if t not in cur["found"]:
                cur["found"].add(t)
                cur["score"] += score
        prev_end = e
    cur["end"] = n
    frags.append(cur)

    scored = [f for f in frags if f["score"] > 0.0]
    scored.sort(key=lambda f: (-f["score"], f["start"]))
    sel = scored[:max_fragments]
    if merge_contiguous and len(sel) > 1:
        # Highlighter.mergeContiguousFragments: adjacent selected fragments
        # concatenate; merged score = the better fragment's score
        sel.sort(key=lambda f: f["start"])
        merged = [sel[0]]
        for f in sel[1:]:
            if f["start"] == merged[-1]["end"]:
                m = merged[-1]
                m["end"] = f["end"]
                m["marks"] = m["marks"] + f["marks"]
                m["score"] = max(m["score"], f["score"])
            else:
                merged.append(f)
        sel = sorted(merged, key=lambda f: (-f["score"], f["start"]))
    out = []
    for f in sel:
        res = []
        prev = f["start"]
        for s, e in f["marks"]:
            res.append(enc(text[prev:s]))
            res.append(pre + enc(text[s:e]) + post)
            prev = e
        res.append(enc(text[prev:f["end"]]))
        out.append((f["score"], "".join(res).strip()))
    return out


# ---------------------------------------------------------------------------
# pipeline entries

def _query_weights(index_dir: str, manifest, terms: list[str]) -> dict:
    """DefaultSimilarity idf per term from the global stats pass."""
    from .search import gather_stats

    ctx = gather_stats(index_dir, manifest, sorted(terms))
    return {t: default_idf(ctx.term_stats.get(t, (0, 0))[0],
                           ctx.coll.max_doc) for t in terms}


def highlight_hits_span(
    index_dir: str,
    corpus_parquet: str,
    query: Query,
    k: int = 10,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    frag_size: int = 120,
    max_fragments: int = 1,
    fragmenter: str = "span",
    source: str = "reanalyze",  # "reanalyze" | "tv"
    use_idf: bool = True,
    pre: str = "<b>",
    post: str = "</b>",
) -> pa.Table:
    """Search, then span-aware-snippet the top-k hits.
    -> (doc_id, rank, frag, snippet, score_bp) sorted by (rank, frag).

    ``source="reanalyze"`` re-tokenizes hit texts (TokenSources re-analysis
    path); ``source="tv"`` reconstructs the stream from the stored
    term-vector positions+offsets lanes (the FVH-style input) — identical
    output by construction, no per-hit tokenize cost."""
    import ray
    import ray.data

    from ..functions.analysis import tokenize_with_offsets_positions
    from .search import fetch_doc_meta, plan_queries, search

    manifest = mf.read_index_manifest(index_dir)
    [(_, query)], _ = plan_queries(index_dir, manifest, [query])
    res = search(index_dir, {0: query}, k=k)
    empty = pa.table({"doc_id": pa.array([], pa.int64()),
                      "rank": pa.array([], pa.int64()),
                      "frag": pa.array([], pa.int64()),
                      "snippet": pa.array([], pa.string()),
                      "score_bp": pa.array([], pa.int64())})
    if res.num_rows == 0:
        return empty
    docids = res["docid"].to_pylist()
    meta = fetch_doc_meta(index_dir, docids)
    id_of = dict(zip(meta["docid"].to_pylist(), meta[id_col].to_pylist()))
    rank_of = {id_of[d]: r for d, r in zip(docids, res["rank"].to_pylist())}

    events = extraction_events(query)
    all_terms = sorted({t for ev in events
                        for t in (ev[1] if ev[0] == "plain" else ev[3])})
    idf = _query_weights(index_dir, manifest, all_terms) if use_idf else None

    streams = None
    if source == "tv":
        from .search import fetch_term_vectors

        tv = fetch_term_vectors(index_dir, docids)
        if ("start_offsets" not in tv.column_names
                or "positions" not in tv.column_names):
            raise ValueError("index has no term-vector positions+offsets "
                             "lanes (store_tv_offsets=True)")
        streams = {}
        tvp = tv.to_pandas()
        for docid, g in tvp.groupby("docid"):
            terms = np.repeat(g["term"].to_numpy(dtype=object),
                              [len(s) for s in g["positions"]])
            pp = np.concatenate([np.asarray(x) for x in g["positions"]])
            ss = np.concatenate([np.asarray(x) for x in g["start_offsets"]])
            ee = np.concatenate([np.asarray(x) for x in g["end_offsets"]])
            o = np.argsort(pp, kind="stable")
            streams[id_of[int(docid)]] = [
                (str(t), int(p), int(s), int(e))
                for t, p, s, e in zip(terms[o], pp[o], ss[o], ee[o])]
    elif source != "reanalyze":
        raise ValueError(f"unknown source {source!r}")

    need = set(rank_of)
    bcast = ray.put((need, events, idf, rank_of, streams))

    def snip(batch: pa.Table) -> pa.Table:
        need_l, events_l, idf_l, rank_l, streams_l = ray.get(bcast)
        rows = []
        for did, txt in zip(batch[id_col].to_pylist(),
                            batch[text_col].to_pylist()):
            if did not in need_l:
                continue
            txt = txt or ""
            toks = (streams_l[did] if streams_l is not None
                    else tokenize_with_offsets_positions(txt))
            posmap: dict[str, list[int]] = {}
            for t, p, _s, _e in toks:
                posmap.setdefault(t, []).append(p)
            wst = weighted_span_terms(events_l, posmap, idf_l)
            for fi, (sc, frag) in enumerate(best_text_fragments(
                    txt, toks, wst, frag_size=frag_size,
                    max_fragments=max_fragments, fragmenter=fragmenter,
                    pre=pre, post=post)):
                rows.append((did, int(rank_l[did]), fi, frag,
                             int(round(sc * 10000))))
        return pa.table({
            "doc_id": pa.array([r[0] for r in rows], pa.int64()),
            "rank": pa.array([r[1] for r in rows], pa.int64()),
            "frag": pa.array([r[2] for r in rows], pa.int64()),
            "snippet": pa.array([r[3] for r in rows], pa.string()),
            "score_bp": pa.array([r[4] for r in rows], pa.int64()),
        })

    import ray.data

    ds = ray.data.read_parquet(corpus_parquet, columns=[id_col, text_col])
    out = ds.map_batches(snip, batch_format="pyarrow").to_pandas()
    out = out.sort_values(["rank", "frag"]).reset_index(drop=True)
    return pa.Table.from_pandas(out, preserve_index=False)


# ---------------------------------------------------------------------------
# GradientFormatter (score-colored marks)

class GradientFormatter:
    """Re-expresses ``highlight/GradientFormatter.java``: marked tokens wrap
    in a ``<font>`` whose fore/background colors interpolate linearly
    between the min and max hex colors by the token score's fraction of
    ``max_score`` (getColorVal: floor into [min(c1,c2), ...], capped at
    max_score). ``SpanGradientFormatter`` (same package) only swaps the
    tag for style-based markup; pass ``style=True`` for that variant."""

    def __init__(self, max_score: float,
                 min_fg: str | None = None, max_fg: str | None = None,
                 min_bg: str | None = None, max_bg: str | None = None,
                 style: bool = False):
        def parse(c):
            if c is None:
                return None
            if len(c) != 7 or not c.startswith("#"):
                raise ValueError(
                    "color is not 7 bytes long eg a hex RGB value "
                    "such as #FFFFFF")
            return tuple(int(c[i:i + 2], 16) for i in (1, 3, 5))

        self.max_score = float(max_score)
        self.fg = (parse(min_fg), parse(max_fg))
        self.bg = (parse(min_bg), parse(max_bg))
        self.style = style

    def _color(self, lo_hi, score: float) -> str:
        out = []
        for cmin, cmax in zip(*lo_hi):
            if cmin == cmax:
                out.append(cmin)
                continue
            scale = abs(cmin - cmax)
            rel = min(self.max_score, score) / self.max_score
            out.append(min(cmin, cmax) + int(scale * rel))
        return "#" + "".join(f"{v:02X}" for v in out)

    def wrap(self, text: str, score: float) -> str:
        """Formatter.highlightTerm: unscored groups pass through."""
        if score <= 0:
            return text
        if self.style:
            parts = []
            if all(self.fg):
                parts.append(f"color: {self._color(self.fg, score)}; ")
            if all(self.bg):
                parts.append(
                    f"background: {self._color(self.bg, score)}; ")
            return f'<span style="{"".join(parts).rstrip()}">{text}</span>'
        sb = ["<font "]
        if all(self.fg):
            sb.append(f'color="{self._color(self.fg, score)}" ')
        if all(self.bg):
            sb.append(f'bgcolor="{self._color(self.bg, score)}" ')
        sb.append(">")
        return "".join(sb) + text + "</font>"
