"""ComplexPhraseQueryParser: quoted phrases whose elements may be
wildcards, prefixes, fuzzies, ranges, or boolean groups.

Re-expresses (NOT ports) ``lucene/queryparser/src/java/org/apache/lucene/
queryparser/complexPhrase/ComplexPhraseQueryParser.java:47-280``: the
phrase's elements parse with the CLASSIC parser grammar, then rewrite into
one ``SpanNearQuery`` (slop from ``"…"~n``, in-order — the 4.x rewrite) in
which each position is:

- a term            -> SpanTermQuery
- a prefix/wildcard/fuzzy/range -> SpanOrQuery over its term-dictionary
  expansion (an empty expansion makes the whole phrase match nothing —
  the reference's "phrases with clauses producing empty sets");
- a boolean group   -> SpanOr of its SHOULD members, wrapped in SpanNot
  when MUST_NOT members are present (``ComplexPhraseQuery.rewrite``'s
  include/exclude split);
- a fielded element or a nested quote -> parse error (the reference's
  checkBadQuery cases).

Expansion happens against the index term dictionaries at query-build time
(each leaf scans only the pattern's prefix range), exactly like the
surround parser's truncations.
"""

from __future__ import annotations

import re

from .queries import (
    MUST_NOT,
    BooleanQuery,
    FuzzyQuery,
    PrefixQuery,
    Query,
    SpanNearQuery,
    SpanNotQuery,
    SpanOrQuery,
    SpanTermQuery,
    TermQuery,
    TermRangeQuery,
    WildcardQuery,
    parse as classic_parse,
)


class ComplexPhraseParseError(ValueError):
    pass


_NO_MATCH = TermQuery("_complex_phrase_no_match")
_PHRASE = re.compile(r'^\s*"(?P<body>.*)"\s*(?:~(?P<slop>\d+))?\s*$',
                     re.DOTALL)


def _split_elements(body: str) -> list[str]:
    """Top-level whitespace split honoring () and [] / {} groups; nested
    quotes raise (phrases inside phrases are bad)."""
    out: list[str] = []
    depth = 0
    cur: list[str] = []
    for ch in body:
        if ch == '"':
            raise ComplexPhraseParseError("phrase inside a phrase")
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        if ch.isspace() and depth == 0:
            if cur:
                out.append("".join(cur))
                cur = []
        else:
            cur.append(ch)
    if cur:
        out.append("".join(cur))
    return out


def _expand(q, leaves) -> list[str]:
    from .stages.search import collect_mtq_terms

    terms: set[str] = set()
    if isinstance(q, TermRangeQuery):
        for leaf in leaves:
            lf = leaf.sibling(q.field)
            s, e = lf.term_range(q.lower, q.upper, q.include_lower,
                                 q.include_upper)
            terms.update(str(t) for t in lf.terms_range_np(s, e))
    else:
        for leaf in leaves:
            terms.update(collect_mtq_terms(leaf, q))
    return sorted(terms)


def _element_to_span(q: Query, leaves) -> Query:
    if getattr(q, "field", None) is not None:
        raise ComplexPhraseParseError("field inside a phrase")
    if isinstance(q, TermQuery):
        return SpanTermQuery(q.term)
    if isinstance(q, (PrefixQuery, WildcardQuery, FuzzyQuery,
                      TermRangeQuery)):
        terms = _expand(q, leaves)
        if not terms:
            return _NO_MATCH
        return SpanOrQuery(tuple(SpanTermQuery(t) for t in terms))
    if isinstance(q, BooleanQuery):
        incl: list[Query] = []
        excl: list[Query] = []
        for c in q.clauses:
            s = _element_to_span(c.query, leaves)
            (excl if c.occur == MUST_NOT else incl).append(s)
        incl = [s for s in incl if s is not _NO_MATCH]
        if not incl:
            return _NO_MATCH
        inc = incl[0] if len(incl) == 1 else SpanOrQuery(tuple(incl))
        excl = [s for s in excl if s is not _NO_MATCH]
        if not excl:
            return inc
        exc = excl[0] if len(excl) == 1 else SpanOrQuery(tuple(excl))
        return SpanNotQuery(inc, exc)
    raise ComplexPhraseParseError(
        f"unsupported element in phrase: {type(q).__name__}")


def complex_phrase_query(index_dir: str, query: str) -> Query:
    """Parse a ``"..."[~slop]`` complex phrase bound to ``index_dir`` ->
    an executable Query. A single-element phrase degrades to that
    element's non-span form, like the reference (a 1-clause phrase is the
    clause itself)."""
    from .pipelines.search import open_leaf
    from .state import manifest as mf

    m = _PHRASE.match(query)
    if m is None:
        raise ComplexPhraseParseError(
            'expected a quoted phrase: "..." or "..."~n')
    slop = int(m.group("slop") or 0)
    # lowercaseExpandedTerms semantics: terms and range bounds fold, but
    # the range keyword TO must stay a keyword for the classic grammar
    parts = [re.sub(r"\bto\b", "TO", p) if p[:1] in "[{" else p
             for p in _split_elements(m.group("body").lower())]
    if not parts:
        raise ComplexPhraseParseError("empty phrase")
    parsed = [classic_parse(p) for p in parts]

    leaves = [open_leaf(index_dir, row) for row in
              mf.leaf_rows(index_dir, mf.read_index_manifest(index_dir))]
    if len(parsed) == 1:
        # single element: the reference returns the element query itself
        q = parsed[0]
        if getattr(q, "field", None) is not None:
            raise ComplexPhraseParseError("field inside a phrase")
        return q
    spans = [_element_to_span(q, leaves) for q in parsed]
    if any(s is _NO_MATCH for s in spans):
        return _NO_MATCH
    return SpanNearQuery(tuple(spans), slop=slop, in_order=True)
