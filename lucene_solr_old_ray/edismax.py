"""Solr DisMax / ExtendedDisMax query dialects over the engine's Query tree.

Re-expresses (NOT ports) Solr's two dismax parsers:

- ``solr/core/src/java/org/apache/solr/search/ExtendedDismaxQParser.java``
  (edismax): full classic syntax; every UNQUALIFIED atom is expanded to a
  DisjunctionMaxQuery across the ``qf`` fields with ``tie`` as the tie
  breaker; ``mm`` (min-should-match spec) applies ONLY when the user query
  contains no explicit ``+``/``-``/``OR``/``NOT`` operators
  (``doMinMatched``, ExtendedDismaxQParser.java:361); ``pf``/``pf2``/
  ``pf3`` add whole-phrase / bigram / trigram proximity boosts built from
  the bare-word clauses (``addShingledPhraseQueries``,
  ExtendedDismaxQParser.java:495 — each shingle is a sloppy PhraseQuery
  dismaxed across the phrase fields, all shingles of one size OR into one
  SHOULD clause, one-term phrases are dropped: minClauseSize = 2);
  ``bq`` boost queries and ``bf`` boost functions append as SHOULD clauses.
- ``solr/core/src/java/org/apache/solr/search/DisMaxQParser.java``
  (dismax): the ESCAPED dialect — only ``+``/``-`` prefixes and quoted
  phrases are syntax, every other special character is literal text
  (SolrPluginUtils.partialEscape), and ``mm`` ALWAYS applies.

``mm`` specs implement ``SolrPluginUtils.calculateMinShouldMatch``
(``solr/core/src/java/org/apache/solr/util/SolrPluginUtils.java:551``):
integers, negative integers, percentages, negative percentages, and
space-separated ``bound<spec`` conditionals evaluated left to right.

Everything produces the engine's frozen Query dataclasses, so the parsed
trees run through the ordinary distributed BM25 executor unchanged.
"""

from __future__ import annotations

import re
from dataclasses import replace as _replace

from .queries import (
    MUST,
    MUST_NOT,
    SHOULD,
    BooleanClause,
    BooleanQuery,
    DisjunctionMaxQuery,
    FunctionQuery,
    FuzzyQuery,
    PhraseQuery,
    PrefixQuery,
    Query,
    RegexpQuery,
    TermQuery,
    TermRangeQuery,
    WildcardQuery,
    parse,
)

__all__ = [
    "calculate_min_should_match",
    "dismax_parse",
    "edismax_parse",
    "split_clauses",
]


# --------------------------------------------------------------------------
# mm spec (SolrPluginUtils.calculateMinShouldMatch)
# --------------------------------------------------------------------------

def calculate_min_should_match(optional_clause_count: int, spec: str) -> int:
    """Resolve an ``mm`` spec against the number of optional clauses.

    Semantics of ``SolrPluginUtils.java:551-585``: conditional specs
    ``upper<inner`` (space separated, left to right — the FIRST bound the
    count does not exceed wins and the running result is returned);
    ``n%`` percentages floor toward zero, negative percentages subtract
    from the total; plain ints are absolute, negative ints subtract.
    The result clamps into ``[0, optional_clause_count]``.
    """
    n = optional_clause_count
    result = n
    spec = spec.strip()

    if "<" in spec:
        spec = re.sub(r"(\s+<\s*)|(\s*<\s+)", "<", spec)
        for s in spec.split(" "):
            if not s:
                continue
            upper_s, inner = s.split("<", 1)
            if n <= int(upper_s):
                return result
            result = calculate_min_should_match(n, inner)
        return result

    if "%" in spec:
        percent = int(spec[: spec.index("%")])
        calc = (result * percent) / 100.0
        result = result + int(calc) if calc < 0 else int(calc)
    else:
        calc = int(spec)
        result = result + calc if calc < 0 else calc

    if n < result:
        return n
    return 0 if result < 0 else result


def _apply_mm(q: Query, spec: str | None) -> Query:
    """setMinShouldMatch: count SHOULD clauses, resolve the spec, stamp
    min_should_match when positive (SolrPluginUtils.java:527-540)."""
    if spec is None or not isinstance(q, BooleanQuery):
        return q
    optional = sum(1 for c in q.clauses if c.occur == SHOULD)
    msm = calculate_min_should_match(optional, spec)
    if msm > 0:
        q = _replace(q, min_should_match=msm)
    return q


# --------------------------------------------------------------------------
# clause splitting (the edismax Clause list: mm gate + phrase-boost input)
# --------------------------------------------------------------------------

_CLAUSE_RE = re.compile(
    r"""\s*
    (?P<must>[+-]?)
    (?:(?P<field>[A-Za-z_][\w.]*):)?
    (?:
        "(?P<phrase>[^"]*)"(?P<pslop>~[0-9]+)?
      | (?P<word>[^\s()"]+)
    )
    """,
    re.VERBOSE,
)


def split_clauses(q: str) -> list[dict]:
    """Split a user query into edismax-style raw clauses: ``must`` prefix
    (``+``/``-``/``''``), optional ``field:`` qualifier, quoted-phrase
    flag, and the raw value with boost/fuzzy suffixes stripped.  Parens
    are transparent (they group, they are not clauses)."""
    out: list[dict] = []
    for m in _CLAUSE_RE.finditer(q.replace("(", " ").replace(")", " ")):
        is_phrase = m.group("phrase") is not None
        val = m.group("phrase") if is_phrase else m.group("word")
        if not is_phrase:
            # strip trailing ^boost / ~fuzzy so phrase shingles see words
            val = re.sub(r"(\^[0-9.]+|~[0-9.]*)+$", "", val)
            if not val:
                continue
        out.append({
            "must": m.group("must"),
            "field": m.group("field"),
            "val": val,
            "is_phrase": is_phrase,
            # bare word: no must prefix, no field, not a phrase
            "is_bare": not m.group("must") and m.group("field") is None
            and not is_phrase,
        })
    return out


def _do_min_matched(clauses: list[dict], lowercase_operators: bool) -> bool:
    """ExtendedDismaxQParser.doMinMatched: explicit ``+``/``-`` or a bare
    ``OR``/``NOT`` (or lowercase ``or`` when enabled) disables mm; bare
    ``AND`` does not."""
    for c in clauses:
        if c["must"] in ("+", "-"):
            return False
        if c["is_bare"]:
            s = c["val"]
            if s in ("OR", "NOT"):
                return False
            if lowercase_operators and s == "or":
                return False
    return True


_OPERATOR_WORDS = {"AND", "OR", "NOT", "TO"}


def _normal_clauses(clauses: list[dict]) -> list[str]:
    """The phrase-boost input: bare unqualified non-phrase words minus the
    operator keywords (addPhraseFieldQueries' normalClauses filter)."""
    out = []
    for c in clauses:
        if c["field"] is not None or c["is_phrase"]:
            continue
        if c["is_bare"] and c["val"] in _OPERATOR_WORDS:
            continue
        if c["must"] in ("+", "-"):
            # prefixed words still participate in phrases (only fielded /
            # phrase clauses are skipped by the reference's filter)
            pass
        out.append(c["val"])
    return out


# --------------------------------------------------------------------------
# qf expansion: unqualified atoms -> DisMax over the query fields
# --------------------------------------------------------------------------

_ATOMS = (TermQuery, PhraseQuery, PrefixQuery, WildcardQuery, FuzzyQuery,
          RegexpQuery, TermRangeQuery)


def _norm_fields(fields: dict, default_field: str) -> dict:
    """A qf/pf key equal to ``default_field`` (or None) addresses the
    index's DEFAULT field, which the engine's atoms spell ``field=None``."""
    return {(None if f in (None, default_field) else f): b
            for f, b in fields.items()}


def _expand_dismax(q: Query, qf: dict[str, float], tie: float,
                   qs: int) -> Query:
    """Replace every unqualified atom with DisjunctionMaxQuery over the
    ``qf`` fields (the ExtendedSolrQueryParser field alias), folding the
    per-field boost into each copy.  Unqualified exact phrases pick up the
    ``qs`` query slop (setPhraseSlop on user phrases)."""
    if isinstance(q, BooleanQuery):
        return _replace(q, clauses=tuple(
            BooleanClause(c.occur, _expand_dismax(c.query, qf, tie, qs))
            for c in q.clauses))
    if isinstance(q, DisjunctionMaxQuery):
        return _replace(q, disjuncts=tuple(
            _expand_dismax(d, qf, tie, qs) for d in q.disjuncts))
    if isinstance(q, _ATOMS) and q.field is None:
        if isinstance(q, PhraseQuery) and q.slop == 0 and qs:
            q = _replace(q, slop=qs)
        copies = tuple(
            _replace(q, field=f, boost=q.boost * b) for f, b in qf.items())
        if len(copies) == 1:
            return copies[0]
        return DisjunctionMaxQuery(copies, tie)
    return q


def _apply_qs(q: Query, qs: int) -> Query:
    """Stamp the ``qs`` query slop onto unqualified zero-slop user phrases
    when no ``qf`` expansion runs (setPhraseSlop without field aliasing)."""
    if isinstance(q, BooleanQuery):
        return _replace(q, clauses=tuple(
            BooleanClause(c.occur, _apply_qs(c.query, qs))
            for c in q.clauses))
    if isinstance(q, DisjunctionMaxQuery):
        return _replace(q, disjuncts=tuple(
            _apply_qs(d, qs) for d in q.disjuncts))
    if isinstance(q, PhraseQuery) and q.field is None and q.slop == 0:
        return _replace(q, slop=qs)
    return q


# --------------------------------------------------------------------------
# phrase-field boosts (pf / pf2 / pf3)
# --------------------------------------------------------------------------

def _analyzed_words(words: list[str], analyzer: str) -> list[str]:
    from .functions.analysis import analyze_text

    out = []
    for w in words:
        out.extend(analyze_text(w, analyzer))
    return out


def _shingled_phrase_query(words: list[str], fields: dict[str, float],
                           shingle: int, tie: float, slop: int,
                           analyzer: str) -> Query | None:
    """addShingledPhraseQueries: consecutive ``shingle``-grams (0 = the
    whole clause list) as sloppy phrases dismaxed across ``fields``;
    several shingles OR together; <2-term phrases drop (minClauseSize)."""
    toks = _analyzed_words(words, analyzer)
    if not toks or (shingle and len(toks) < shingle):
        return None
    size = shingle or len(toks)
    if size < 2:
        return None
    phrases = []
    for i in range(len(toks) - size + 1):
        terms = tuple(toks[i:i + size])
        copies = tuple(PhraseQuery(terms, slop=slop, boost=b, field=f)
                       for f, b in fields.items())
        phrases.append(copies[0] if len(copies) == 1
                       else DisjunctionMaxQuery(copies, tie))
    if not phrases:
        return None
    if len(phrases) == 1:
        return phrases[0]
    return BooleanQuery(tuple(BooleanClause(SHOULD, p) for p in phrases))


# --------------------------------------------------------------------------
# the two dialects
# --------------------------------------------------------------------------

def _as_boolean(q: Query) -> BooleanQuery:
    if isinstance(q, BooleanQuery):
        return q
    return BooleanQuery((BooleanClause(SHOULD, q),))


def edismax_parse(
    q: str,
    qf: dict[str, float] | None = None,
    *,
    tie: float = 0.0,
    mm: str | None = None,
    pf: dict[str, float] | None = None,
    pf2: dict[str, float] | None = None,
    pf3: dict[str, float] | None = None,
    ps: int = 0,
    ps2: int | None = None,
    ps3: int | None = None,
    qs: int = 0,
    bq: tuple = (),
    bf: tuple = (),
    lowercase_operators: bool = False,
    analyzer: str = "standard",
    default_field: str = "content",
) -> Query:
    """Parse ``q`` with the edismax dialect and return an engine Query.

    ``qf`` maps field -> boost (None/empty = the default content field,
    no dismax wrapper; a key equal to ``default_field`` or None addresses
    the index's default field).  ``mm`` is a Solr min-should-match spec,
    gated by ``doMinMatched``.  ``pf``/``pf2``/``pf3`` map field -> boost
    for whole-phrase / bigram / trigram boosts with slops ``ps``/``ps2``/
    ``ps3`` (ps2/ps3 default to ps, the 4.x FieldParams fallback).  ``bq``
    entries are query strings or Query objects appended as SHOULD boosts;
    ``bf`` entries are additive boost functions (NUMERIC dv field names or
    valuesource nodes -> FunctionQuery SHOULD clauses)."""
    raw = split_clauses(q)
    try:
        main = parse(q, default_field)
    except Exception:
        # the edismax contract: a query the strict grammar rejects is
        # re-parsed with reserved characters escaped (escapeUserQuery) —
        # which is exactly the dismax dialect
        return dismax_parse(q, qf, tie=tie, mm=mm if mm is not None else "0",
                            pf=pf, ps=ps, qs=qs, bq=bq, bf=bf,
                            analyzer=analyzer, default_field=default_field)
    if qf:
        main = _expand_dismax(main, _norm_fields(qf, default_field), tie, qs)
    elif qs:
        main = _apply_qs(main, qs)

    if mm is not None and _do_min_matched(raw, lowercase_operators):
        main = _apply_mm(_as_boolean(main), mm)

    extra: list[BooleanClause] = []
    words = _normal_clauses(raw)
    for fields, grams, slop in ((pf, 0, ps),
                                (pf2, 2, ps if ps2 is None else ps2),
                                (pf3, 3, ps if ps3 is None else ps3)):
        if fields:
            pq = _shingled_phrase_query(words,
                                        _norm_fields(fields, default_field),
                                        grams, tie, slop, analyzer)
            if pq is not None:
                extra.append(BooleanClause(SHOULD, pq))
    for b in bq:
        extra.append(BooleanClause(SHOULD, parse(b) if isinstance(b, str)
                                   else b))
    for f in bf:
        extra.append(BooleanClause(SHOULD, FunctionQuery(f)))

    if extra:
        main = _as_boolean(main)
        main = _replace(main, clauses=main.clauses + tuple(extra))
    return main


_DISMAX_TOKEN = re.compile(
    r'\s*(?P<must>[+-]?)(?:"(?P<phrase>[^"]*)"|(?P<word>\S+))')


def dismax_parse(
    q: str,
    qf: dict[str, float] | None = None,
    *,
    tie: float = 0.0,
    mm: str = "100%",
    pf: dict[str, float] | None = None,
    ps: int = 0,
    qs: int = 0,
    bq: tuple = (),
    bf: tuple = (),
    analyzer: str = "standard",
    default_field: str = "content",
) -> Query:
    """The classic DisMax dialect (DisMaxQParser.java + SolrPluginUtils
    .partialEscape): ONLY ``+``/``-`` prefixes and quoted phrases are
    syntax — ``AND``/``OR``/parens/colons/wildcards are literal text that
    the analyzer sees — and ``mm`` always applies (default 100%)."""
    qf = _norm_fields(dict(qf or {}), default_field)
    clauses: list[BooleanClause] = []
    words: list[str] = []
    for m in _DISMAX_TOKEN.finditer(q):
        occur = {"+": MUST, "-": MUST_NOT}.get(m.group("must"), SHOULD)
        if m.group("phrase") is not None:
            toks = tuple(_analyzed_words([m.group("phrase")], analyzer))
            if not toks:
                continue
            atom: Query = (TermQuery(toks[0]) if len(toks) == 1
                           else PhraseQuery(toks, slop=qs))
        else:
            toks = tuple(_analyzed_words([m.group("word")], analyzer))
            if not toks:
                continue
            atom = (TermQuery(toks[0]) if len(toks) == 1
                    else PhraseQuery(toks, slop=qs))
            if occur != MUST_NOT:
                words.append(m.group("word"))
        if qf:
            atom = _expand_dismax(atom, qf, tie, 0)
        clauses.append(BooleanClause(occur, atom))

    main: Query = _apply_mm(BooleanQuery(tuple(clauses)), mm)

    extra: list[BooleanClause] = []
    if pf:
        pq = _shingled_phrase_query(words, _norm_fields(pf, default_field),
                                    0, tie, ps, analyzer)
        if pq is not None:
            extra.append(BooleanClause(SHOULD, pq))
    for b in bq:
        extra.append(BooleanClause(SHOULD, parse(b) if isinstance(b, str)
                                   else b))
    for f in bf:
        extra.append(BooleanClause(SHOULD, FunctionQuery(f)))
    if extra:
        main = _as_boolean(main)
        main = _replace(main, clauses=main.clauses + tuple(extra))
    return main
