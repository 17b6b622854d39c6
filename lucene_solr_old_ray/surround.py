"""Surround query language -> span/boolean query trees.

Re-expresses (NOT ports) ``lucene/queryparser/src/java/org/apache/lucene/
queryparser/surround/`` (the .jj grammar in ``parser/QueryParser.jj`` and
the ``query/`` node classes):

- infix ``OR`` / ``AND`` / ``NOT`` (case-insensitive) with increasing
  precedence, then infix distance ops ``nN`` (unordered, within n) and
  ``nW`` (ordered, within n; n defaults to 1, so ``a w b`` = adjacent in
  order) binding tightest; prefix forms ``AND(a,b,…)``, ``OR(…)``,
  ``3W(…)``, ``N(…)``;
- truncated terms ``wor*`` / ``w?rd`` expand over the index term
  dictionary (``query/SrndTruncQuery.java``), capped by
  ``max_basic_queries`` (``query/BasicQueryFactory.java`` — exceeding
  raises :class:`TooManyBasicQueries`);
- distance operands must be distance-compatible (terms, truncations, ORs
  of those, nested distance ops — ``query/DistanceQuery.java:71``'s
  DistanceSubQuery contract): AND/NOT/fielded subqueries inside a
  distance op raise :class:`SurroundParseError`, matching the reference's
  Test03Distance exception list;
- ``nW`` maps to ``SpanNearQuery(slop=n-1, in_order=True)``, ``nN`` to
  the unordered equivalent (``query/SrndQuery`` -> SpanNearQuery
  construction in ``query/DistanceRewriteQuery.java``).

The parse is index-independent; :func:`surround_query` binds it to an
index by expanding truncations with one pass over the leaf term
dictionaries (each leaf scans only the pattern's literal-prefix range).
"""

from __future__ import annotations

import re

from .queries import (
    MUST,
    MUST_NOT,
    SHOULD,
    BooleanClause,
    BooleanQuery,
    Query,
    SpanNearQuery,
    SpanOrQuery,
    SpanTermQuery,
    TermQuery,
    WildcardQuery,
)


class SurroundParseError(ValueError):
    """Invalid surround syntax or a non-distance subquery inside W/N."""


class TooManyBasicQueries(ValueError):
    """Truncation expansion exceeded max_basic_queries
    (BasicQueryFactory.checkMax)."""


_TOKEN = re.compile(r"\s*([(),:]|[A-Za-z0-9_'.*?]+)")
_DIST_OP = re.compile(r"^(\d*)([wnWN])$")
_BOOL_OPS = ("or", "and", "not")


def _tokenize(text: str) -> list[str]:
    out = []
    i = 0
    while i < len(text):
        m = _TOKEN.match(text, i)
        if m is None:
            if text[i:].strip():
                raise SurroundParseError(
                    f"unexpected character {text[i:].strip()[0]!r}")
            break
        out.append(m.group(1))
        i = m.end()
    return out


class _Parser:
    def __init__(self, tokens: list[str]):
        self.toks = tokens
        self.i = 0

    def peek(self) -> "str | None":
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self) -> str:
        t = self.peek()
        if t is None:
            raise SurroundParseError("unexpected end of query")
        self.i += 1
        return t

    # --- precedence ladder: or < and < not < N < W < primary -------------
    def parse(self):
        node = self.or_query()
        if self.peek() is not None:
            raise SurroundParseError(f"trailing input at {self.peek()!r}")
        return node

    def _infix(self, sub, is_op, make):
        node = sub()
        args = [node]
        op_tok = None
        while True:
            t = self.peek()
            if t is None or not is_op(t):
                break
            if op_tok is not None and t.lower() != op_tok:
                # a DIFFERENT op of the same level (e.g. `a w b 2w c`):
                # finalize the current chain and start a new one with it
                # as the left operand (left association)
                args = [make(op_tok, args)]
            op_tok = t.lower()
            self.next()
            args.append(sub())
        return make(op_tok, args) if len(args) > 1 else node

    def or_query(self):
        return self._infix(self.and_query, lambda t: t.lower() == "or",
                           lambda _op, a: ("or", a))

    def and_query(self):
        return self._infix(self.not_query, lambda t: t.lower() == "and",
                           lambda _op, a: ("and", a))

    def not_query(self):
        return self._infix(self.n_query, lambda t: t.lower() == "not",
                           lambda _op, a: ("nots", a))

    @staticmethod
    def _dist(tok: str, kind: str) -> "int | None":
        m = _DIST_OP.match(tok)
        if m and m.group(2).lower() == kind:
            return int(m.group(1) or "1")
        return None

    def n_query(self):
        return self._infix(
            self.w_query, lambda t: self._dist(t, "n") is not None,
            lambda op, a: ("dist", int(_DIST_OP.match(op).group(1) or "1"),
                           False, a))

    def w_query(self):
        return self._infix(
            self.primary, lambda t: self._dist(t, "w") is not None,
            lambda op, a: ("dist", int(_DIST_OP.match(op).group(1) or "1"),
                           True, a))

    def primary(self):
        t = self.next()
        if t == "(":
            node = self.or_query()
            if self.next() != ")":
                raise SurroundParseError("expected ')'")
            return node
        if t in (")", ","):
            raise SurroundParseError(f"unexpected {t!r}")
        low = t.lower()
        dn = _DIST_OP.match(t)
        if (low in _BOOL_OPS or dn) and self.peek() == "(":
            self.next()
            args = [self.or_query()]
            while self.peek() == ",":
                self.next()
                args.append(self.or_query())
            if self.next() != ")":
                raise SurroundParseError("expected ')'")
            if low == "or":
                return ("or", args)
            if low == "and":
                return ("and", args)
            if low == "not":
                return ("nots", args)
            return ("dist", int(dn.group(1) or "1"),
                    dn.group(2).lower() == "w", args)
        if low in _BOOL_OPS or dn:
            raise SurroundParseError(f"operator {t!r} needs operands")
        # field-prefixed term: f:term
        if self.peek() == ":":
            self.next()
            term = self.next()
            if term in ("(", ")", ","):
                raise SurroundParseError("expected a term after ':'")
            return ("term", t, term)
        return ("term", None, t)


def parse_surround(text: str):
    """-> index-independent AST (tuples)."""
    toks = _tokenize(text)
    if not toks:
        raise SurroundParseError("empty query")
    return _Parser(toks).parse()


_NO_MATCH = TermQuery("_surround_no_match")


def _expand_trunc(pattern: str, leaves, budget: list[int]) -> list[str]:
    from .stages.search import collect_mtq_terms

    out: set[str] = set()
    q = WildcardQuery(pattern)
    for leaf in leaves:
        out.update(collect_mtq_terms(leaf, q))
    budget[0] -= len(out)
    if budget[0] < 0:
        raise TooManyBasicQueries(
            f"truncation {pattern!r} exceeded max_basic_queries")
    return sorted(out)


def _to_span(node, leaves, budget) -> Query:
    """Distance-compatible conversion (the DistanceSubQuery contract)."""
    kind = node[0]
    if kind == "term":
        if node[1] is not None:
            raise SurroundParseError(
                "field-scoped subquery inside a distance operator")
        term = node[2]
        if "*" in term or "?" in term:
            terms = _expand_trunc(term, leaves, budget)
            if not terms:
                return _NO_MATCH
            return SpanOrQuery(tuple(SpanTermQuery(t) for t in terms))
        budget[0] -= 1
        if budget[0] < 0:
            raise TooManyBasicQueries("max_basic_queries exceeded")
        return SpanTermQuery(term)
    if kind == "or":
        subs = [_to_span(a, leaves, budget) for a in node[1]]
        if any(s is _NO_MATCH for s in subs):
            subs = [s for s in subs if s is not _NO_MATCH]
            if not subs:
                return _NO_MATCH
        return SpanOrQuery(tuple(subs))
    if kind == "dist":
        subs = [_to_span(a, leaves, budget) for a in node[3]]
        if any(s is _NO_MATCH for s in subs):
            return _NO_MATCH
        return SpanNearQuery(tuple(subs), slop=node[1] - 1,
                             in_order=node[2])
    raise SurroundParseError(
        f"{'AND' if kind == 'and' else 'NOT'} inside a distance operator")


def _to_query(node, leaves, budget) -> Query:
    kind = node[0]
    if kind == "term":
        field, term = node[1], node[2]
        if "*" in term or "?" in term:
            terms = _expand_trunc(term, leaves, budget)
            if not terms:
                return _NO_MATCH
            return BooleanQuery(tuple(
                BooleanClause(SHOULD, TermQuery(t, field=field))
                for t in terms))
        budget[0] -= 1
        if budget[0] < 0:
            raise TooManyBasicQueries("max_basic_queries exceeded")
        return TermQuery(term, field=field)
    if kind == "or":
        return BooleanQuery(tuple(
            BooleanClause(SHOULD, _to_query(a, leaves, budget))
            for a in node[1]))
    if kind == "and":
        return BooleanQuery(tuple(
            BooleanClause(MUST, _to_query(a, leaves, budget))
            for a in node[1]))
    if kind == "nots":
        first, *rest = node[1]
        return BooleanQuery(
            (BooleanClause(MUST, _to_query(first, leaves, budget)),)
            + tuple(BooleanClause(MUST_NOT, _to_query(r, leaves, budget))
                    for r in rest))
    if kind == "dist":
        return _to_span(node, leaves, budget)
    raise SurroundParseError(f"unknown node {kind!r}")


def surround_query(index_dir: str, text: str,
                   max_basic_queries: int = 1024) -> Query:
    """Parse ``text`` and bind it to ``index_dir`` (truncations expand over
    the leaf term dictionaries) -> an executable Query tree."""
    from .pipelines.search import open_leaf
    from .state import manifest as mf

    ast = parse_surround(text)
    leaves = [open_leaf(index_dir, row) for row in
              mf.leaf_rows(index_dir, mf.read_index_manifest(index_dir))]
    budget = [max_basic_queries]
    return _to_query(ast, leaves, budget)
