"""The queries/function ValueSource library — per-doc value streams for
FunctionQuery / CustomScoreQuery scoring.

Re-expresses (NOT ports) ``lucene/queries/src/java/org/apache/lucene/
queries/function/valuesource/``: each node is a small frozen dataclass; a
tree evaluates per LEAF to a float32 numpy array over the requested docids
(the FunctionValues.floatVal stream), with every arithmetic step mirroring
the Java float evaluation order:

- ``ConstValueSource.java:29`` / ``DoubleConstValueSource.java:28`` — const
- ``FloatFieldSource.java:39`` (+Int/Long/Double) — NUMERIC doc-values,
  missing -> 0.0f (the FieldCache default)
- ``NormValueSource.java:39`` — byte315 norm decode (TFIDF decodeNormValue)
- ``DocFreqValueSource.java:113`` / ``TotalTermFreqValueSource.java:36`` /
  ``SumTotalTermFreqValueSource.java:35`` / ``MaxDocValueSource.java:28`` /
  ``NumDocsValueSource.java:30`` — collection/term statistics constants
- ``IDFValueSource.java:39`` — classic idf(df, maxDoc) (requires a TFIDF
  similarity in the reference; same here)
- ``TFValueSource.java:40`` — sim.tf(freq) = sqrt(freq), 0 when absent;
  ``TermFreqValueSource.java:40`` — the raw freq
- ``SumFloatFunction.java:30`` (running float32 sum in operand order),
  ``ProductFloatFunction.java:29``, ``DivFloatFunction.java:29``,
  ``PowFloatFunction.java:29`` ((float) of the double pow),
  ``MaxFloatFunction.java:29`` / ``MinFloatFunction.java:29``,
  ``LinearFloatFunction.java:35`` (slope*x+intercept),
  ``ReciprocalFloatFunction.java:40`` (a/(m*x+b)),
  ``RangeMapFloatFunction.java:37`` (in-range -> target, else default or x),
  ``IfFunction.java:38`` (boolVal ? trueVal : falseVal; a numeric source is
  true when != 0, ``FunctionValues.java:121``)
- ``QueryValueSource.java:38`` — the wrapped query's score where it
  matches, ``default`` elsewhere
- ``ScaleFloatFunction.java:39`` and ``OrdFieldSource.java:43`` /
  ``ReverseOrdFieldSource.java:43`` need TOP-LEVEL (cross-segment) state —
  the global min/max resp. the composite-reader ordinal map; they are
  resolved by a stats pre-pass in pipelines/search before leaves execute
  (the engine's analogue of createWeight-time scaleInfo / the top-level
  FieldCache view).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

F = np.float32

if TYPE_CHECKING:  # annotation names only
    from ..queries import Query, ValueSource


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class FloatField:
    """Float/Int/Long/DoubleFieldSource — one NUMERIC dv sidecar read; the
    engine's numeric lane is int64/float64, streamed as float32 here."""

    field: str


@dataclass(frozen=True)
class Norm:
    """norm(field): byte315ToFloat(normByte) — the TFIDF decode."""

    field: str | None = None


@dataclass(frozen=True)
class DocFreq:
    term: str
    field: str | None = None


@dataclass(frozen=True)
class TotalTermFreq:
    term: str
    field: str | None = None


@dataclass(frozen=True)
class SumTotalTermFreq:
    field: str | None = None


@dataclass(frozen=True)
class MaxDoc:
    pass


@dataclass(frozen=True)
class NumDocs:
    pass


@dataclass(frozen=True)
class IDF:
    term: str
    field: str | None = None


@dataclass(frozen=True)
class TF:
    """sim.tf(freq) = (float) sqrt(freq); 0 where the doc lacks the term."""

    term: str
    field: str | None = None


@dataclass(frozen=True)
class TermFreq:
    term: str
    field: str | None = None


@dataclass(frozen=True)
class Sum:
    operands: tuple[ValueSource, ...]


@dataclass(frozen=True)
class Product:
    operands: tuple[ValueSource, ...]


@dataclass(frozen=True)
class Div:
    a: ValueSource
    b: ValueSource


@dataclass(frozen=True)
class Pow:
    a: ValueSource
    b: ValueSource


@dataclass(frozen=True)
class Max:
    operands: tuple[ValueSource, ...]


@dataclass(frozen=True)
class Min:
    operands: tuple[ValueSource, ...]


@dataclass(frozen=True)
class Linear:
    source: ValueSource
    slope: float
    intercept: float


@dataclass(frozen=True)
class Reciprocal:
    source: ValueSource
    m: float
    a: float
    b: float


@dataclass(frozen=True)
class RangeMap:
    source: ValueSource
    lo: float
    hi: float
    target: float
    default: float | None = None


@dataclass(frozen=True)
class If:
    cond: ValueSource
    true_vs: ValueSource
    false_vs: ValueSource


@dataclass(frozen=True)
class QueryScore:
    """QueryValueSource: score of ``query`` where it matches, else
    ``default``."""

    query: Query
    default: float = 0.0


@dataclass(frozen=True)
class JoinDocFreq:
    """JoinDocFreqValueSource (``JoinDocFreqValueSource.java:40-75``): read
    the doc's value from ``field`` (stored/doc-values string) and return
    that term's docFreq in ``qfield``'s term dictionary (0 when absent or
    the doc has no value)."""

    field: str
    qfield: str | None = None


@dataclass(frozen=True)
class Ord:
    """OrdFieldSource — the doc value's ordinal in the TOP-LEVEL (composite
    reader) sorted term index, -1-based semantics of the FieldCache
    (missing -> 0 in 4.x getTermsIndex: ord -1 maps to 0 via +1? The 4.x
    intVal returns the raw ord; missing docs read ord -1). ``_global``
    (leaf_ord -> int64 array mapping leaf ords to global ords, plus the
    missing ord) is resolved by the search pre-pass."""

    field: str
    _global: tuple | None = None  # filled by pipelines.search.plan_queries


@dataclass(frozen=True)
class ReverseOrd:
    """ReverseOrdFieldSource: numOrd - ord (``ReverseOrdFieldSource.java:
    68``)."""

    field: str
    _global: tuple | None = None


@dataclass(frozen=True)
class Scale:
    """ScaleFloatFunction: (x - minSource) * (max - min) / (maxSource -
    minSource) + min with TOP-LEVEL minSource/maxSource (``scaleInfo`` walks
    every leaf at weight-creation time). ``_bounds`` = (minSource,
    maxSource) resolved by the search pre-pass."""

    source: ValueSource
    min: float
    max: float
    _bounds: tuple | None = None


def needs_toplevel(vs) -> bool:
    """True when the tree contains Ord/ReverseOrd/Scale nodes whose
    top-level state is not yet resolved."""
    if isinstance(vs, (Ord, ReverseOrd)):
        return vs._global is None
    if isinstance(vs, Scale):
        return vs._bounds is None or needs_toplevel(vs.source)
    for child in _children(vs):
        if needs_toplevel(child):
            return True
    return False


# the value-source-valued fields of each function node (a tuple field holds
# several operands)
_CHILD_FIELDS: dict[type, tuple[str, ...]] = {
    Sum: ("operands",), Product: ("operands",),
    Max: ("operands",), Min: ("operands",),
    Div: ("a", "b"), Pow: ("a", "b"),
    Linear: ("source",), Reciprocal: ("source",), RangeMap: ("source",),
    Scale: ("source",),
    If: ("cond", "true_vs", "false_vs"),
}


def _children(vs) -> list:
    out = []
    for f in _CHILD_FIELDS.get(type(vs), ()):
        v = getattr(vs, f)
        out.extend(v if isinstance(v, tuple) else (v,))
    return out


def map_children(vs, fn):
    """``vs`` with ``fn`` applied to each child value source."""
    changes = {}
    for f in _CHILD_FIELDS.get(type(vs), ()):
        v = getattr(vs, f)
        changes[f] = tuple(map(fn, v)) if isinstance(v, tuple) else fn(v)
    return replace(vs, **changes)


# the field of each type that holds a query: the query planner reaches it
# through ``queries.subqueries`` / ``map_subqueries``
QUERY_FIELD: dict[type, str] = {QueryScore: "query"}


def queries_of(vs) -> list:
    """Every query held anywhere in the value-source tree ``vs``."""
    f = QUERY_FIELD.get(type(vs))
    out = [getattr(vs, f)] if f else []
    for child in _children(vs):
        out += queries_of(child)
    return out


def map_queries(vs, fn):
    """``vs`` with ``fn`` applied to every query held in its tree."""
    f = QUERY_FIELD.get(type(vs))
    vs = map_children(vs, lambda c: map_queries(c, fn))
    return replace(vs, **{f: fn(getattr(vs, f))}) if f else vs


def collect_vs_terms(vs) -> set:
    """(field, term) stats the tree's nodes need (None field = default
    field); ``queries.collect_stats_terms`` adds those of the queries it
    holds."""
    out = set()
    if isinstance(vs, (DocFreq, TotalTermFreq, IDF, TF, TermFreq)):
        out.add((vs.field, vs.term))
    for child in _children(vs):
        out |= collect_vs_terms(child)
    return out


def evaluate(vs, leaf, ctx, docids: np.ndarray) -> np.ndarray:
    """float32 FunctionValues stream of ``vs`` over ``docids`` (leaf-local
    ascending)."""
    n = len(docids)
    if isinstance(vs, Const):
        return np.full(n, F(vs.value), dtype=F)
    if isinstance(vs, FloatField):
        return leaf.dv_numeric_f32(vs.field)[docids]
    if isinstance(vs, Norm):
        from .smallfloat import byte315_to_float

        lf = leaf.sibling(vs.field)
        return byte315_to_float(lf.norms[docids])
    if isinstance(vs, DocFreq):
        df = ctx.stats_for(vs.field, vs.term)[0]
        return np.full(n, F(df), dtype=F)
    if isinstance(vs, TotalTermFreq):
        ttf = ctx.stats_for(vs.field, vs.term)[1]
        return np.full(n, F(ttf), dtype=F)
    if isinstance(vs, SumTotalTermFreq):
        coll = (ctx.coll if vs.field is None
                else (ctx.field_colls or {}).get(vs.field, ctx.coll))
        return np.full(n, F(coll.sum_total_term_freq), dtype=F)
    if isinstance(vs, MaxDoc):
        return np.full(n, F(ctx.coll.max_doc), dtype=F)
    if isinstance(vs, NumDocs):
        live = (int(leaf.live.sum()) if leaf.live is not None
                else leaf.num_docs)
        # numDocs of the top-level reader: maxDoc minus this leaf's deletes
        # only when single-leaf; the pre-delete stats keep maxDoc global
        return np.full(n, F(ctx.coll.max_doc - (leaf.num_docs - live)),
                       dtype=F)
    if isinstance(vs, IDF):
        from .classic import idf_classic

        df = ctx.stats_for(vs.field, vs.term)[0]
        return np.full(n, idf_classic(df, ctx.coll.max_doc), dtype=F)
    if isinstance(vs, (TF, TermFreq)):
        lf = leaf.sibling(vs.field)
        d, tfs = lf.postings(vs.term)
        out = np.zeros(n, dtype=F)
        if len(d):
            pos = np.searchsorted(d, docids)
            ok = pos < len(d)
            ok[ok] = d[pos[ok]] == docids[ok]
            out[ok] = tfs[pos[ok]].astype(F)
        if isinstance(vs, TF):
            out = np.sqrt(out, dtype=F)
        return out
    if isinstance(vs, Sum):
        acc = np.zeros(n, dtype=F)
        for op in vs.operands:
            acc = np.add(acc, evaluate(op, leaf, ctx, docids), dtype=F)
        return acc
    if isinstance(vs, Product):
        acc = np.ones(n, dtype=F)
        for op in vs.operands:
            acc = np.multiply(acc, evaluate(op, leaf, ctx, docids), dtype=F)
        return acc
    if isinstance(vs, Div):
        return np.divide(evaluate(vs.a, leaf, ctx, docids),
                         evaluate(vs.b, leaf, ctx, docids), dtype=F)
    if isinstance(vs, Pow):
        a = evaluate(vs.a, leaf, ctx, docids).astype(np.float64)
        b = evaluate(vs.b, leaf, ctx, docids).astype(np.float64)
        return np.power(a, b).astype(F)
    if isinstance(vs, Max):
        acc = evaluate(vs.operands[0], leaf, ctx, docids)
        for op in vs.operands[1:]:
            acc = np.maximum(acc, evaluate(op, leaf, ctx, docids))
        return acc.astype(F)
    if isinstance(vs, Min):
        acc = evaluate(vs.operands[0], leaf, ctx, docids)
        for op in vs.operands[1:]:
            acc = np.minimum(acc, evaluate(op, leaf, ctx, docids))
        return acc.astype(F)
    if isinstance(vs, Linear):
        x = evaluate(vs.source, leaf, ctx, docids)
        return np.add(np.multiply(F(vs.slope), x, dtype=F), F(vs.intercept),
                      dtype=F)
    if isinstance(vs, Reciprocal):
        x = evaluate(vs.source, leaf, ctx, docids)
        den = np.add(np.multiply(F(vs.m), x, dtype=F), F(vs.b), dtype=F)
        return np.divide(F(vs.a), den, dtype=F)
    if isinstance(vs, RangeMap):
        x = evaluate(vs.source, leaf, ctx, docids)
        in_range = (x >= F(vs.lo)) & (x <= F(vs.hi))
        default = x if vs.default is None else np.full(n, F(vs.default),
                                                       dtype=F)
        return np.where(in_range, F(vs.target), default).astype(F)
    if isinstance(vs, If):
        c = evaluate(vs.cond, leaf, ctx, docids)
        t = evaluate(vs.true_vs, leaf, ctx, docids)
        f_ = evaluate(vs.false_vs, leaf, ctx, docids)
        return np.where(c != F(0.0), t, f_).astype(F)
    if isinstance(vs, QueryScore):
        from ..stages.search import execute

        d, s = execute(vs.query, leaf, ctx, 1.0)
        out = np.full(n, F(vs.default), dtype=F)
        if len(d):
            pos = np.searchsorted(d, docids)
            ok = pos < len(d)
            ok[ok] = d[pos[ok]] == docids[ok]
            out[ok] = s[pos[ok]]
        return out
    if isinstance(vs, JoinDocFreq):
        ords, values = leaf.dv_sorted(vs.field)
        lf = leaf.sibling(vs.qfield)
        # df per DISTINCT value once (the termsEnum.seekExact per doc,
        # hoisted to the segment dict), then gathered per doc
        dfs = np.array([len(lf.postings(str(v))[0]) for v in values],
                       dtype=np.int64)
        o = np.asarray(ords)[docids]
        out = np.zeros(n, dtype=F)
        has = o >= 0
        out[has] = dfs[o[has]].astype(F)
        return out
    if isinstance(vs, (Ord, ReverseOrd)):
        if vs._global is None:
            raise ValueError(
                "Ord/ReverseOrd need the top-level ordinal map — plan the "
                "query with pipelines.search.plan_queries")
        leaf_to_global, num_ord = vs._global
        ords = np.asarray(leaf.dv_sorted(vs.field)[0])[docids]
        mapping = leaf_to_global[leaf.ord]
        g = np.where(ords >= 0, mapping[np.maximum(ords, 0)], -1)
        if isinstance(vs, ReverseOrd):
            return (num_ord - g).astype(F)
        return g.astype(F)
    if isinstance(vs, Scale):
        if vs._bounds is None:
            raise ValueError(
                "Scale needs top-level min/max — plan the query with "
                "pipelines.search.plan_queries")
        lo, hi = vs._bounds
        x = evaluate(vs.source, leaf, ctx, docids)
        span = F(hi) - F(lo)
        if float(span) == 0.0:
            span = F(1.0)  # scaleInfo guard: all values equal
        factor = np.divide(F(F(vs.max) - F(vs.min)), span, dtype=F)
        return np.add(np.multiply(np.subtract(x, F(lo), dtype=F), factor,
                                  dtype=F), F(vs.min), dtype=F)
    raise TypeError(f"not a value source: {type(vs).__name__}")
