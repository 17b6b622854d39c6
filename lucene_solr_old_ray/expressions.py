"""Expressions module: compiled arithmetic over scores and doc-values.

Re-expresses (NOT ports) ``lucene/expressions`` (``js/JavascriptCompiler
.java:50-300`` + ``SimpleBindings.java`` + ``ExpressionSortField.java``):
an arithmetic expression over variables compiles once and evaluates as a
double-valued function of each hit; variables bind to ``_score`` or to
NUMERIC doc-values fields (SimpleBindings' SortField/ValueSource split).
The reference compiles to JVM bytecode via an ANTLR grammar; this
re-expression compiles to a numpy-vectorized evaluator (one array op per
AST node per leaf — no per-document Python).

Supported syntax (the grammar's arithmetic core): ``+ - * / %``, unary
minus, parentheses, numeric literals, variables, and the default function
library: abs, ceil, floor, exp, ln, log10, logn(base, x), sqrt,
pow(x, y), min, max, sin, cos, tan, asin, acos, atan, atan2, sinh, cosh,
tanh, haversin(lat1, lon1, lat2, lon2) (great-circle KM, the
ExpressionMath.haversin signature).

:func:`expression_sort` ranks a query's hits by an expression — the
ExpressionSortField path: per-leaf vectorized evaluation over (score,
doc-values) arrays, per-leaf top-k partials, exact driver reduce.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa

_EARTH_KM = 6371.0087714  # ExpressionMath uses the mean earth radius


def _haversin(lat1, lon1, lat2, lon2):
    la1, lo1 = np.radians(lat1), np.radians(lon1)
    la2, lo2 = np.radians(lat2), np.radians(lon2)
    h = (np.sin((la2 - la1) / 2.0) ** 2
         + np.cos(la1) * np.cos(la2) * np.sin((lo2 - lo1) / 2.0) ** 2)
    return 2.0 * _EARTH_KM * np.arcsin(np.sqrt(h))


_FUNCTIONS = {
    "abs": (1, np.abs), "ceil": (1, np.ceil), "floor": (1, np.floor),
    "exp": (1, np.exp), "ln": (1, np.log), "log10": (1, np.log10),
    "logn": (2, lambda b, x: np.log(x) / np.log(b)),
    "sqrt": (1, np.sqrt), "pow": (2, np.power),
    "min": (2, np.minimum), "max": (2, np.maximum),
    "sin": (1, np.sin), "cos": (1, np.cos), "tan": (1, np.tan),
    "asin": (1, np.arcsin), "acos": (1, np.arccos), "atan": (1, np.arctan),
    "atan2": (2, np.arctan2),
    "sinh": (1, np.sinh), "cosh": (1, np.cosh), "tanh": (1, np.tanh),
    "haversin": (4, _haversin),
}

_EXPR_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*|\.\d+|\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_.]*)"
    r"|(?P<op>[-+*/%(),]))")


class ExpressionError(ValueError):
    pass


class Expression:
    """A compiled expression: ``variables`` is the ordered set of free
    variables; ``evaluate(arrays)`` maps {var: float64 ndarray} -> float64
    ndarray (broadcasting scalars)."""

    def __init__(self, source: str, ast, variables: "list[str]"):
        self.source = source
        self._ast = ast
        self.variables = variables

    def evaluate(self, arrays: "dict[str, np.ndarray]") -> np.ndarray:
        missing = [v for v in self.variables if v not in arrays]
        if missing:
            raise ExpressionError(f"unbound variables: {missing}")

        def ev(node):
            kind = node[0]
            if kind == "num":
                return node[1]
            if kind == "var":
                return np.asarray(arrays[node[1]], dtype=np.float64)
            if kind == "neg":
                return -ev(node[1])
            if kind == "bin":
                a, b = ev(node[2]), ev(node[3])
                op = node[1]
                if op == "+":
                    return a + b
                if op == "-":
                    return a - b
                if op == "*":
                    return a * b
                if op == "%":
                    return np.mod(a, b)
                with np.errstate(divide="ignore", invalid="ignore"):
                    return a / b
            if kind == "call":
                return _FUNCTIONS[node[1]][1](*(ev(a) for a in node[2]))
            raise AssertionError(kind)

        return np.asarray(ev(self._ast), dtype=np.float64)


def compile_expression(source: str) -> Expression:
    """Compile ``source`` once (JavascriptCompiler.compile)."""
    tokens: list[str] = []
    i = 0
    while i < len(source):
        m = _EXPR_TOKEN.match(source, i)
        if m is None:
            if source[i:].strip():
                raise ExpressionError(
                    f"unexpected character {source[i:].strip()[0]!r}")
            break
        tokens.append(m.group(m.lastgroup))
        i = m.end()
    pos = [0]
    variables: list[str] = []

    def peek():
        return tokens[pos[0]] if pos[0] < len(tokens) else None

    def eat():
        t = peek()
        if t is None:
            raise ExpressionError("unexpected end of expression")
        pos[0] += 1
        return t

    def atom():
        t = eat()
        if t == "-":
            return ("neg", atom())
        if t == "+":
            return atom()
        if t == "(":
            node = add()
            if eat() != ")":
                raise ExpressionError("expected ')'")
            return node
        if re.fullmatch(r"\d+\.\d*|\.\d+|\d+", t):
            return ("num", float(t))
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_.]*", t):
            raise ExpressionError(f"unexpected token {t!r}")
        if peek() == "(":
            eat()
            fn = _FUNCTIONS.get(t)
            if fn is None:
                raise ExpressionError(f"unknown function {t!r}")
            args = [add()]
            while peek() == ",":
                eat()
                args.append(add())
            if eat() != ")":
                raise ExpressionError("expected ')'")
            if len(args) != fn[0]:
                raise ExpressionError(
                    f"{t} takes {fn[0]} argument(s), got {len(args)}")
            return ("call", t, args)
        if t not in variables:
            variables.append(t)
        return ("var", t)

    def mul():
        node = atom()
        while peek() in ("*", "/", "%"):
            node = ("bin", eat(), node, atom())
        return node

    def add():
        node = mul()
        while peek() in ("+", "-"):
            node = ("bin", eat(), node, mul())
        return node

    ast = add()
    if peek() is not None:
        raise ExpressionError(f"trailing input at {peek()!r}")
    return Expression(source, ast, variables)


def expression_sort(
    index_dir: str, query, expr: "str | Expression", k: int = 10,
    *, bindings: "dict[str, str] | None" = None,
) -> pa.Table:
    """Top-k hits by expression value -> (rank, docid, value).
    ``bindings`` maps expression variables to ``"_score"`` or a NUMERIC
    doc-values field (SimpleBindings); unmapped variables bind to the
    same-named field, and ``_score`` always binds to the BM25 score."""
    import ray
    import ray.data

    from .pipelines.search import leaf_dataset, open_leaf, plan_queries
    from .state import manifest as mf

    e = compile_expression(expr) if isinstance(expr, str) else expr
    binds = dict(bindings or {})
    manifest = mf.read_index_manifest(index_dir)
    [(_, query)], ctx = plan_queries(index_dir, manifest, [query])
    bcast = ray.put((query, ctx, e, binds, k))

    def leaf_topk(batch: pd.DataFrame) -> pd.DataFrame:
        from .stages.search import execute

        q, ctx_l, e_l, binds_l, k_l = ray.get(bcast)
        parts = []
        for row in batch.to_dict("records"):
            leaf = open_leaf(index_dir, row)
            docids, scores = execute(q, leaf, ctx_l)
            if len(docids) == 0:
                continue
            arrays: dict[str, np.ndarray] = {}
            for v in e_l.variables:
                src = binds_l.get(v, v)
                if src == "_score":
                    arrays[v] = scores.astype(np.float64)
                else:
                    vals = pd.to_numeric(pd.Series(
                        leaf.doc_values(src, docids)), errors="coerce")
                    arrays[v] = vals.to_numpy(dtype=np.float64)
            vals = e_l.evaluate(arrays)
            o = np.lexsort((docids, -vals))[:k_l]
            parts.append(pd.DataFrame({
                "docid": docids[o] + leaf.doc_base, "value": vals[o]}))
        if not parts:
            return pd.DataFrame({"docid": pd.Series([], dtype="int64"),
                                 "value": pd.Series([], dtype="float64")})
        return pd.concat(parts, ignore_index=True)

    ds = leaf_dataset(index_dir, manifest)
    partials = ds.map_batches(leaf_topk, batch_format="pandas",
                              batch_size=4).to_pandas()
    if len(partials) == 0 or "docid" not in partials.columns:
        return pa.table({"rank": pa.array([], pa.int64()),
                         "docid": pa.array([], pa.int64()),
                         "value": pa.array([], pa.float64())})
    partials["neg"] = -partials["value"].to_numpy()
    sel = partials.sort_values(["neg", "docid"],
                               kind="mergesort").head(k).reset_index(drop=True)
    return pa.table({
        "rank": pa.array(np.arange(1, len(sel) + 1, dtype=np.int64)),
        "docid": pa.array(sel["docid"].astype(np.int64)),
        "value": pa.array(sel["value"].astype(np.float64)),
    })
