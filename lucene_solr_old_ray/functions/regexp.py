"""Lucene RegExp syntax: parser + exact matcher.

Re-expresses (NOT ports) ``util/automaton/RegExp.java`` (the dk.brics
grammar, RegExp.ALL flags): union ``|``, intersection ``&``, complement
``~``, repetition ``? * + {n} {n,} {n,m}``, character classes ``[...]`` /
``[^...]``, any-char ``.``, empty-language ``#``, any-string ``@``, quoted
strings ``"..."``, groups ``( )``, numeric intervals ``<n-m>``
(``BasicAutomata.makeInterval`` with digits=0: decimal value in [n, m],
arbitrary leading zeros), and ``\\c`` escapes. Named automata
(``<identifier>``) are not supported and raise.

Instead of compiling to a byte automaton (the 10^9-vocab scale path, noted
in ``stages/search.py``), matching evaluates the AST over each candidate
term with a memoized match-set (all end positions a node can reach from a
start position) — exact for complement/intersection, which no Python-`re`
translation can express compositionally. Terms are short (<= 255 chars) and
the candidate range is literal-prefix narrowed, so this is vocabulary-level
work, never per-posting.
"""

from __future__ import annotations

from functools import lru_cache


class _P:
    """Recursive-descent parser over the RegExp.java grammar."""

    def __init__(self, s: str):
        self.s = s
        self.i = 0

    def peek(self) -> str:
        return self.s[self.i] if self.i < len(self.s) else ""

    def eat(self, c: str) -> None:
        if self.peek() != c:
            raise ValueError(f"expected {c!r} at {self.i} in {self.s!r}")
        self.i += 1

    def parse(self):
        node = self.union()
        if self.i != len(self.s):
            raise ValueError(f"trailing input at {self.i} in {self.s!r}")
        return node

    def union(self):
        parts = [self.inter()]
        while self.peek() == "|":
            self.i += 1
            parts.append(self.inter())
        return parts[0] if len(parts) == 1 else ("union", tuple(parts))

    def inter(self):
        parts = [self.concat()]
        while self.peek() == "&":
            self.i += 1
            parts.append(self.concat())
        return parts[0] if len(parts) == 1 else ("inter", tuple(parts))

    def concat(self):
        parts = []
        while self.peek() and self.peek() not in "|&)":
            parts.append(self.repeat())
        if not parts:
            return ("str", "")  # empty concatenation = empty string
        return parts[0] if len(parts) == 1 else ("concat", tuple(parts))

    def repeat(self):
        node = self.complement()
        while True:
            c = self.peek()
            if c == "?":
                self.i += 1
                node = ("rep", node, 0, 1)
            elif c == "*":
                self.i += 1
                node = ("rep", node, 0, None)
            elif c == "+":
                self.i += 1
                node = ("rep", node, 1, None)
            elif c == "{":
                self.i += 1
                lo = self._int()
                hi = lo
                if self.peek() == ",":
                    self.i += 1
                    hi = self._int() if self.peek() != "}" else None
                self.eat("}")
                node = ("rep", node, lo, hi)
            else:
                return node

    def _int(self) -> int:
        j = self.i
        while self.peek().isdigit():
            self.i += 1
        if j == self.i:
            raise ValueError(f"expected number at {j} in {self.s!r}")
        return int(self.s[j: self.i])

    def complement(self):
        if self.peek() == "~":
            self.i += 1
            return ("not", self.complement())
        return self.charclass()

    def charclass(self):
        if self.peek() == "[":
            self.i += 1
            neg = False
            if self.peek() == "^":
                neg = True
                self.i += 1
            ranges = []
            while self.peek() != "]":
                if not self.peek():
                    raise ValueError(f"unterminated class in {self.s!r}")
                a = self._charesc()
                if self.peek() == "-" and self.s[self.i + 1: self.i + 2] != "]":
                    self.i += 1
                    b = self._charesc()
                    ranges.append((a, b))
                else:
                    ranges.append((a, a))
            self.eat("]")
            return ("class", tuple(ranges), neg)
        return self.simple()

    def _charesc(self) -> str:
        c = self.peek()
        if c == "\\":
            if self.i + 1 >= len(self.s):
                raise ValueError(f"trailing backslash in {self.s!r}")
            self.i += 2
            return self.s[self.i - 1]
        self.i += 1
        return c

    def simple(self):
        c = self.peek()
        if c == ".":
            self.i += 1
            return ("any",)
        if c == "#":
            self.i += 1
            return ("nothing",)
        if c == "@":
            self.i += 1
            return ("anystr",)
        if c == '"':
            self.i += 1
            j = self.s.find('"', self.i)
            if j < 0:
                raise ValueError(f"unterminated string in {self.s!r}")
            t = self.s[self.i: j]
            self.i = j + 1
            return ("str", t)
        if c == "(":
            self.i += 1
            if self.peek() == ")":
                self.i += 1
                return ("str", "")
            node = self.union()
            self.eat(")")
            return node
        if c == "<":
            self.i += 1
            j = self.s.find(">", self.i)
            if j < 0:
                raise ValueError(f"unterminated <...> in {self.s!r}")
            body = self.s[self.i: j]
            self.i = j + 1
            if "-" in body:
                lo_s, hi_s = body.split("-", 1)
                if lo_s.isdigit() and hi_s.isdigit():
                    return ("interval", int(lo_s), int(hi_s))
            raise ValueError(
                f"named automata <{body}> unsupported (no AutomatonProvider)")
        if c == "\\":
            if self.i + 1 >= len(self.s):
                raise ValueError(f"trailing backslash in {self.s!r}")
            self.i += 2
            return ("char", self.s[self.i - 1])
        if not c:
            raise ValueError(f"unexpected end of {self.s!r}")
        self.i += 1
        return ("char", c)


class LuceneRegexp:
    """Compiled Lucene-syntax regexp; ``fullmatch(term)`` is exact."""

    def __init__(self, pattern: str):
        self.pattern = pattern
        self.ast = _P(pattern).parse()

    def fullmatch(self, s: str) -> bool:
        memo: dict[tuple[int, int], frozenset[int]] = {}
        return len(s) in _matchset(self.ast, s, 0, memo)


@lru_cache(maxsize=256)
def compile_regexp(pattern: str) -> LuceneRegexp:
    return LuceneRegexp(pattern)


def _matchset(node, s: str, i: int, memo) -> frozenset[int]:
    """End positions j (i <= j <= len(s)) such that node matches s[i:j]."""
    key = (id(node), i)
    hit = memo.get(key)
    if hit is not None:
        return hit
    memo[key] = frozenset()  # cycle guard (rep of empty-matching nodes)
    kind = node[0]
    n = len(s)
    if kind == "char":
        out = frozenset((i + 1,)) if i < n and s[i] == node[1] else frozenset()
    elif kind == "any":
        out = frozenset((i + 1,)) if i < n else frozenset()
    elif kind == "class":
        ok = False
        if i < n:
            c = s[i]
            inside = any(a <= c <= b for a, b in node[1])
            ok = inside != node[2]
        out = frozenset((i + 1,)) if ok else frozenset()
    elif kind == "str":
        t = node[1]
        out = (frozenset((i + len(t),))
               if s.startswith(t, i) else frozenset())
    elif kind == "nothing":
        out = frozenset()
    elif kind == "anystr":
        out = frozenset(range(i, n + 1))
    elif kind == "union":
        acc: set[int] = set()
        for p in node[1]:
            acc |= _matchset(p, s, i, memo)
        out = frozenset(acc)
    elif kind == "inter":
        out = _matchset(node[1][0], s, i, memo)
        for p in node[1][1:]:
            out = out & _matchset(p, s, i, memo)
    elif kind == "not":
        out = frozenset(range(i, n + 1)) - _matchset(node[1], s, i, memo)
    elif kind == "concat":
        cur = {i}
        for p in node[1]:
            nxt: set[int] = set()
            for j in sorted(cur):
                nxt |= _matchset(p, s, j, memo)
            cur = nxt
            if not cur:
                break
        out = frozenset(cur)
    elif kind == "rep":
        _, x, lo, hi = node
        cur = {i}
        for _k in range(lo):
            nxt = set()
            for j in sorted(cur):
                nxt |= _matchset(x, s, j, memo)
            cur = nxt
            if not cur:
                break
        acc = set(cur)
        k = lo
        while cur and (hi is None or k < hi):
            nxt = set()
            for j in sorted(cur):
                nxt |= _matchset(x, s, j, memo)
            nxt -= acc  # fixpoint: only genuinely new end positions extend
            if not nxt:
                break
            acc |= nxt
            cur = nxt
            k += 1
        out = frozenset(acc)
    elif kind == "interval":
        _, lo, hi = node
        out_s: set[int] = set()
        j = i
        while j < n and s[j].isdigit():
            j += 1
            v = int(s[i:j])
            if lo <= v <= hi:
                out_s.add(j)
        out = frozenset(out_s)
    else:  # pragma: no cover
        raise AssertionError(kind)
    memo[key] = out
    return out


# --- Brzozowski derivatives (the CompiledAutomaton analogue) -----------------
#
# deriv(node, c) is the residual language after consuming character c;
# nullable(node) is acceptance; is_empty_lang(node) is a SOUND (never falsely
# True) emptiness test. Together they drive the sorted-dict automaton walk in
# stages/search.py: a prefix whose derivative is empty has NO matching
# continuation, so the walk binary-searches past the whole subtree — the
# seekCeil jump of RegExp.java -> CompiledAutomaton.getTermsEnum, re-expressed
# without building a byte automaton. Complement and intersection derive
# compositionally (d(~r) = ~d(r); d(r&s) = d(r)&d(s)) — exactly the operators
# a Python-re translation cannot express.

_EPS = ("str", "")
_NOTHING = ("nothing",)
_ANYSTR = ("anystr",)


def _u(parts) -> tuple:
    """Simplifying union constructor."""
    flat: list = []
    seen = set()
    for p in parts:
        if p[0] == "union":
            ps = p[1]
        else:
            ps = (p,)
        for x in ps:
            if x == _NOTHING:
                continue
            if x == _ANYSTR:
                return _ANYSTR
            if x not in seen:
                seen.add(x)
                flat.append(x)
    if not flat:
        return _NOTHING
    return flat[0] if len(flat) == 1 else ("union", tuple(flat))


def _cat(parts) -> tuple:
    flat: list = []
    for p in parts:
        if p == _NOTHING:
            return _NOTHING
        if p == _EPS:
            continue
        if p[0] == "concat":
            flat.extend(p[1])
        else:
            flat.append(p)
    if not flat:
        return _EPS
    return flat[0] if len(flat) == 1 else ("concat", tuple(flat))


def _i(parts) -> tuple:
    flat: list = []
    seen = set()
    for p in parts:
        ps = p[1] if p[0] == "inter" else (p,)
        for x in ps:
            if x == _NOTHING:
                return _NOTHING
            if x == _ANYSTR:
                continue
            if x not in seen:
                seen.add(x)
                flat.append(x)
    if not flat:
        return _ANYSTR
    return flat[0] if len(flat) == 1 else ("inter", tuple(flat))


def _n(x) -> tuple:
    if x == _NOTHING:
        return _ANYSTR
    if x == _ANYSTR:
        return _NOTHING
    if x[0] == "not":
        return x[1]
    return ("not", x)


def nullable(node) -> bool:
    """Does the node's language contain the empty string?"""
    kind = node[0]
    if kind in ("char", "any", "class", "interval"):
        return False
    if kind == "str":
        return node[1] == ""
    if kind == "nothing":
        return False
    if kind == "anystr":
        return True
    if kind == "union":
        return any(nullable(p) for p in node[1])
    if kind == "inter":
        return all(nullable(p) for p in node[1])
    if kind == "not":
        return not nullable(node[1])
    if kind == "concat":
        return all(nullable(p) for p in node[1])
    if kind == "rep":
        return node[2] == 0 or nullable(node[1])
    if kind == "ivres":
        return node[1] <= int(node[3]) <= node[2]
    raise AssertionError(kind)


def deriv(node, c: str) -> tuple:
    """Brzozowski derivative of the node w.r.t. one character."""
    kind = node[0]
    if kind == "char":
        return _EPS if node[1] == c else _NOTHING
    if kind == "any":
        return _EPS
    if kind == "class":
        inside = any(a <= c <= b for a, b in node[1])
        return _EPS if inside != node[2] else _NOTHING
    if kind == "str":
        t = node[1]
        if not t or t[0] != c:
            return _NOTHING
        return ("str", t[1:]) if len(t) > 1 else _EPS
    if kind == "nothing":
        return _NOTHING
    if kind == "anystr":
        return _ANYSTR
    if kind == "union":
        return _u(deriv(p, c) for p in node[1])
    if kind == "inter":
        return _i(deriv(p, c) for p in node[1])
    if kind == "not":
        return _n(deriv(node[1], c))
    if kind == "concat":
        parts = node[1]
        head, rest = parts[0], parts[1:]
        out = _cat((deriv(head, c),) + rest)
        if nullable(head):
            out = _u((out, deriv(_cat(rest), c)))
        return out
    if kind == "rep":
        _, x, lo, hi = node
        if hi is not None and hi == 0:
            return _NOTHING
        nxt = ("rep", x, max(lo - 1, 0), None if hi is None else hi - 1)
        return _cat((deriv(x, c), nxt))
    if kind == "interval":
        return ("ivres", node[1], node[2], c) if c.isdigit() else _NOTHING
    if kind == "ivres":
        # terms are <= 255 chars, so the consumed digit prefix stays small
        return (("ivres", node[1], node[2], node[3] + c)
                if c.isdigit() else _NOTHING)
    raise AssertionError(kind)


def is_empty_lang(node) -> bool:
    """SOUND emptiness: True only when the language is definitely empty
    (the walk's subtree-skip test; False = keep walking, always safe)."""
    kind = node[0]
    if kind == "nothing":
        return True
    if kind in ("char", "any", "str", "anystr", "interval"):
        return kind == "interval" and node[1] > node[2]
    if kind == "class":
        if node[2]:
            return False  # negated class: assume non-empty (sound)
        return all(a > b for a, b in node[1]) or not node[1]
    if kind == "union":
        return all(is_empty_lang(p) for p in node[1])
    if kind == "inter":
        return any(is_empty_lang(p) for p in node[1])
    if kind == "not":
        return False  # ~anystr simplifies away; otherwise assume non-empty
    if kind == "concat":
        return any(is_empty_lang(p) for p in node[1])
    if kind == "rep":
        return node[2] > 0 and is_empty_lang(node[1])
    if kind == "ivres":
        lo, hi, p = node[1], node[2], int(node[3])
        # reachable values from digit-prefix p: {p} and, per extension
        # length k, [p*10^k, (p+1)*10^k - 1] (leading zeros allowed, so
        # p == 0 reaches every value 0..10^k-1)
        if lo <= p <= hi:
            return False
        scale = 1
        for _ in range(len(str(hi)) + 1):
            scale *= 10
            if p * scale <= hi and (p + 1) * scale - 1 >= lo:
                return False
        return True
    raise AssertionError(kind)


def has_lucene_operators(pattern: str) -> bool:
    """True if the pattern uses syntax beyond the Python-``re``-compatible
    common subset (complement, intersection, anystring, empty-language,
    quoted strings, intervals)."""
    i = 0
    while i < len(pattern):
        c = pattern[i]
        if c == "\\":
            i += 2
            continue
        if c in '~&@#"<':
            return True
        i += 1
    return False
