"""Single-process pure-Python oracle with the reference's exact semantics.

An INDEPENDENT implementation (naive per-doc loops, scalar float32 steps) of
the scoring contract in SURVEY §7 — used by tests to assert the distributed
engine is rank-identical. Mirrors, per the citations:
- norms: floatToByte315(1/sqrt(len)) scalar transcription (SmallFloat.java:78-88)
- idf/avgdl/cache/score: BM25Similarity.java:64-67,201-212,234-238
- boolean: float32 sum of clause scores in clause order; MUST intersection,
  SHOULD union with minShouldMatch, MUST_NOT exclusion (BooleanQuery.java)
- top-k: (score desc, docID asc) (HitQueue.java:76-81)
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .queries import (
    MUST,
    MUST_NOT,
    SHOULD,
    BooleanQuery,
    ConstantScoreQuery,
    DisjunctionMaxQuery,
    FilteredQuery,
    FuzzyQuery,
    MatchAllDocsQuery,
    PhraseQuery,
    PrefixQuery,
    Query,
    RegexpQuery,
    TermQuery,
    TermRangeQuery,
    WildcardQuery,
)

F = np.float32


def _wildcard_re(pattern: str):
    """Wildcard -> regex exactly as the engine's ``_expand_wildcard`` does
    (``*`` -> ``.*``, ``?`` -> ``.``, everything else escaped). fnmatch would
    add '[seq]' character-class semantics the engine does not have."""
    import re as _re

    return _re.compile(
        "".join(".*" if c == "*" else "." if c == "?" else _re.escape(c)
                for c in pattern) + r"\Z")


def _float_to_byte315(f: float) -> int:
    bits = struct.unpack("<i", struct.pack("<f", f))[0]
    smallfloat = bits >> (24 - 3)
    if smallfloat <= ((63 - 15) << 3):
        return 0 if bits <= 0 else 1
    if smallfloat >= ((63 - 15) << 3) + 0x100:
        return 255
    return (smallfloat - ((63 - 15) << 3)) & 0xFF


def _byte315_to_float(b: int) -> float:
    if b == 0:
        return 0.0
    bits = ((b & 0xFF) << (24 - 3)) + ((63 - 15) << 24)
    return struct.unpack("<f", struct.pack("<i", bits))[0]


class OracleIndex:
    def __init__(self, texts: list[str]):
        from .functions.analysis import (
            ENGLISH_STOP_WORDS,
            MAX_TOKEN_LENGTH,
            tokenize_raw,
        )

        self.n = len(texts)
        self.tf: list[dict[str, int]] = []
        self.pos: list[dict[str, list[int]]] = []  # post-chain positions
        self.lens: list[int] = []
        self.df: dict[str, int] = {}
        for t in texts:
            pm: dict[str, list[int]] = {}
            p = 0
            for tok in tokenize_raw(t or ""):
                if len(tok) > MAX_TOKEN_LENGTH or tok in ENGLISH_STOP_WORDS:
                    p += 1  # dropped tokens still consume a position
                    continue
                pm.setdefault(tok, []).append(p)
                p += 1
            m = {tok: len(v) for tok, v in pm.items()}
            self.pos.append(pm)
            self.tf.append(m)
            self.lens.append(sum(m.values()))
            for tok in m:
                self.df[tok] = self.df.get(tok, 0) + 1
        self.sum_ttf = sum(self.lens)
        with np.errstate(divide="ignore"):  # empty docs: 1/sqrt(0) -> inf -> byte 255
            self.norm_bytes = [
                _float_to_byte315(F(F(1.0) / F(math.sqrt(F(l))))) for l in self.lens
            ]
        self.avgdl = F(self.sum_ttf / float(self.n)) if self.sum_ttf > 0 else F(1.0)
        self.cache = []
        for b in range(256):
            f = _byte315_to_float(b)
            decoded = F(F(1.0) / F(f * f)) if f != 0.0 else F(np.inf)
            self.cache.append(
                F(F(1.2) * F(F(0.25) + F(F(F(0.75) * decoded) / self.avgdl)))
            )
        self.vocab = sorted(self.df)
        self._mtq_rewrites: dict[Query, BooleanQuery] = {}

    def weight(self, term: str, boost: float) -> F:
        df = self.df.get(term, 0)
        idf = F(math.log(1 + (self.n - df + 0.5) / (df + 0.5)))
        return F(F(idf * F(boost)) * F(F(1.2) + F(1.0)))

    def _rewrite_scoring_mtq(self, q) -> BooleanQuery:
        """Scoring rewrite against the oracle's global vocabulary (independent
        re-derivation of SCORING_BOOLEAN_QUERY_REWRITE + fuzzy top-terms)."""
        import re as _re

        def ed(a: str, b: str) -> int:
            prev = list(range(len(b) + 1))
            for i, ca in enumerate(a, 1):
                cur = [i]
                for j, cb in enumerate(b, 1):
                    cur.append(min(prev[j] + 1, cur[j - 1] + 1,
                                   prev[j - 1] + (ca != cb)))
                prev = cur
            return prev[-1]

        matched: dict[str, int] = {}
        for t in self.df:
            if isinstance(q, PrefixQuery) and t.startswith(q.prefix):
                matched[t] = 0
            elif isinstance(q, WildcardQuery) and _wildcard_re(q.pattern).match(t):
                matched[t] = 0
            elif isinstance(q, RegexpQuery) and _re.fullmatch(q.pattern, t):
                matched[t] = 0
            elif isinstance(q, FuzzyQuery):
                e = ed(t, q.term)
                if e <= q.max_edits:
                    matched[t] = e
        scored = []
        for t in sorted(matched):
            e = matched[t]
            b = 1.0 if e == 0 else float(F(F(1.0) - F(F(e) / F(min(len(t), len(q.term))))))
            scored.append((t, b))
        scored.sort(key=lambda x: (-x[1], x[0]))
        scored = sorted(scored[: q.max_expansions])
        from .queries import BooleanClause

        return BooleanQuery(
            tuple(BooleanClause(SHOULD, TermQuery(t, boost=b))
                  for t, b in scored), 0, q.boost)

    def _match(self, q: Query, d: int, boost: float) -> tuple[bool, F]:
        if isinstance(q, (PrefixQuery, WildcardQuery, RegexpQuery, FuzzyQuery)) \
                and getattr(q, "rewrite", "constant") == "scoring_boolean":
            rq = self._mtq_rewrites.get(q)
            if rq is None:  # once per query, not once per doc
                rq = self._mtq_rewrites[q] = self._rewrite_scoring_mtq(q)
            return self._match(rq, d, boost)
        if isinstance(q, RegexpQuery):
            import re as _re

            ok = any(_re.fullmatch(q.pattern, t) for t in self.tf[d])
            return ok, F(boost * q.boost) if ok else F(0)
        if isinstance(q, TermQuery):
            tf = self.tf[d].get(q.term, 0)
            if tf == 0:
                return False, F(0)
            wv = self.weight(q.term, boost * q.boost)
            freq = F(tf)
            norm = self.cache[self.norm_bytes[d]]
            return True, F(F(wv * freq) / F(freq + norm))
        if isinstance(q, MatchAllDocsQuery):
            return True, F(boost * q.boost)
        if isinstance(q, PrefixQuery):
            ok = any(t.startswith(q.prefix) for t in self.tf[d])
            return ok, F(boost * q.boost) if ok else F(0)
        if isinstance(q, TermRangeQuery):
            for t in self.tf[d]:
                if q.lower is not None:
                    if t < q.lower or (t == q.lower and not q.include_lower):
                        continue
                if q.upper is not None:
                    if t > q.upper or (t == q.upper and not q.include_upper):
                        continue
                return True, F(boost * q.boost)
            return False, F(0)
        if isinstance(q, DisjunctionMaxQuery):
            smax, ssum, any_match = F(0), F(0), False
            first = True
            for dq in q.disjuncts:
                m, s = self._match(dq, d, boost * q.boost)
                if m:
                    if first:
                        smax, ssum, first = s, s, False
                    else:
                        smax = max(smax, s)
                        ssum = F(ssum + s)
                    any_match = True
            if not any_match:
                return False, F(0)
            return True, F(smax + F(F(ssum - smax) * F(q.tie_breaker)))
        if isinstance(q, ConstantScoreQuery):
            m, _ = self._match(q.query, d, 1.0)
            return m, F(boost * q.boost) if m else F(0)
        if isinstance(q, FilteredQuery):
            mf_, _ = self._match(q.filter, d, 1.0)
            if not mf_:
                return False, F(0)
            return self._match(q.query, d, boost * q.boost)
        if isinstance(q, WildcardQuery):
            rx = _wildcard_re(q.pattern)
            ok = any(rx.match(t) for t in self.tf[d])
            return ok, F(boost * q.boost) if ok else F(0)
        if isinstance(q, FuzzyQuery):
            def ed(a: str, b: str) -> int:
                if abs(len(a) - len(b)) > q.max_edits:
                    return q.max_edits + 1
                prev = list(range(len(b) + 1))
                for i, ca in enumerate(a, 1):
                    cur = [i]
                    for j, cb in enumerate(b, 1):
                        cur.append(min(prev[j] + 1, cur[j - 1] + 1,
                                       prev[j - 1] + (ca != cb)))
                    prev = cur
                return prev[-1]

            ok = any(ed(t, q.term) <= q.max_edits for t in self.tf[d])
            return ok, F(boost * q.boost) if ok else F(0)
        if isinstance(q, PhraseQuery):
            streams = []
            for i, t in enumerate(q.terms):
                ps = self.pos[d].get(t)
                if not ps:
                    return False, F(0)
                streams.append(sorted({p - i for p in ps}))
            if q.slop == 0:
                cand = set(streams[0])
                for s in streams[1:]:
                    cand &= set(s)
                    if not cand:
                        return False, F(0)
                freq = F(len(cand))
            elif len(q.terms) == 2 and q.terms[0] != q.terms[1]:
                # independently-derived closed form of the SloppyPhraseScorer
                # greedy walk for 2 distinct terms: merge both streams in
                # (position, phrase-offset) order; each stream switch scores
                # one match with distance = switch position - previous
                # position (see stages/sloppy.py derivation)
                merged = sorted([(p, 0) for p in streams[0]] +
                                [(p, 1) for p in streams[1]])
                freq = F(0)
                for j in range(1, len(merged)):
                    if merged[j][1] != merged[j - 1][1]:
                        dist = merged[j][0] - merged[j - 1][0]
                        if dist <= q.slop:
                            freq = F(freq + F(F(1.0) / F(dist + 1)))
                if freq == 0:
                    return False, F(0)
            else:
                from .stages.sloppy import sloppy_freq_doc
                import numpy as _np

                tid: dict = {}
                term_ids = [tid.setdefault(t, len(tid)) for t in q.terms]
                freq = sloppy_freq_doc(
                    [_np.asarray(s, dtype=_np.int64) for s in streams],
                    term_ids, q.slop)
                if freq == 0:
                    return False, F(0)
            sum_idf = F(0)
            for t in q.terms:
                df = self.df.get(t, 0)
                sum_idf = F(sum_idf + F(math.log(1 + (self.n - df + 0.5) / (df + 0.5))))
            wv = F(F(sum_idf * F(boost * q.boost)) * F(F(1.2) + F(1.0)))
            fr = F(freq)  # float sloppyFreq for slop>0, integer count else
            norm = self.cache[self.norm_bytes[d]]
            return True, F(F(wv * fr) / F(fr + norm))
        if isinstance(q, BooleanQuery):
            b = boost * q.boost
            score = F(0)
            n_should = 0
            has_must = any(c.occur == MUST for c in q.clauses)
            has_should = any(c.occur == SHOULD for c in q.clauses)
            for c in q.clauses:
                m, s = self._match(c.query, d, b)
                if c.occur == MUST:
                    if not m:
                        return False, F(0)
                    score = F(score + s)
                elif c.occur == SHOULD:
                    if m:
                        n_should += 1
                        score = F(score + s)
                elif c.occur == MUST_NOT:
                    if m:
                        return False, F(0)
            if not has_must and not has_should:
                return False, F(0)
            need = q.min_should_match if has_must else max(q.min_should_match, 1)
            if has_should and n_should < need:
                return False, F(0)
            return True, score
        raise TypeError(type(q))

    def search_classic(self, q: Query, k: int = 10) -> list[tuple[int, float, int]]:
        """ClassicSimilarity (TF-IDF + coord + queryNorm) scalar reference."""
        import math as _m

        def idf(df):
            return F(_m.log(self.n / float(df + 1)) + 1.0)

        def sum_sq(qq, boost):
            if isinstance(qq, TermQuery):
                qw = F(idf(self.df.get(qq.term, 0)) * F(boost * qq.boost))
                return F(qw * qw)
            s = F(0.0)
            for c in qq.clauses:
                if c.occur != MUST_NOT:
                    s = F(s + sum_sq(c.query, boost * qq.boost))
            return s

        ssq = sum_sq(q, 1.0)
        qn = F(1.0 / _m.sqrt(float(ssq))) if float(ssq) else F(1.0)

        def cnorm(d):
            return F(_byte315_to_float(self.norm_bytes[d]))

        def score_term(tq, d, boost):
            tf_ = self.tf[d].get(tq.term, 0)
            if tf_ == 0:
                return False, F(0)
            i = idf(self.df.get(tq.term, 0))
            value = F(F(F(i * F(boost * tq.boost)) * qn) * i)
            raw = F(F(_m.sqrt(tf_)) * value)
            return True, F(raw * cnorm(d))

        def match(qq, d, boost):
            if isinstance(qq, TermQuery):
                return score_term(qq, d, boost)
            b = boost * qq.boost
            score = F(0)
            overlap = 0
            max_overlap = sum(1 for c in qq.clauses if c.occur != MUST_NOT)
            has_must = any(c.occur == MUST for c in qq.clauses)
            has_should = any(c.occur == SHOULD for c in qq.clauses)
            n_should = 0
            for c in qq.clauses:
                m, s = match(c.query, d, b)
                if c.occur == MUST:
                    if not m:
                        return False, F(0)
                    score = F(score + s)
                    overlap += 1
                elif c.occur == SHOULD:
                    if m:
                        score = F(score + s)
                        overlap += 1
                        n_should += 1
                elif c.occur == MUST_NOT and m:
                    return False, F(0)
            if not has_must and not has_should:
                return False, F(0)
            need = qq.min_should_match if has_must else max(qq.min_should_match, 1)
            if has_should and n_should < need:
                return False, F(0)
            if max_overlap > 1:
                score = F(score * F(F(overlap) / F(max_overlap)))
            return True, score

        hits = []
        for d in range(self.n):
            m, s = match(q, d, 1.0)
            if m:
                hits.append((d, s))
        hits.sort(key=lambda x: (-x[1], x[0]))
        return [(d, float(s), len(hits)) for d, s in hits[:k]]

    def search(self, q: Query, k: int = 10) -> list[tuple[int, float, int]]:
        """-> [(docid, score, total_hits)] top-k, (score desc, docid asc)."""
        hits = []
        for d in range(self.n):
            m, s = self._match(q, d, 1.0)
            if m:
                hits.append((d, s))
        hits.sort(key=lambda x: (-x[1], x[0]))
        return [(d, float(s), len(hits)) for d, s in hits[:k]]
