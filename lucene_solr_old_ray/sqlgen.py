"""DuckDB oracle-SQL generators for the driver correctness gate.

These produce ANSI-ish SQL that replicates the engine's semantics on the
``documents`` testdata table — including float32 BM25 arithmetic: DuckDB
``REAL op REAL`` is true float32 (verified: bit-identical to numpy), so every
arithmetic step is wrapped in CAST(... AS REAL) mirroring the Java float
evaluation order. Norm quantization (floatToByte315) is injected as a
precomputed (field_len range -> decoded length) interval table, since the
encode→decode composition is a monotonic step function of length.

The testdata documents' text is space-separated lowercase ASCII words, on
which the engine's UAX#29 chain reduces to: split on spaces, drop empties,
drop >255-char tokens, drop the 33 reference stop words — exactly what the
``toks`` CTE does. (The full chain is exercised against the pure-Python
oracle in tests; the SQL gate checks the distributed pipeline end to end.)
"""

from __future__ import annotations

import numpy as np

from .functions.analysis import ENGLISH_STOP_WORDS
from .functions.smallfloat import NORM_TABLE, encode_norm

K1 = "CAST(1.2 AS REAL)"
B = "CAST(0.75 AS REAL)"
ONE_MINUS_B = "CAST(0.25 AS REAL)"
K1P1 = "CAST(2.2 AS REAL)"


def stops_list() -> str:
    return ", ".join(f"'{w}'" for w in sorted(ENGLISH_STOP_WORDS))


def f32(expr: str) -> str:
    return f"CAST({expr} AS REAL)"


def norm_interval_values(max_len: int = 100_000) -> str:
    """(lo, hi, nb, dec) rows: field lengths in [lo, hi] encode to norm byte
    nb whose decoded length is dec (float32 literal)."""
    lens = np.arange(0, max_len + 1, dtype=np.int64)
    bs = encode_norm(lens)
    rows = []
    start = 0
    for i in range(1, len(lens) + 1):
        if i == len(lens) or bs[i] != bs[start]:
            b = int(bs[start])
            dec = NORM_TABLE[b]
            dec_lit = repr(float(np.float32(dec)))
            rows.append(f"({int(lens[start])},{int(lens[i-1])},{b},{dec_lit})")
            start = i
    return ",".join(rows)


def base_ctes(max_len: int = 100_000, toks_sql: str | None = None) -> str:
    """Shared CTEs: toks, doclen (incl. empty docs), coll stats, norm map,
    per-doc cache value (the freq-independent BM25 denominator).
    ``toks_sql`` overrides the body of the ``toks`` CTE (the analyzed
    (doc_id, term) instance stream) — used by chains whose token stream is
    a derived function of ``documents.text`` (e.g. the WordDelimiter
    chain over the decorated corpus)."""
    toks_body = toks_sql or f"""
  SELECT doc_id, t AS term FROM (
    SELECT doc_id, unnest(string_split(text, ' ')) AS t FROM documents
  ) WHERE t <> '' AND length(t) <= 255 AND t NOT IN ({stops_list()})"""
    return f"""
toks AS ({toks_body}
),
doclen AS (
  SELECT d.doc_id, count(t.term) AS flen
  FROM documents d LEFT JOIN toks t ON d.doc_id = t.doc_id
  GROUP BY d.doc_id
),
coll AS (
  SELECT (SELECT count(*) FROM documents) AS n,
         (SELECT count(*) FROM toks) AS sttf
),
normmap(lo, hi, nb, dec) AS (VALUES {norm_interval_values(max_len)}),
avgdl AS (
  SELECT CAST(CAST(sttf AS DOUBLE) / n AS REAL) AS v FROM coll
),
doccache AS (
  SELECT dl.doc_id, dl.flen, nm.nb,
         {f32(f"{K1} * " + f32(f"{ONE_MINUS_B} + " + f32(f32(f"{B} * CAST(nm.dec AS REAL)") + " / (SELECT v FROM avgdl)")))} AS cache
  FROM doclen dl JOIN normmap nm ON dl.flen BETWEEN nm.lo AND nm.hi
),
tf AS (
  SELECT doc_id, term, count(*) AS freq FROM toks GROUP BY doc_id, term
),
df AS (
  SELECT term, count(*) AS df, sum(freq) AS ttf FROM tf GROUP BY term
)"""


def kw_cache_literal() -> str:
    """The engine's per-doc BM25 denominator cache for a single-token-per-doc
    keyword field: every field length is 1, avgdl is exactly 1.0, so the
    cache is one float32 value — computed with the ENGINE's own norm_cache
    (bit-exact by construction)."""
    from .functions import bm25 as _bm25

    b1 = int(encode_norm(np.array([1]))[0])
    v = float(_bm25.norm_cache(np.float32(1.0))[b1])
    # string->DOUBLE->REAL: a bare literal would parse as DECIMAL, whose
    # cast to REAL rounds differently (1 ulp) than double->float32
    return f"CAST(CAST('{v!r}' AS DOUBLE) AS REAL)"


def kw_field_ctes(col: str = "source") -> str:
    """Per-field df CTE for a keyword (one token per doc) field."""
    return (f"kwdf AS (SELECT {col} AS term, count(*) AS df "
            f"FROM documents GROUP BY {col})")


def kw_term_score_cte(name: str, term: str, col: str = "source",
                      boost: float = 1.0) -> str:
    """Per-doc float32 BM25 score of one keyword-field term (freq = 1,
    per-FIELD df/avgdl/norms — Lucene's stats are always per field)."""
    idf = f32("ln(1 + ((SELECT n FROM coll) - kd.df + 0.5) / (kd.df + 0.5))")
    w = f32(f"{f32(f'{idf} * CAST({boost} AS REAL)')} * {K1P1}")
    num = f32(f"{w} * CAST(1 AS REAL)")
    den = f32(f"CAST(1 AS REAL) + {kw_cache_literal()}")
    return f"""
{name} AS (
  SELECT d.doc_id AS doc_id, {f32(f"{num} / {den}")} AS s
  FROM documents d
  JOIN (SELECT df FROM kwdf WHERE term = '{term}') kd ON TRUE
  WHERE d.{col} = '{term}'
)"""


def bm25_kw_field_sql(term: str, k: int = 10, col: str = "source") -> str:
    """Top-k of a single keyword-FIELD term query -> (rank, doc_id, score)."""
    return f"""WITH {base_ctes()},
{kw_field_ctes(col)},{kw_term_score_cte('f1', term, col)}
SELECT CAST(rank AS BIGINT) AS rank, doc_id, score FROM (
  SELECT row_number() OVER (ORDER BY s DESC, doc_id ASC) AS rank,
         doc_id, s AS score FROM f1
) WHERE rank <= {k} ORDER BY rank"""


def bm25_cross_field_sql(text_term: str, kw_term: str, k: int = 10,
                         col: str = "source") -> str:
    """MUST(text term) + MUST(keyword-field term): clause-order float32 sum
    of the per-field scores -> (rank, doc_id, score)."""
    return f"""WITH {base_ctes()},{term_score_cte('m1', text_term)},
{kw_field_ctes(col)},{kw_term_score_cte('f1', kw_term, col)}
SELECT CAST(rank AS BIGINT) AS rank, doc_id, score FROM (
  SELECT row_number() OVER (ORDER BY score DESC, doc_id ASC) AS rank, doc_id, score
  FROM (SELECT m1.doc_id AS doc_id, {f32("m1.s + f1.s")} AS score
        FROM m1 JOIN f1 ON f1.doc_id = m1.doc_id)
) WHERE rank <= {k} ORDER BY rank"""


def stem_map_values() -> str:
    """(term, stem) VALUES rows for every kept token in the testdata corpora,
    stemmed with the ENGINE's Porter implementation (itself validated against
    the reference's 23k-word porterTestData vectors in tests). DuckDB has no
    offline stemmer, so the oracle checks the distributed english-analyzer
    pipeline through this injected map."""
    import os

    import pyarrow.parquet as _pq

    from .functions.analysis import (
        ENGLISH_STOP_WORDS,
        MAX_TOKEN_LENGTH,
        tokenize_raw,
    )
    from .functions.stem import porter_stem

    terms: set[str] = set()
    for sf in ("/root/testdata/sf0.001", "/root/testdata/sf0.01",
               "/root/testdata/sf0.1"):
        p = f"{sf}/documents.parquet"
        if not os.path.exists(p):
            continue
        for x in _pq.read_table(p, columns=["text"])["text"].to_pylist():
            terms.update(tokenize_raw(x or ""))
    kept = sorted(t for t in terms
                  if len(t) <= MAX_TOKEN_LENGTH and t not in ENGLISH_STOP_WORDS)
    return ",".join(f"('{t}','{porter_stem(t)}')" for t in kept)


def english_ctes() -> str:
    """CTEs for the english (Porter-stemmed) analyzer view of the corpus:
    stemmed token stream + per-stem tf/df. Field lengths (and so norms and
    the doccache) are unchanged by stemming."""
    return f"""
stemmap(term, stem) AS (VALUES {stem_map_values()}),
etoks AS (
  SELECT t.doc_id, sm.stem AS term FROM toks t
  JOIN stemmap sm ON sm.term = t.term
),
etf AS (
  SELECT doc_id, term, count(*) AS freq FROM etoks GROUP BY doc_id, term
),
edf AS (
  SELECT term, count(*) AS df, sum(freq) AS ttf FROM etf GROUP BY term
)"""


def suggest_sql(prefixes: list[str], k: int = 5) -> str:
    """Completion-suggester oracle: top-k index terms under each prefix
    ordered by (weight=ttf desc, term asc) -> (query, rank, suggestion,
    weight). Mirrors pipelines/suggest.py's Lookup order."""
    vals = ",".join(f"('{p}')" for p in prefixes)
    return f"""WITH {base_ctes()},
pre(q) AS (VALUES {vals}),
ranked AS (
  SELECT pre.q AS query, d.term AS suggestion, d.ttf AS weight,
         row_number() OVER (PARTITION BY pre.q
                            ORDER BY d.ttf DESC, d.term ASC) AS rank
  FROM pre JOIN df d ON substr(d.term, 1, length(pre.q)) = pre.q
)
SELECT query, CAST(rank AS BIGINT) AS rank, suggestion,
       CAST(weight AS BIGINT) AS weight
FROM ranked WHERE rank <= {k} ORDER BY query, rank"""


def bm25_english_sql(term: str, k: int = 10) -> str:
    """Single stemmed-term BM25 top-k over the english-analyzer index
    -> (rank, doc_id, score); ``term`` is the POST-STEM form."""
    idf = f32("ln(1 + ((SELECT n FROM coll) - ts.df + 0.5) / (ts.df + 0.5))")
    w = f32(f"{f32(idf + ' * CAST(1.0 AS REAL)')} * {K1P1}")
    num = f32(f"{w} * CAST(t.freq AS REAL)")
    den = f32("CAST(t.freq AS REAL) + dc.cache")
    return f"""WITH {base_ctes()},{english_ctes()}
SELECT CAST(rank AS BIGINT) AS rank, doc_id, score FROM (
  SELECT row_number() OVER (ORDER BY s DESC, doc_id ASC) AS rank,
         doc_id, s AS score
  FROM (SELECT t.doc_id AS doc_id, {f32(f"{num} / {den}")} AS s
        FROM etf t
        JOIN (SELECT df FROM edf WHERE term = '{term}') ts ON TRUE
        JOIN doccache dc ON dc.doc_id = t.doc_id
        WHERE t.term = '{term}')
) WHERE rank <= {k} ORDER BY rank"""


def fuzzy_scored_sql(term: str, max_edits: int = 2, k: int = 10) -> str:
    """SCORING_BOOLEAN_QUERY_REWRITE fuzzy oracle -> (rank, doc_id, score).

    Expanded terms (levenshtein <= max_edits over the corpus vocabulary —
    assumed under the engine's max_expansions cap) score as SHOULD
    TermQueries with similarity boost 1 - ed/min(|t|,|q|) (float32,
    ``search/FuzzyTermsEnum.java:361-371``); per-doc clause scores fold in
    TERM ORDER through a recursive CTE (the engine's clause-order float32
    contract)."""
    qlen = len(term)
    boost = f32(
        "CAST(1 AS REAL) - " + f32(
            f"CAST(levenshtein(term, '{term}') AS REAL) / "
            f"CAST(least(length(term), {qlen}) AS REAL)"))
    idf = f32("ln(1 + ((SELECT n FROM coll) - mt.df + 0.5) / (mt.df + 0.5))")
    w = f32(f"{f32(idf + ' * mt.boost')} * {K1P1}")
    num = f32(f"{w} * CAST(t.freq AS REAL)")
    den = f32("CAST(t.freq AS REAL) + dc.cache")
    return f"""WITH RECURSIVE {base_ctes()},
mterms AS (
  SELECT term, df,
         CASE WHEN term = '{term}' THEN CAST(1 AS REAL) ELSE {boost} END AS boost,
         row_number() OVER (ORDER BY term) AS mi
  FROM df WHERE levenshtein(term, '{term}') <= {max_edits}
),
pscore AS (
  SELECT t.doc_id, mt.mi, {f32(f"{num} / {den}")} AS s
  FROM tf t JOIN mterms mt ON mt.term = t.term
  JOIN doccache dc ON dc.doc_id = t.doc_id
),
ranked AS (
  SELECT doc_id, s, row_number() OVER (PARTITION BY doc_id ORDER BY mi) AS ri
  FROM pscore
),
nm AS (SELECT doc_id, count(*) AS m FROM ranked GROUP BY doc_id),
fold(doc_id, i, acc) AS (
  SELECT doc_id, 0, CAST(0 AS REAL) FROM nm
  UNION ALL
  SELECT f.doc_id, f.i + 1, {f32("f.acc + r.s")}
  FROM fold f JOIN ranked r ON r.doc_id = f.doc_id AND r.ri = f.i + 1
)
SELECT CAST(rank AS BIGINT) AS rank, doc_id, score FROM (
  SELECT row_number() OVER (ORDER BY score DESC, doc_id ASC) AS rank, doc_id, score
  FROM (SELECT f.doc_id AS doc_id, f.acc AS score
        FROM fold f JOIN nm ON nm.doc_id = f.doc_id AND f.i = nm.m)
) WHERE rank <= {k} ORDER BY rank"""


def bm25_shingle_sql(term: str, k: int = 10, pos_cap: int = 1024) -> str:
    """Single SHINGLE-term BM25 top-k over the shingle-analyzer index ->
    (rank, doc_id, score). The field's sumTotalTermFreq counts unigram AND
    shingle instances (overlays are indexed; norms count unigrams only), so
    avgdl and the per-doc cache are recomputed here."""
    idf = f32("ln(1 + ((SELECT n FROM coll) - sdf.df + 0.5) / (sdf.df + 0.5))")
    w = f32(f"{f32(idf + ' * CAST(1.0 AS REAL)')} * {K1P1}")
    num = f32(f"{w} * CAST(st.freq AS REAL)")
    den = f32("CAST(st.freq AS REAL) + sdc.cache")
    return f"""WITH {base_ctes()},
posd AS (
  SELECT doc_id, CAST(i AS INT) - 1 AS p, toks[CAST(i AS INT)] AS term
  FROM (SELECT doc_id, string_split(text, ' ') AS toks FROM documents)
  CROSS JOIN range(1, {pos_cap + 1}) r(i) WHERE i <= len(toks)
),
sh AS (
  SELECT a.doc_id, a.p, a.term || ' ' || b.term AS term
  FROM posd a JOIN posd b ON b.doc_id = a.doc_id AND b.p = a.p + 1
  WHERE a.term <> '' AND b.term <> ''
    AND length(a.term) <= 255 AND length(b.term) <= 255
    AND length(a.term) + length(b.term) + 1 <= 255
),
scoll AS (
  SELECT (SELECT count(*) FROM toks) + (SELECT count(*) FROM sh) AS sttf
),
savgdl AS (
  SELECT CAST(CAST(sttf AS DOUBLE) / (SELECT n FROM coll) AS REAL) AS v
  FROM scoll
),
sdoccache AS (
  SELECT dl.doc_id, nm.nb,
         {f32(f"{K1} * " + f32(f"{ONE_MINUS_B} + " + f32(f32(f"{B} * CAST(nm.dec AS REAL)") + " / (SELECT v FROM savgdl)")))} AS cache
  FROM doclen dl JOIN normmap nm ON dl.flen BETWEEN nm.lo AND nm.hi
),
stf AS (
  SELECT doc_id, count(*) AS freq FROM sh WHERE term = '{term}'
  GROUP BY doc_id
),
sdf AS (SELECT count(*) AS df FROM stf)
SELECT CAST(rank AS BIGINT) AS rank, doc_id, score FROM (
  SELECT row_number() OVER (ORDER BY s DESC, doc_id ASC) AS rank,
         doc_id, s AS score
  FROM (SELECT st.doc_id AS doc_id, {f32(f"{num} / {den}")} AS s
        FROM stf st JOIN sdf ON TRUE
        JOIN sdoccache sdc ON sdc.doc_id = st.doc_id)
) WHERE rank <= {k} ORDER BY rank"""


def synonym_hits_sql(query_term: str, source_terms: list[str]) -> str:
    """Constant-score docID set of a term query on the synonym-analyzer
    index: the query term matches its own literal occurrences plus every
    source token that expands to it."""
    terms = ", ".join(f"'{t}'" for t in [query_term, *source_terms])
    return (f"WITH {base_ctes()} SELECT doc_id FROM ("
            f"SELECT DISTINCT doc_id FROM toks WHERE term IN ({terms})"
            f") ORDER BY doc_id")


def mlt_sql(doc_id: int, k: int = 10, min_tf: int = 2, min_df: int = 5,
            max_terms: int = 25) -> str:
    """MoreLikeThis oracle -> (rank, doc_id, score): interesting terms of the
    example doc (tf >= min_tf, df >= min_df, ranked by tf * classic idf,
    top max_terms), then an unboosted SHOULD BM25 query folded per doc in
    term order (float32 recursive fold)."""
    idf = f32("ln(1 + ((SELECT n FROM coll) - mt.df + 0.5) / (mt.df + 0.5))")
    w = f32(f"{f32(idf + ' * CAST(1.0 AS REAL)')} * {K1P1}")
    num = f32(f"{w} * CAST(t.freq AS REAL)")
    den = f32("CAST(t.freq AS REAL) + dc.cache")
    return f"""WITH RECURSIVE {base_ctes()},
cand AS (
  SELECT t.term, t.freq AS ctf, d.df
  FROM tf t JOIN df d ON d.term = t.term
  WHERE t.doc_id = {doc_id} AND t.freq >= {min_tf} AND d.df >= {min_df}
),
mterms AS (
  SELECT term, df, row_number() OVER (ORDER BY term) AS mi FROM (
    SELECT term, df
    FROM (SELECT term, df,
                 ctf * (ln(CAST((SELECT n FROM coll) AS DOUBLE) / (df + 1)) + 1.0) AS msc
          FROM cand)
    ORDER BY msc DESC, term ASC LIMIT {max_terms})
),
pscore AS (
  SELECT t.doc_id, mt.mi, {f32(f"{num} / {den}")} AS s
  FROM tf t JOIN mterms mt ON mt.term = t.term
  JOIN doccache dc ON dc.doc_id = t.doc_id
),
ranked AS (
  SELECT doc_id, s, row_number() OVER (PARTITION BY doc_id ORDER BY mi) AS ri
  FROM pscore
),
nm AS (SELECT doc_id, count(*) AS m FROM ranked GROUP BY doc_id),
fold(doc_id, i, acc) AS (
  SELECT doc_id, 0, CAST(0 AS REAL) FROM nm
  UNION ALL
  SELECT f.doc_id, f.i + 1, {f32("f.acc + r.s")}
  FROM fold f JOIN ranked r ON r.doc_id = f.doc_id AND r.ri = f.i + 1
)
SELECT CAST(rank AS BIGINT) AS rank, doc_id, score FROM (
  SELECT row_number() OVER (ORDER BY score DESC, doc_id ASC) AS rank, doc_id, score
  FROM (SELECT f.doc_id AS doc_id, f.acc AS score
        FROM fold f JOIN nm ON nm.doc_id = f.doc_id AND f.i = nm.m)
) WHERE rank <= {k} ORDER BY rank"""


def classify_knn_sql(doc_id: int, field: str = "lang", k: int = 10,
                     min_tf: int = 2, min_df: int = 5,
                     max_terms: int = 25) -> str:
    """KNearestNeighborClassifier oracle -> one (class, votes, score) row:
    the example doc's MLT top-k neighbors vote by ``field``; majority wins,
    ties by class ascending; score = votes/k (exact small-int division,
    ClassificationResult.getScore)."""
    inner = mlt_sql(doc_id, k, min_tf, min_df, max_terms)
    return f"""
SELECT class, CAST(votes AS BIGINT) AS votes,
       CAST(votes AS DOUBLE) / {k} AS score FROM (
  SELECT d.{field} AS class, count(*) AS votes
  FROM ({inner}) h JOIN documents d ON d.doc_id = h.doc_id
  GROUP BY d.{field}
  ORDER BY votes DESC, class ASC LIMIT 1
)"""


def term_score_cte(name: str, term: str, boost: float = 1.0) -> str:
    """Per-doc float32 BM25 scores of one term: (doc_id, s). Boost follows
    the engine's weight_value order: f32(f32(idf * boost) * (k1+1))."""
    idf = f32(
        f"ln(1 + ((SELECT n FROM coll) - ts.df + 0.5) / (ts.df + 0.5))"
    )
    w = f32(f"{f32(f'{idf} * CAST({boost} AS REAL)')} * {K1P1}")
    num = f32(f"{w} * CAST(t.freq AS REAL)")
    den = f32(f"CAST(t.freq AS REAL) + dc.cache")
    return f"""
{name} AS (
  SELECT t.doc_id, {f32(f"{num} / {den}")} AS s
  FROM tf t
  JOIN (SELECT df FROM df WHERE term = '{term}') ts ON TRUE
  JOIN doccache dc ON dc.doc_id = t.doc_id
  WHERE t.term = '{term}'
)"""


def f32_sum(exprs: list[str]) -> str:
    """Left-to-right float32 sum (clause-order accumulation)."""
    acc = exprs[0]
    for e in exprs[1:]:
        acc = f32(f"{acc} + {e}")
    return acc


def flit(v: float) -> str:
    """float32 literal: string->DOUBLE->REAL (a bare literal would parse as
    DECIMAL, whose cast to REAL rounds differently — 1 ulp — than
    double->float32)."""
    return f"CAST(CAST('{float(np.float32(v))!r}' AS DOUBLE) AS REAL)"


LOG_2_LIT = repr(float(np.log(np.float64(2.0))))  # SimilarityBase.LOG_2


def simbase_ctes() -> str:
    """CTEs shared by SimilarityBase oracles: per-doc decoded docLen (the
    1/f^2 norm decode, ``SimilarityBase.java:225-231``) and the family's
    avgFieldLength — ``(float)sumTotalTermFreq / maxDoc`` as a FLOAT
    division (``SimilarityBase.java:127``), unlike BM25's
    double-divide-then-cast ``avgdl``."""
    return """
sbdoc AS (
  SELECT dl.doc_id, CAST(nm.dec AS REAL) AS dlen
  FROM doclen dl JOIN normmap nm ON dl.flen BETWEEN nm.lo AND nm.hi
),
sbavg AS (
  SELECT CAST(CAST(sttf AS REAL) / CAST(n AS REAL) AS REAL) AS v FROM coll
)"""


def _sb_cp() -> str:
    """LM collection probability (ttf + 1F) / (fieldTokens + 1F), float32
    (``LMSimilarity.java:133``)."""
    num = f32("CAST(ts.ttf AS REAL) + CAST(1 AS REAL)")
    den = f32("CAST((SELECT sttf FROM coll) AS REAL) + CAST(1 AS REAL)")
    return f32(f"{num} / {den}")


def lmjm_term_score_cte(name: str, term: str, lam: float) -> str:
    """Per-doc float32 LMJelinekMercer scores of one term
    (``LMJelinekMercerSimilarity.java:49``): every arithmetic step float32
    in the engine's (== Java's) evaluation order; the final log runs in
    double on the float32 argument."""
    one_minus = float(np.float32(np.float32(1.0) - np.float32(lam)))
    num = f32(f"{f32(f'{flit(one_minus)} * CAST(t.freq AS REAL)')} / sb.dlen")
    lcp = f32(f"{flit(lam)} * {_sb_cp()}")
    inner = f32(f"CAST(1 AS REAL) + {f32(f'{num} / {lcp}')}")
    return f"""
{name} AS (
  SELECT t.doc_id, {f32(f"ln(CAST({inner} AS DOUBLE))")} AS s
  FROM tf t
  JOIN (SELECT ttf FROM df WHERE term = '{term}') ts ON TRUE
  JOIN sbdoc sb ON sb.doc_id = t.doc_id
  WHERE t.term = '{term}'
)"""


def dfr_in_l_h2_term_score_cte(name: str, term: str) -> str:
    """Per-doc float32 DFR I(n)L2 scores of one term: tfn = H2
    (``NormalizationH2.java:54``: float interior, double log2, float cast),
    basic model I(n) (``BasicModelIn.java:35``), after-effect L; the two
    log2 calls divide by the exact LOG_2 double literal so the double lane
    matches ``SimilarityBase.log2`` bit for bit."""
    h2_inner = f32(
        "CAST(1 AS REAL) + "
        + f32(f"{f32('CAST(1 AS REAL) * (SELECT v FROM sbavg)')} / sb.dlen"))
    tfn_expr = f32(f"CAST(CAST(t.freq AS REAL) AS DOUBLE) * "
                   f"(ln(CAST({h2_inner} AS DOUBLE)) / {LOG_2_LIT})")
    iv = f32(f"ln(((SELECT n FROM coll) + 1) / (ts.df + 0.5)) / {LOG_2_LIT}")
    bm = f32(f"tfn * {iv}")
    ae = f32(f"CAST(1 AS REAL) / {f32('tfn + CAST(1 AS REAL)')}")
    return f"""
{name} AS (
  SELECT doc_id, {f32(f'{bm} * {ae}')} AS s FROM (
    SELECT t.doc_id, {tfn_expr} AS tfn
    FROM tf t
    JOIN sbdoc sb ON sb.doc_id = t.doc_id
    WHERE t.term = '{term}'
  ) JOIN (SELECT df FROM df WHERE term = '{term}') ts ON TRUE
)"""


def simbase_bool_sql(musts: list[str], similarity: str, k: int = 10) -> str:
    """Top-k of a MUST conjunction under a SimilarityBase strategy —
    queryNorm == coord == 1 (``Similarity.java:122-141`` defaults), so the
    score is the float32 clause-order sum of the per-term scores."""
    low = similarity.lower()
    ctes = [base_ctes(), simbase_ctes()]
    score_terms = []
    for i, t in enumerate(musts, start=1):
        if low.startswith("lmjm:") or low.startswith("lmjelinekmercer:"):
            ctes.append(lmjm_term_score_cte(f"m{i}", t,
                                            float(low.split(":")[1])))
        elif low == "dfr:in:l:h2":
            ctes.append(dfr_in_l_h2_term_score_cte(f"m{i}", t))
        else:
            raise NotImplementedError(
                f"no SQL oracle for SimilarityBase spec {similarity!r} — "
                "lmjm:<lambda> and dfr:in:l:h2 are the oracle-backed configs")
        score_terms.append(f"m{i}.s")
    join_sql = " ".join(
        f"JOIN m{i} ON m{i}.doc_id = m1.doc_id"
        for i in range(2, len(musts) + 1))
    score = f32_sum(score_terms)
    return f"""WITH {",".join(ctes)}
SELECT CAST(rank AS BIGINT) AS rank, doc_id, score FROM (
  SELECT row_number() OVER (ORDER BY score DESC, doc_id ASC) AS rank,
         doc_id, score
  FROM (SELECT m1.doc_id AS doc_id, {score} AS score FROM m1 {join_sql})
) WHERE rank <= {k}
ORDER BY rank"""


def dismax_sql(terms: list[str], tie: float, k: int = 10) -> str:
    """DisjunctionMax oracle -> (rank, doc_id, score)."""
    ctes = [base_ctes()]
    names = []
    for i, t in enumerate(terms):
        ctes.append(term_score_cte(f"d{i}", t))
        names.append(f"d{i}")
    joins = " ".join(f"LEFT JOIN {n} ON {n}.doc_id = dc.doc_id" for n in names)
    matched = " OR ".join(f"{n}.doc_id IS NOT NULL" for n in names)
    smax = "GREATEST(" + ", ".join(
        f"COALESCE({n}.s, CAST('-infinity' AS REAL))" for n in names) + ")"
    ssum = f32_sum([f"COALESCE({n}.s, CAST(0 AS REAL))" for n in names])
    tie_l = f"CAST({tie} AS REAL)"
    score = f32(f"{smax} + " + f32(f32(f"{ssum} - {smax}") + f" * {tie_l}"))
    return f"""WITH {",".join(ctes)}
SELECT CAST(rank AS BIGINT) AS rank, doc_id, score FROM (
  SELECT row_number() OVER (ORDER BY score DESC, doc_id ASC) AS rank, doc_id, score
  FROM (SELECT dc.doc_id AS doc_id, {score} AS score
        FROM doccache dc {joins} WHERE {matched})
) WHERE rank <= {k} ORDER BY rank"""


def classic_norm_values() -> str:
    """(nb, cf) rows: norm byte -> byte315ToFloat decode (ClassicSimilarity)."""
    from .functions.classic import CLASSIC_NORM_TABLE

    return ",".join(
        f"({b},{repr(float(np.float32(CLASSIC_NORM_TABLE[b])))})"
        for b in range(1, 256)
    )


def classic_bool_or_sql(terms: list[str], k: int = 10) -> str:
    """Classic TF-IDF pure-SHOULD boolean with coord: per-clause normalized
    values share one queryNorm; score = f32-chain clause sum * coord."""
    idfs = [
        f32(f"ln((SELECT n FROM coll) / CAST("
            f"(SELECT df FROM df WHERE term = '{t}') + 1 AS DOUBLE)) + 1.0")
        for t in terms
    ]
    ssq = "CAST(0 AS REAL)"
    for e in idfs:
        ssq = f32(f"{ssq} + {f32(e + ' * ' + e)}")
    qn = f32(f"CAST(1.0 / sqrt(CAST({ssq} AS DOUBLE)) AS REAL)")
    ctes = [base_ctes(), f"cnorm(nb, cf) AS (VALUES {classic_norm_values()})"]
    joins = []
    score_terms = []
    matched = []
    for i, t in enumerate(terms):
        value = f32(f32(f"{idfs[i]} * {qn}") + f" * {idfs[i]}")
        ctes.append(f"""
c{i} AS (
  SELECT t.doc_id,
         {f32(f32("CAST(sqrt(CAST(t.freq AS DOUBLE)) AS REAL) * " + value) + " * cn.cf")} AS s
  FROM tf t JOIN doccache dc ON dc.doc_id = t.doc_id
  JOIN cnorm cn ON cn.nb = dc.nb
  WHERE t.term = '{t}'
)""")
        joins.append(f"LEFT JOIN c{i} ON c{i}.doc_id = d.doc_id")
        score_terms.append(f"COALESCE(c{i}.s, CAST(0 AS REAL))")
        matched.append(f"(CASE WHEN c{i}.doc_id IS NULL THEN 0 ELSE 1 END)")
    ssum = f32_sum(score_terms)
    nmatched = " + ".join(matched)
    coord = f32(f"CAST(({nmatched}) AS REAL) / CAST({len(terms)} AS REAL)")
    return f"""WITH {",".join(ctes)}
SELECT CAST(rank AS BIGINT) AS rank, doc_id, score FROM (
  SELECT row_number() OVER (ORDER BY score DESC, doc_id ASC) AS rank, doc_id, score
  FROM (SELECT d.doc_id AS doc_id, {f32(f"{ssum} * {coord}")} AS score
        FROM doccache d {' '.join(joins)}
        WHERE ({nmatched}) >= 1)
) WHERE rank <= {k} ORDER BY rank"""


def phrase_sql(
    terms: list[str], k: int = 10, pos_cap: int = 1024, slop: int = 0
) -> str:
    """Phrase oracle -> (rank, doc_id, score). Positions are 0-based word
    ordinals of the space-separated text (== the engine's post-analysis
    positions on this corpus, since every raw token consumes a position);
    ``pos_cap`` bounds the static ordinal join (docs here are far shorter).

    slop > 0 (2 distinct terms) replicates Lucene's SloppyPhraseScorer
    exactly via the merged-stream run form (see stages/sloppy.py): each
    stream switch in (position, phrase-offset) order scores one match of
    distance = switch gap; sloppyFreq folds 1/(d+1) in float32 MATCH ORDER
    through a recursive CTE."""
    posd = f"""
posd AS (
  SELECT doc_id, CAST(i AS INT) - 1 AS p, toks[CAST(i AS INT)] AS term
  FROM (SELECT doc_id, string_split(text, ' ') AS toks FROM documents)
  CROSS JOIN range(1, {pos_cap + 1}) r(i)
  WHERE i <= len(toks)
)"""
    idf_acc = "CAST(0 AS REAL)"
    for i, t in enumerate(terms):
        idf_i = f32(
            f"ln(1 + ((SELECT n FROM coll) - "
            f"(SELECT df FROM df WHERE term = '{t}') + 0.5) / "
            f"((SELECT df FROM df WHERE term = '{t}') + 0.5))"
        )
        idf_acc = f32(f"{idf_acc} + {idf_i}")
    wv = f32(f"{f32(idf_acc + ' * CAST(1 AS REAL)')} * {K1P1}")
    num = f32(f"{wv} * CAST(h.freq AS REAL)")
    tail = f"""
SELECT CAST(rank AS BIGINT) AS rank, doc_id, score FROM (
  SELECT row_number() OVER (ORDER BY score DESC, doc_id ASC) AS rank, doc_id, score
  FROM (SELECT h.doc_id AS doc_id, {f32(num + ' / ' + f32("CAST(h.freq AS REAL) + dc.cache"))} AS score
        FROM hits h JOIN doccache dc ON dc.doc_id = h.doc_id)
) WHERE rank <= {k} ORDER BY rank"""

    if slop == 0:
        joins = []
        conds = [f"t0.term = '{terms[0]}'"]
        for i in range(1, len(terms)):
            joins.append(f"JOIN posd t{i} ON t{i}.doc_id = t0.doc_id "
                         f"AND t{i}.p = t0.p + {i}")
            conds.append(f"t{i}.term = '{terms[i]}'")
        hits = f"""
hits AS (
  SELECT t0.doc_id AS doc_id, count(*) AS freq
  FROM posd t0 {' '.join(joins)}
  WHERE {' AND '.join(conds)}
  GROUP BY t0.doc_id
)"""
        return f"WITH {base_ctes()},{posd},{hits}{tail}"

    if len(terms) != len(set(terms)):
        raise NotImplementedError(
            "sloppy phrase oracle SQL covers distinct terms only (the "
            "advanceRpts collision protocol is not SQL-expressed)")
    if len(terms) > 2:
        return _sloppy_k_sql(terms, slop, posd, tail)
    # zig-zag of strict successors (stages/sloppy.py derivation): the leader
    # L alternates streams; each leader scores distance L - max(other <= L);
    # next leader = min(other > L); float32 fold in match order
    add = f32("z.acc + " + f32(f32("CAST(1 AS REAL) / CAST(z.d + 1 AS REAL)")))
    fold = f"""
mstream AS (
  SELECT doc_id, p, 0 AS strm FROM posd WHERE term = '{terms[0]}'
  UNION ALL
  SELECT doc_id, p - 1 AS p, 1 AS strm FROM posd WHERE term = '{terms[1]}'
),
firsts AS (
  SELECT doc_id,
         min(CASE WHEN strm = 0 THEN p END) AS a0,
         min(CASE WHEN strm = 1 THEN p END) AS b0
  FROM mstream GROUP BY doc_id
  HAVING a0 IS NOT NULL AND b0 IS NOT NULL
),
zig(doc_id, lead, s, d, acc, fin) AS (
  SELECT f.doc_id,
         CASE WHEN b0 >= a0 THEN b0 ELSE a0 END,
         CASE WHEN b0 >= a0 THEN 1 ELSE 0 END,
         CASE WHEN b0 >= a0 THEN b0 ELSE a0 END
         - (SELECT max(m.p) FROM mstream m
            WHERE m.doc_id = f.doc_id
              AND m.strm = CASE WHEN b0 >= a0 THEN 0 ELSE 1 END
              AND m.p <= CASE WHEN b0 >= a0 THEN b0 ELSE a0 END),
         CAST(0 AS REAL), FALSE
  FROM firsts f
  UNION ALL
  SELECT z.doc_id,
         (SELECT min(m.p) FROM mstream m
          WHERE m.doc_id = z.doc_id AND m.strm = 1 - z.s AND m.p > z.lead),
         1 - z.s,
         (SELECT min(m.p) FROM mstream m
          WHERE m.doc_id = z.doc_id AND m.strm = 1 - z.s AND m.p > z.lead)
         - (SELECT max(m.p) FROM mstream m
            WHERE m.doc_id = z.doc_id AND m.strm = z.s
              AND m.p <= (SELECT min(m2.p) FROM mstream m2
                          WHERE m2.doc_id = z.doc_id AND m2.strm = 1 - z.s
                            AND m2.p > z.lead)),
         CASE WHEN z.d <= {slop} THEN {add} ELSE z.acc END,
         (SELECT min(m.p) FROM mstream m
          WHERE m.doc_id = z.doc_id AND m.strm = 1 - z.s AND m.p > z.lead)
         IS NULL
  FROM zig z WHERE NOT z.fin
),
hits AS (
  SELECT doc_id, acc AS freq FROM zig WHERE fin AND acc > 0
)"""
    return f"WITH RECURSIVE {base_ctes()},{posd},{fold}{tail}"


def _sloppy_k_sql(terms: list[str], slop: int, posd: str, tail: str) -> str:
    """k>=3 DISTINCT-term sloppy oracle: the full SloppyPhraseScorer queue
    walk (stages/sloppy.py::sloppy_freq_doc, no-repeats protocol) as a
    recursive CTE carrying the whole scorer state per doc — current
    phrase-adjusted position per slot, running end, popped-minimum slot
    (ppi, ties to the lower slot like the (position, offset) heap), the
    minimized match length, and the float32 freq fold in match order."""
    k = len(terms)
    union = "\n  UNION ALL\n".join(
        f"  SELECT doc_id, p - {i} AS p, {i} AS strm FROM posd "
        f"WHERE term = '{t}'" for i, t in enumerate(terms))
    firsts_cols = ",\n         ".join(
        f"min(CASE WHEN strm = {i} THEN p END) AS f{i}" for i in range(k))
    having = " AND ".join(f"f{i} IS NOT NULL" for i in range(k))

    def argmin(cols: list[str]) -> str:
        whens = []
        for i in range(k - 1):
            conds = " AND ".join(f"{cols[i]} <= {cols[j]}"
                                 for j in range(i + 1, k))
            whens.append(f"WHEN {conds} THEN {i}")
        return "CASE " + " ".join(whens) + f" ELSE {k - 1} END"

    fcols = [f"f{i}" for i in range(k)]
    pcols = [f"p{i}" for i in range(k)]
    qcols = [f"q{i}" for i in range(k)]
    state_cols = ", ".join(pcols)
    init_ml = f"greatest({', '.join(fcols)}) - least({', '.join(fcols)})"
    curp = ("CASE z.ppi " + " ".join(
        f"WHEN {i} THEN z.p{i}" for i in range(k)) + " END")
    nxt = ("CASE zz.ppi " + " ".join(
        "WHEN {} THEN least({})".format(
            i, ", ".join(f"zz.p{j}" for j in range(k) if j != i))
        for i in range(k)) + " END")
    q_exprs = ",\n         ".join(
        f"CASE WHEN zz.ppi = {i} THEN COALESCE(zz.adv, zz.p{i}) "
        f"ELSE zz.p{i} END AS q{i}" for i in range(k))
    add = f32("y.acc + " + f32("CAST(1 AS REAL) / CAST(y.ml + 1 AS REAL)"))
    fold = f"""
streams AS (
{union}
),
firsts AS (
  SELECT doc_id,
         {firsts_cols}
  FROM streams GROUP BY doc_id
  HAVING {having}
),
zig(doc_id, {state_cols}, end_, ppi, ml, acc, fin) AS (
  SELECT doc_id, {', '.join(fcols)},
         greatest({', '.join(fcols)}),
         {argmin(fcols)},
         {init_ml},
         CAST(0 AS REAL), FALSE
  FROM firsts
  UNION ALL
  SELECT y.doc_id, {', '.join('y.' + q for q in qcols)},
         y.nend,
         CASE WHEN y.adv IS NOT NULL AND y.adv > y.nxt
              THEN {argmin(['y.' + q for q in qcols])}
              ELSE y.ppi END,
         CASE WHEN y.adv IS NULL THEN y.ml
              WHEN y.adv > y.nxt
              THEN y.nend - least({', '.join('y.' + q for q in qcols)})
              ELSE least(y.ml, y.nend - y.adv) END,
         CASE WHEN (y.adv IS NULL OR y.adv > y.nxt) AND y.ml <= {slop}
              THEN {add} ELSE y.acc END,
         y.adv IS NULL
  FROM (
    SELECT zz.*,
         {q_exprs},
         greatest(zz.end_, COALESCE(zz.adv, zz.end_)) AS nend,
         {nxt} AS nxt
    FROM (SELECT z.*,
                 (SELECT min(s.p) FROM streams s
                  WHERE s.doc_id = z.doc_id AND s.strm = z.ppi
                    AND s.p > {curp}) AS adv
          FROM zig z WHERE NOT z.fin) zz
  ) y
),
hits AS (
  SELECT doc_id, acc AS freq FROM zig WHERE fin AND acc > 0
)"""
    return f"WITH RECURSIVE {base_ctes()},{posd},{fold}{tail}"


def multi_phrase_sql(slots: list, k: int = 10, pos_cap: int = 1024) -> str:
    """MultiPhraseQuery oracle (slop=0) -> (rank, doc_id, score).

    Each slot is a tuple of alternative terms; slot i matches when the
    token at start+i is ANY of its alternatives (the per-slot UNION
    position stream — on this corpus each text position holds exactly one
    term, so the positional ``IN`` join counts each matching start once,
    == the unique'd UnionDocsAndPositionsEnum freq). idf is the float32
    SUM over ALL terms in termArrays order (slot order, add order within
    a slot — TFIDFSimilarity.idfExplain's phrase overload), regardless of
    which alternative matched."""
    posd = f"""
posd AS (
  SELECT doc_id, CAST(i AS INT) - 1 AS p, toks[CAST(i AS INT)] AS term
  FROM (SELECT doc_id, string_split(text, ' ') AS toks FROM documents)
  CROSS JOIN range(1, {pos_cap + 1}) r(i)
  WHERE i <= len(toks)
)"""
    idf_acc = "CAST(0 AS REAL)"
    for alts in slots:
        for t in alts:
            idf_i = f32(
                f"ln(1 + ((SELECT n FROM coll) - "
                f"COALESCE((SELECT df FROM df WHERE term = '{t}'), 0) + 0.5) / "
                f"(COALESCE((SELECT df FROM df WHERE term = '{t}'), 0) + 0.5))"
            )
            idf_acc = f32(f"{idf_acc} + {idf_i}")
    wv = f32(f"{f32(idf_acc + ' * CAST(1 AS REAL)')} * {K1P1}")
    num = f32(f"{wv} * CAST(h.freq AS REAL)")
    joins = []
    in0 = ", ".join(f"'{t}'" for t in slots[0])
    conds = [f"t0.term IN ({in0})"]
    for i in range(1, len(slots)):
        joins.append(f"JOIN posd t{i} ON t{i}.doc_id = t0.doc_id "
                     f"AND t{i}.p = t0.p + {i}")
        ini = ", ".join(f"'{t}'" for t in slots[i])
        conds.append(f"t{i}.term IN ({ini})")
    hits = f"""
hits AS (
  SELECT t0.doc_id AS doc_id, count(*) AS freq
  FROM posd t0 {' '.join(joins)}
  WHERE {' AND '.join(conds)}
  GROUP BY t0.doc_id
)"""
    return f"""WITH {base_ctes()},{posd},{hits}
SELECT CAST(rank AS BIGINT) AS rank, doc_id, score FROM (
  SELECT row_number() OVER (ORDER BY score DESC, doc_id ASC) AS rank, doc_id, score
  FROM (SELECT h.doc_id AS doc_id, {f32(num + ' / ' + f32("CAST(h.freq AS REAL) + dc.cache"))} AS score
        FROM hits h JOIN doccache dc ON dc.doc_id = h.doc_id)
) WHERE rank <= {k} ORDER BY rank"""


def group_facet_sql(term: str, group_col: str, facet_col: str,
                    size: int = 25, min_count: int = 1) -> str:
    """TermGroupFacetCollector oracle: per ``facet_col`` value, the number
    of DISTINCT ``group_col`` values among the docs matching ``term``.
    GLOBAL distinct — valid only against a SINGLE-SEGMENT index (the
    engine's mergeSegmentResults sums per-segment dedups; with one
    segment the quirk vanishes). -> (value, count) with count >=
    min_count, trimmed to ``size`` by (count desc, value asc)."""
    return f"""WITH {base_ctes()},
matched AS (SELECT DISTINCT doc_id FROM toks WHERE term = '{term}')
SELECT value, count FROM (
  SELECT d.{facet_col} AS value,
         CAST(count(DISTINCT d.{group_col}) AS BIGINT) AS count,
         row_number() OVER (
           ORDER BY count(DISTINCT d.{group_col}) DESC, d.{facet_col} ASC
         ) AS rn
  FROM matched m JOIN documents d ON d.doc_id = m.doc_id
  GROUP BY d.{facet_col}
  HAVING count(DISTINCT d.{group_col}) >= {min_count}
) WHERE rn <= {size} ORDER BY rn"""


def doc_norms_sql() -> str:
    """Displaced driver oracle (r5): per-doc analyzed field length +
    quantized norm byte — kept for the pytest-side check."""
    return (
        f"WITH {base_ctes()} "
        "SELECT dc.doc_id AS doc_id, CAST(dc.flen AS BIGINT) AS field_len, "
        "CAST(dc.nb AS BIGINT) AS norm_byte FROM doccache dc ORDER BY doc_id"
    )


def facet_counts_sql(term: str, col: str = "source") -> str:
    """Displaced driver oracle (r5): flat per-value match counts."""
    return (
        f"WITH {base_ctes()} "
        f"SELECT d.{col} AS {col}, count(*) AS count FROM documents d "
        f"WHERE d.doc_id IN (SELECT DISTINCT doc_id FROM toks WHERE term = '{term}') "
        f"GROUP BY d.{col} ORDER BY d.{col}"
    )


def jaccard_ngram_sql(threshold: float = 0.04) -> str:
    """Displaced driver oracle (r5): 3-gram shingle Jaccard pairs over the
    kept token stream — kept for the pytest-side exact-pairs check."""
    return f"""
WITH {base_ctes()},
posd AS (
  SELECT doc_id, CAST(i AS INT) - 1 AS p, toks[CAST(i AS INT)] AS term
  FROM (SELECT doc_id, string_split(text, ' ') AS toks FROM documents)
  CROSS JOIN range(1, 1025) r(i)
  WHERE i <= len(toks)
),
kept AS (
  SELECT doc_id, term,
         row_number() OVER (PARTITION BY doc_id ORDER BY p) - 1 AS q
  FROM posd
  WHERE term <> '' AND length(term) <= 255 AND term NOT IN ({stops_list()})
),
sh AS (
  SELECT DISTINCT k0.doc_id,
         k0.term || ' ' || k1.term || ' ' || k2.term AS s
  FROM kept k0
  JOIN kept k1 ON k1.doc_id = k0.doc_id AND k1.q = k0.q + 1
  JOIN kept k2 ON k2.doc_id = k0.doc_id AND k2.q = k0.q + 2
),
ssz AS (SELECT doc_id, count(*) AS sz FROM sh GROUP BY doc_id),
sinter AS (
  SELECT a.doc_id AS a, b.doc_id AS b, count(*) AS i
  FROM sh a JOIN sh b ON a.s = b.s AND a.doc_id < b.doc_id
  GROUP BY a.doc_id, b.doc_id
)
SELECT a AS doc_a, b AS doc_b,
       CAST(i AS DOUBLE) / (za.sz + zb.sz - i) AS jaccard
FROM sinter JOIN ssz za ON za.doc_id = a JOIN ssz zb ON zb.doc_id = b
WHERE CAST(i AS DOUBLE) / (za.sz + zb.sz - i) >= {threshold}
ORDER BY doc_a, doc_b"""


def _block_join_ctes(term: str) -> str:
    """Shared CTE prefix of the block-join oracles: per-child BM25 scores
    ``cs(doc_id, j, s)`` and per-parent Avg scores ``parent(doc_id, score,
    nmatch)`` over the derived block corpus (each document d = a 4-doc
    block — child j (j=0,1,2) holds d's kept tokens at positions p%3==j,
    the parent, empty text, is last). Child BM25 stats are per the WHOLE
    index (N = 4n docs incl. parents, avgdl over all); parent score =
    float32 avg of its matched children's scores folded in child order
    (j asc == docID asc), exactly the engine's ScoreMode.Avg."""
    inner = """
    SELECT doc_id, CAST(i AS INT) - 1 AS p, parts[CAST(i AS INT)] AS t
    FROM (SELECT doc_id, string_split(text, ' ') AS parts FROM documents)
    CROSS JOIN range(1, 1025) r(i) WHERE i <= len(parts)"""
    idf = f32("ln(1 + ((SELECT n FROM coll2) - ts.df + 0.5) / (ts.df + 0.5))")
    w = f32(f"{idf} * {K1P1}")
    num = f32(f"{w} * CAST(t.freq AS REAL)")
    den = f32("CAST(t.freq AS REAL) + dc.cache")
    cj = [f"COALESCE(c{j}.s, CAST(0 AS REAL))" for j in range(3)]
    total = f32_sum(cj)
    cnt = " + ".join(
        f"(CASE WHEN c{j}.doc_id IS NULL THEN 0 ELSE 1 END)" for j in range(3))
    return f"""
WITH ctoks AS (
  SELECT doc_id, p % 3 AS j, t AS term FROM ({inner})
  WHERE t <> '' AND length(t) <= 255 AND t NOT IN ({stops_list()})
),
coll2 AS (
  SELECT 4 * (SELECT count(*) FROM documents) AS n,
         (SELECT count(*) FROM ctoks) AS sttf
),
avgdl2 AS (SELECT CAST(CAST(sttf AS DOUBLE) / n AS REAL) AS v FROM coll2),
normmap(lo, hi, nb, dec) AS (VALUES {norm_interval_values()}),
cdoclen AS (
  SELECT d.doc_id, CAST(r.j AS INT) AS j, count(t.term) AS flen
  FROM documents d CROSS JOIN range(0, 3) r(j)
  LEFT JOIN ctoks t ON t.doc_id = d.doc_id AND t.j = r.j
  GROUP BY d.doc_id, r.j
),
ccache AS (
  SELECT dl.doc_id, dl.j,
         {f32(f"{K1} * " + f32(f"{ONE_MINUS_B} + " + f32(f32(f"{B} * CAST(nm.dec AS REAL)") + " / (SELECT v FROM avgdl2)")))} AS cache
  FROM cdoclen dl JOIN normmap nm ON dl.flen BETWEEN nm.lo AND nm.hi
),
ctf AS (
  SELECT doc_id, j, count(*) AS freq FROM ctoks
  WHERE term = '{term}' GROUP BY doc_id, j
),
cdf AS (SELECT count(*) AS df FROM ctf),
cs AS (
  SELECT t.doc_id, t.j, {f32(f"{num} / {den}")} AS s
  FROM ctf t JOIN cdf ts ON TRUE
  JOIN ccache dc ON dc.doc_id = t.doc_id AND dc.j = t.j
),
parent AS (
  SELECT d.doc_id,
         {f32(f"{total} / CAST(({cnt}) AS REAL)")} AS score,
         ({cnt}) AS nmatch
  FROM documents d
  LEFT JOIN cs c0 ON c0.doc_id = d.doc_id AND c0.j = 0
  LEFT JOIN cs c1 ON c1.doc_id = d.doc_id AND c1.j = 1
  LEFT JOIN cs c2 ON c2.doc_id = d.doc_id AND c2.j = 2
)"""


def block_join_sql(term: str, k: int = 10) -> str:
    """ToParentBlockJoin oracle -> (rank, doc_id, score) top-k parents."""
    return f"""{_block_join_ctes(term)}
SELECT CAST(rank AS BIGINT) AS rank, doc_id, score FROM (
  SELECT row_number() OVER (ORDER BY score DESC, doc_id ASC) AS rank,
         doc_id, score
  FROM parent WHERE nmatch > 0
) WHERE rank <= {k} ORDER BY rank"""


def block_join_topgroups_sql(term: str, k_parents: int = 10) -> str:
    """ToParentBlockJoinCollector.getTopGroups oracle: top ``k_parents``
    parents by the join query's Avg score, then ONE ROW PER MATCHED CHILD
    of each selected parent, children ranked within their group by
    (score desc, docID asc == j asc) — the TopScoreDocCollector contract.
    -> (parent_rank, doc_id, parent_score, group_child_hits, child_rank,
    child_score) ordered by (parent_rank, child_rank)."""
    return f"""{_block_join_ctes(term)},
topp AS (
  SELECT parent_rank, doc_id, score, nmatch FROM (
    SELECT row_number() OVER (ORDER BY score DESC, doc_id ASC)
             AS parent_rank, doc_id, score, nmatch
    FROM parent WHERE nmatch > 0
  ) WHERE parent_rank <= {k_parents}
)
SELECT CAST(t.parent_rank AS BIGINT) AS parent_rank,
       t.doc_id AS doc_id,
       t.score AS parent_score,
       CAST(t.nmatch AS BIGINT) AS group_child_hits,
       CAST(row_number() OVER (PARTITION BY t.doc_id
                               ORDER BY c.s DESC, c.j ASC) AS BIGINT)
         AS child_rank,
       c.s AS child_score
FROM topp t JOIN cs c ON c.doc_id = t.doc_id
ORDER BY parent_rank, child_rank"""


def join_scored_sql(term: str, field: str = "source", k: int = 10) -> str:
    """Scored term-join oracle (TermsIncludingScoreQuery, ScoreMode.Max):
    from-side BM25 scores of ``term`` aggregate per ``field`` value by MAX
    (order-independent, float32-exact in SQL); every doc whose field holds
    a collected value scores that max. -> (rank, doc_id, score)."""
    return (
        "WITH " + base_ctes() + "," + term_score_cte("fs", term) + """,
vals AS (
  SELECT d.""" + field + """ AS v, MAX(fs.s) AS vscore
  FROM fs JOIN documents d ON d.doc_id = fs.doc_id
  GROUP BY d.""" + field + """
)
SELECT CAST(rank AS BIGINT) AS rank, doc_id, score FROM (
  SELECT row_number() OVER (ORDER BY v.vscore DESC, d.doc_id ASC) AS rank,
         d.doc_id AS doc_id, v.vscore AS score
  FROM documents d JOIN vals v ON v.v = d.""" + field + f"""
) WHERE rank <= {k} ORDER BY rank""")


def wdf_toks_sql() -> str:
    """Token stream of the WordDelimiter driver chain over the DECORATED
    corpus (__ray_entry__._index_for_wdf): every decoration except the
    ``+"42"`` suffix is invisible after WDF + ASCIIFold + lowercase + stop
    (possessive stripped, parens trimmed, accents folded, capitalization
    lowered), so the stream is the original kept tokens plus one '42'
    token for every raw position p with p % 7 == 3."""
    inner = """
    SELECT doc_id, CAST(i AS INT) - 1 AS p, parts[CAST(i AS INT)] AS t
    FROM (SELECT doc_id, string_split(text, ' ') AS parts FROM documents)
    CROSS JOIN range(1, 1025) r(i) WHERE i <= len(parts)"""
    return f"""
  SELECT doc_id, t AS term FROM ({inner})
  WHERE t <> '' AND length(t) <= 255 AND t NOT IN ({stops_list()})
  UNION ALL
  SELECT doc_id, '42' AS term FROM ({inner})
  WHERE p % 7 = 3 AND t <> ''"""


def bm25_sql(
    musts: list[str] = (),
    shoulds: list[str] = (),
    must_nots: list[str] = (),
    min_should_match: int = 0,
    k: int = 10,
    offset: int = 0,
    filter_terms: list[str] = (),
    boosts: dict[str, float] | None = None,
    toks_sql: str | None = None,
    filter_pred: str | None = None,
) -> str:
    """Full oracle query -> (rank, doc_id, score) float32-exact top-k.
    ``filter_pred`` is an extra scoreless restriction over ``d.doc_id``
    (FilteredQuery with a non-term filter, e.g. a doc-values range)."""
    ctes = [base_ctes(toks_sql=toks_sql)]
    score_terms: list[str] = []
    joins: list[str] = []
    conds: list[str] = []
    i = 0
    boosts = boosts or {}
    base = "doccache d"  # every doc
    for t in musts:
        i += 1
        ctes.append(term_score_cte(f"m{i}", t, boosts.get(t, 1.0)))
        joins.append(f"JOIN m{i} ON m{i}.doc_id = d.doc_id")
        score_terms.append(f"m{i}.s")
    should_names = []
    for t in shoulds:
        i += 1
        ctes.append(term_score_cte(f"s{i}", t, boosts.get(t, 1.0)))
        joins.append(f"LEFT JOIN s{i} ON s{i}.doc_id = d.doc_id")
        score_terms.append(f"COALESCE(s{i}.s, CAST(0 AS REAL))")
        should_names.append(f"s{i}")
    for t in must_nots:
        i += 1
        ctes.append(term_score_cte(f"x{i}", t))
        joins.append(f"LEFT JOIN x{i} ON x{i}.doc_id = d.doc_id")
        conds.append(f"x{i}.doc_id IS NULL")
    for t in filter_terms:  # FilteredQuery: restricts matches, adds no score
        conds.append(
            f"d.doc_id IN (SELECT DISTINCT doc_id FROM toks WHERE term = '{t}')"
        )
    if filter_pred:
        conds.append(filter_pred)
    if should_names:
        matched = " + ".join(
            f"(CASE WHEN {s}.doc_id IS NULL THEN 0 ELSE 1 END)" for s in should_names
        )
        need = min_should_match if musts else max(min_should_match, 1)
        conds.append(f"({matched}) >= {need}")
    if not musts and not shoulds:
        raise ValueError("need at least one scoring clause")
    score = f32_sum(score_terms)
    where = ("WHERE " + " AND ".join(conds)) if conds else ""
    return f"""WITH {",".join(ctes)}
SELECT CAST(rank AS BIGINT) AS rank, doc_id, score FROM (
  SELECT row_number() OVER (ORDER BY score DESC, doc_id ASC) AS rank,
         doc_id, score
  FROM (SELECT d.doc_id AS doc_id, {score} AS score FROM {base} {' '.join(joins)} {where})
) WHERE rank > {offset} AND rank <= {offset + k}
ORDER BY rank"""


def common_terms_sql(terms: list[str], max_term_frequency: float,
                     k: int = 10, low_freq_msm: int = 0) -> str:
    """CommonTermsQuery oracle (SHOULD/SHOULD occurs): terms are classified
    low/high IN SQL by ``df > ceil(mtf * max_doc)`` (absolute when mtf >= 1),
    matching requires >= max(1, msm) LOW matches when any low term exists
    (else >= 1 high match), and the float32 score folds the low group then
    the high group in term order — mirroring the engine's rewritten
    Boolean(MUST(low-bool), SHOULD(high-bool)) accumulation exactly
    (+0.0 identities make the grouped CASE fold bit-equal)."""
    if max_term_frequency >= 1.0:
        cutoff = f"CAST({int(max_term_frequency)} AS BIGINT)"
    else:
        cutoff = (f"CAST(ceil(CAST({max_term_frequency!r} AS DOUBLE) * "
                  f"(SELECT n FROM coll)) AS BIGINT)")
    ctes = [base_ctes()]
    flags = []
    joins = []
    low_parts, high_parts = [], []
    low_match, high_match, any_low = [], [], []
    for i, t in enumerate(terms, start=1):
        ctes.append(term_score_cte(f"c{i}", t))
        joins.append(f"LEFT JOIN c{i} ON c{i}.doc_id = d.doc_id")
        flags.append(
            f"(COALESCE((SELECT df FROM df WHERE term = '{t}'), 0)"
            f" <= {cutoff}) AS l{i}")
        coal = f"COALESCE(c{i}.s, CAST(0 AS REAL))"
        low_parts.append(
            f"(CASE WHEN lf.l{i} THEN {coal} ELSE CAST(0 AS REAL) END)")
        high_parts.append(
            f"(CASE WHEN lf.l{i} THEN CAST(0 AS REAL) ELSE {coal} END)")
        hit = f"(CASE WHEN c{i}.doc_id IS NULL THEN 0 ELSE 1 END)"
        low_match.append(f"(CASE WHEN lf.l{i} THEN {hit} ELSE 0 END)")
        high_match.append(f"(CASE WHEN lf.l{i} THEN 0 ELSE {hit} END)")
        any_low.append(f"(CASE WHEN lf.l{i} THEN 1 ELSE 0 END)")
    ctes.append("lowflag AS (SELECT " + ", ".join(flags) + ")")
    score = f32(f"{f32_sum(low_parts)} + {f32_sum(high_parts)}")
    need = max(1, low_freq_msm)
    cond = (f"CASE WHEN ({' + '.join(any_low)}) > 0 "
            f"THEN ({' + '.join(low_match)}) >= {need} "
            f"ELSE ({' + '.join(high_match)}) >= 1 END")
    return f"""WITH {",".join(ctes)}
SELECT CAST(rank AS BIGINT) AS rank, doc_id, score FROM (
  SELECT row_number() OVER (ORDER BY score DESC, doc_id ASC) AS rank,
         doc_id, score
  FROM (SELECT d.doc_id AS doc_id, {score} AS score
        FROM doccache d CROSS JOIN lowflag lf {' '.join(joins)}
        WHERE {cond})
) WHERE rank <= {k} ORDER BY rank"""


def custom_score_sql(term: str, k: int = 10) -> str:
    """CustomScoreQuery(TermQuery(term), field=doc_id) oracle
    (``queries/CustomScoreQuery.java:47`` default provider): score =
    f32(bm25_f32 * f32(doc_id)) -> (rank, doc_id, score) top-k."""
    ctes = [base_ctes(), term_score_cte("m1", term, 1.0)]
    score = f32(f"m1.s * {f32('d.doc_id')}")
    return f"""WITH {",".join(ctes)}
SELECT CAST(rank AS BIGINT) AS rank, doc_id, score FROM (
  SELECT row_number() OVER (ORDER BY score DESC, doc_id ASC) AS rank,
         doc_id, score
  FROM (SELECT d.doc_id AS doc_id, {score} AS score
        FROM doccache d JOIN m1 ON m1.doc_id = d.doc_id)
) WHERE rank <= {k}
ORDER BY rank"""


# --- span queries -----------------------------------------------------------


def _span_posd(pos_cap: int = 1024) -> str:
    """0-based word-ordinal positions (== engine positions on this corpus)."""
    return f"""
posd AS (
  SELECT doc_id, CAST(i AS INT) - 1 AS p, toks[CAST(i AS INT)] AS term
  FROM (SELECT doc_id, string_split(text, ' ') AS toks FROM documents)
  CROSS JOIN range(1, {pos_cap + 1}) r(i)
  WHERE i <= len(toks)
)"""


def _span_wv(terms: list[str]) -> str:
    """SpanWeight idf: float32 fold over the DISTINCT terms in sorted order
    (TreeSet iteration, ``SpanWeight.java:46-63``), times (k1+1)."""
    idf_acc = "CAST(0 AS REAL)"
    for t in sorted(set(terms)):
        idf_i = f32(
            f"ln(1 + ((SELECT n FROM coll) - "
            f"(SELECT df FROM df WHERE term = '{t}') + 0.5) / "
            f"((SELECT df FROM df WHERE term = '{t}') + 0.5))"
        )
        idf_acc = f32(f"{idf_acc} + {idf_i}")
    return f32(f"{idf_acc} * {K1P1}")


def span_not_hits_sql(include: str, exclude: str, pre: int, post: int) -> str:
    """SpanNotQuery hit set: an include span (p, p+1) survives iff no
    exclude span intersects [p - pre, p + 1 + post), i.e. no exclude
    position x with p - pre <= x <= p + post (``SpanNotQuery.java:96-105``)."""
    return f"""
WITH {base_ctes()},{_span_posd()}
SELECT DISTINCT i.doc_id AS doc_id
FROM posd i
WHERE i.term = '{include}'
  AND NOT EXISTS (
    SELECT 1 FROM posd x
    WHERE x.doc_id = i.doc_id AND x.term = '{exclude}'
      AND x.p >= i.p - {pre} AND x.p <= i.p + {post})
ORDER BY doc_id"""


def span_near_ordered_sql(t1: str, t2: str, slop: int, k: int = 10) -> str:
    """Scored ordered 2-clause SpanNear -> (rank, doc_id, score).

    Match set = the NearSpansOrdered protocol's minimal matches, which for
    two clauses is the MUTUAL predecessor/successor pairs (property-proven
    equal to the walk in tests/test_spans.py): a = max{{A < b}} and
    b = min{{B > a}}. Each match scores sloppyFreq(end - start) =
    1/(2 + b - a); freq folds float32 in match (b-ascending) order via a
    recursive CTE; then the standard BM25 doc score with SpanWeight's
    distinct-sorted-terms idf."""
    wv = _span_wv([t1, t2])
    num = f32(f"{wv} * CAST(h.freq AS REAL)")
    add = f32("f.acc + " + f32(
        f32("CAST(1 AS REAL) / CAST(2 + m.bp - m.ap AS REAL)")))
    return f"""
WITH RECURSIVE {base_ctes()},{_span_posd()},
ta AS (SELECT doc_id, p FROM posd WHERE term = '{t1}'),
tb AS (SELECT doc_id, p FROM posd WHERE term = '{t2}'),
cand AS (
  SELECT b.doc_id AS doc_id,
         (SELECT max(a.p) FROM ta a
          WHERE a.doc_id = b.doc_id AND a.p < b.p) AS ap,
         b.p AS bp
  FROM tb b
),
matches AS (
  SELECT doc_id, ap, bp,
         row_number() OVER (PARTITION BY doc_id ORDER BY bp) AS rn
  FROM cand
  WHERE ap IS NOT NULL
    AND bp = (SELECT min(b2.p) FROM tb b2
              WHERE b2.doc_id = cand.doc_id AND b2.p > cand.ap)
    AND bp - ap - 1 <= {slop}
),
cnt AS (SELECT doc_id, max(rn) AS nm FROM matches GROUP BY doc_id),
fold(doc_id, rn, acc) AS (
  SELECT doc_id, 0, CAST(0 AS REAL) FROM cnt
  UNION ALL
  SELECT f.doc_id, f.rn + 1, {add}
  FROM fold f JOIN matches m ON m.doc_id = f.doc_id AND m.rn = f.rn + 1
),
hits AS (
  SELECT f.doc_id, f.acc AS freq
  FROM fold f JOIN cnt c ON c.doc_id = f.doc_id AND f.rn = c.nm
  WHERE f.acc > 0
)
SELECT CAST(rank AS BIGINT) AS rank, doc_id, score FROM (
  SELECT row_number() OVER (ORDER BY score DESC, doc_id ASC) AS rank,
         doc_id, score
  FROM (SELECT h.doc_id AS doc_id,
               {f32(num + ' / ' + f32("CAST(h.freq AS REAL) + dc.cache"))} AS score
        FROM hits h JOIN doccache dc ON dc.doc_id = h.doc_id)
) WHERE rank <= {k} ORDER BY rank"""


def lang_id_sql() -> str:
    """lang_id oracle: marker-overlap argmax with the engine's iteration
    order (en, de, fr, es; first-strictly-greater wins, default 'en'); the
    CJK shortcut never fires on this ASCII corpus -> (doc_id, lang_guess)."""
    from .stages.textstats import _LANG_MARKERS

    rows = []
    for ordn, (lang, markers) in enumerate(_LANG_MARKERS.items()):
        for t in sorted(markers):
            rows.append(f"('{lang}', {ordn}, '{t}')")
    return f"""
WITH raw AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS t FROM documents
),
marks(lang, ord, term) AS (VALUES {",".join(rows)}),
langs AS (SELECT DISTINCT lang, ord FROM marks),
cnts AS (
  SELECT d.doc_id, l.lang, l.ord,
         (SELECT count(DISTINCT r.t) FROM raw r
          JOIN marks mk ON mk.term = lower(r.t) AND mk.lang = l.lang
          WHERE r.doc_id = d.doc_id) AS n
  FROM documents d CROSS JOIN langs l
),
best AS (
  SELECT doc_id, lang AS lang_guess,
         row_number() OVER (PARTITION BY doc_id
                            ORDER BY n DESC, ord ASC) AS rn
  FROM cnts
)
SELECT doc_id, lang_guess FROM best WHERE rn = 1 ORDER BY doc_id"""


def spell_suggest_sql(queries: list[str], num_sug: int = 5,
                      max_edits: int = 2, accuracy: float = 0.5) -> str:
    """DirectSpellChecker-analogue oracle -> (query, rank, suggestion,
    score, df): candidates share the query's first char, within max_edits
    (DuckDB levenshtein = the same plain Levenshtein); similarity =
    float32 ``1 - ed / max(|a|, |b|)`` (LevensteinDistance.java:107);
    queries present in the index produce no rows; order = score desc,
    df desc, term asc (SuggestWordScoreComparator)."""
    qvals = ", ".join(f"('{q}')" for q in queries)
    score = f32("CAST(1 AS REAL) - " + f32(
        "CAST(levenshtein(term, q) AS REAL) / "
        "CAST(greatest(length(term), length(q)) AS REAL)"))
    return f"""
WITH {base_ctes()},
qs(q) AS (VALUES {qvals}),
cand AS (
  SELECT q, term, df, {score} AS score
  FROM df CROSS JOIN qs
  WHERE term <> q
    AND substr(term, 1, 1) = substr(q, 1, 1)
    AND abs(length(term) - length(q)) <= {max_edits}
    AND levenshtein(term, q) <= {max_edits}
    AND NOT EXISTS (SELECT 1 FROM df d2 WHERE d2.term = q)
),
ranked AS (
  SELECT q AS query, term AS suggestion, df, score,
         row_number() OVER (PARTITION BY q
                            ORDER BY score DESC, df DESC, term ASC) AS rank
  FROM cand WHERE score >= CAST({accuracy} AS REAL)
)
SELECT query, CAST(rank AS BIGINT) AS rank, suggestion, score,
       CAST(df AS BIGINT) AS df
FROM ranked WHERE rank <= {num_sug} ORDER BY query, rank"""


def payload_term_sql(term: str, fn: str = "avg", k: int = 10,
                     mod: int = 7) -> str:
    """Scored PayloadTermQuery -> (rank, doc_id, score).

    The payload of the occurrence at whitespace position p of doc d is the
    synthesized ``(d + p) % mod + 1`` (the derived delimited-payload corpus
    in __ray_entry__). Every occurrence is a length-1 term span: span freq
    = float32(0.5 * tf); payload factor = ``fn`` (avg/min/max) over the
    doc's payloads in DOUBLE, cast to REAL; final score = float32(spanScore
    * payloadFactor) — the engine's execute_payload_term order of ops."""
    wv = _span_wv([term])
    pay_expr = {
        "avg": "CAST(sum((doc_id + p) % {m} + 1) AS DOUBLE) / count(*)",
        "min": "CAST(min((doc_id + p) % {m} + 1) AS DOUBLE)",
        "max": "CAST(max((doc_id + p) % {m} + 1) AS DOUBLE)",
    }[fn].format(m=mod)
    freq = f32("CAST(0.5 AS REAL) * CAST(tf.freq AS REAL)")
    span = f32(f32(f"{wv} * {freq}") + " / " + f32(f"{freq} + dc.cache"))
    return f"""
WITH {base_ctes()},{_span_posd()},
pay AS (
  SELECT doc_id, CAST({pay_expr} AS REAL) AS payf
  FROM posd WHERE term = '{term}' GROUP BY doc_id
)
SELECT CAST(rank AS BIGINT) AS rank, doc_id, score FROM (
  SELECT row_number() OVER (ORDER BY score DESC, doc_id ASC) AS rank,
         doc_id, score
  FROM (SELECT tf.doc_id AS doc_id,
               {f32(span + " * pay.payf")} AS score
        FROM tf
        JOIN doccache dc ON dc.doc_id = tf.doc_id
        JOIN pay ON pay.doc_id = tf.doc_id
        WHERE tf.term = '{term}')
) WHERE rank <= {k} ORDER BY rank"""


# --- LLM-curation oracles (round-5 driver rows) ---------------------------

def decontam_flags_sql(window: int = 13, eval_mod: int = 97) -> str:
    """Oracle for stages/dedup.py::decontaminate(action="flag") with the
    eval set = documents whose doc_id % eval_mod == 0 (the entry's
    deterministic in-corpus eval slice).

    Tokens are ``\\S+`` runs (str.split() semantics); a corpus document is
    contaminated iff ANY of its ``window``-token runs appears in the eval
    set's run set; ``dirty_windows`` counts every corpus window INSTANCE
    that hits (duplicates in one doc each count, engine value_counts
    semantics). NOTE: RE2's \\s is ASCII-only while the engine splits on
    Unicode whitespace — the oracle (like every oracle in this module) is
    exact for the ASCII-whitespace testdata corpora; a corpus with NBSP /
    vertical-tab separators would need a Unicode-class token regex here. The engine compares double-64-bit window hashes; the
    oracle compares the window STRINGS — identical up to a ~2^-128
    collision."""
    w1 = window - 1
    return f"""
WITH tk AS (
  SELECT doc_id, regexp_extract_all(text, '\\S+') AS t FROM documents
),
ex AS (
  SELECT doc_id, t, generate_subscripts(t, 1) AS i FROM tk
),
grams AS (
  SELECT doc_id, array_to_string(t[i:i+{w1}], ' ') AS gr
  FROM ex WHERE i + {w1} <= len(t)
),
ev AS (SELECT DISTINCT gr FROM grams WHERE doc_id % {eval_mod} = 0),
hits AS (
  SELECT g.doc_id, count(*) AS dirty
  FROM grams g JOIN ev ON ev.gr = g.gr GROUP BY g.doc_id
)
SELECT d.doc_id AS doc_id,
       CAST(COALESCE(h.dirty, 0) > 0 AS BIGINT) AS contaminated,
       CAST(COALESCE(h.dirty, 0) AS BIGINT) AS dirty_windows
FROM documents d LEFT JOIN hits h ON h.doc_id = d.doc_id
ORDER BY d.doc_id"""


def _splitmix64_ctes(seed: int, col: str = "doc_id") -> str:
    """CTE chain computing splitmix64(col XOR seed) as UBIGINT column h —
    bit-exact vs stages/mix.py::_mix_hash (verified: wrap-around multiplies
    via UHUGEINT mod 2^64, logical shifts on UBIGINT)."""
    m = 18446744073709551616  # 2^64
    return f"""
sm0 AS (
  SELECT *, CAST((CAST(xor(CAST({col} AS UBIGINT), CAST({seed} AS UBIGINT))
       AS UHUGEINT) + CAST(11400714819323198485 AS UHUGEINT))
       % CAST({m} AS UHUGEINT) AS UBIGINT) AS z1
  FROM documents
),
sm1 AS (
  SELECT *, CAST((CAST(xor(z1, z1 >> 30) AS UHUGEINT)
       * CAST(13787848793156543929 AS UHUGEINT))
       % CAST({m} AS UHUGEINT) AS UBIGINT) AS z2
  FROM sm0
),
sm2 AS (
  SELECT *, CAST((CAST(xor(z2, z2 >> 27) AS UHUGEINT)
       * CAST(10723151780598845931 AS UHUGEINT))
       % CAST({m} AS UHUGEINT) AS UBIGINT) AS z3
  FROM sm1
),
sm AS (SELECT *, xor(z3, z3 >> 31) AS h FROM sm2)"""


def mix_sample_sql(rates: dict[str, float], default_rate: float,
                   seed: int, group_col: str = "source") -> str:
    """Oracle for stages/mix.py::sample_mix — keep a doc iff
    splitmix64(doc_id ^ seed) / 2^64 < rate[group] (strict <, float64
    division, round-to-nearest uint64->double cast on both sides)."""
    if rates:
        case = " ".join(
            f"WHEN '{g}' THEN CAST({r!r} AS DOUBLE)"
            for g, r in rates.items())
        r_expr = (f"(CASE {group_col} {case} "
                  f"ELSE CAST({default_rate!r} AS DOUBLE) END)")
    else:
        r_expr = f"CAST({default_rate!r} AS DOUBLE)"
    return f"""
WITH {_splitmix64_ctes(seed)},
rated AS (
  SELECT doc_id, {group_col}, text, h, {r_expr} AS r
  FROM sm
)
SELECT doc_id, {group_col}, text FROM rated
WHERE r >= 1.0 OR CAST(h AS DOUBLE) / 18446744073709551616.0 < r
ORDER BY doc_id"""


def paragraph_dedup_sql(boiler_a: str, boiler_b: str,
                        min_chars: int = 20) -> str:
    """Oracle for stages/dedup.py::paragraph_dedup over the DECORATED
    corpus (__ray_entry__._paradedup_table): doc_id%3==0 prepends
    boiler_a + blank line, doc_id%4==1 appends blank line + boiler_b.

    Paragraphs = blank-line-separated blocks; blocks whose stripped text
    is shorter than min_chars never dedup; otherwise the lowest
    (doc_id*100000 + 0-based index) occurrence keeps, the rest drop.
    The engine groups by sha256 of the stripped block; the oracle groups
    by the stripped block string itself — same partition. trim() covers
    the six ASCII whitespace chars (exact for the testdata corpora; the
    engine's str.strip() also strips Unicode whitespace)."""
    ws = "' ' || chr(9) || chr(10) || chr(13) || chr(12) || chr(11)"
    nn = "chr(10) || chr(10)"
    return f"""
WITH deco AS (
  SELECT doc_id,
    (CASE WHEN doc_id % 3 = 0 THEN '{boiler_a}' || {nn} ELSE '' END)
    || text ||
    (CASE WHEN doc_id % 4 = 1 THEN {nn} || '{boiler_b}' ELSE '' END)
    AS dtext
  FROM documents
),
parts AS (
  SELECT doc_id, string_split(dtext, {nn}) AS ps FROM deco
),
ex AS (
  SELECT doc_id, unnest(ps) AS p, generate_subscripts(ps, 1) AS i
  FROM parts
),
ex2 AS (
  SELECT doc_id, i, p, trim(p, {ws}) AS s FROM ex
),
own AS (
  SELECT s, min(doc_id * 100000 + (i - 1)) AS owner, count(*) AS c
  FROM ex2 WHERE length(s) >= {min_chars} GROUP BY s
),
kept AS (
  SELECT e.doc_id, e.i, e.p,
         (length(e.s) < {min_chars} OR o.c = 1
          OR o.owner = e.doc_id * 100000 + (e.i - 1)) AS keep
  FROM ex2 e
  LEFT JOIN own o ON length(e.s) >= {min_chars} AND o.s = e.s
)
SELECT doc_id,
  COALESCE(string_agg(p, {nn} ORDER BY i) FILTER (WHERE keep), '')
    AS kept_text,
  CAST(count(*) FILTER (WHERE NOT keep) AS BIGINT) AS dropped_paras
FROM kept GROUP BY doc_id ORDER BY doc_id"""
