"""Query model + minimal classic-syntax parser.

Re-expresses the reference's query tree (``search/TermQuery.java``,
``search/BooleanQuery.java`` MUST/SHOULD/MUST_NOT + minimumNumberShouldMatch,
``search/MatchAllDocsQuery.java``, ``search/PrefixQuery.java``,
``search/TermRangeQuery.java``, ``search/DisjunctionMaxQuery.java``) as plain
dataclasses, and the classic parser
(``queryparser/.../classic/QueryParserBase.java``): ``term``, ``+term``,
``-term``, ``AND/OR/NOT/&&/||/!`` with Lucene's pairwise occur rules,
``(groups)``, ``field:term`` / ``field:(...)``, ``"phrase"~slop``,
``[a TO b]`` / ``{a TO b}`` ranges, ``term~edits`` fuzzy, wildcard /
prefix atoms, and ``^boost`` postfixes.

Query-time text goes through the same analysis chain as indexing (the
reference's QueryParser analyzes terms); a term that analyzes to nothing
(stop word) produces no clause, mirroring the parser dropping empty tokens.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .functions.analysis import analyze_text
from .functions.valuesource import collect_vs_terms, map_queries, queries_of

MUST = "MUST"
SHOULD = "SHOULD"
MUST_NOT = "MUST_NOT"

# a ``functions/valuesource.py`` node (the queries/function ValueSource
# library); named for annotations only
ValueSource = object


@dataclass(frozen=True)
class TermQuery:
    """``field=None`` targets the index's default (content) field; a name
    targets that indexed field (``index/Term.java`` is always (field, text);
    here the default field keeps the unqualified fast path)."""

    term: str
    boost: float = 1.0
    field: str | None = None


@dataclass(frozen=True)
class PrefixQuery:
    """Rewrites to a constant-score set over all terms with the prefix
    (CONSTANT_SCORE rewrite of MultiTermQuery, ``search/PrefixQuery.java:34``).
    ``rewrite="scoring_boolean"`` selects SCORING_BOOLEAN_QUERY_REWRITE
    (``search/MultiTermQuery.java:114``): the expansion becomes a SHOULD
    BooleanQuery of TermQueries that score normally."""

    prefix: str
    boost: float = 1.0
    field: str | None = None
    rewrite: str = "constant"
    max_expansions: int = 1024


@dataclass(frozen=True)
class TermRangeQuery:
    """Term-dictionary range scan (``search/TermRangeQuery.java:43``);
    constant-score rewrite."""

    lower: str | None
    upper: str | None
    include_lower: bool = True
    include_upper: bool = False
    boost: float = 1.0
    field: str | None = None


@dataclass(frozen=True)
class WildcardQuery:
    """``*`` = any run, ``?`` = one char; expands over the term dictionary,
    constant-score by default; ``rewrite="scoring_boolean"`` scores the
    expansion (``search/WildcardQuery.java:43``)."""

    pattern: str
    boost: float = 1.0
    field: str | None = None
    rewrite: str = "constant"
    max_expansions: int = 1024


def leading_wildcard_query(pattern: str, rev_field: str) -> "WildcardQuery":
    """Leading-wildcard rewrite onto a REVERSED sibling field — the
    Solr ReversedWildcardFilter trick (``solr/core/src/java/org/apache/
    solr/analysis/ReversedWildcardFilter.java:30`` + its query-side
    rewrite in ``solr/core/.../parser/SolrQueryParserBase.java``): a field
    indexed with ``analyzer="reverse"`` holds every term reversed, and
    glob languages are closed under reversal (reverse(L(p)) ==
    L(reverse(p)) — concatenation reverses, ``*``/``?`` are
    palindromic), so ``*foo`` becomes ``oof*`` — a LITERAL-PREFIX pattern
    the term dict prunes with one prefix_range bisect instead of a full
    dictionary scan."""
    return WildcardQuery(pattern[::-1], field=rev_field)


@dataclass(frozen=True)
class RegexpQuery:
    """Anchored regular-expression match over the term dictionary
    (``search/RegexpQuery.java:49``; Python ``re`` subset of the RegExp
    operator set — no ``~`` complement / ``<n-m>`` intervals). Constant
    score by default; ``rewrite="scoring_boolean"`` scores the expansion."""

    pattern: str
    boost: float = 1.0
    field: str | None = None
    rewrite: str = "constant"
    max_expansions: int = 1024


@dataclass(frozen=True)
class FuzzyQuery:
    """Terms within ``max_edits`` Levenshtein edits of ``term``
    (``search/FuzzyQuery.java:54``). ``rewrite="constant"`` (default) is the
    constant-score set rewrite; ``rewrite="scoring_boolean"`` follows the
    reference's top-terms scoring rewrite: each expanded term scores as a
    TermQuery boosted by its similarity ``1 - ed/min(|t|,|q|)`` (exact match
    boost 1.0, ``search/FuzzyTermsEnum.java:361-371``), keeping the
    ``max_expansions`` highest-boost terms.

    ``transpositions=True`` counts an adjacent swap as one edit (the
    reference default, ``FuzzyQuery.defaultTranspositions=true``); this
    engine DEFAULTS to plain Levenshtein (``False``) — a documented
    re-expression choice keeping results expressible as the DuckDB
    ``levenshtein`` oracle. Flip per query for reference-default
    behavior."""

    term: str
    max_edits: int = 2
    boost: float = 1.0
    field: str | None = None
    rewrite: str = "constant"
    max_expansions: int = 50
    transpositions: bool = False


@dataclass(frozen=True)
class NumericRangeQuery:
    """Constant-score set of docs whose NUMERIC field value lies in
    [lower, upper] (``search/NumericRangeQuery.java:168``): executes as a
    term-dict range scan over the field's order-preserving value terms
    (functions/numeric.py; the trie decomposition is an IO optimization the
    sorted term dict replaces). ``field`` must name a ``kind="numeric"``
    extra field."""

    field: str
    lower: int | None
    upper: int | None
    include_lower: bool = True
    include_upper: bool = True
    boost: float = 1.0


@dataclass(frozen=True)
class MatchAllDocsQuery:
    boost: float = 1.0


@dataclass(frozen=True)
class FunctionQuery:
    """Re-expresses (NOT ports) ``queries/function/FunctionQuery.java:36``:
    matches every live doc; score(doc) = boost * float32(v(doc)). ``field``
    is either a NUMERIC doc-values field name (the ``FloatFieldSource``
    shorthand; missing value -> 0.0f, the FieldCache default) or any value
    source from ``functions/valuesource.py`` (the queries/function
    ValueSource library)."""

    field: "str | ValueSource"
    boost: float = 1.0


@dataclass(frozen=True)
class CustomScoreQuery:
    """Re-expresses ``queries/CustomScoreQuery.java:47``'s default
    CustomScoreProvider with one value source: score =
    subQueryScore * valSrcScore, in float32, where valSrc is the numeric
    doc-values ``field`` (missing -> 0.0f). The query ``boost`` folds into
    the subquery's execution boost (Lucene's topLevelBoost normalization
    order)."""

    query: "Query"
    field: "str | ValueSource"  # a NUMERIC dv field name or a value source
    boost: float = 1.0


@dataclass(frozen=True)
class BoostingQuery:
    """Re-expresses ``lucene/queries/.../BoostingQuery.java:45-90``: the
    rewrite is BooleanQuery(MUST match, SHOULD context@boost-0) with a
    coord override — matched only ``match`` -> score as-is, matched both
    -> score * ``boost`` (typically < 1 to demote), context alone never
    matches.  Direct form: match scores, multiplied by ``boost`` (f32)
    where the context query also matches."""

    match: "Query"
    context: "Query"
    demote: float = 0.5


@dataclass(frozen=True)
class DuplicateFilterQuery:
    """Re-expresses ``lucene/sandbox/.../queries/DuplicateFilter.java``
    (KM_USE_FIRST/LAST_OCCURRENCE, PM_FULL_VALIDATION): per SEGMENT, only
    the first/last live doc holding each ``field`` value survives; docs
    without the field never match (the filter's empty-bits start).  ANDed
    with ``query`` like FilteredQuery.  Bug-faithful quirk: deduplication
    is per-leaf (AtomicReader), duplicates ACROSS segments remain — run
    after a force-merge for global uniqueness."""

    query: "Query"
    field: str
    keep: str = "last"  # "first" | "last"
    boost: float = 1.0


@dataclass(frozen=True)
class BooleanClause:
    occur: str  # MUST | SHOULD | MUST_NOT
    query: "Query"


@dataclass(frozen=True)
class BooleanQuery:
    clauses: tuple[BooleanClause, ...]
    min_should_match: int = 0
    boost: float = 1.0


@dataclass(frozen=True)
class CommonTermsQuery:
    """Term query that demotes HIGH-frequency terms to optional clauses at
    rewrite time — re-expresses (NOT ports) ``lucene/queries/src/java/org/
    apache/lucene/queries/CommonTermsQuery.java:63``: a term is
    high-frequency when ``df > max_term_frequency`` (absolute when >= 1,
    else ``df > ceil(max_term_frequency * max_doc)``). The rewrite (df from
    the GLOBAL stats pass) builds:

    - only low terms  -> Boolean(low_freq_occur per term, low_freq_msm)
    - only high terms -> Boolean(high_freq_occur per term)
    - both            -> Boolean(MUST(low-bool), SHOULD(high-bool))

    so a doc must satisfy the low-frequency group, and matching
    high-frequency terms still contribute their BM25 score."""

    terms: tuple[str, ...]
    max_term_frequency: float = 0.01
    low_freq_occur: str = SHOULD   # SHOULD | MUST
    high_freq_occur: str = SHOULD
    low_freq_msm: int = 0
    boost: float = 1.0
    field: str | None = None


@dataclass(frozen=True)
class DisjunctionMaxQuery:
    """Max of clause scores + tie_breaker * sum of the rest
    (``search/DisjunctionMaxQuery.java:44``)."""

    disjuncts: tuple["Query", ...]
    tie_breaker: float = 0.0
    boost: float = 1.0


@dataclass(frozen=True)
class BooleanFilterQuery:
    """Re-expresses ``lucene/queries/.../BooleanFilter.java:47-95``: boolean
    docID-set algebra over sub-filters (each sub-filter is any query, used
    for its matching-doc set; constant score). Clause order of operations is
    the reference's: all SHOULDs OR'd first, then MUST_NOTs and-notted (a
    MUST_NOT with no positive clauses starts from ALL docs — unlike
    BooleanQuery, which matches nothing), then MUSTs and'd."""

    clauses: tuple[BooleanClause, ...]  # occur + filter-query
    boost: float = 1.0


@dataclass(frozen=True)
class ChainedFilterQuery:
    """Re-expresses ``lucene/queries/.../ChainedFilter.java:47-180``: a
    left fold of docID sets under per-link logic ops OR/AND/ANDNOT/XOR.
    ``logic`` is one op for the whole chain or a per-filter tuple; the
    initial set follows ``initialResult`` — AND starts from the first
    filter's set, ANDNOT from its complement (both consume the first
    link), OR/XOR start from the empty set."""

    filters: tuple["Query", ...]
    logic: tuple[str, ...] | str = "or"
    boost: float = 1.0


@dataclass(frozen=True)
class FieldValueFilterQuery:
    """Re-expresses ``search/FieldValueFilter.java:35-85``: the docID set
    of docs that HAVE a value for ``field`` (``negate=True`` -> docs
    missing it — the getDocsWithField complement). Constant score,
    composable as a FilteredQuery filter."""

    field: str
    negate: bool = False
    boost: float = 1.0


@dataclass(frozen=True)
class FieldCacheRangeFilterQuery:
    """Re-expresses ``search/FieldCacheRangeFilter.java:60-300``: a range
    filter answered from the FieldCache (doc-values) WITHOUT index terms —
    ``kind="numeric"`` compares NUMERIC dv values (docs missing the field
    are excluded via the missing bits, the newIntRange/getDocsWithField
    pairing), ``kind="string"`` compares SORTED dv ordinals against the
    bounds' ord positions (newStringRange; missing ord -1 never
    matches)."""

    field: str
    lower: float | str | None = None
    upper: float | str | None = None
    include_lower: bool = True
    include_upper: bool = True
    kind: str = "numeric"
    boost: float = 1.0


@dataclass(frozen=True)
class DocTermOrdsRangeFilterQuery:
    """Re-expresses ``search/DocTermOrdsRangeFilter.java:40-120``: the
    multi-valued sibling of FieldCacheRangeFilter — a doc matches when ANY
    of its SORTED_SET values' ordinals falls inside the bounds' ord range
    (newBytesRefRange semantics; docs with no values never match)."""

    field: str
    lower: str | None = None
    upper: str | None = None
    include_lower: bool = True
    include_upper: bool = True
    boost: float = 1.0


@dataclass(frozen=True)
class FilteredQuery:
    """Score by ``query``, restrict to docs matching ``filter`` — the filter
    contributes no score (``search/FilteredQuery.java``). Filter docID sets
    are cached per leaf (CachingWrapperFilter analogue)."""

    query: "Query"
    filter: "Query"
    boost: float = 1.0


@dataclass(frozen=True)
class FunctionRangeQuery:
    """Re-expresses Solr's ``{!frange}`` (``solr/core/src/java/org/apache/
    solr/search/FunctionRangeQParserPlugin.java`` over ``solr/core/.../
    function/ValueSourceRangeFilter.java``): the constant-score doc set
    whose COMPUTED value ``source`` (a NUMERIC dv field name or any
    ``functions/valuesource.py`` node) lies in [lower, upper] with
    inclusive/exclusive bounds.  Missing numeric values evaluate to 0.0f —
    the FieldCache default the reference's FunctionValues stream exposes —
    so an frange spanning 0 matches docs without the field, exactly like
    Solr.  Compose under FilteredQuery/BooleanQuery like any filter."""

    source: "str | ValueSource"  # a NUMERIC dv field name or a value source
    lower: float | None = None
    upper: float | None = None
    include_lower: bool = True
    include_upper: bool = True
    boost: float = 1.0


@dataclass(frozen=True)
class TermsFilterQuery:
    """Re-expresses ``lucene/queries/.../TermsFilter.java:60``: the doc set
    containing ANY of ``terms`` — constant score, no tf decode, cacheable
    via the per-leaf filter cache like any FilteredQuery filter.  The
    classic use: a key-list restriction ANDed onto a scoring query."""

    terms: tuple[str, ...]
    field: str | None = None
    boost: float = 1.0


@dataclass(frozen=True)
class FieldCacheTermsFilterQuery:
    """Re-expresses ``search/FieldCacheTermsFilter.java:50-125``: docs
    whose SORTED doc-values value for ``field`` is ANY of ``terms`` —
    answered purely from the dv ordinals (each term resolves to its ord
    position in the sorted value dict, a FixedBitSet of ords in the
    reference; absent terms contribute nothing), no index terms touched.
    Constant score; docs without a value (ord -1) never match."""

    field: str
    terms: tuple[str, ...]
    boost: float = 1.0


@dataclass(frozen=True)
class FieldCacheRewriteQuery:
    """Re-expresses ``search/FieldCacheRewriteMethod.java:40-120`` (SORTED,
    the single-valued FieldCache rewrite) and
    ``search/DocTermOrdsRewriteMethod.java`` (``multi_valued=True``, the
    SORTED_SET variant): run a MultiTermQuery's term predicate over the
    doc-values VALUE DICTIONARY instead of the index term dict, then match
    docs by ordinal — the reference's TermsEnum-over-dv + ord-bitset
    visitor. ``query`` is a Prefix/Wildcard/Regexp/TermRange query whose
    predicate defines the matching values; ``field`` is the doc-values
    column. Constant score (the rewrite is CONSTANT_SCORE_FILTER)."""

    query: "Query"
    field: str
    multi_valued: bool = False
    boost: float = 1.0


@dataclass(frozen=True)
class ConstantScoreQuery:
    """Matches like the wrapped query; every hit scores ``boost``
    (``search/ConstantScoreQuery.java:36``)."""

    query: "Query"
    boost: float = 1.0


@dataclass(frozen=True)
class ToParentBlockJoinQuery:
    """Nested-document join: score PARENTS from their matching children
    (``lucene/join/src/java/org/apache/lucene/search/join/
    ToParentBlockJoinQuery.java:1``). Documents are indexed in BLOCKS —
    children first, parent LAST, contiguous docIDs (the addDocuments
    contract); ``parent_field``/``parent_value`` is the keyword term
    identifying parent docs (the parentsFilter). ``score_mode`` combines
    matched-child scores per parent in child-docID order: "avg" =
    float32 total / matched-child count, "max", "total", "none" (= 0.0,
    match-only). A child query matching a parent doc raises, like the
    reference's IllegalStateException.

    PARTITIONING ASSUMPTION (documented per the survey's custom-operator
    rule): a block must not straddle an index partition/segment boundary —
    the corpus writer must emit block-aligned partitions (the engine's
    build assigns docIDs in row order per partition, so feeding
    block-multiple ``target_docs_per_partition`` preserves the invariant,
    exactly as addDocuments keeps blocks within one segment)."""

    child: "Query"
    parent_field: str
    parent_value: str
    score_mode: str = "avg"  # avg | max | total | none
    boost: float = 1.0


@dataclass(frozen=True)
class ToChildBlockJoinQuery:
    """The inverse join: match CHILDREN of matching parents, each child
    scoring its parent's score (``join/ToChildBlockJoinQuery.java:1``).
    Same block layout + partitioning assumption as
    :class:`ToParentBlockJoinQuery`; a parent query matching a non-parent
    doc raises."""

    parent: "Query"
    parent_field: str
    parent_value: str
    boost: float = 1.0


@dataclass(frozen=True)
class PhraseQuery:
    """Exact phrase (slop=0) over positions (``search/PhraseQuery.java:47``).

    ``positions`` (the ``PhraseQuery.add(Term, int)`` API) pins each term to
    an explicit position with gaps allowed; None means consecutive 0..k-1.
    Explicit positions require slop == 0."""

    terms: tuple[str, ...]
    slop: int = 0
    boost: float = 1.0
    field: str | None = None
    positions: tuple[int, ...] | None = None


@dataclass(frozen=True)
class NGramPhraseQuery:
    """Phrase over CONSECUTIVE n-gram terms, rewritten to check only every
    n-th gram plus the last — match-equivalent with ~1/n the position
    intersections (``core/src/java/org/apache/lucene/search/
    NGramPhraseQuery.java:31`` rewrite)."""

    terms: tuple[str, ...]
    n: int
    boost: float = 1.0
    field: str | None = None


def ngram_phrase_rewrite(q: "NGramPhraseQuery") -> PhraseQuery:
    """The NGramPhraseQuery.rewrite optimization: phrases of < 3 grams (or
    n < 2) stay dense; otherwise keep grams at positions 0, n, 2n, ... and
    the last gram, each pinned to its original position."""
    k = len(q.terms)
    if q.n < 2 or k < 3:
        return PhraseQuery(q.terms, 0, q.boost, q.field)
    idxs = [i for i in range(k) if i % q.n == 0]
    if idxs[-1] != k - 1:
        idxs.append(k - 1)
    return PhraseQuery(tuple(q.terms[i] for i in idxs), 0, q.boost,
                       q.field, tuple(idxs))


@dataclass(frozen=True)
class MultiPhraseQuery:
    """Re-expresses ``search/MultiPhraseQuery.java:50-290``: a phrase where
    each position holds a SET of alternative terms (``add(Term[])``); a doc
    matches when some choice per slot lines up. Scoring follows
    MultiPhraseWeight: idf = float32 sum over ALL terms in termArrays order
    (slot order, add order within a slot — ``TFIDFSimilarity.idfExplain``
    phrase overload), freq from the per-slot UNION position stream (the
    UnionDocsAndPositionsEnum; duplicate same-position alternatives count
    once — the unique'd union). ``positions`` mirrors ``add(Term[], int)``
    (explicit slot positions require slop == 0, like PhraseQuery here)."""

    terms: tuple[tuple[str, ...], ...]  # per-slot alternative terms
    slop: int = 0
    boost: float = 1.0
    field: str | None = None
    positions: tuple[int, ...] | None = None


@dataclass(frozen=True)
class SpanTermQuery:
    """Primitive span: one (position, position+1) span per occurrence of
    ``term`` (``search/spans/SpanTermQuery.java``, ``TermSpans.java``)."""

    term: str
    field: str | None = None
    boost: float = 1.0


@dataclass(frozen=True)
class SpanNearQuery:
    """Spans of ``clauses`` within ``slop`` of each other, optionally in
    order (``search/spans/SpanNearQuery.java``; matching protocols in
    ``NearSpansOrdered.java`` / ``NearSpansUnordered.java``). The field is
    taken from the clauses (all must agree)."""

    clauses: tuple["Query", ...]
    slop: int = 0
    in_order: bool = True
    boost: float = 1.0


@dataclass(frozen=True)
class SpanOrQuery:
    """Union of the clause spans (``search/spans/SpanOrQuery.java``)."""

    clauses: tuple["Query", ...]
    boost: float = 1.0


@dataclass(frozen=True)
class SpanNotQuery:
    """Spans of ``include`` that do not overlap (within ``pre`` tokens
    before / ``post`` after) any span of ``exclude``
    (``search/spans/SpanNotQuery.java``)."""

    include: "Query"
    exclude: "Query"
    pre: int = 0
    post: int = 0
    boost: float = 1.0


@dataclass(frozen=True)
class SpanFirstQuery:
    """Spans of ``match`` fully within the first ``end`` positions
    (``search/spans/SpanFirstQuery.java:40-48``)."""

    match: "Query"
    end: int = 1
    boost: float = 1.0


@dataclass(frozen=True)
class SpanPositionRangeQuery:
    """Spans of ``match`` whose [start, end) lies inside the position
    window (``search/spans/SpanPositionRangeQuery.java:35-55``;
    SpanFirstQuery is the start=0 special case)."""

    match: "Query"
    start: int = 0
    end: int = 1
    boost: float = 1.0


@dataclass(frozen=True)
class SpanMultiTermQueryWrapper:
    """Spans over a MultiTermQuery's expansion
    (``search/spans/SpanMultiTermQueryWrapper.java:45``): the global
    rewrite pass expands the wrapped prefix/wildcard/regexp/fuzzy query
    and substitutes a SpanOrQuery of SpanTermQueries — so the wrapper
    composes inside SpanNear/Or/Not like the reference.  Must be run
    through ``pipelines.search.plan_queries`` before span execution."""

    query: "Query"
    boost: float = 1.0


@dataclass(frozen=True)
class FieldMaskingSpanQuery:
    """Re-expresses ``search/spans/FieldMaskingSpanQuery.java:75``: the
    wrapped span query reads its OWN field's postings but advertises
    ``mask`` — so span clauses over parallel, position-aligned fields can
    compose inside one SpanNear; scoring statistics come from the masked
    field (the reference's getField contract)."""

    inner: "Query"
    mask: str | None = None
    boost: float = 1.0


@dataclass(frozen=True)
class SpanPayloadCheckQuery:
    """Re-expresses ``search/spans/SpanPayloadCheckQuery.java:40-90`` for
    TERM spans: a span matches only when the payload at its position
    equals the expected value (integer-encoded payload lane). For the
    multi-clause variant see :class:`SpanNearPayloadCheckQuery`."""

    term: str
    payload: int
    field: str | None = None
    boost: float = 1.0


@dataclass(frozen=True)
class SpanNearPayloadCheckQuery:
    """Re-expresses ``search/spans/SpanNearPayloadCheckQuery.java:36-74``:
    a near span is accepted only when the payloads collected from its
    contributing term positions check against ``payloads`` — faithfully
    including the reference's order-insensitive count quirk
    (``acceptPosition`` counts each candidate found ANYWHERE in
    payloadToMatch, so duplicate candidates can all match one expected
    value). Clauses must be term spans (the shapes the reference's payload
    collection walks)."""

    match: "SpanNearQuery"
    payloads: tuple[int, ...]  # expected payloads (collection semantics)
    boost: float = 1.0


@dataclass(frozen=True)
class PayloadNearQuery:
    """Re-expresses (NOT ports) ``search/payloads/PayloadNearQuery.java:59``
    (PayloadNearSpanScorer): a SpanNearQuery whose score folds in a
    PayloadFunction over the integer payloads at every contributing
    term-span position of every matching span — per matching span, freq
    accumulates sloppyFreq(end - start) and each clause's payload at its
    matched position feeds the function (``avg`` = payloadScore /
    payloadsSeen, ``min``/``max`` = running fold; no payloads seen -> 1.0,
    the reference's docScore default). Final score = float32(spanScore *
    payloadFactor). Payload value convention = the indexed integer payload
    as a float (the repo's scorePayload convention, as PayloadTermQuery).
    Clauses must be term spans (the shapes the reference's
    getPayloads/processPayloads walk collects from)."""

    match: "SpanNearQuery"
    function: str = "avg"
    boost: float = 1.0


@dataclass(frozen=True)
class PayloadTermQuery:
    """Re-expresses (NOT ports) ``search/payloads/PayloadTermQuery.java:55``:
    a SpanTermQuery whose score folds in a PayloadFunction over the
    payloads of the term's occurrences in each matching doc —
    ``function`` = ``"avg" | "min" | "max"`` (``AveragePayloadFunction`` /
    ``MinPayloadFunction`` / ``MaxPayloadFunction``), payload value =
    the indexed integer payload as a float (IntegerEncoder analogue of
    ``PayloadHelper.decodeInt``). ``include_span_score=True`` multiplies
    the span BM25 score by the payload factor; ``False`` scores the
    payload factor alone (both float32)."""

    term: str
    function: str = "avg"
    include_span_score: bool = True
    field: str | None = None
    boost: float = 1.0


SpanQuery = (
    SpanTermQuery | SpanNearQuery | SpanOrQuery | SpanNotQuery
    | SpanFirstQuery | SpanPositionRangeQuery | SpanMultiTermQueryWrapper
    | PayloadTermQuery | SpanPayloadCheckQuery | FieldMaskingSpanQuery
)


def span_field(q: "SpanQuery") -> str | None:
    """The (single) field a span-query tree runs over; Lucene requires all
    clauses to share a field (``SpanNearQuery.java`` ctor check)."""
    if isinstance(q, (SpanTermQuery, PayloadTermQuery,
                      SpanPayloadCheckQuery)):
        return q.field
    if isinstance(q, (SpanNearPayloadCheckQuery, PayloadNearQuery)):
        return span_field(q.match)
    if isinstance(q, (SpanNearQuery, SpanOrQuery)):
        fields = {span_field(c) for c in q.clauses}
        if len(fields) > 1:
            raise ValueError("span clauses must share a field")
        return next(iter(fields)) if fields else None
    if isinstance(q, SpanNotQuery):
        fields = {span_field(q.include), span_field(q.exclude)}
        if len(fields) > 1:
            raise ValueError("span clauses must share a field")
        return next(iter(fields))
    if isinstance(q, SpanFirstQuery):
        return span_field(q.match)
    if isinstance(q, SpanPositionRangeQuery):
        return span_field(q.match)
    if isinstance(q, SpanMultiTermQueryWrapper):
        return getattr(q.query, "field", None)
    if isinstance(q, FieldMaskingSpanQuery):
        return q.mask
    raise TypeError(f"not a span query: {type(q)}")


def span_weight_terms(q: "SpanQuery") -> set[str]:
    """Terms SpanWeight gathers statistics for (``SpanWeight.java:46-63``
    via extractTerms — note SpanNotQuery extracts the INCLUDE side only)."""
    if isinstance(q, (SpanTermQuery, PayloadTermQuery,
                      SpanPayloadCheckQuery)):
        return {q.term}
    if isinstance(q, (SpanNearPayloadCheckQuery, PayloadNearQuery)):
        return span_weight_terms(q.match)
    if isinstance(q, (SpanNearQuery, SpanOrQuery)):
        out: set[str] = set()
        for c in q.clauses:
            out |= span_weight_terms(c)
        return out
    if isinstance(q, SpanNotQuery):
        return span_weight_terms(q.include)
    if isinstance(q, SpanFirstQuery):
        return span_weight_terms(q.match)
    if isinstance(q, SpanPositionRangeQuery):
        return span_weight_terms(q.match)
    if isinstance(q, SpanMultiTermQueryWrapper):
        return set()  # terms exist only after the global rewrite
    if isinstance(q, FieldMaskingSpanQuery):
        # stats come from the MASKED field (the getField contract), so
        # the inner terms are gathered against the mask by the caller
        return span_weight_terms(q.inner)
    return set()


Query = (
    TermQuery
    | PrefixQuery
    | TermRangeQuery
    | WildcardQuery
    | RegexpQuery
    | FuzzyQuery
    | NumericRangeQuery
    | MatchAllDocsQuery
    | BooleanQuery
    | DisjunctionMaxQuery
    | PhraseQuery
    | FilteredQuery
    | ConstantScoreQuery
    | SpanTermQuery
    | SpanNearQuery
    | SpanOrQuery
    | SpanNotQuery
    | SpanFirstQuery
    | PayloadTermQuery
    | ToParentBlockJoinQuery
    | ToChildBlockJoinQuery
)


# The query tree's shape, declared once: the fields of each compound type
# that hold subqueries (a query, or a tuple of queries or BooleanClauses).
# Every planner pass (MTQ and CommonTerms rewrites, the stats-term walk,
# top-level value-source resolution) folds over this table.
SUBQUERY_FIELDS: dict[type, tuple[str, ...]] = {
    BooleanQuery: ("clauses",),
    BooleanFilterQuery: ("clauses",),
    DisjunctionMaxQuery: ("disjuncts",),
    ChainedFilterQuery: ("filters",),
    FilteredQuery: ("query", "filter"),
    ConstantScoreQuery: ("query",),
    CustomScoreQuery: ("query",),
    DuplicateFilterQuery: ("query",),
    BoostingQuery: ("match", "context"),
    ToParentBlockJoinQuery: ("child",),
    ToChildBlockJoinQuery: ("parent",),
    SpanNearQuery: ("clauses",),
    SpanOrQuery: ("clauses",),
    SpanNotQuery: ("include", "exclude"),
    SpanFirstQuery: ("match",),
    SpanPositionRangeQuery: ("match",),
    FieldMaskingSpanQuery: ("inner",),
    PayloadNearQuery: ("match",),
    SpanNearPayloadCheckQuery: ("match",),
}

# the field of each type that holds a value source (or a field name)
VALUE_SOURCE_FIELD: dict[type, str] = {
    FunctionQuery: "field",
    CustomScoreQuery: "field",
    FunctionRangeQuery: "source",
}

# query-valued fields the planner must NOT treat as subqueries:
# FieldCacheRewriteQuery runs its query's term predicate over the doc-values
# dictionary, and SpanMultiTermQueryWrapper's query is expanded as a whole
# by the global MTQ rewrite (see :func:`rewrite_target`)
OPAQUE_QUERY_FIELDS: dict[type, str] = {
    FieldCacheRewriteQuery: "query",
    SpanMultiTermQueryWrapper: "query",
}


def subqueries(q: "Query") -> list:
    """The direct subqueries of ``q`` (clauses unwrapped), per
    :data:`SUBQUERY_FIELDS`, then the queries held in its value source
    (``valuesource.QUERY_FIELD``); [] for leaves and opaque types."""
    out = []
    for f in SUBQUERY_FIELDS.get(type(q), ()):
        v = getattr(q, f)
        for c in (v if isinstance(v, tuple) else (v,)):
            out.append(c.query if isinstance(c, BooleanClause) else c)
    vs = value_source(q)
    return out + queries_of(vs) if vs is not None else out


def map_subqueries(q: "Query", fn) -> "Query":
    """``q`` with ``fn`` applied to each direct subquery (a clause keeps its
    occur), including the queries held in its value source; leaves and
    opaque types come back as they are."""
    changes = {}

    def apply(v):
        if not isinstance(v, tuple):
            return fn(v)
        return tuple(BooleanClause(c.occur, fn(c.query))
                     if isinstance(c, BooleanClause) else fn(c) for c in v)

    for f in SUBQUERY_FIELDS.get(type(q), ()):
        changes[f] = apply(getattr(q, f))
    vs = value_source(q)
    if vs is not None:
        changes[VALUE_SOURCE_FIELD[type(q)]] = map_queries(vs, fn)
    return replace(q, **changes) if changes else q


def value_source(q: "Query"):
    """The value-source node ``q`` scores or filters by, per
    :data:`VALUE_SOURCE_FIELD`; None for other types and for a plain
    doc-values field name."""
    f = VALUE_SOURCE_FIELD.get(type(q))
    vs = getattr(q, f) if f else None
    return None if isinstance(vs, str) else vs


_MTQ_TYPES = (PrefixQuery, WildcardQuery, RegexpQuery, FuzzyQuery)

_SPAN_TYPES = (SpanTermQuery, SpanNearQuery, SpanOrQuery, SpanNotQuery,
               SpanFirstQuery, SpanPositionRangeQuery,
               SpanMultiTermQueryWrapper, PayloadTermQuery,
               SpanPayloadCheckQuery, SpanNearPayloadCheckQuery,
               PayloadNearQuery, FieldMaskingSpanQuery)


def rewrite_target(q: "Query"):
    """The MultiTermQuery the global rewrite expands at node ``q``: a
    scoring-rewrite Prefix/Wildcard/Regexp/Fuzzy query itself, or the query
    a SpanMultiTermQueryWrapper wraps (the wrapper always expands); else
    None."""
    if isinstance(q, SpanMultiTermQueryWrapper):
        return q.query
    if isinstance(q, _MTQ_TYPES) and q.rewrite == "scoring_boolean":
        return q
    return None


def needs_rewrite(q: "Query") -> bool:
    """True if the query (tree) contains a scoring MultiTermQuery that must
    be expanded against the index before stats/scoring (ScoringRewrite)."""
    return (rewrite_target(q) is not None
            or any(needs_rewrite(c) for c in subqueries(q)))


def phrase(text: str, slop: int = 0) -> PhraseQuery:
    """Analyze a phrase string into a PhraseQuery (consecutive positions)."""
    return PhraseQuery(tuple(analyze_text(text)), slop)


def term(text: str) -> TermQuery | None:
    """Analyze one term's text; None if it analyzes away (stop word)."""
    toks = analyze_text(text)
    if not toks:
        return None
    return TermQuery(toks[0])


def bool_query(
    musts: list[str] = (),
    shoulds: list[str] = (),
    must_nots: list[str] = (),
    min_should_match: int = 0,
) -> BooleanQuery:
    """Build a BooleanQuery from raw (unanalyzed) single-term strings; terms
    that analyze away are dropped (parser semantics)."""
    clauses: list[BooleanClause] = []
    for occur, texts in ((MUST, musts), (SHOULD, shoulds), (MUST_NOT, must_nots)):
        for t in texts:
            tq = term(t)
            if tq is not None:
                clauses.append(BooleanClause(occur, tq))
    return BooleanQuery(tuple(clauses), min_should_match)


def stacked_query(text: str, analyzer: str = "standard",
                  operator: str = MUST) -> "Query | None":
    """Build a query from text honoring SAME-POSITION token stacks (the
    QueryParser's handling of posIncr-0 streams, ``queryparser/.../
    QueryParserBase.java`` multi-term synonym path): each position with
    alternatives becomes an OR of its terms, positions combine with
    ``operator`` (MUST = parser AND default, SHOULD = OR).  This is the
    recall-correct query side for phonetic analyzers — all codes of a
    term match, not just the primary (DoubleMetaphoneFilter stacks both).
    None when everything analyzes away."""
    from .functions.analysis import analyze_text_stacked

    positions = analyze_text_stacked(text, analyzer)
    if not positions:
        return None
    per_pos: list[Query] = []
    for alts in positions:
        if len(alts) == 1:
            per_pos.append(TermQuery(alts[0]))
        else:
            per_pos.append(BooleanQuery(tuple(
                BooleanClause(SHOULD, TermQuery(a)) for a in alts)))
    if len(per_pos) == 1:
        return per_pos[0]
    return BooleanQuery(tuple(BooleanClause(operator, q) for q in per_pos))


def collect_stats_terms(q: Query) -> set[tuple[str | None, str]]:
    """(field, term) pairs a query needs statistics/postings for — field
    None is the default field (the per-field TermContext pass,
    ``index/TermContext.java:81-101``)."""
    if isinstance(q, TermQuery):
        return {(q.field, q.term)}
    if isinstance(q, (PhraseQuery, CommonTermsQuery)):
        return {(q.field, t) for t in q.terms}
    if isinstance(q, MultiPhraseQuery):
        return {(q.field, t) for slot in q.terms for t in slot}
    if isinstance(q, NGramPhraseQuery):
        return collect_stats_terms(ngram_phrase_rewrite(q))
    if isinstance(q, _SPAN_TYPES):
        # a span root weighs what SpanWeight extracts, against its field
        f = span_field(q)
        return {(f, t) for t in span_weight_terms(q)}
    # TermsFilterQuery is constant-score: it needs no stats
    out: set[tuple[str | None, str]] = set()
    vs = value_source(q)
    if vs is not None:
        out |= collect_vs_terms(vs)
    if isinstance(q, (ToParentBlockJoinQuery, ToChildBlockJoinQuery)):
        out.add((q.parent_field, q.parent_value))
    for c in subqueries(q):
        out |= collect_stats_terms(c)
    return out


def collect_terms(q: Query) -> set[str]:
    """Exact DEFAULT-FIELD terms a query needs statistics/postings for
    (field-qualified terms come from :func:`collect_field_terms`)."""
    return {t for f, t in collect_stats_terms(q) if f is None}


def collect_field_terms(q: Query) -> set[tuple[str, str]]:
    """(field, term) pairs for every FIELD-QUALIFIED exact term in the
    query."""
    return {p for p in collect_stats_terms(q) if p[0] is not None}


import re as _pre

# lexer for the classic syntax: connectors, modifiers, grouping, a field
# prefix, quoted phrases, [..] / {..} ranges, and bare terms; ~fuzzy/slop
# and ^boost postfixes are matched separately after each atom
_LEX = _pre.compile(r"""
    (?P<ws>\s+)
  | (?P<and>AND\b|&&)
  | (?P<or>OR\b|\|\|)
  | (?P<not>NOT\b|!)
  | (?P<plus>\+)
  | (?P<minus>-)
  | (?P<lparen>\()
  | (?P<rparen>\))
  | (?P<field>[A-Za-z_][\w.]*(?=:)):
  | "(?P<quoted>[^"]*)"
  | (?P<range>[\[{][^\]}]*?\s+TO\s+[^\]}]*?[\]}])
  | (?P<term>[^\s()^~"]+)
""", _pre.VERBOSE)
_POSTFIX = _pre.compile(r"(?:~(?P<sim>\d+(?:\.\d+)?)?)?(?:\^(?P<boost>\d+(?:\.\d+)?))?")


def _fuzzy_edits(sim: str | None, term_len: int) -> int:
    """``~`` postfix value -> max edits (``search/FuzzyQuery.java:234``
    floatToEdits: floats < 1 are the legacy similarity scale)."""
    if sim is None or sim == "":
        return 2
    v = float(sim)
    if v >= 1.0:
        return min(int(v), 2)
    return min(int((1.0 - v) * term_len), 2)


def parse(text: str, default_field: str | None = None) -> Query:
    """Classic-syntax parser (``queryparser/classic/QueryParserBase.java``
    semantics with the default-OR operator): ``+term -term``, ``AND OR NOT
    && || !`` connectors with Lucene's pairwise occur rules (``x AND y``
    promotes x to MUST and makes y MUST; bare terms are SHOULD),
    ``(grouped clauses)``, ``field:term`` and ``field:(...)`` scoping,
    ``"quoted phrases"`` with ``~slop``, ``[a TO b]`` / ``{a TO b}`` term
    ranges (``*`` = open bound), trailing-``*`` prefix / embedded
    ``*``/``?`` wildcard, ``term~`` fuzzy (optional edits or legacy
    similarity float), and ``^boost`` on any atom or group. A field equal
    to ``default_field`` maps to the unqualified content field."""
    q, _ = _parse_clauses(text, 0, None, default_field)
    return q


def parse_multi_field(text: str, fields, boosts=None,
                      default_field: str | None = None) -> Query:
    """Re-expresses ``queryparser/classic/MultiFieldQueryParser.java:43-148``:
    parse with the classic grammar, then expand every UNQUALIFIED atom
    (term / phrase / prefix / wildcard / fuzzy / regexp / range) into a
    SHOULD BooleanQuery over ``fields`` — the reference's
    getFieldQuery(null, ...) per-field loop — with the per-field
    ``boosts`` map folded into each copy's boost (the reference sets the
    field boost at query creation; multiplied here so an explicit
    ``^boost`` composes with it instead of clobbering it).
    ``field:``-qualified clauses and operators parse exactly as
    :func:`parse`. One field skips the wrapper (a 1-clause SHOULD scores
    identically but this keeps trees small)."""
    return _expand_multi_field(parse(text, default_field), tuple(fields),
                               dict(boosts or {}))


def _expand_multi_field(q: Query, fields: tuple, bmap: dict) -> Query:
    if isinstance(q, BooleanQuery):
        return replace(q, clauses=tuple(
            BooleanClause(c.occur, _expand_multi_field(c.query, fields, bmap))
            for c in q.clauses))
    if isinstance(q, DisjunctionMaxQuery):
        return replace(q, disjuncts=tuple(
            _expand_multi_field(d, fields, bmap) for d in q.disjuncts))
    if isinstance(q, (TermQuery, PhraseQuery, PrefixQuery, WildcardQuery,
                      FuzzyQuery, RegexpQuery, TermRangeQuery)) \
            and q.field is None:
        if len(fields) == 1:
            f = fields[0]
            return replace(q, field=f, boost=q.boost * bmap.get(f, 1.0))
        return BooleanQuery(tuple(
            BooleanClause(SHOULD, replace(
                q, field=f, boost=q.boost * bmap.get(f, 1.0)))
            for f in fields))
    return q


def parse_precedence(text: str, default_field: str | None = None) -> Query:
    """Re-expresses ``queryparser/flexible/precedence/PrecedenceQueryParser
    .java`` + ``BooleanModifiersQueryNodeProcessor``: boolean operators get
    PRECEDENCE — ``AND`` binds tighter than ``OR``, which binds tighter
    than juxtaposition — instead of the classic parser's flat pairwise
    promotion. ``A AND B OR C AND D`` == ``(A AND B) OR (C AND D)``;
    ``A OR B C`` == ``(A B) C``; ``A OR NOT B AND C`` == ``A (-B +C)``
    (the reference's TestPrecedenceQueryParser.testPrecedence cases).
    Implemented as a grouping rewrite (explicit parens inserted around
    maximal AND-chains, then OR-chains, recursively inside groups) over
    the classic grammar, so atoms / fields / phrases / ranges / boosts
    behave exactly as :func:`parse`."""
    return parse(_prec_rewrite(text), default_field)


def _prec_scan(text: str) -> list:
    """-> [("atom", src), ("conj", "AND"|"OR"), ...]; modifiers (+ - NOT !)
    attach to their following atom's source; paren groups are rewritten
    recursively; quoted phrases are opaque."""
    items: list = []
    i, n = 0, len(text)
    mods = ""
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        m = _pre.match(r"(?:AND\b|&&)", text[i:])
        if m and not mods:
            items.append(("conj", "AND"))
            i += m.end()
            continue
        m = _pre.match(r"(?:OR\b|\|\|)", text[i:])
        if m and not mods:
            items.append(("conj", "OR"))
            i += m.end()
            continue
        m = _pre.match(r"(?:NOT\b|!|\+|-)", text[i:])
        if m:
            mods += text[i:i + m.end()] + (" " if m.group() == "NOT" else "")
            i += m.end()
            continue
        fld = _pre.match(r"[\w.]+:", text[i:])
        j = i + (fld.end() if fld else 0)
        if j < n and text[j] == "(":
            depth, k = 1, j + 1
            while k < n and depth:
                depth += {"(": 1, ")": -1}.get(text[k], 0)
                k += 1
            inner = text[j + 1: k - 1]
            post = _POSTFIX.match(text, k)
            suffix = text[k:post.end()] if post else ""
            k = post.end() if post else k
            items.append(("atom", mods + text[i:j] + "("
                          + _prec_rewrite(inner) + ")" + suffix))
            i = k
            mods = ""
            continue
        if j < n and text[j] == '"':
            k = text.find('"', j + 1)
            k = n if k < 0 else k + 1
            post = _POSTFIX.match(text, k)
            k = post.end() if post else k
            items.append(("atom", mods + text[i:k]))
            i = k
            mods = ""
            continue
        m = _pre.match(r"[^\s()]+", text[i:])
        items.append(("atom", mods + text[i:i + m.end()]))
        i += m.end()
        mods = ""
    return items


def _prec_rewrite(text: str) -> str:
    items = _prec_scan(text)
    # pass 1: wrap maximal AND-chains
    out1: list = []
    i = 0
    while i < len(items):
        kind, v = items[i]
        if kind == "conj" and v == "AND":
            if (out1 and isinstance(out1[-1], str)
                    and i + 1 < len(items) and items[i + 1][0] == "atom"):
                chain = [out1.pop(), items[i + 1][1]]
                i += 2
                while (i + 1 < len(items) and items[i] == ("conj", "AND")
                       and items[i + 1][0] == "atom"):
                    chain.append(items[i + 1][1])
                    i += 2
                out1.append("(" + " AND ".join(chain) + ")")
            else:
                i += 1  # dangling AND: dropped (lenient, as classic)
        elif kind == "conj":  # OR marker for pass 2
            out1.append(("OR",))
            i += 1
        else:
            out1.append(v)
            i += 1
    # pass 2: wrap maximal OR-chains (their operands become one SHOULD group)
    final: list = []
    j = 0
    while j < len(out1):
        v = out1[j]
        if v == ("OR",):
            if (final and isinstance(final[-1], str)
                    and j + 1 < len(out1) and isinstance(out1[j + 1], str)):
                chain = [final.pop(), out1[j + 1]]
                j += 2
                while (j + 1 < len(out1) and out1[j] == ("OR",)
                       and isinstance(out1[j + 1], str)):
                    chain.append(out1[j + 1])
                    j += 2
                final.append("(" + " ".join(chain) + ")")
            else:
                j += 1
        else:
            final.append(v)
            j += 1
    return " ".join(x for x in final if isinstance(x, str))


def parse_analyzing(text: str, analyzer: str = "standard",
                    default_field: str | None = None) -> Query:
    """Re-expresses ``queryparser/analyzing/AnalyzingQueryParser.java:55-200``:
    the classic grammar, but WILDCARD / PREFIX / FUZZY terms also pass
    through the analyzer — each wildcard-free chunk must analyze to
    exactly ONE token (the reference throws ParseException otherwise ->
    ``ValueError`` here; a leading ``*``/``?`` is likewise rejected), the
    wildcard characters themselves are preserved in place. Plain terms
    and phrases re-analyze through the configured chain (dropping clauses
    that analyze away); ranges keep :func:`parse`'s lowercasing. Useful
    when the index chain folds characters (e.g. ASCII folding):
    ``übersetzung*`` analyzes to ``ubersetzung*`` and matches the folded
    index terms, which the classic parser's lowercase-only expansion
    would miss."""
    q = _analyze_expanded(parse(text, default_field), analyzer)
    return q if q is not None else BooleanQuery(())


def _analyze_one_chunk(chunk: str, analyzer: str) -> str:
    toks = analyze_text(chunk, analyzer)
    if len(toks) != 1:
        raise ValueError(
            f"Unable to analyze multi-term text {chunk!r} to one token "
            f"(analyzer returned {toks!r}) — "
            "AnalyzingQueryParser.analyzeSingleChunk contract")
    return toks[0]


def _analyze_expanded(q: Query, analyzer: str) -> Query:
    if isinstance(q, BooleanQuery):
        kept = []
        for c in q.clauses:
            cq = _analyze_expanded(c.query, analyzer)
            if cq is not None:  # clause analyzed away: dropped (parser rule)
                kept.append(BooleanClause(c.occur, cq))
        return replace(q, clauses=tuple(kept))
    if isinstance(q, DisjunctionMaxQuery):
        return replace(q, disjuncts=tuple(
            d2 for d in q.disjuncts
            if (d2 := _analyze_expanded(d, analyzer)) is not None))
    if isinstance(q, PrefixQuery):
        return replace(q, prefix=_analyze_one_chunk(q.prefix, analyzer))
    if isinstance(q, FuzzyQuery):
        return replace(q, term=_analyze_one_chunk(q.term, analyzer))
    if isinstance(q, WildcardQuery):
        import re as _re

        if q.pattern[:1] in ("*", "?"):
            raise ValueError(
                "'*' or '?' not allowed as first character in WildcardQuery "
                "(AnalyzingQueryParser.getWildcardQuery)")
        parts = _re.split(r"([*?]+)", q.pattern)
        out = [p if i % 2 else (_analyze_one_chunk(p, analyzer) if p else p)
               for i, p in enumerate(parts)]
        return replace(q, pattern="".join(out))
    if isinstance(q, TermQuery) and analyzer != "standard":
        # plain terms re-analyze through the configured chain too (the
        # parser's getFieldQuery always used its analyzer)
        toks = analyze_text(q.term, analyzer)
        if len(toks) == 1:
            return replace(q, term=toks[0])
        if toks:
            return PhraseQuery(tuple(toks), boost=q.boost, field=q.field)
        return None  # analyzed away: clause drops
    if isinstance(q, PhraseQuery) and analyzer != "standard":
        toks: list[str] = []
        for t in q.terms:
            toks.extend(analyze_text(t, analyzer))
        if len(toks) == 1:
            return TermQuery(toks[0], q.boost, field=q.field)
        if toks:
            return replace(q, terms=tuple(toks))
        return None
    return q


def _with_boost(q: Query, boost: float) -> Query:
    if boost == 1.0:
        return q
    return replace(q, boost=q.boost * boost)


def _add_clause(clauses: list[BooleanClause], conj: str | None,
                mods: str | None, q: Query) -> None:
    """``QueryParserBase.addClause``: AND promotes the previous
    non-prohibited clause to MUST; the new clause is MUST if ``+`` or an
    un-modified AND operand, MUST_NOT if ``-``/NOT, else SHOULD."""
    if clauses and conj == "AND":
        prev = clauses[-1]
        if prev.occur != MUST_NOT:
            clauses[-1] = BooleanClause(MUST, prev.query)
    if mods == "NOT":
        occur = MUST_NOT
    elif mods == "REQ" or conj == "AND":
        occur = MUST
    else:
        occur = SHOULD
    clauses.append(BooleanClause(occur, q))


def _parse_clauses(text: str, pos: int, field_ctx: str | None,
                   default_field: str | None) -> tuple[Query, int]:
    clauses: list[BooleanClause] = []
    conj: str | None = None
    mods: str | None = None
    n = len(text)
    while pos < n:
        m = _LEX.match(text, pos)
        if m is None:  # unlexable char (stray ^/~/"): skip it
            pos += 1
            continue
        pos = m.end()
        kind = m.lastgroup
        if kind == "ws":
            continue
        if kind == "rparen":
            pos -= 1  # caller consumes it
            break
        if kind == "and":
            conj = "AND"
            continue
        if kind == "or":
            conj = "OR"
            continue
        if kind in ("not", "minus"):
            mods = "NOT"
            continue
        if kind == "plus":
            mods = "REQ"
            continue

        fld = field_ctx
        if kind == "field":
            name = m.group("field")
            fld = None if name == default_field else name
            nxt = _LEX.match(text, pos)
            if nxt is None:
                break
            pos = nxt.end()
            kind = nxt.lastgroup
            m = nxt
            if kind in ("ws", "and", "or", "not", "plus", "minus",
                        "rparen"):
                # dangling "field:" — treat the connector normally next loop
                pos = m.start()
                continue

        q: Query | None = None
        if kind == "lparen":
            q, pos = _parse_clauses(text, pos, fld, default_field)
            cm = _pre.compile(r"\s*\)").match(text, pos)
            if cm:
                pos = cm.end()
        elif kind == "quoted":
            terms = tuple(analyze_text(m.group("quoted")))
            pf = _POSTFIX.match(text, pos)
            slop = 0
            boost = 1.0
            if pf and pf.end() > pf.start():
                slop = int(float(pf.group("sim") or 0))
                boost = float(pf.group("boost") or 1.0)
                pos = pf.end()
            if len(terms) == 1:
                q = TermQuery(terms[0], boost, field=fld)
            elif terms:
                q = PhraseQuery(terms, slop=slop, boost=boost, field=fld)
            if q is not None:
                _add_clause(clauses, conj, mods, q)
            conj = mods = None
            continue
        elif kind == "range":
            r = m.group("range")
            lo_inc, hi_inc = r[0] == "[", r[-1] == "]"
            body = r[1:-1]
            lo_s, hi_s = _pre.split(r"\s+TO\s+", body, maxsplit=1)
            lo = None if lo_s.strip() in ("*", "") else lo_s.strip().lower()
            hi = None if hi_s.strip() in ("*", "") else hi_s.strip().lower()
            q = TermRangeQuery(lo, hi, include_lower=lo_inc,
                               include_upper=hi_inc, field=fld)
        else:  # bare term
            tok = m.group("term")
            pf = _POSTFIX.match(text, pos)
            sim = boost_s = None
            if pf and pf.end() > pf.start():
                sim = pf.group("sim")
                boost_s = pf.group("boost")
                fuzzy = text[pos] == "~"
                pos = pf.end()
            else:
                fuzzy = False
            boost = float(boost_s) if boost_s else 1.0
            if fuzzy:
                base = analyze_text(tok)
                if base:
                    q = FuzzyQuery(base[0], _fuzzy_edits(sim, len(base[0])),
                                   boost=boost, field=fld)
            elif "*" in tok or "?" in tok:
                low = tok.lower()
                if low.endswith("*") and "*" not in low[:-1] and "?" not in low:
                    q = PrefixQuery(low[:-1], boost=boost, field=fld)
                else:
                    q = WildcardQuery(low, boost=boost, field=fld)
            else:
                terms = analyze_text(tok)
                if len(terms) == 1:
                    q = TermQuery(terms[0], boost, field=fld)
                elif terms:  # analyzer split the token: positional phrase
                    q = PhraseQuery(tuple(terms), boost=boost, field=fld)
        if q is not None:
            if kind in ("lparen", "range"):
                pf = _POSTFIX.match(text, pos)
                if pf and pf.end() > pf.start():
                    q = _with_boost(q, float(pf.group("boost") or 1.0))
                    pos = pf.end()
            _add_clause(clauses, conj, mods, q)
        conj = mods = None
    if len(clauses) == 1 and clauses[0].occur != MUST_NOT:
        return clauses[0].query, pos
    return BooleanQuery(tuple(clauses)), pos
