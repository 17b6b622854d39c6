"""Spellcheck / suggest: a DirectSpellChecker analogue over the index's
term dictionaries.

Re-expresses (NOT ports):
- ``lucene/suggest/src/java/org/apache/lucene/search/spell/
  DirectSpellChecker.java`` — suggestSimilar with
  SUGGEST_WHEN_NOT_IN_INDEX semantics (a term present in the index gets no
  suggestions), minPrefix=1 (candidates share the first character),
  maxEdits (default 2), accuracy threshold (default 0.5);
- ``spell/LevensteinDistance.java:107`` — similarity =
  ``1 - ed / max(|a|, |b|)`` evaluated in float32;
- ``spell/SuggestWordScoreComparator.java`` — output order (score desc,
  docFreq desc, term asc).

Distributed shape: every segment's ``terms.parquet`` streams through ONE
``map_batches`` (query terms broadcast in the task closure; candidate
filtering + the Levenshtein DP fully vectorized per batch via
``fuzzy_distances_batch``); per-batch partial candidates are tiny
(per-query <= vocabulary within 2 edits), so the df roll-up and top-k
finish on the driver. No full term dictionary is ever materialized."""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from ..stages.search import fuzzy_distances_batch
from ..state import manifest as mf

F = np.float32


def spell_suggest(
    index_dir: str,
    queries: list[str],
    num_sug: int = 5,
    max_edits: int = 2,
    min_prefix: int = 1,
    accuracy: float = 0.5,
    transpositions: bool = False,
    distance: str = "levenstein",
    comparator: str = "score",
) -> pa.Table:
    """-> (query, rank, suggestion, score float32, df) rows, ordered by
    (query, rank); queries present in the index produce no rows
    (SUGGEST_WHEN_NOT_IN_INDEX). ``comparator`` picks the suggestion
    order within a query: ``"score"`` = (score desc, df desc, term asc)
    — ``spell/SuggestWordScoreComparator.java``; ``"frequency"`` =
    (df desc, score desc, term asc) —
    ``spell/SuggestWordFrequencyComparator.java``.

    NOTE the reference's internal distance
    (``spell/LuceneLevenshteinDistance.java``) counts adjacent
    transpositions as one edit; this engine DEFAULTS to plain Levenshtein
    (``transpositions=False``) — a deliberate re-expression choice so the
    DuckDB ``levenshtein`` oracle is exact. Pass ``transpositions=True``
    for Damerau (OSA) candidate admission."""
    man = mf.read_index_manifest(index_dir)
    files = [os.path.join(index_dir, s["dir"], "terms.parquet")
             for s in man["segments"]]
    qs = list(queries)

    # typed, so a batch without candidates has the schema of a full one
    scan_schema = pa.schema([("query", pa.string()), ("term", pa.string()),
                             ("df", pa.int64()), ("ed", pa.int64())])

    def scan(batch: pa.Table) -> pa.Table:
        terms = batch["term"].to_pylist()
        strs = [t.decode() if isinstance(t, bytes) else str(t) for t in terms]
        dfs = batch["df"].to_numpy(zero_copy_only=False).astype(np.int64)
        lens = np.fromiter((len(s) for s in strs), count=len(strs),
                           dtype=np.int64)
        out_q, out_t, out_d, out_e = [], [], [], []
        arr = np.asarray(strs, dtype=object)
        for q in qs:
            pre = q[:min_prefix]
            mask = np.fromiter(
                (s.startswith(pre) for s in strs), count=len(strs), dtype=bool)
            mask &= np.abs(lens - len(q)) <= max_edits
            # exact hits ride along (df evidence for IN_INDEX suppression)
            idx = np.flatnonzero(mask | (arr == q))
            if len(idx) == 0:
                continue
            cand = [strs[i] for i in idx]
            eds = fuzzy_distances_batch(cand, q,
                                        transpositions=transpositions)
            keep = eds <= max_edits
            out_q.extend([q] * int(keep.sum()))
            out_t.extend([c for c, k in zip(cand, keep) if k])
            out_d.extend(dfs[idx[keep]].tolist())
            out_e.extend(eds[keep].tolist())
        return pa.table([out_q, out_t, out_d, out_e], schema=scan_schema)

    parts = (
        ray.data.read_parquet(files, columns=["term", "df"])
        .map_batches(scan, batch_format="pyarrow")
        .to_pandas()
    )
    cols = {"query": pd.Series([], dtype=object),
            "rank": pd.Series([], dtype="int64"),
            "suggestion": pd.Series([], dtype=object),
            "score": pd.Series([], dtype="float32"),
            "df": pd.Series([], dtype="int64")}
    if len(parts) == 0:
        return pa.Table.from_pandas(pd.DataFrame(cols), preserve_index=False)
    # roll up per-segment dfs; suppress queries present in the index
    agg = parts.groupby(["query", "term"], as_index=False).agg(
        df=("df", "sum"), ed=("ed", "min"))
    present = set(agg.loc[agg["query"] == agg["term"], "query"])
    agg = agg[(agg["query"] != agg["term"])
              & ~agg["query"].isin(present)].reset_index(drop=True)
    if len(agg) == 0:
        return pa.Table.from_pandas(pd.DataFrame(cols), preserve_index=False)
    if distance == "levenstein":
        maxlen = np.maximum(
            agg["term"].str.len().to_numpy(),
            agg["query"].str.len().to_numpy()
        ).astype(np.float32)
        score = np.subtract(
            F(1.0),
            np.divide(agg["ed"].to_numpy().astype(np.float32), maxlen,
                      dtype=np.float32),
            dtype=np.float32)
    else:
        # StringDistance SPI (DirectSpellChecker.setDistance analogue):
        # candidates admitted by the edit-window scan, rescored by the
        # chosen comparator (functions/distances.py)
        from ..functions import distances as dlib

        if distance == "jaro_winkler":
            fn = dlib.jaro_winkler_distance
        elif distance.startswith("ngram"):
            n = int(distance.split(":", 1)[1]) if ":" in distance else 2
            fn = lambda a, b: dlib.ngram_distance(a, b, n)
        elif distance == "lucene_levenshtein":
            fn = dlib.lucene_levenshtein_distance
        else:
            raise ValueError(f"unknown distance {distance!r}")
        score = np.fromiter(
            (fn(q, t) for q, t in zip(agg["query"], agg["term"])),
            count=len(agg), dtype=np.float32)
    agg = agg.assign(score=score)
    agg = agg[agg["score"] >= F(accuracy)]
    if comparator == "frequency":
        keys = ["query", "df", "score", "term"]
    elif comparator == "score":
        keys = ["query", "score", "df", "term"]
    else:
        raise ValueError(f"unknown comparator {comparator!r}")
    agg = agg.sort_values(keys, ascending=[True, False, False, True],
                          kind="mergesort").reset_index(drop=True)
    agg["rank"] = agg.groupby("query").cumcount() + 1
    agg = agg[agg["rank"] <= num_sug]
    out = pd.DataFrame({
        "query": agg["query"], "rank": agg["rank"].astype("int64"),
        "suggestion": agg["term"], "score": agg["score"].astype("float32"),
        "df": agg["df"].astype("int64"),
    })
    return pa.Table.from_pandas(out.reset_index(drop=True),
                                preserve_index=False)


def spell_collate(
    index_dir: str,
    terms: list[str],
    *,
    max_collations: int = 3,
    max_tries: int = 10,
    num_sug: int = 3,
    max_edits: int = 2,
    min_prefix: int = 1,
    accuracy: float = 0.5,
) -> pa.Table:
    """Re-expresses (NOT ports) Solr's SpellCheckCollator
    (``solr/core/src/java/org/apache/solr/spelling/SpellCheckCollator
    .java`` + ``PossibilityIterator.java``): rewrite the user's query by
    substituting per-term spelling suggestions, TRY each candidate
    collation against the index, and keep only collations that actually
    hit — the "did you mean, verified" feature.

    - Terms present in the index keep themselves (SUGGEST_WHEN_NOT_IN
      _INDEX: no suggestions are generated for them);
    - candidate collations enumerate in rank-sum order (the
      PossibilityIterator's ranked combination walk: sum of per-term
      suggestion ranks ascending, lexicographic rank-vector tie-break),
      capped at ``max_tries`` tries;
    - every try is ONE batched distributed search (the engine's qid
      fan-out), hits = the conjunction's total_hits;
    - up to ``max_collations`` collations with hits >= 1 return, in try
      order (the reference's discovery order).

    -> (rank, collation, hits).
    """
    import itertools

    from ..queries import bool_query
    from .search import search

    sug = spell_suggest(index_dir, terms, num_sug=num_sug,
                        max_edits=max_edits, min_prefix=min_prefix,
                        accuracy=accuracy).to_pandas()
    per_term: list[list[str]] = []
    for t in terms:
        s = sug[sug["query"] == t]
        if len(s) == 0:
            per_term.append([t])  # in-index (or hopeless): keep the term
        else:
            per_term.append(s.sort_values("rank")["suggestion"].tolist())

    # ranked combination walk: rank-vector sum ascending
    combos = sorted(
        itertools.product(*(range(len(p)) for p in per_term)),
        key=lambda rv: (sum(rv), rv))[:max_tries]
    candidates = [" ".join(per_term[i][r] for i, r in enumerate(rv))
                  for rv in combos]
    queries = {qid: bool_query(musts=c.split())
               for qid, c in enumerate(candidates)}
    res = search(index_dir, queries, k=1).to_pandas()
    hits_of = dict(zip(res["qid"], res["total_hits"]))

    rows = []
    for qid, cand in enumerate(candidates):
        h = int(hits_of.get(qid, 0))
        if h >= 1 and cand != " ".join(terms):
            rows.append((len(rows) + 1, cand, h))
            if len(rows) >= max_collations:
                break
    return pa.table({
        "rank": pa.array([r[0] for r in rows], pa.int64()),
        "collation": pa.array([r[1] for r in rows], pa.string()),
        "hits": pa.array([r[2] for r in rows], pa.int64()),
    })
