"""Per-leaf top-k under the name the Block-Max WAND scorer had.

The reference (Lucene 4.x) prunes top-k only through the collector's
``score <= pqTop.score`` early reject (``search/TopScoreDocCollector.java:53-59``).
Block-Max WAND (Ding & Suel, SIGIR 2011) was tried here beyond it and removed:
every top-k query now runs the one exact scorer, ``execute`` + ``top_k``.
"""

from __future__ import annotations

import numpy as np

from ..queries import Query
from .search import LeafSearcher, SearchContext, execute, top_k


def execute_wand_or_fallback(
    q: Query, leaf: LeafSearcher, ctx: SearchContext, k: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """-> (top-k docids, scores, exact total_hits) from the exhaustive
    scorer. Block-Max WAND measured slower than it on every query shape
    (perfbench ``query`` index, seed 9, 1 CPU, ms summed over the pool:
    hot 176.6 vs 67.6, or3 114.4 vs 53.3, rare 15.3 vs 8.8, same top-k),
    because its per-block bound check is a Python loop while scoring every
    candidate is one vectorized pass."""
    docids, scores = execute(q, leaf, ctx)
    d, s = top_k(docids, scores, k)
    return d, s, len(docids)
