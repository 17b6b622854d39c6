"""Low-latency query serving: a persistent searcher actor pool.

The batch `search()` pipeline dispatches fresh scoring tasks per query
batch (one per cluster CPU; each worker reopens leaves from its process
cache), which suits a batch but not a single query, whose latency is the
fixed cost. Serving keeps its leaves open in stateful actors: one
``@ray.remote`` searcher actor per shard group, created once, queried many
times (the architecture the north star names: "query serving is a stateful
actor-pool stage holding memory-mapped segment shards").

Only the transport differs from ``pipelines.search.search``: both run the
same plan functions from that module. ``plan_queries`` rewrites the queries,
runs the stats exchange (here one ``SearcherActor.stats`` round trip, each
actor folding ``leaf_stats`` with ``sum_stats``; ``make_context`` rolls the
partials up) and resolves top-level value sources; each actor scores its
leaves with ``score_leaves``; ``merge_top_docs`` is the TopDocs.merge.
Leaves are the ``state.manifest.leaf_rows`` view, opened with ``open_leaf``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray

from ..queries import Query
from ..stages.search import SearchContext, decoded_cache_stats
from ..state import manifest as mf
from .search import (_leaf_groups, leaf_stats, make_context, merge_top_docs,
                     open_leaf, plan_queries, score_leaves, sum_stats)


@ray.remote
class SearcherActor:
    """Holds a group of leaves open (term dict in RAM, postings mmap'd).
    Each term's postings are decoded once in the actor's process and kept
    in the byte-bounded decoded-postings cache, so repeated queries skip
    the decode."""

    def __init__(self, index_dir: str, leaves: list[dict]):
        self.leaves = [open_leaf(index_dir, row) for row in leaves]

    def cache_stats(self) -> dict[str, int]:
        """This actor's decoded-postings cache counters
        (``stages.search.decoded_cache_stats``)."""
        return decoded_cache_stats()

    def stats(self, terms: list[str],
              field_terms: list[tuple[str, str]] = ()) -> tuple[dict, dict]:
        return sum_stats(leaf_stats(leaf, terms, field_terms)
                         for leaf in self.leaves)

    def search(self, queries: list[tuple[int, Query]], ctx: SearchContext,
               k: int, algo: str = "exhaustive") -> dict[str, np.ndarray]:
        """``algo`` accepts "exhaustive" and "wand"; both run the same exact
        scorer."""
        return score_leaves(((leaf, queries) for leaf in self.leaves), ctx, k)


class SearchService:
    """Create once per index; ``query()`` is then a low-latency call.

    The service is a POINT-IN-TIME view (DirectoryReader.open semantics):
    it binds the manifest generation current at construction, including its
    liveDocs. Re-create the service to observe later generations (adds,
    deletes, merges) — the refresh/reopen analogue. ``algo`` accepts
    "exhaustive" and "wand"; both run the same exact scorer."""

    def __init__(self, index_dir: str, num_actors: int = 8,
                 algo: str = "exhaustive"):
        self.index_dir = index_dir
        self.manifest = mf.read_index_manifest(index_dir)
        self.actors = [
            SearcherActor.remote(index_dir, group) for group in
            _leaf_groups(mf.leaf_rows(index_dir, self.manifest), num_actors)]
        # warm: force actor construction (mmap + term dict load)
        ray.get([a.stats.remote([]) for a in self.actors])

    def _gather(self, index_dir: str, manifest: dict, terms: list[str],
                field_terms: list[tuple[str, str]]) -> SearchContext:
        """The stats exchange (``plan_queries``'s ``gather``): one round
        trip to every actor."""
        return make_context(manifest, ray.get(
            [a.stats.remote(terms, field_terms) for a in self.actors]))

    def query(self, queries: dict[int, Query] | list[Query], k: int = 10) -> pa.Table:
        qitems, ctx = plan_queries(self.index_dir, self.manifest, queries,
                                   self._gather)
        return merge_top_docs(ray.get([
            a.search.remote(qitems, ctx, k) for a in self.actors
        ]), k)

    def shutdown(self):
        for a in self.actors:
            ray.kill(a)
        self.actors = []
