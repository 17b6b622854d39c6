"""Ray-Data-native inverted-index + BM25 search engine.

A from-scratch re-expression of the reference engine's core capability
(Apache Lucene/Solr 4.x-era trunk at /root/reference) as idiomatic Ray Data
pipelines: ingest Parquet corpora of source code `(repo, path, commit, lang,
content)`, tokenize with a StandardAnalyzer-equivalent chain inside
``map_batches`` over Arrow batches, build immutable per-partition inverted
segments, merge them with a term-keyed shuffle, and serve exact BM25
(k1=1.2, b=0.75) top-k from a stateful searcher actor pool.

Layout:
- ``functions/``  pure, vectorized kernels (tokenizer, norms, BM25, codec)
- ``sources/``    corpus loading / partition planning / synthetic generator
- ``stages/``     map_batches / map_groups stage callables
- ``pipelines/``  end-to-end compositions (build_index, merge, search, extras)
- ``state/``      manifests, checkpoints, global statistics
"""

__version__ = "0.1.0"
