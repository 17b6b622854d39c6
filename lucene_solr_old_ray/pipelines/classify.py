"""Index-backed document classification (the ``lucene/classification``
module re-expressed on Ray Data).

Two classifiers, both trained ON THE INDEX (no separate model):

- :func:`classify_knn` — k-Nearest-Neighbor via MoreLikeThis
  (``lucene/classification/src/java/org/apache/lucene/classification/
  KNearestNeighborClassifier.java:39-93``): each input text becomes an MLT
  query, the top-k hits vote by their class-field value, score = votes/k.
  The whole input batch runs as ONE distributed query batch (one stats
  pass + one scoring pass for every text), not per-text searches; class
  values come from the hits' stored fields (fetch_doc_meta). Ties break by
  class ascending (the reference iterates a HashMap — nondeterministic;
  this re-expression makes the tie deterministic).

- :func:`classify_naive_bayes` — ``SimpleNaiveBayesClassifier.java:45-171``:
  P(c) * Π_w P(w|c) with add-1 smoothing, where
  P(c) = docCount(c)/docsWithClass and
  P(w|c) = (df(text:w AND class:c) + 1) /
           (avgUniqueTermsPerDoc * docCount(c) + docsWithClass).
  The (word, class) co-occurrence counts are ONE distributed pass over
  the index leaves: per leaf, each word's postings docids index the class
  SORTED doc-values ords and a bincount yields that word's count for
  EVERY class at once (the reference runs one Boolean count query per
  (word, class) pair). Probabilities are doubles, like the reference
  (no float32 contract here — it predates the scoring stack).

Scale shape: inputs ride Ray object-store broadcasts (the per-text vocab
is bounded by ``max_query_terms`` / the analyzer); leaf partials are
(n_words × n_classes) count matrices — constant in corpus size; nothing
per-document ever reaches the driver except the final labels.
"""

from __future__ import annotations


import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from ..functions.analysis import analyze_text
from ..state import manifest as mf
from .mlt import _mlt_from_tf
from .search import fetch_doc_meta, leaf_dataset, open_leaf, search


def classify_knn(
    index_dir: str,
    texts: "list[str]",
    class_field: str,
    k: int = 10,
    *,
    min_term_freq: int = 2,
    min_doc_freq: int = 5,
    max_query_terms: int = 25,
) -> pa.Table:
    """kNN classification of ``texts`` -> (text_ord, class, score, votes).
    ``score`` = majority votes / k (ClassificationResult.getScore)."""
    queries = {}
    for i, t in enumerate(texts):
        tf: dict[str, int] = {}
        for tok in analyze_text(t or ""):
            tf[tok] = tf.get(tok, 0) + 1
        queries[i] = _mlt_from_tf(
            index_dir, tf, min_term_freq=min_term_freq,
            min_doc_freq=min_doc_freq, max_query_terms=max_query_terms)
    res = search(index_dir, queries, k=k).to_pandas()
    classes = []
    if len(res):
        meta = fetch_doc_meta(
            index_dir, res["docid"].tolist()).to_pandas()
        cls_of = dict(zip(meta["docid"], meta[class_field]))
    out_ord, out_cls, out_score, out_votes = [], [], [], []
    for i in range(len(texts)):
        sub = res[res["qid"] == i] if len(res) else res
        if len(sub) == 0:
            continue
        counts: dict[str, int] = {}
        for d in sub["docid"]:
            c = cls_of.get(int(d))
            if c is not None:
                counts[str(c)] = counts.get(str(c), 0) + 1
        if not counts:
            continue
        best = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        out_ord.append(i)
        out_cls.append(best[0])
        out_votes.append(best[1])
        out_score.append(best[1] / k)
    return pa.table({
        "text_ord": pa.array(out_ord, pa.int64()),
        "class": pa.array(out_cls, pa.string()),
        "score": pa.array(out_score, pa.float64()),
        "votes": pa.array(out_votes, pa.int64()),
    })


def _nb_leaf_partials(index_dir: str, class_field: str):
    """Distributed training pass -> (classes, per-class doc counts,
    (word -> per-class df) for the broadcast word list, sum_df, doc_count)
    summed over leaves."""

    def fn(words: "list[str]"):
        words_ref = ray.put(sorted(set(words)))

        def leaf_counts(batch: pd.DataFrame) -> pd.DataFrame:
            ws = ray.get(words_ref)
            rows = []
            for row in batch.to_dict("records"):
                leaf = open_leaf(index_dir, row)
                ords, values = leaf.dv_sorted(class_field)
                ords = np.asarray(ords)
                nclasses = len(values)
                cls_counts = np.bincount(ords[ords >= 0],
                                         minlength=nclasses)
                # text-field docCount (docs with >= 1 kept token) and
                # sumDocFreq (number of (term, doc) postings)
                flen = np.asarray(leaf.doc_values("field_len",
                                                  np.arange(leaf.num_docs)),
                                  dtype=np.int64)
                doc_count = int((flen > 0).sum())
                sum_df = int(leaf.df.sum())
                for w in ws:
                    d, _tf = leaf.postings(w)
                    if len(d):
                        o = ords[d]
                        wc = np.bincount(o[o >= 0], minlength=nclasses)
                    else:
                        wc = np.zeros(nclasses, dtype=np.int64)
                    rows.append({"word": w, "classes": list(values),
                                 "wc": wc.tolist(),
                                 "cls_counts": cls_counts.tolist(),
                                 "sum_df": sum_df, "doc_count": doc_count,
                                 "first": w == ws[0]})
            return pd.DataFrame(rows)

        manifest = mf.read_index_manifest(index_dir)
        ds = leaf_dataset(index_dir, manifest)
        parts = ds.map_batches(leaf_counts, batch_format="pandas",
                               batch_size=4).to_pandas()
        # roll up across leaves (class dicts are per-leaf; align by value)
        classes: dict[str, int] = {}
        for cl in parts["classes"]:
            for c in cl:
                classes.setdefault(str(c), len(classes))
        cls_names = sorted(classes)
        cidx = {c: i for i, c in enumerate(cls_names)}
        n_cls = len(cls_names)
        cls_doc = np.zeros(n_cls, dtype=np.int64)
        word_cls: dict[str, np.ndarray] = {
            w: np.zeros(n_cls, dtype=np.int64) for w in set(parts["word"])}
        sum_df = 0
        doc_count = 0
        for r in parts.itertuples():
            wc = word_cls[r.word]
            for c, n in zip(r.classes, r.wc):
                wc[cidx[str(c)]] += int(n)
            if r.first:  # leaf-level stats counted once per leaf
                for c, n in zip(r.classes, r.cls_counts):
                    cls_doc[cidx[str(c)]] += int(n)
                sum_df += int(r.sum_df)
                doc_count += int(r.doc_count)
        return cls_names, cls_doc, word_cls, sum_df, doc_count

    return fn


class BooleanPerceptronClassifier:
    """Binary perceptron trained on index statistics —
    ``lucene/classification/src/java/org/apache/lucene/classification/
    BooleanPerceptronClassifier.java:54-224``:

    - initial weight of every term = its index totalTermFreq (one
      distributed leaf pass over the term dicts);
    - default threshold = sumDocFreq / 2;
    - online training in docID order: classify each training doc's text
      with the CURRENT weights (sum of per-token-occurrence weights >=
      threshold); on a mistake, add ``modifier * tf(term, doc)`` to every
      of the doc's terms (modifier = correct - assigned, ±1);
    - ``batch_size`` delays the weights snapshot used for classification
      (the reference's per-batch FST rebuild), so mid-batch mistakes
      classify against the stale snapshot exactly like the reference.

    Online perceptron updates are inherently sequential (each step depends
    on the previous weights), so training runs on the driver over the
    training rows; weight INIT and batch CLASSIFICATION are distributed.
    """

    def __init__(self, threshold: "float | None" = None,
                 batch_size: int = 1) -> None:
        self.threshold = threshold
        self.batch_size = batch_size
        self.weights: dict[str, float] = {}
        self._snap: dict[str, float] = {}

    def train(self, index_dir: str, texts: "list[str]",
              labels: "list[bool]") -> None:
        """``texts``/``labels`` are the training docs in docID order (the
        reference's MatchAll scan of stored fields)."""

        def leaf_weights(batch: pd.DataFrame) -> pd.DataFrame:
            rows = []
            for row in batch.to_dict("records"):
                leaf = open_leaf(index_dir, row)
                terms = leaf.terms_range_np(0, leaf.nterms)
                rows.append({"terms": [str(t) for t in terms],
                             "ttfs": leaf.ttf.astype(np.int64).tolist(),
                             "sum_df": int(leaf.df.sum())})
            return pd.DataFrame(rows)

        manifest = mf.read_index_manifest(index_dir)
        items = mf.leaf_rows(index_dir, manifest)
        parts = ray.data.from_items(
            items, override_num_blocks=max(1, len(items))).map_batches(
            leaf_weights, batch_format="pandas", batch_size=4).to_pandas()
        self.weights = {}
        sum_df = 0
        for r in parts.itertuples():
            for t, f in zip(r.terms, r.ttfs):
                self.weights[t] = self.weights.get(t, 0.0) + float(f)
            sum_df += int(r.sum_df)
        if self.threshold is None or self.threshold == 0.0:
            self.threshold = sum_df / 2.0
        self._snap = dict(self.weights)

        for bi, (text, label) in enumerate(zip(texts, labels)):
            toks = analyze_text(text or "")
            out = sum(self._snap.get(t, 0.0) for t in toks)
            assigned = out >= self.threshold
            modifier = int(label) - int(assigned)
            if modifier:
                tf: dict[str, int] = {}
                for t in toks:
                    tf[t] = tf.get(t, 0) + 1
                for t, f in tf.items():
                    self.weights[t] = self.weights.get(t, 0.0) + modifier * f
                if bi % self.batch_size == 0:
                    self._snap = dict(self.weights)
        self._snap = dict(self.weights)

    def assign(self, text: str) -> tuple[bool, float]:
        """-> (class, score) like ClassificationResult (score = raw sum)."""
        if not self._snap:
            raise RuntimeError("call train() first")
        out = sum(self._snap.get(t, 0.0) for t in analyze_text(text or ""))
        return out >= self.threshold, out


def split_dataset(
    ds, *, test_fraction: float = 0.1, cv_fraction: float = 0.1,
    id_col: str = "doc_id", seed: int = 0,
):
    """DatasetSplitter analogue (``classification/utils/DatasetSplitter
    .java:40``): split a Dataset into (train, test, cross-validation) by
    DETERMINISTIC id hash (the reference uses Math.random per doc; a hash
    split is reproducible and shuffle-free — each filter is one
    map_batches predicate, no materialization)."""
    from ..stages.textstats import stable_hash64_batch

    def bucket_of(batch: pa.Table, lo: float, hi: float) -> pa.Table:
        ids = [str(x) + f"#{seed}" for x in batch[id_col].to_pylist()]
        h = stable_hash64_batch(ids).astype(np.float64) / 2.0**64
        keep = (h >= lo) & (h < hi)
        return batch.filter(pa.array(keep))

    t_hi = test_fraction
    cv_hi = test_fraction + cv_fraction
    test = ds.map_batches(lambda b: bucket_of(b, 0.0, t_hi),
                          batch_format="pyarrow")
    cv = ds.map_batches(lambda b: bucket_of(b, t_hi, cv_hi),
                        batch_format="pyarrow")
    train = ds.map_batches(lambda b: bucket_of(b, cv_hi, 1.0),
                           batch_format="pyarrow")
    return train, test, cv


def classify_naive_bayes(
    index_dir: str, texts: "list[str]", class_field: str,
) -> pa.Table:
    """Naive-Bayes classification -> (text_ord, class, score)."""
    toks = [analyze_text(t or "") for t in texts]
    vocab = sorted({w for ts in toks for w in ts})
    cls_names, cls_doc, word_cls, sum_df, doc_count = _nb_leaf_partials(
        index_dir, class_field)(vocab)
    docs_with_class = int(cls_doc.sum())
    avg_unique = (sum_df / doc_count) if doc_count else 0.0
    out_ord, out_cls, out_score = [], [], []
    for i, ts in enumerate(toks):
        best_c, best_v = None, 0.0
        for ci, c in enumerate(cls_names):
            prior = cls_doc[ci] / docs_with_class if docs_with_class else 0.0
            den = avg_unique * cls_doc[ci] + docs_with_class
            val = prior
            for w in ts:
                num = word_cls[w][ci] + 1
                val *= num / den
            # strict > keeps the FIRST max like the reference loop; class
            # order here is sorted (deterministic)
            if val > best_v:
                best_v, best_c = val, c
        if best_c is not None:
            out_ord.append(i)
            out_cls.append(best_c)
            out_score.append(best_v)
    return pa.table({
        "text_ord": pa.array(out_ord, pa.int64()),
        "class": pa.array(out_cls, pa.string()),
        "score": pa.array(out_score, pa.float64()),
    })
