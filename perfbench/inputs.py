"""Seeded inputs: a synthetic source-code corpus, marked update batches and a
query pool.

The benchmark owns its generator instead of calling the library's
``generate_corpus``, so a change to the library cannot change the inputs a
before/after comparison runs on. The shape follows the same model: Zipf-hot
keywords, a mid-frequency identifier vocabulary and a long Zipf(1.3) tail of
rare symbols, in the ``(repo, path, commit, lang, content)`` schema. All
arrays are built with NumPy and Arrow kernels, so generation stays a small
part of set-up.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

KEYWORDS = [
    "if", "return", "for", "while", "else", "class", "def", "import",
    "public", "static", "void", "int", "string", "new", "null", "true",
    "false", "self", "this", "func", "var", "let", "const", "struct",
]
STOPPISH = ["the", "a", "an", "and", "of", "to", "in", "is", "it", "that"]
IDENT_PARTS = [
    "get", "set", "parse", "build", "index", "query", "merge", "score",
    "token", "stream", "batch", "shard", "norm", "delta", "block", "term",
    "doc", "field", "reader", "writer", "cache", "heap", "pool", "util",
]
IDENTS = ([a + "_" + b for a in IDENT_PARTS for b in IDENT_PARTS]
          + [a + b.capitalize() for a in IDENT_PARTS for b in IDENT_PARTS])
# keywords x30 and stop-ish words x20 make them hot; identifiers are mid
VOCAB = KEYWORDS * 30 + STOPPISH * 20 + IDENTS
N_TAIL = 50_000
LANGS = ["java", "py", "c", "go", "js", "txt"]
LANG_P = [0.3, 0.25, 0.15, 0.12, 0.12, 0.06]
ROWS_PER_GROUP = 1000

# query shapes and their share of the pool (and so of the serve mix); the
# shares put serve p50 inside the and2 mode and the tail inside or3
SHAPES = (("rare", 35), ("and2", 25), ("hot", 20), ("phrase", 10), ("or3", 10))
POOL_SIZE = 100


@dataclass
class Corpus:
    path: str
    num_docs: int
    word_ids: np.ndarray  # flat token ids into VOCAB + tail symbols
    offsets: np.ndarray  # per-doc start into word_ids, len num_docs + 1


def _all_words() -> pa.Array:
    return pa.array(VOCAB + [f"sym_{i}" for i in range(N_TAIL)], pa.string())


def _docs(rng: np.random.Generator, n: int, words: pa.Array):
    n_words = rng.integers(5, 400, size=n)
    lens = n_words + n_words // 6  # ~15% tail symbols per doc
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lens, out=offsets[1:])
    total = int(offsets[-1])
    doc = np.repeat(np.arange(n), lens)
    in_tail = (np.arange(total) - offsets[doc]) >= n_words[doc]
    ids = np.empty(total, dtype=np.int64)
    n_tail = int(in_tail.sum())
    ids[~in_tail] = rng.integers(0, len(VOCAB), size=total - n_tail)
    ids[in_tail] = len(VOCAB) - 1 + np.minimum(
        rng.zipf(1.3, size=n_tail), N_TAIL)
    flat = words.take(pa.array(ids))
    content = pc.binary_join(
        pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), flat), " ")
    hexd = np.array(list("0123456789abcdef"))
    commits = hexd[rng.integers(0, 16, size=(n, 40))].view("<U40").ravel()
    langs = np.array(LANGS)[rng.choice(len(LANGS), size=n, p=LANG_P)]
    return content.cast(pa.large_string()), commits, langs, ids, offsets


def _write(path: str, first_id: int, content, commits, langs) -> None:
    n = len(content)
    ids = range(first_id, first_id + n)
    table = pa.table({
        "repo": pa.array([f"org{i % 7}/proj{i % 23}" for i in ids]),
        "path": pa.array([f"src/m{i % 13}/f{i}.{lang}"
                          for i, lang in zip(ids, langs)]),
        "commit": pa.array(commits),
        "lang": pa.array(langs),
        "content": content,
    })
    pq.write_table(table, path, row_group_size=ROWS_PER_GROUP)


def marker(batch: int, seed: int) -> str:
    """The token that identifies update batch ``batch``: one analyzer token
    that the corpus vocabulary never produces."""
    return f"zzmark_{seed}_{batch}"


def make_inputs(out_dir: str, seed: int, n_docs: int, n_batches: int,
                batch_docs: int) -> tuple[Corpus, list[str]]:
    """Write ``corpus.parquet`` and ``batch-<i>.parquet`` files under
    ``out_dir``. Every doc of batch ``i`` carries ``marker(i, seed)``."""
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(seed)
    words = _all_words()
    content, commits, langs, ids, offsets = _docs(rng, n_docs, words)
    path = os.path.join(out_dir, "corpus.parquet")
    _write(path, 0, content, commits, langs)
    batches = []
    for b in range(n_batches):
        content_b, commits_b, langs_b, _, _ = _docs(rng, batch_docs, words)
        content_b = pc.binary_join_element_wise(
            content_b, pa.scalar(marker(b, seed), pa.large_string()),
            pa.scalar(" ", pa.large_string()))
        bpath = os.path.join(out_dir, f"batch-{b}.parquet")
        _write(bpath, n_docs + b * batch_docs, content_b, commits_b, langs_b)
        batches.append(bpath)
    return Corpus(path, n_docs, ids, offsets), batches


def query_pool(corpus: Corpus, seed: int) -> list[tuple[str, object]]:
    """``POOL_SIZE`` (shape, query) pairs drawn from terms the corpus holds.

    rare: a tail symbol seen 1-20 times; hot: a keyword; and2: MUST over a
    keyword and an identifier; phrase: an adjacent keyword and identifier
    copied from a doc, so it matches at least once; or3: SHOULD over a
    keyword, an identifier and a rare symbol (the WAND-eligible shape).
    Each shape pairs terms of fixed frequency classes, so a shape costs
    about the same whatever the seed."""
    from lucene_solr_old_ray.functions.analysis import analyze_text
    from lucene_solr_old_ray.queries import (MUST, SHOULD, BooleanClause,
                                             BooleanQuery, PhraseQuery,
                                             TermQuery)

    rng = np.random.default_rng(seed + 7919)
    words = VOCAB + [f"sym_{i}" for i in range(N_TAIL)]
    analyzed = {}
    for w in set(VOCAB):
        toks = analyze_text(w)
        analyzed[w] = toks[0] if len(toks) == 1 else None
    hot_raw = {w for w in KEYWORDS if analyzed[w]}
    mid_raw = {w for w in IDENTS if analyzed[w]}
    hot = sorted({analyzed[w] for w in hot_raw})
    mid = sorted({analyzed[w] for w in mid_raw})
    counts = np.bincount(corpus.word_ids, minlength=len(words))
    rare_ids = np.flatnonzero((counts[len(VOCAB):] >= 1)
                              & (counts[len(VOCAB):] <= 20)) + len(VOCAB)

    def pick(seq):
        return seq[int(rng.integers(len(seq)))]

    def bool_of(occur, terms):
        return BooleanQuery(tuple(BooleanClause(occur, TermQuery(t))
                                  for t in terms))

    def phrase():
        while True:
            d = int(rng.integers(corpus.num_docs))
            lo, hi = corpus.offsets[d], corpus.offsets[d + 1]
            if hi - lo < 2:
                continue
            i = int(rng.integers(lo, hi - 1))
            a, b = words[corpus.word_ids[i]], words[corpus.word_ids[i + 1]]
            if ({a, b} & hot_raw and {a, b} & mid_raw
                    and analyzed[a] and analyzed[b]):
                return PhraseQuery((analyzed[a], analyzed[b]))

    make = {
        "rare": lambda: TermQuery(words[pick(rare_ids)]),
        "hot": lambda: TermQuery(pick(hot)),
        "and2": lambda: bool_of(MUST, [pick(hot), pick(mid)]),
        "phrase": phrase,
        "or3": lambda: bool_of(SHOULD, [pick(hot), pick(mid),
                                        words[pick(rare_ids)]]),
    }
    pool = [(shape, make[shape]()) for shape, share in SHAPES
            for _ in range(share * POOL_SIZE // 100)]
    order = rng.permutation(len(pool))
    return [pool[i] for i in order]
