"""The benchmark's input generator is a pure function of its seed: the same
seed writes byte-identical Parquet files and draws an equal query pool, and
every doc of update batch ``i`` carries ``marker(i, seed)``. Runs without
Ray."""

import importlib.util
import os
import sys

import pyarrow.parquet as pq
import pytest

_spec = importlib.util.spec_from_file_location(
    "perfbench_inputs",
    os.path.join(os.path.dirname(__file__), "..", "perfbench", "inputs.py"))
inputs = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = inputs  # dataclasses look their module up
_spec.loader.exec_module(inputs)

N_DOCS, N_BATCHES, BATCH_DOCS = 300, 2, 40


def _generate(out_dir, seed):
    corpus, batches = inputs.make_inputs(str(out_dir), seed, N_DOCS,
                                         N_BATCHES, BATCH_DOCS)
    files = [corpus.path] + batches
    return ([open(f, "rb").read() for f in files],
            repr(inputs.query_pool(corpus, seed)), batches)


@pytest.fixture(scope="module")
def seed9(tmp_path_factory):
    return _generate(tmp_path_factory.mktemp("seed9"), 9)


def test_same_seed_same_inputs(seed9, tmp_path):
    files, pool, _ = _generate(tmp_path, 9)
    assert files == seed9[0]
    assert pool == seed9[1]


def test_other_seed_other_inputs(seed9, tmp_path):
    files, pool, _ = _generate(tmp_path, 10)
    assert all(a != b for a, b in zip(files, seed9[0]))
    assert pool != seed9[1]


def test_batches_carry_their_marker(seed9):
    for i, path in enumerate(seed9[2]):
        content = pq.read_table(path, columns=["content"])["content"]
        assert len(content) == BATCH_DOCS
        assert all(inputs.marker(i, 9) in text.split()
                   for text in content.to_pylist())
