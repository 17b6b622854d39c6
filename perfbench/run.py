#!/usr/bin/env python3
"""Benchmark of the lucene_solr_old_ray engine on one CPU.

    python3 perfbench/run.py --workload {query,update} --seed N \
        --seconds S --trace {0,1}

Every workload runs the same index life cycle on inputs made from ``--seed``:

1. ingest: ``build_index`` of a 10k-doc code corpus into 10 segments, then
   ``merge_index`` (local, fan-in 4) into 3 leaves; each round starts fresh.
   The last round's segments are hard-linked into a second, unmerged index
   before the merge.
2. traffic: write rounds on the unmerged index, each ``add_documents``
   (1k docs) plus ``delete_by_query`` of the previous batch and a
   ``search`` probe that checks both writes through a marker token; reads
   as a closed loop of single ``SearchService.query`` calls (one client, one
   actor) over a seeded 100-query pool, plus 100-query ``search`` calls.
3. on ``update``, and in every traced run, a final ``merge_index`` of the
   written index and one add after it.

The process pins itself to one CPU before Ray starts, so everything shares
one core. The workloads differ in what the reads hit and where the work
goes. The op
counts are fixed per workload and scale with ``--seconds`` (see ``PLANS``),
so a faster program does the same work in less time and every run of a
workload takes the same samples.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``; with ``--trace 0`` the end-to-end metrics, with
``--trace 1`` the per-layer ones. Everything else goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass

import inputs
from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

NUM_CPUS = 1
CORPUS_DOCS = 10_000
DOCS_PER_SEGMENT = 1_000
FAN_IN = 4
BATCH_DOCS = 1_000
K = 10
SETUP_REPS = 3
REF_SECONDS = 40
# AF_UNIX socket paths are limited to 107 bytes and Ray nests its sockets
# ~67 characters below its temp dir
RAY_TMP_MAX = 38


@dataclass(frozen=True)
class Plan:
    ingest_rounds: int
    write_rounds: int
    serve_calls: int
    batch_calls: int
    read_written: bool  # reads hit the written index instead of the merged

    def scaled(self, seconds: float) -> "Plan":
        f = seconds / REF_SECONDS
        return Plan(max(1, round(self.ingest_rounds * f)),
                    max(2, round(self.write_rounds * f)),
                    max(200, round(self.serve_calls * f)),
                    max(2, round(self.batch_calls * f))
                    if self.batch_calls else 0,
                    self.read_written)


# Op counts at REF_SECONDS. Serve calls never drop below 200, the fewest that
# leave 10 samples above p95.
PLANS = {
    # reads on a merged 3-leaf index with no deletes: WAND and a warm cache
    "query": Plan(ingest_rounds=2, write_rounds=3, serve_calls=600,
                  batch_calls=4, read_written=False),
    # many small writes; reads hit the unmerged index with deletes, so WAND
    # falls back to exhaustive and every deletes generation re-keys the
    # cache; batch_qps comes from the read-after-write probes
    "update": Plan(ingest_rounds=2, write_rounds=6, serve_calls=400,
                   batch_calls=0, read_written=True),
}

END_TO_END = {
    "setup_s": "s", "ingest_docs_per_s": "docs/s", "serve_p50_ms": "ms",
    "serve_p95_ms": "ms", "batch_qps": "1/s", "update_p50_ms": "ms",
    "space_ratio": "ratio",
}


def layer_units() -> dict[str, str]:
    """Every per-layer metric of a traced run, with its unit."""
    shapes = [s for s, _ in inputs.SHAPES]
    units = {
        "host.calib_ms": "ms", "sources.corpus.plan_s": "s",
        "stages.build.tokenize_s": "s", "stages.build.encode_s": "s",
        "stages.build.rest_s": "s", "pipelines.build_index.dispatch_s": "s",
        "stages.build.postings": "count", "stages.build.terms": "count",
        "stages.build.postings_bytes": "bytes",
        "stages.merge.postings_bytes": "bytes", "state.index_bytes": "bytes",
        "stages.merge.shard_s": "s", "pipelines.merge.dispatch_s": "s",
        "pipelines.search.rewrite_ms": "ms",
        "pipelines.search.gather_stats_ms": "ms",
        "pipelines.search.dispatch_s": "s",
        "stages.search.total_hits": "count",
        "pipelines.serve.stats_rpc_ms": "ms",
        "pipelines.serve.search_rpc_ms": "ms",
        "pipelines.serve.driver_ms": "ms",
        "pipelines.deletes.add_ms": "ms", "pipelines.deletes.delete_ms": "ms",
        "update.probe_ms": "ms", "update.leaves": "count",
        "state.index_bytes_per_round": "bytes",
        "pipelines.merge.final_s": "s",
        "known_defect.add_after_merge": "count",
        "trace.spans": "count", "trace.extra_s": "s",
    }
    for s in shapes:
        units[f"stages.wand.score_ms.{s}"] = "ms"
        units[f"stages.search.exhaustive_ms.{s}"] = "ms"
        units[f"pipelines.serve.p50_ms.{s}"] = "ms"
    for n, u in END_TO_END.items():
        units[f"e2e.{n}"] = u
    return units


def log(*a) -> None:
    print(*a, file=sys.stderr, flush=True)


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile: at 200 samples p95 has 10 samples above."""
    v = sorted(values)
    return v[max(0, math.ceil(p / 100 * len(v)) - 1)]


def tree_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def calib_seconds() -> float:
    """A fixed NumPy + pure-Python kernel; its time tracks host speed, not
    the program, and tells host drift apart from a regression."""
    import numpy as np

    t0 = time.perf_counter()
    a = np.random.default_rng(0).random(500_000)
    np.sort(a)
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def fingerprint() -> dict:
    import numpy
    import pyarrow
    import ray

    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "num_cpus": NUM_CPUS, "cpu_model": model,
            "ray": ray.__version__, "pyarrow": pyarrow.__version__,
            "numpy": numpy.__version__, "python": platform.python_version()}


class Ledger:
    """Attempted and failed ops; every correctness check is one op."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def op(self) -> None:
        self.attempted += 1

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            log(f"CHECK FAILED: {what}")
        return ok


def results_by_qid(table) -> dict:
    """search/SearchService table -> {qid: (docids, scores, total_hits)}."""
    import numpy as np

    out = {}
    df = table.to_pandas()
    for qid, sub in df.groupby("qid", sort=True):
        out[int(qid)] = (sub["docid"].tolist(),
                         sub["score"].to_numpy(np.float32),
                         int(sub["total_hits"].iloc[0]))
    return out


def same_top_k(a, b) -> bool:
    import numpy as np

    if a is None or b is None:
        return a is None and b is None
    return a[0] == b[0] and np.array_equal(a[1], b[1])


def start_ray() -> str:
    import ray

    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    os.environ["RAY_DATA_DISABLE_PROGRESS_BARS"] = "1"
    # workers import the package through PYTHONPATH whatever the caller's
    # working directory is; a driver-only sys.path entry does not reach them
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    tmp = os.path.join(ROOT, ".pbr", str(os.getpid()))
    if len(tmp) > RAY_TMP_MAX:
        tmp = tempfile.mkdtemp(prefix="pbr-")
    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=256 * 1024 ** 2, _temp_dir=tmp)
    import ray.data

    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.enable_operator_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)
    logging.getLogger("ray").setLevel(logging.WARNING)
    return tmp


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 run_dir: str):
        self.workload = workload
        self.seed = seed
        self.plan = PLANS[workload].scaled(seconds)
        self.trace = trace
        self.dir = run_dir
        self.t = Tracer()
        self.ledger = Ledger()
        self.layers: dict[str, float] = {}
        self.dispatch_s: list[float] = []
        self.trace_extra = 0.0

    # -- helpers ------------------------------------------------------------

    def consistent(self, idx: str, what: str, max_doc: int | None = None):
        """max_doc == sum of leaf num_docs == sum of the leaves' own segment
        manifests (and == max_doc when given)."""
        from lucene_solr_old_ray.state import manifest as mf

        m = mf.read_index_manifest(idx)
        leaves = sum(s["num_docs"] for s in m["segments"])
        own = sum(mf.read_json(os.path.join(idx, s["dir"],
                                            mf.SEGMENT_MANIFEST))["num_docs"]
                  for s in m["segments"])
        ok = m["stats"]["max_doc"] == leaves == own
        if max_doc is not None:
            ok = ok and leaves == max_doc
        return self.ledger.check(
            ok, f"{what}: max_doc {m['stats']['max_doc']}, leaves {leaves}, "
                f"segment manifests {own}")

    def marker_hits(self, idx: str, markers: dict[int, str],
                    extra: dict[int, object]) -> dict[int, int]:
        from lucene_solr_old_ray.pipelines.search import search
        from lucene_solr_old_ray.queries import TermQuery

        qs = {q: TermQuery(m) for q, m in markers.items()}
        qs.update(extra)
        self.ledger.op()
        with self.t.span("update.probe") as sp:
            res = results_by_qid(search(idx, qs, k=K))
        if extra:  # a read-after-write probe of a timed round
            self.probe_s.append(sp.seconds)
            self.probe_qps.append(len(qs) / sp.seconds)
            if self.trace and not self.plan.batch_calls:
                t0 = time.perf_counter()
                rw, st, per, _ = self.replay(idx, qs)
                self.dispatch_s.append(sp.seconds - (
                    rw + st + sum(w for w, _, _ in per.values())) / 1e3)
                self.trace_extra += time.perf_counter() - t0
        return {q: res[q][2] if q in res else 0 for q in markers}

    # -- phases -------------------------------------------------------------

    def setup(self) -> None:
        t0 = time.perf_counter()
        with self.t.span("setup.ray"):
            self.ray_tmp = start_ray()
        with self.t.span("setup.warm_up"):
            self.warm_up()
        n_batches = self.plan.write_rounds + 2
        for rep in range(SETUP_REPS):
            d = os.path.join(self.dir, f"inputs-{rep}")
            with self.t.span("setup.inputs"):
                self.corpus, self.batches = inputs.make_inputs(
                    d, self.seed, CORPUS_DOCS, n_batches, BATCH_DOCS)
                self.pool = inputs.query_pool(self.corpus, self.seed)
            if rep + 1 < SETUP_REPS:
                shutil.rmtree(d)
        gen = self.t.durations("setup.inputs")
        ray_s = self.t.durations("setup.ray")[0]
        warm_s = self.t.durations("setup.warm_up")[0]
        # Ray start and warm-up happen once per process; input generation
        # is repeated and its median used
        self.setup_s = ray_s + warm_s + statistics.median(gen)
        log(f"setup {time.perf_counter() - t0:.2f}s: ray {ray_s:.2f} "
            f"warm-up {warm_s:.2f} inputs {[round(g, 3) for g in gen]}")
        self.pool_qs = {i: q for i, (_, q) in enumerate(self.pool)}
        self.shape = {i: s for i, (s, _) in enumerate(self.pool)}

    def warm_up(self) -> None:
        """A build, merge, search and delete on a tiny index, so the worker's
        imports and the first Ray Data executions are paid before the timed
        phases."""
        from lucene_solr_old_ray.pipelines.build_index import build_index
        from lucene_solr_old_ray.pipelines.deletes import delete_by_query
        from lucene_solr_old_ray.pipelines.merge import merge_index
        from lucene_solr_old_ray.pipelines.search import search
        from lucene_solr_old_ray.queries import TermQuery
        from lucene_solr_old_ray.sources.corpus import CorpusSpec

        d = os.path.join(self.dir, "warm")
        corpus, _ = inputs.make_inputs(d, 0, 400, 0, 50)
        pool = inputs.query_pool(corpus, 0)
        qs = {i: q for i, (_, q) in enumerate(pool)}
        idx, idx2 = os.path.join(d, "idx"), os.path.join(d, "idx2")
        build_index(CorpusSpec.source_code(corpus.path), idx,
                    target_docs_per_partition=100)
        shutil.copytree(idx, idx2, copy_function=os.link)
        merge_index(idx, fan_in=FAN_IN, strategy="local")
        search(idx, qs, k=K, algo="wand")
        delete_by_query(idx2, TermQuery(inputs.marker(0, 0)))
        shutil.rmtree(d)

    def ingest(self) -> None:
        from lucene_solr_old_ray.pipelines.build_index import build_index
        from lucene_solr_old_ray.pipelines.merge import merge_index
        from lucene_solr_old_ray.sources.corpus import CorpusSpec

        spec = CorpusSpec.source_code(self.corpus.path)
        self.docs_per_s = []
        self.build_layers: list[dict] = []
        for r in range(self.plan.ingest_rounds):
            idx = os.path.join(self.dir, f"ingest-{r}")
            last = r + 1 == self.plan.ingest_rounds
            op = self.t.new_op()
            self.ledger.op()
            with self.t.span("ingest.build", op) as b:
                build_index(spec, idx,
                            target_docs_per_partition=DOCS_PER_SEGMENT)
            self.consistent(idx, "after build", CORPUS_DOCS)
            if last:
                self.written = os.path.join(self.dir, "written")
                shutil.copytree(idx, self.written, copy_function=os.link)
            if self.trace:
                t0 = time.perf_counter()
                seg = self.leaf_metrics(idx)
                self.trace_extra += time.perf_counter() - t0
            self.ledger.op()
            with self.t.span("ingest.merge", op) as m:
                merge_index(idx, fan_in=FAN_IN, strategy="local")
            self.consistent(idx, "after merge", CORPUS_DOCS)
            self.docs_per_s.append(CORPUS_DOCS / (b.seconds + m.seconds))
            log(f"ingest round {r}: build {b.seconds:.3f}s merge "
                f"{m.seconds:.3f}s")
            if self.trace:
                t0 = time.perf_counter()
                self.build_layers.append(self.build_merge_layers(
                    spec, seg, self.leaf_metrics(idx), b.seconds, m.seconds))
                self.trace_extra += time.perf_counter() - t0
            if last:
                self.merged = idx
            else:
                shutil.rmtree(idx)

    def traffic(self) -> None:
        """Writes on the unmerged copy, reads on the read index. When the
        reads hit the merged index, write rounds, blocks of serve calls and
        pool batches take turns, so each metric samples the whole phase
        rather than a few seconds of it (the host's speed drifts on that
        scale). On ``update`` the reads follow all writes, which they must
        see."""
        import numpy as np
        from lucene_solr_old_ray.pipelines.serve import SearchService
        from lucene_solr_old_ray.state import manifest as mf

        plan = self.plan
        self.first_write()
        rounds = list(range(1, plan.write_rounds + 1))
        if plan.read_written:
            for r in rounds:
                self.write_round(r)
            rounds = []
        target = self.written if plan.read_written else self.merged
        rng = np.random.default_rng(self.seed + 1)
        n = len(self.pool_qs)
        order = np.concatenate([rng.permutation(n) for _ in
                                range(-(-plan.serve_calls // n))])
        blocks = max(1, len(rounds), plan.batch_calls)
        serve_blocks = np.array_split(order[: plan.serve_calls], blocks)
        self.serve_ms: list[tuple[str, float]] = []
        self.served: dict[int, tuple] = {}
        self.pool_batch_s: list[float] = []
        svc = SearchService(target, num_actors=NUM_CPUS, algo="wand")
        try:
            for i in range(blocks):
                if i < len(rounds):
                    self.write_round(rounds[i])
                self.serve(svc, serve_blocks[i])
                if i < plan.batch_calls:
                    self.pool_batch(target)
            self.check_reads(svc, target)
        finally:
            svc.shutdown()
        idx = self.written
        self.leaves_after_writes = len(
            mf.read_index_manifest(idx)["segments"])
        self.bytes_per_round = ((tree_bytes(idx) - self.bytes_before_writes)
                                / plan.write_rounds)
        self.index_bytes = tree_bytes(target)
        inputs_bytes = os.path.getsize(self.corpus.path)
        if plan.read_written:
            inputs_bytes += sum(os.path.getsize(b) for b in
                                self.batches[: plan.write_rounds + 1])
        self.space_ratio = self.index_bytes / inputs_bytes

    def first_write(self) -> None:
        """Batch 0 goes in before the timed rounds, so round 1 has a batch
        to delete."""
        from lucene_solr_old_ray.pipelines.deletes import add_documents
        from lucene_solr_old_ray.sources.corpus import CorpusSpec

        idx = self.written
        self.mark = [inputs.marker(b, self.seed)
                     for b in range(len(self.batches))]
        self.probe_s: list[float] = []
        self.probe_qps: list[float] = []
        self.add_s: list[float] = []
        self.delete_s: list[float] = []
        self.ledger.op()
        add_documents(idx, CorpusSpec.source_code(self.batches[0]))
        self.consistent(idx, "after add of batch 0")
        hits = self.marker_hits(idx, {0: self.mark[0]}, {})
        self.ledger.check(hits[0] == BATCH_DOCS, f"batch 0 hits {hits[0]}")
        self.bytes_before_writes = tree_bytes(idx)

    def write_round(self, r: int) -> None:
        from lucene_solr_old_ray.pipelines.deletes import (add_documents,
                                                           delete_by_query)
        from lucene_solr_old_ray.queries import TermQuery
        from lucene_solr_old_ray.sources.corpus import CorpusSpec

        idx = self.written
        op = self.t.new_op()
        self.ledger.op()
        with self.t.span("update.add", op) as a:
            add_documents(idx, CorpusSpec.source_code(self.batches[r]))
        self.consistent(idx, f"after add of batch {r}")
        self.ledger.op()
        with self.t.span("update.delete", op) as d:
            delete_by_query(idx, TermQuery(self.mark[r - 1]))
        self.consistent(idx, f"after delete of batch {r - 1}")
        self.add_s.append(a.seconds)
        self.delete_s.append(d.seconds)
        probe = {2 + j: self.pool_qs[(6 * r + j) % len(self.pool_qs)]
                 for j in range(6)}
        hits = self.marker_hits(idx, {0: self.mark[r], 1: self.mark[r - 1]},
                                probe)
        self.ledger.check(hits[0] == BATCH_DOCS,
                          f"added batch {r} hits {hits[0]}")
        self.ledger.check(hits[1] == 0,
                          f"deleted batch {r - 1} hits {hits[1]}")

    def serve(self, svc, qids) -> None:
        for qid in qids.tolist():
            self.ledger.op()
            with self.t.span("serve.query") as sp:
                res = svc.query({qid: self.pool_qs[qid]}, k=K)
            self.serve_ms.append((self.shape[qid], sp.seconds * 1e3))
            if qid not in self.served:
                self.served[qid] = results_by_qid(res).get(qid)

    def pool_batch(self, target: str) -> None:
        from lucene_solr_old_ray.pipelines.search import search

        self.ledger.op()
        with self.t.span("search.batch") as sp:
            res = search(target, self.pool_qs, k=K, algo="wand")
        if not self.pool_batch_s:
            self.wand = results_by_qid(res)
        self.pool_batch_s.append(sp.seconds)

    def check_reads(self, svc, target: str) -> None:
        from lucene_solr_old_ray.pipelines.search import search

        if self.plan.batch_calls:
            self.batch_qps = [len(self.pool_qs) / s
                              for s in self.pool_batch_s]
            check_qs = self.pool_qs
        else:
            self.batch_qps = self.probe_qps
            # a 100-query search() on the many-leaf written index is mostly
            # Ray Data dispatch (seconds per call), so the checks there use
            # a 20-query sample of the pool
            check_qs = {q: self.pool_qs[q] for q in range(20)}
            self.wand = results_by_qid(search(target, check_qs, k=K,
                                              algo="wand"))
        exhaustive = results_by_qid(
            search(target, check_qs, k=K, algo="exhaustive"))
        for qid in check_qs:
            self.ledger.check(
                same_top_k(self.wand.get(qid), exhaustive.get(qid)),
                f"WAND vs exhaustive top-{K} differ for query {qid}")
            self.ledger.check(
                same_top_k(self.served.get(qid), self.wand.get(qid)),
                f"SearchService vs search differ for query {qid}")
        if self.trace:
            t0 = time.perf_counter()
            ctx = self.pool_layers(target)
            self.serve_layers(svc, ctx)
            self.trace_extra += time.perf_counter() - t0

    def final(self) -> None:
        """Merge the written index, then add after the merge. The add hits a
        known defect: ``add_documents`` numbers new segments from
        1 + max(part_id), which after a merge names a pre-merge segment
        directory that still exists, so the build "resumes" that stale
        segment. The probe runs every time and reports what it sees on
        stderr and as ``known_defect.add_after_merge``; it stays out of the
        op counts, which cover only the workload."""
        from lucene_solr_old_ray.pipelines.deletes import (add_documents,
                                                           delete_by_query)
        from lucene_solr_old_ray.pipelines.merge import merge_index
        from lucene_solr_old_ray.pipelines.search import search
        from lucene_solr_old_ray.queries import TermQuery
        from lucene_solr_old_ray.sources.corpus import CorpusSpec
        from lucene_solr_old_ray.state import manifest as mf

        idx = self.written
        self.ledger.op()
        with self.t.span("merge.final") as sp:
            merge_index(idx, fan_in=FAN_IN, strategy="local")
        self.final_merge_s = sp.seconds
        self.consistent(idx, "after final merge")

        b = self.plan.write_rounds + 1
        mark = inputs.marker(b, self.seed)
        problems = []
        try:
            m = add_documents(idx, CorpusSpec.source_code(self.batches[b]))
            leaves = sum(s["num_docs"] for s in m["segments"])
            if m["stats"]["max_doc"] != leaves:
                problems.append(f"max_doc {m['stats']['max_doc']} != leaves "
                                f"{leaves}")
            hits = results_by_qid(search(idx, {0: TermQuery(mark)}, k=K))
            n = hits[0][2] if 0 in hits else 0
            if n != BATCH_DOCS:
                problems.append(f"added marker hits {n} != {BATCH_DOCS}")
            delete_by_query(idx, TermQuery(mark))
        except Exception as e:  # the defect may surface as any error
            log(traceback.format_exc())
            problems.append(f"{type(e).__name__}: {e}")
        self.defect = 1.0 if problems else 0.0
        log("known defect, add after merge: "
            + ("; ".join(problems) if problems else "not reproduced")
            + f" (generation {mf.latest_generation(idx)})")

    # -- traced-run layer metrics -------------------------------------------

    def leaf_metrics(self, idx: str) -> list[dict]:
        from lucene_solr_old_ray.state import manifest as mf

        m = mf.read_index_manifest(idx)
        return [mf.read_json(os.path.join(idx, s["dir"],
                                          mf.SEGMENT_MANIFEST))["metrics"]
                for s in m["segments"]]

    def build_merge_layers(self, spec, segs, shards, build_s, merge_s):
        from lucene_solr_old_ray.sources.corpus import plan_partitions

        plan_s = []
        for _ in range(5):
            t0 = time.perf_counter()
            plan_partitions(spec, DOCS_PER_SEGMENT)
            plan_s.append(time.perf_counter() - t0)
        seg_wall = sum(s["wall_s"] for s in segs)
        tok = sum(s["tokenize_s"] for s in segs)
        enc = sum(s["encode_s"] for s in segs)
        shard_wall = sum(s["wall_s"] for s in shards)
        return {
            "sources.corpus.plan_s": statistics.median(plan_s),
            "stages.build.tokenize_s": tok,
            "stages.build.encode_s": enc,
            "stages.build.rest_s": seg_wall - tok - enc,
            "pipelines.build_index.dispatch_s": build_s - seg_wall,
            "stages.build.postings": sum(s["postings"] for s in segs),
            "stages.build.terms": sum(s["terms"] for s in segs),
            "stages.build.postings_bytes": sum(s["postings_bytes"]
                                               for s in segs),
            "stages.merge.postings_bytes": sum(s["postings_bytes"]
                                               for s in shards),
            "stages.merge.shard_s": shard_wall,
            "pipelines.merge.dispatch_s": merge_s - shard_wall,
        }

    def serve_layers(self, svc, ctx) -> None:
        """Direct round trips to the searcher actors for every pool query,
        next to a full ``query`` call: the rest is driver-side work."""
        import ray
        from lucene_solr_old_ray.queries import (collect_field_terms,
                                                 collect_terms)

        q_ms, stats_ms, search_ms = [], [], []
        for qid, q in self.pool_qs.items():
            terms = sorted(collect_terms(q))
            fterms = sorted(collect_field_terms(q))
            with self.t.span("serve.replay.query") as s1:
                svc.query({qid: q}, k=K)
            with self.t.span("serve.replay.stats_rpc") as s2:
                ray.get([a.stats.remote(terms, fterms) for a in svc.actors])
            with self.t.span("serve.replay.search_rpc") as s3:
                ray.get([a.search.remote([(qid, q)], ctx, K, "wand")
                         for a in svc.actors])
            q_ms.append(s1.seconds * 1e3)
            stats_ms.append(s2.seconds * 1e3)
            search_ms.append(s3.seconds * 1e3)
        # means, so the three parts add up to the query wall
        self.layers["pipelines.serve.stats_rpc_ms"] = statistics.mean(stats_ms)
        self.layers["pipelines.serve.search_rpc_ms"] = statistics.mean(
            search_ms)
        self.layers["pipelines.serve.driver_ms"] = (
            statistics.mean(q_ms) - statistics.mean(stats_ms)
            - statistics.mean(search_ms))

    def pool_layers(self, idx: str):
        """Per-shape scorer times and the search plan's parts for the pool
        on the read index. Where the pool batch was timed, its Ray Data
        dispatch is the batch wall minus the replayed parts."""
        rw, st, per, ctx = self.replay(idx, self.pool_qs)
        wand_ms = {s: 0.0 for s, _ in inputs.SHAPES}
        exh_ms = {s: 0.0 for s, _ in inputs.SHAPES}
        for qid, (w, e, _) in per.items():
            wand_ms[self.shape[qid]] += w
            exh_ms[self.shape[qid]] += e
        self.layers.update({
            "pipelines.search.rewrite_ms": rw,
            "pipelines.search.gather_stats_ms": st,
            "stages.search.total_hits": float(sum(h for _, _, h in
                                                  per.values())),
        })
        if self.pool_batch_s:
            self.dispatch_s.append(statistics.median(self.pool_batch_s)
                                   - (rw + st + sum(wand_ms.values())) / 1e3)
        for s in wand_ms:
            self.layers[f"stages.wand.score_ms.{s}"] = wand_ms[s]
            self.layers[f"stages.search.exhaustive_ms.{s}"] = exh_ms[s]
        return ctx

    def replay(self, idx: str, queries: dict):
        """A ``search`` plan replayed through its public functions: rewrite,
        stats exchange, then WAND and exhaustive scoring of every leaf in
        this process. Returns (rewrite ms, stats ms, {qid: (WAND ms,
        exhaustive ms, exact hits)}, context)."""
        from lucene_solr_old_ray.pipelines.search import (gather_stats,
                                                          rewrite_common_terms,
                                                          rewrite_queries)
        from lucene_solr_old_ray.queries import (collect_field_terms,
                                                 collect_terms, needs_rewrite)
        from lucene_solr_old_ray.stages.search import (LeafSearcher, execute,
                                                       top_k)
        from lucene_solr_old_ray.stages.wand import execute_wand_or_fallback
        from lucene_solr_old_ray.state import manifest as mf

        man = mf.read_index_manifest(idx)
        qitems = sorted(queries.items())
        with self.t.span("search.replay.rewrite") as rw:
            if any(needs_rewrite(q) for _, q in qitems):
                qitems = rewrite_queries(idx, man, qitems)
            qitems = rewrite_common_terms(idx, man, qitems)
        terms, fterms = set(), set()
        for _, q in qitems:
            terms |= collect_terms(q)
            fterms |= collect_field_terms(q)
        with self.t.span("search.replay.gather_stats") as st:
            ctx = gather_stats(idx, man, sorted(terms),
                               field_terms=sorted(fterms))
        leaves = [
            LeafSearcher(os.path.join(idx, s["dir"]), int(s["doc_base"]), i,
                         int(s["num_docs"]),
                         deletes_path=(os.path.join(idx, s["deletes"])
                                       if s.get("deletes") else None))
            for i, s in enumerate(sorted(man["segments"],
                                         key=lambda s: s["doc_base"]))]
        per = {}
        for timed in (False, True):  # the first pass faults pages in
            for qid, q in qitems:
                with self.t.span("search.replay.wand") as w:
                    for leaf in leaves:
                        execute_wand_or_fallback(q, leaf, ctx, K)
                hits = 0
                with self.t.span("search.replay.exhaustive") as e:
                    for leaf in leaves:
                        d, s = execute(q, leaf, ctx)
                        top_k(d, s, K)
                        hits += len(d)
                if timed:
                    per[qid] = (w.seconds * 1e3, e.seconds * 1e3, hits)
        return rw.seconds * 1e3, st.seconds * 1e3, per, ctx

    # -- the run ------------------------------------------------------------

    def run(self) -> dict:
        calib = [calib_seconds() for _ in range(3)]
        phases = [self.setup, self.ingest, self.traffic]
        if self.workload == "update" or self.trace:
            phases.append(self.final)
        for phase in phases:
            with self.t.span(f"phase.{phase.__name__}") as sp:
                phase()
            log(f"phase {phase.__name__}: {sp.seconds:.2f}s")
        e2e = {
            "setup_s": self.setup_s,
            "ingest_docs_per_s": statistics.median(self.docs_per_s),
            "serve_p50_ms": statistics.median(ms for _, ms in self.serve_ms),
            "serve_p95_ms": percentile([ms for _, ms in self.serve_ms], 95),
            "batch_qps": statistics.median(self.batch_qps),
            "update_p50_ms": 1e3 * statistics.median(
                a + d for a, d in zip(self.add_s, self.delete_s)),
            "space_ratio": self.space_ratio,
        }
        log("end-to-end: " + json.dumps(e2e))
        log("plan: " + json.dumps(self.plan.__dict__))
        if not self.trace:
            metrics = {n: (v, END_TO_END[n]) for n, v in e2e.items()}
        else:
            metrics = self.layer_metrics(e2e, calib)
        out = {"correct": self.ledger.failed == 0,
               "attempted": self.ledger.attempted,
               "failed": self.ledger.failed,
               "metrics": {n: {"value": float(v), "unit": u}
                           for n, (v, u) in metrics.items()}}
        if self.trace:
            os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
            self.t.dump(os.path.join(
                ROOT, ".perfbench_out",
                f"spans-{self.workload}-seed{self.seed}.jsonl"),
                {"workload": self.workload, "seed": self.seed,
                 "host": fingerprint(), "plan": self.plan.__dict__,
                 "result": out})
        return out

    def layer_metrics(self, e2e: dict, calib: list[float]) -> dict:
        per_round = self.build_layers
        layers = {n: statistics.median(r[n] for r in per_round)
                  for n in per_round[0]}
        layers.update(self.layers)
        shapes = [s for s, _ in inputs.SHAPES]
        for s in shapes:
            layers[f"pipelines.serve.p50_ms.{s}"] = statistics.median(
                ms for sh, ms in self.serve_ms if sh == s)
        layers.update({
            "host.calib_ms": 1e3 * statistics.median(calib),
            "state.index_bytes": float(self.index_bytes),
            "pipelines.deletes.add_ms": 1e3 * statistics.median(self.add_s),
            "pipelines.deletes.delete_ms":
                1e3 * statistics.median(self.delete_s),
            "update.probe_ms": 1e3 * statistics.median(self.probe_s),
            "pipelines.search.dispatch_s": statistics.median(self.dispatch_s),
            "update.leaves": float(self.leaves_after_writes),
            "state.index_bytes_per_round": self.bytes_per_round,
            "pipelines.merge.final_s": self.final_merge_s,
            "known_defect.add_after_merge": self.defect,
            "trace.spans": float(len(self.t.spans)),
            "trace.extra_s": self.trace_extra,
        })
        for n, v in e2e.items():
            layers[f"e2e.{n}"] = v
        units = layer_units()
        missing = set(units) ^ set(layers)
        if missing:
            raise RuntimeError(f"per-layer metric set mismatch: {missing}")
        return {n: (layers[n], u) for n, u in units.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(PLANS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # one CPU: every process Ray starts inherits this affinity, so client,
    # raylet, workers and actor share one core, as on a 1-CPU host, and a
    # call between them never waits on a second (virtual) CPU to be woken
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    # stdout carries only the result line: anything the library, Ray or
    # this script prints goes to stderr
    result_fd = os.dup(1)
    os.dup2(2, 1)
    sys.path.insert(0, ROOT)
    import lucene_solr_old_ray  # noqa: F401  fails fast outside a checkout

    run_dir = os.path.join(ROOT, ".perfbench_run", f"{args.workload}-"
                           f"{os.getpid()}")
    os.makedirs(run_dir)
    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace),
                  run_dir)
    log("host: " + json.dumps(fingerprint()))
    try:
        result = bench.run()
    finally:
        import ray

        ray.shutdown()
        shutil.rmtree(run_dir, ignore_errors=True)
        if getattr(bench, "ray_tmp", None):
            shutil.rmtree(bench.ray_tmp, ignore_errors=True)
    os.write(result_fd, (json.dumps(result) + "\n").encode())
    return 0


if __name__ == "__main__":
    sys.exit(main())
