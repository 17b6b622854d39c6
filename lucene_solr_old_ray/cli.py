"""Command-line entry points — the ``ray job submit`` launch surface.

Examples (single node; on a cluster submit the same commands via
``ray job submit --working-dir . -- python -m lucene_solr_old_ray.cli ...``)::

    python -m lucene_solr_old_ray.cli build  --corpus /data/code.parquet --index /tmp/idx
    python -m lucene_solr_old_ray.cli merge  --index /tmp/idx --fan-in 10 --strategy local
    python -m lucene_solr_old_ray.cli check  --index /tmp/idx
    python -m lucene_solr_old_ray.cli search --index /tmp/idx --query "+return class -static" -k 10
    python -m lucene_solr_old_ray.cli stats  --index /tmp/idx
"""

from __future__ import annotations

import argparse
import json
import sys


def _ensure_ray(num_cpus: int | None):
    import ray

    if not ray.is_initialized():
        kwargs = {"include_dashboard": False, "ignore_reinit_error": True,
                  "logging_level": "ERROR"}
        if num_cpus is not None:
            kwargs["num_cpus"] = num_cpus
            kwargs["address"] = "local"
        ray.init(**kwargs)


def parse_with(parser_spec: str, query: str):
    """--parser dispatch: classic | precedence | analyzing[:<chain-spec>]
    | multifield:<f1,f2,...> | edismax[:<f1^b,f2^b>[:mm]] |
    dismax[:<f1^b,...>[:mm]] -> a Query tree."""
    from .queries import (parse, parse_analyzing, parse_multi_field,
                          parse_precedence)

    if parser_spec == "classic":
        return parse(query)
    if parser_spec == "precedence":
        return parse_precedence(query)
    if parser_spec.startswith("analyzing"):
        chain = (parser_spec.split(":", 1)[1]
                 if ":" in parser_spec else "standard")
        return parse_analyzing(query, chain)
    if parser_spec.startswith("multifield:"):
        return parse_multi_field(query,
                                 parser_spec.split(":", 1)[1].split(","))
    if parser_spec.startswith(("edismax", "dismax")):
        from .edismax import dismax_parse, edismax_parse

        parts = parser_spec.split(":")
        qf = {}
        for f in (parts[1].split(",") if len(parts) > 1 and parts[1]
                  else []):
            name, _, boost = f.partition("^")
            qf[name] = float(boost) if boost else 1.0
        mm = parts[2] if len(parts) > 2 else None
        if parts[0] == "edismax":
            return edismax_parse(query, qf or None, mm=mm)
        return dismax_parse(query, qf or None, mm=mm or "100%")
    raise SystemExit(f"unknown parser {parser_spec!r}")


def _parse_rates(specs) -> dict:
    """Parse repeated GROUP=R flags with clean errors (shared by the mix
    and pipeline subcommands)."""
    rates = {}
    for spec in specs:
        g, sep, r = spec.rpartition("=")
        if not sep or not g:
            raise SystemExit(f"--rate expects GROUP=R, got {spec!r}")
        try:
            rates[g] = float(r)
        except ValueError:
            raise SystemExit(f"--rate {spec!r}: {r!r} is not a number")
    return rates


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="lucene_solr_old_ray")
    p.add_argument("--num-cpus", type=int, default=None,
                   help="local ray.init num_cpus (omit under ray job submit)")
    sub = p.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("build", help="build (or resume) an index")
    b.add_argument("--corpus", required=True,
                   help="parquet file/dir with (repo,path,commit,lang,content)")
    b.add_argument("--index", required=True)
    b.add_argument("--partition-docs", type=int, default=50_000)
    b.add_argument("--no-positions", action="store_true")

    m = sub.add_parser("merge", help="one tiered merge round")
    m.add_argument("--index", required=True)
    m.add_argument("--fan-in", type=int, default=10)
    m.add_argument("--strategy", choices=["termwise", "local"], default="termwise")

    c = sub.add_parser("check", help="CheckIndex-style validation")
    c.add_argument("--index", required=True)

    s = sub.add_parser("search", help="run one query (classic syntax)")
    s.add_argument("--index", required=True)
    s.add_argument("--query", required=True)
    s.add_argument("-k", type=int, default=10)
    s.add_argument("--similarity", default="bm25",
                   help="bm25 | classic | sweetspot:... | dfr:<m>:<ae>:<n> "
                        "| ib:<d>:<l>:<n> | lmdirichlet[:mu] | lmjm:<l> "
                        "| multi:<spec>+<spec>")
    s.add_argument("--time-limit", type=float, default=None,
                   help="TimeLimitingCollector budget in seconds "
                        "(partial results flagged timed_out)")
    s.add_argument("--parser", default="classic",
                   help="classic | precedence | analyzing[:<chain-spec>] "
                        "| multifield:<f1,f2,...>")

    st = sub.add_parser("stats", help="print the latest manifest")
    st.add_argument("--index", required=True)

    ad = sub.add_parser("add", help="append documents (update = delete + add)")
    ad.add_argument("--corpus", required=True)
    ad.add_argument("--index", required=True)
    ad.add_argument("--partition-docs", type=int, default=50_000)

    un = sub.add_parser("union", help="compose indexes (addIndexes analogue)")
    un.add_argument("--index", required=True, help="destination index dir")
    un.add_argument("--sources", nargs="+", required=True)

    dl = sub.add_parser("delete", help="delete docs matching a query (liveDocs)")
    dl.add_argument("--index", required=True)
    dl.add_argument("--query", required=True)

    ex = sub.add_parser("expunge", help="physically drop deleted docs")
    ex.add_argument("--index", required=True)

    rp = sub.add_parser("replicate",
                        help="pull a committed generation into a replica")
    rp.add_argument("--index", required=True, help="source index")
    rp.add_argument("--replica", required=True, help="destination dir")

    mt = sub.add_parser("merge-tool",
                        help="merge several indexes into one (IndexMergeTool)")
    mt.add_argument("--index", required=True, help="destination dir")
    mt.add_argument("--sources", nargs="+", required=True)

    sp = sub.add_parser("split",
                        help="N-way split (MultiPassIndexSplitter)")
    sp.add_argument("--index", required=True)
    sp.add_argument("--outputs", nargs="+", required=True)
    sp.add_argument("--seq", action="store_true",
                    help="sequential doc ranges instead of round-robin")

    dd = sub.add_parser("dedup", help="training-data dedup pass over "
                        "documents.parquet -> partitioned Parquet sink")
    dd.add_argument("--sf-dir", required=True,
                    help="directory containing documents.parquet")
    dd.add_argument("--method", required=True,
                    choices=["exact", "paragraph", "substring",
                             "incremental"])
    dd.add_argument("--out", required=True, help="output Parquet directory")
    dd.add_argument("--window", type=int, default=50,
                    help="substring: tokens per duplicated window")
    dd.add_argument("--min-chars", type=int, default=20,
                    help="paragraph: min block size eligible for dedup")
    dd.add_argument("--seen", default=None,
                    help="incremental: previously-ingested corpus dir "
                         "to dedup against")

    se = sub.add_parser("select", help="DSIR importance resampling toward "
                        "a target-domain text set")
    se.add_argument("--sf-dir", required=True)
    se.add_argument("--target", required=True,
                    help="parquet with a 'text' column (target domain)")
    se.add_argument("-k", type=int, required=True)
    se.add_argument("--buckets", type=int, default=10_000)
    se.add_argument("--seed", type=int, default=0)
    se.add_argument("--scores-out", default=None,
                    help="optionally stream ALL per-doc scores here")

    sd = sub.add_parser("semdedup", help="embedding-cluster semantic dedup")
    sd.add_argument("--sf-dir", required=True)
    sd.add_argument("--clusters", type=int, default=16)
    sd.add_argument("--eps", type=float, default=0.95)
    sd.add_argument("--seed", type=int, default=42)
    sd.add_argument("--out", required=True)

    wn = sub.add_parser("winnow", help="MOSS-style shared-fingerprint "
                        "candidate pairs")
    wn.add_argument("--sf-dir", required=True)
    wn.add_argument("-k", type=int, default=5, help="k-gram length")
    wn.add_argument("-w", type=int, default=4, help="window size")
    wn.add_argument("--min-shared", type=int, default=2)

    pp = sub.add_parser("perplexity", help="CCNet-style head/middle/tail "
                        "perplexity buckets")
    pp.add_argument("--sf-dir", required=True)
    pp.add_argument("--top-n", type=int, default=50_000)
    pp.add_argument("--out", required=True)

    pk = sub.add_parser("pack", help="concat-and-chunk sequence-packing "
                        "plan")
    pk.add_argument("--sf-dir", required=True)
    pk.add_argument("--seq-len", type=int, required=True)
    pk.add_argument("--eod-tokens", type=int, default=1)
    pk.add_argument("--out", required=True)

    cu = sub.add_parser("curate", help="document curation policy pass "
                        "(C4 line cleaning / Gopher quality filter)")
    cu.add_argument("--sf-dir", required=True)
    cu.add_argument("--policy", required=True,
                    choices=["c4", "gopher", "redact", "license",
                             "extract-html"])
    cu.add_argument("--out", required=True)

    mx = sub.add_parser("mix", help="deterministic per-group down-sampling "
                        "(data mixing) -> partitioned Parquet sink")
    mx.add_argument("--sf-dir", required=True)
    mx.add_argument("--rate", action="append", default=[],
                    metavar="GROUP=R", help="per-group keep rate (repeat)")
    mx.add_argument("--budget", action="append", default=[],
                    metavar="GROUP=TOKENS",
                    help="per-group token budget (repeat; resolves to a "
                         "keep rate from the group's token total — "
                         "mutually exclusive with --rate)")
    mx.add_argument("--group-col", default="source")
    mx.add_argument("--default-rate", type=float, default=1.0)
    mx.add_argument("--seed", type=int, default=0)
    mx.add_argument("--cluster-balance", type=int, default=0,
                    metavar="K", help="k-means cluster the EMBEDDING table "
                    "into K clusters and down-sample per cluster instead "
                    "of per group (semantic domain balancing)")
    mx.add_argument("--target", default="equalize",
                    help="with --cluster-balance: 'equalize' (cap at the "
                         "smallest cluster) or an int rows-per-cluster cap")
    mx.add_argument("--out", required=True)

    dc = sub.add_parser("decontaminate", help="flag/drop docs sharing any "
                        "W-token run with an eval set (train-test overlap)")
    dc.add_argument("--sf-dir", required=True)
    dc.add_argument("--eval", required=True, dest="eval_path",
                    help="parquet with a 'text' column (the eval set)")
    dc.add_argument("--window", type=int, default=13)
    dc.add_argument("--action", default="flag", choices=["flag", "filter"])
    dc.add_argument("--out", required=True)

    pl = sub.add_parser("pipeline", help="composed curation chain "
                        "(one streaming pass; dedup adds a staged "
                        "checkpoint) -> partitioned Parquet sink")
    pl.add_argument("--sf-dir", required=True)
    pl.add_argument("--steps", required=True,
                    help="ordered comma list from: extract_html,c4,gopher,"
                         "license,redact,decontam,perplexity,dedup,"
                         "near_dedup,paragraph_dedup,substring_dedup,mix,"
                         "pack (pack must be last)")
    pl.add_argument("--threshold", type=float, default=0.95,
                    help="near_dedup step Jaccard threshold")
    pl.add_argument("--min-chars", type=int, default=20,
                    help="paragraph_dedup step minimum paragraph chars")
    pl.add_argument("--ssd-window", type=int, default=50,
                    help="substring_dedup step token window")
    pl.add_argument("--rate", action="append", default=[],
                    metavar="GROUP=R", help="mix step keep rate (repeat)")
    pl.add_argument("--budget", action="append", default=[],
                    metavar="GROUP=TOKENS",
                    help="mix step per-group token budget (repeat; "
                         "resolves rates against the SURVIVING stream "
                         "at the mix step's position — mutually "
                         "exclusive with --rate)")
    pl.add_argument("--group-col", default="source")
    pl.add_argument("--default-rate", type=float, default=1.0)
    pl.add_argument("--seed", type=int, default=0)
    pl.add_argument("--eval", dest="eval_path", default=None,
                    help="decontam step eval parquet ('text' column)")
    pl.add_argument("--window", type=int, default=13)
    pl.add_argument("--allow-license", action="append", default=[],
                    help="license step allowed id (repeat)")
    pl.add_argument("--seq-len", type=int, default=2048,
                    help="pack step sequence length")
    pl.add_argument("--model", dest="model_path", default=None,
                    help="perplexity step reference-LM parquet "
                         "('text' column)")
    pl.add_argument("--max-log-ppl", type=float, default=None,
                    help="perplexity step keep cutoff")
    pl.add_argument("--stage-dir", default=None,
                    help="dedup stage-boundary dir (default: sibling "
                         "of --out)")
    pl.add_argument("--out", required=True)

    qa = sub.add_parser("quality", help="per-doc quality stats / lang-id "
                        "over documents.parquet -> partitioned Parquet sink")
    qa.add_argument("--sf-dir", required=True)
    qa.add_argument("--kind", required=True,
                    choices=["stats", "lang-id", "tokens"])
    qa.add_argument("--out", required=True)

    hl = sub.add_parser("highlight",
                        help="span-aware snippets for the top-k hits")
    hl.add_argument("--index", required=True)
    hl.add_argument("--corpus", required=True,
                    help="row-store parquet with the stored text")
    hl.add_argument("--query", required=True, help="classic syntax")
    hl.add_argument("-k", type=int, default=5)
    hl.add_argument("--frag-size", type=int, default=120)
    hl.add_argument("--fragmenter", default="span",
                    choices=["span", "simple", "null"])

    lk = sub.add_parser("luke", help="LukeRequestHandler-style index "
                        "report: info + per-field distinct/topTerms/"
                        "docFreq histogram")
    lk.add_argument("--index", required=True)
    lk.add_argument("--field", default=None,
                    help="one field (default: all indexed fields)")
    lk.add_argument("--num-terms", type=int, default=10)

    an = sub.add_parser("analyze", help="FieldAnalysisRequestHandler-style "
                        "per-stage token report for a chain spec")
    an.add_argument("--chain", required=True,
                    help="chain spec, e.g. standard|lowercase|stem:english")
    an.add_argument("--text", required=True)
    an.add_argument("--query", default=None,
                    help="mark index tokens matching this analyzed query")

    args = p.parse_args(argv)
    _ensure_ray(args.num_cpus)

    if args.cmd == "build":
        from .pipelines.build_index import build_index
        from .sources.corpus import CorpusSpec

        man = build_index(
            CorpusSpec.source_code(args.corpus), args.index,
            target_docs_per_partition=args.partition_docs,
            store_positions=not args.no_positions,
        )
        print(json.dumps({"generation": man["generation"],
                          "stats": man["stats"], "metrics": man["metrics"]}))
    elif args.cmd == "merge":
        from .pipelines.merge import merge_index

        man = merge_index(args.index, fan_in=args.fan_in, strategy=args.strategy)
        print(json.dumps({"generation": man["generation"],
                          "shards": len(man["segments"]),
                          "metrics": man["metrics"]}))
    elif args.cmd == "check":
        from .pipelines.validate import check_index

        report = check_index(args.index)
        print(json.dumps({"leaves": len(report), "ok": bool(report["ok"].all())}))
    elif args.cmd == "search":
        from .pipelines.search import fetch_doc_meta, search
        from .queries import (parse, parse_analyzing, parse_multi_field,
                              parse_precedence)

        if args.parser == "classic":
            q = parse(args.query)
        elif args.parser == "precedence":
            q = parse_precedence(args.query)
        elif args.parser.startswith("analyzing"):
            chain = (args.parser.split(":", 1)[1]
                     if ":" in args.parser else "standard")
            q = parse_analyzing(args.query, chain)
        elif args.parser.startswith("multifield:"):
            q = parse_multi_field(
                args.query, args.parser.split(":", 1)[1].split(","))
        else:
            raise SystemExit(f"unknown parser {args.parser!r}")
        res = search(args.index, {0: q}, k=args.k,
                     similarity=args.similarity,
                     time_limit_s=args.time_limit)
        meta = fetch_doc_meta(args.index, res["docid"].to_pylist()).to_pandas()
        meta = meta.set_index("docid")
        for row in res.to_pylist():
            m = meta.loc[row["docid"]].to_dict()
            ident = {k: m[k] for k in ("repo", "path", "doc_id", "source")
                     if k in m and m[k] is not None}
            print(json.dumps({"rank": row["rank"], "score": round(row["score"], 4),
                              "docid": row["docid"], **ident,
                              "total_hits": row["total_hits"]}))
    elif args.cmd == "add":
        from .pipelines.deletes import add_documents
        from .sources.corpus import CorpusSpec

        man = add_documents(args.index, CorpusSpec.source_code(args.corpus),
                            target_docs_per_partition=args.partition_docs)
        print(json.dumps({"generation": man["generation"],
                          "stats": man["stats"], "metrics": man["metrics"]}))
    elif args.cmd == "union":
        from .pipelines.compose import union_indexes

        man = union_indexes(args.index, args.sources)
        print(json.dumps({"generation": man["generation"],
                          "stats": man["stats"],
                          "leaves": len(man["segments"])}))
    elif args.cmd == "delete":
        from .pipelines.deletes import delete_by_query
        from .queries import parse

        man = delete_by_query(args.index, parse(args.query))
        print(json.dumps({"generation": man["generation"],
                          "metrics": man["metrics"]}))
    elif args.cmd == "replicate":
        from .pipelines.replicate import replicate_index

        print(json.dumps(replicate_index(args.index, args.replica)))
    elif args.cmd == "merge-tool":
        from .pipelines.compose import index_merge_tool

        man = index_merge_tool(args.index, args.sources)
        print(json.dumps({"generation": man["generation"],
                          "stats": man["stats"],
                          "leaves": len(man["segments"])}))
    elif args.cmd == "split":
        from .pipelines.split import multi_pass_split

        mans = multi_pass_split(args.index, args.outputs, seq=args.seq)
        print(json.dumps([{"out": o, "max_doc": m["stats"]["max_doc"]}
                          for o, m in zip(args.outputs, mans)]))
    elif args.cmd == "highlight":
        from .pipelines.span_highlight import highlight_hits_span
        from .queries import parse

        t = highlight_hits_span(
            args.index, args.corpus, parse(args.query), k=args.k,
            frag_size=args.frag_size, fragmenter=args.fragmenter)
        for row in t.to_pylist():
            print(json.dumps(row))
    elif args.cmd == "dedup":
        from .stages.dedup import (
            exact_dedup,
            incremental_dedup,
            paragraph_dedup,
            substring_dedup,
        )

        if args.method == "exact":
            t = exact_dedup(args.sf_dir, write_to=args.out)
        elif args.method == "paragraph":
            t = paragraph_dedup(args.sf_dir, min_chars=args.min_chars,
                                write_to=args.out)
        elif args.method == "incremental":
            if not args.seen:
                raise SystemExit("--seen is required for --method "
                                 "incremental")
            t = incremental_dedup(args.sf_dir, args.seen,
                                  write_to=args.out)
        else:
            t = substring_dedup(args.sf_dir, window=args.window,
                                write_to=args.out)
        print(json.dumps(t.to_pylist()[0]))
    elif args.cmd == "select":
        from .stages.mix import dsir_select

        t = dsir_select(args.sf_dir, args.target, k=args.k,
                        n_buckets=args.buckets, seed=args.seed,
                        scores_to=args.scores_out)
        for row in t.to_pylist():
            print(json.dumps(row))
    elif args.cmd == "semdedup":
        from .stages.dedup import semdedup

        t = semdedup(args.sf_dir, n_clusters=args.clusters, eps=args.eps,
                     seed=args.seed, write_to=args.out)
        print(json.dumps(t.to_pylist()[0]))
    elif args.cmd == "winnow":
        from .stages.dedup import winnow_matches

        t = winnow_matches(args.sf_dir, k=args.k, w=args.w,
                           min_shared=args.min_shared)
        print(json.dumps({"pairs": t.num_rows}))
    elif args.cmd == "perplexity":
        from .stages.curation import perplexity_buckets

        t = perplexity_buckets(args.sf_dir, top_n=args.top_n,
                               write_to=args.out)
        print(json.dumps(t.to_pylist()[0]))
    elif args.cmd == "pack":
        from .stages.mix import pack_plan

        t = pack_plan(args.sf_dir, seq_len=args.seq_len,
                      eod_tokens=args.eod_tokens, write_to=args.out)
        print(json.dumps(t.to_pylist()[0]))
    elif args.cmd == "curate":
        from .stages.curation import (c4_clean, detect_license,
                                      extract_html_text,
                                      gopher_quality_filter, redact_pii)

        fn = {"c4": c4_clean, "gopher": gopher_quality_filter,
              "redact": redact_pii, "license": detect_license,
              "extract-html": extract_html_text}[args.policy]
        t = fn(args.sf_dir, write_to=args.out)
        print(json.dumps(t.to_pylist()[0]))
    elif args.cmd == "mix":
        from .stages.mix import (cluster_balanced_sample,
                                 mix_to_token_budget, sample_mix)

        if args.budget and args.rate:
            raise SystemExit("--rate and --budget are mutually exclusive")
        if args.cluster_balance:
            tgt = (args.target if args.target == "equalize"
                   else int(args.target))
            t = cluster_balanced_sample(args.sf_dir, args.cluster_balance,
                                        target=tgt, seed=args.seed,
                                        write_to=args.out)
        elif args.budget:
            budgets = {g: int(v) for g, v in
                       _parse_rates(args.budget).items()}
            t = mix_to_token_budget(args.sf_dir, budgets,
                                    group_col=args.group_col,
                                    default_rate=args.default_rate,
                                    seed=args.seed, write_to=args.out)
        else:
            rates = _parse_rates(args.rate)
            t = sample_mix(args.sf_dir, rates, group_col=args.group_col,
                           default_rate=args.default_rate, seed=args.seed,
                           write_to=args.out)
        print(json.dumps(t.to_pylist()[0]))
    elif args.cmd == "decontaminate":
        from .stages.dedup import decontaminate

        t = decontaminate(args.sf_dir, args.eval_path, window=args.window,
                          action=args.action, write_to=args.out)
        print(json.dumps(t.to_pylist()[0]))
    elif args.cmd == "pipeline":
        from .stages.curation_chain import curation_pipeline

        rates = _parse_rates(args.rate)
        steps = []
        for name in [x.strip() for x in args.steps.split(",") if x.strip()]:
            if name == "mix":
                p = {"group_col": args.group_col,
                     "default_rate": args.default_rate,
                     "seed": args.seed}
                if getattr(args, "budget", None):
                    if args.rate:
                        raise SystemExit("--rate and --budget are "
                                         "mutually exclusive")
                    p["budgets"] = {g: int(v) for g, v in
                                    _parse_rates(args.budget).items()}
                else:
                    p["rates"] = rates
                steps.append(("mix", p))
            elif name == "decontam":
                if not args.eval_path:
                    raise SystemExit("--eval is required for the "
                                     "decontam step")
                steps.append(("decontam", {"eval_texts": args.eval_path,
                                           "window": args.window}))
            elif name == "license":
                if not args.allow_license:
                    raise SystemExit("--allow-license is required for "
                                     "the license step")
                steps.append(("license", {"allow": args.allow_license}))
            elif name == "pack":
                steps.append(("pack", {"seq_len": args.seq_len}))
            elif name == "near_dedup":
                steps.append(("near_dedup",
                              {"threshold": args.threshold}))
            elif name == "paragraph_dedup":
                steps.append(("paragraph_dedup",
                              {"min_chars": args.min_chars}))
            elif name == "substring_dedup":
                steps.append(("substring_dedup",
                              {"window": args.ssd_window}))
            elif name == "perplexity":
                if not args.model_path or args.max_log_ppl is None:
                    raise SystemExit("--model and --max-log-ppl are "
                                     "required for the perplexity step")
                steps.append(("perplexity",
                              {"model_texts": args.model_path,
                               "max_log_ppl": args.max_log_ppl}))
            else:
                steps.append(name)
        t = curation_pipeline(args.sf_dir, steps, write_to=args.out,
                              stage_dir=args.stage_dir)
        print(json.dumps(t.to_pylist()[0]))
    elif args.cmd == "quality":
        from .stages.textstats import lang_id, quality_stats, token_counts

        fn = {"stats": quality_stats, "lang-id": lang_id,
              "tokens": token_counts}[args.kind]
        t = fn(args.sf_dir, write_to=args.out)
        print(json.dumps(t.to_pylist()[0]))
    elif args.cmd == "expunge":
        from .pipelines.deletes import expunge_deletes

        man = expunge_deletes(args.index)
        print(json.dumps({"generation": man["generation"],
                          "stats": man["stats"]}))
    elif args.cmd == "stats":
        from .state import manifest as mf

        man = mf.read_index_manifest(args.index)
        print(json.dumps({"generation": man["generation"], "kind": man["kind"],
                          "leaves": len(man["segments"]), "stats": man["stats"]}))
    elif args.cmd == "luke":
        from .pipelines.solrstats import luke_report

        fields = [args.field] if args.field else None
        rep = luke_report(args.index, fields=fields,
                          num_terms=args.num_terms)
        out = {"index": rep["index"], "fields": {}}
        for f, d in rep["fields"].items():
            tt = d["top_terms"].to_pandas()
            hh = d["histogram"].to_pandas()
            out["fields"][f] = {
                "distinct": d["distinct"],
                "topTerms": dict(zip(tt["term"], tt["df"].astype(int))),
                "histogram": dict(zip(hh["bucket"].astype(int),
                                      hh["count"].astype(int))),
            }
        print(json.dumps(out))
    elif args.cmd == "analyze":
        from .functions.tokenfilters import run_chain_report

        df = run_chain_report([args.text], f"chain:{args.chain}",
                              query=args.query)
        stages = []
        for ordv in sorted(df["stage_ord"].unique()):
            s = df[df["stage_ord"] == ordv]
            stages.append({"stage": s["stage"].iloc[0], "tokens": [
                {"text": r.token, "position": int(r.position),
                 **({"match": True} if r.match else {})}
                for r in s.itertuples()]})
        print(json.dumps({"analysis": stages}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
