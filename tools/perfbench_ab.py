"""Paired A/B of the repo benchmark between two checkouts.

Runs ``perfbench/run.py`` of each checkout in pairs, one pair per seed,
the parent first in even pairs and the change first in odd ones, with
``ray stop --force`` before every run. Then prints, for each end-to-end
metric of ``BENCHMARK.json``, each side's median and quartiles and the
number of pairs the change won (ties count for neither side). A gain is claimed only
over at least ten pairs, when the change wins at least nine tenths of them
and the medians differ by more than the parent's interquartile range.

    python3 tools/perfbench_ab.py --parent ../parent --change . \\
        --workload query --seeds 1-10 --seconds 40 --out ab-query.jsonl

``--report FILE`` prints the summary of rows saved earlier with ``--out``
without running anything.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def parse_seeds(text: str) -> list[int]:
    """"1-3,9" -> [1, 2, 3, 9]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def end_to_end(checkout: str) -> list[dict]:
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        return json.load(f)["end_to_end"]


def run_once(checkout: str, workload: str, seed: int, seconds: float,
             trace: int) -> dict:
    """One benchmark run -> its result line, or a row with ``error``."""
    subprocess.run(["ray", "stop", "--force"], stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL, check=False)
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, check=False)
    lines = [ln for ln in p.stdout.splitlines() if ln.strip()]
    if p.returncode != 0 or not lines:
        return {"error": p.returncode, "stderr_tail": p.stderr[-2000:]}
    return json.loads(lines[-1])


def metric(result: dict, name: str) -> float | None:
    m = result.get("metrics", {})
    v = m.get(name) or m.get("e2e." + name)
    return None if v is None else v["value"]


def summarize(rows: list[dict], metrics: list[dict]) -> str:
    """One block per workload; a pair is the two sides' runs of one seed."""
    return "\n".join(
        summarize_workload(w, [r for r in rows if r["workload"] == w], metrics)
        for w in sorted({r["workload"] for r in rows}))


def summarize_workload(workload: str, rows: list[dict],
                       metrics: list[dict]) -> str:
    pairs: dict[int, dict[str, dict]] = {}
    for r in rows:
        pairs.setdefault(r["seed"], {})[r["side"]] = r["result"]
    done = [p for p in pairs.values() if "parent" in p and "change" in p]
    out = [f"{workload}: {len(done)} complete pairs (seeds {sorted(pairs)})"]
    for side in ("parent", "change"):
        failed = [p[side].get("failed", "error") for p in done]
        out.append(f"  {side} failed per run: {failed}")
    out.append(f"  {'metric':<20}{'parent median [q1, q3]':>34}"
               f"{'change median [q1, q3]':>34}  wins  verdict")
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        vals = {s: [metric(p[s], name) for p in done]
                for s in ("parent", "change")}
        ok = [i for i in range(len(done))
              if vals["parent"][i] is not None
              and vals["change"][i] is not None]
        if not ok:
            out.append(f"  {name:<20} no values")
            continue
        a = [vals["parent"][i] for i in ok]
        b = [vals["change"][i] for i in ok]
        wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
        qa, qb = quartiles(a), quartiles(b)
        gain = (qa[1] - qb[1]) if lower else (qb[1] - qa[1])
        claim = (len(ok) >= 10 and wins >= 0.9 * len(ok)
                 and gain > qa[2] - qa[0])
        worse = -gain / abs(qa[1]) if qa[1] else 0.0
        verdict = ("gain" if claim else
                   f"worse by {worse:.1%} (bound {m['bound']:.0%})"
                   if worse > m["bound"] else "within bound")
        out.append(f"  {name:<20}{fmt(qa):>34}{fmt(qb):>34}"
                   f"  {wins:>2}/{len(ok)}  {verdict}")
    return "\n".join(out)


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def fmt(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", help="checkout of the parent commit")
    ap.add_argument("--change", help="checkout of the change")
    ap.add_argument("--workload")
    ap.add_argument("--seeds", help='e.g. "1-10" or "1,2,5"')
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append each run's result row here")
    ap.add_argument("--report", help="summarize saved rows and exit")
    args = ap.parse_args()

    if args.report:
        with open(args.report) as f:
            rows = [json.loads(ln) for ln in f if ln.strip()]
        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        print(summarize(rows, end_to_end(repo)))
        return 0
    if not (args.parent and args.change and args.workload and args.seeds):
        ap.error("--parent, --change, --workload and --seeds are required")

    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    rows = []
    for i, seed in enumerate(parse_seeds(args.seeds)):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            res = run_once(sides[side], args.workload, seed, args.seconds,
                           args.trace)
            row = {"seed": seed, "side": side, "workload": args.workload,
                   "result": res}
            rows.append(row)
            print(f"seed {seed} {side}: "
                  + json.dumps({m["name"]: metric(res, m["name"])
                                for m in end_to_end(sides["change"])}),
                  file=sys.stderr, flush=True)
            if args.out:
                with open(args.out, "a") as f:
                    f.write(json.dumps(row) + "\n")
    subprocess.run(["ray", "stop", "--force"], stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL, check=False)
    print(summarize(rows, end_to_end(sides["change"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
