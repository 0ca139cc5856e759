"""Run the benchmark over many seeds and summarize the spread of each metric.

    python3 perfbench/sweep.py --seeds 1-10 --out perfbench-results/a.json
    python3 perfbench/sweep.py --seeds 1-10 --out perfbench-results/b.json \\
        --compare perfbench-results/a.json

For every workload and end-to-end metric this prints the median over the
seeds, the quartiles (``statistics.quantiles(values, n=4)``) and their
distance as a share of the median, next to the metric's bound from
``BENCHMARK.json``.  With ``--compare`` it also checks that no median got
worse than the earlier sweep's by more than the bound, and that every
(workload, seed) produced the same output digests and attempted/failed counts
in both sweeps.  Exit
status 1 means a spread, a comparison or a run failed.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_one(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}: {done.stderr[-2000:]}")
    info = next((json.loads(line[5:]) for line in lines if line.startswith("info ")), {})
    return {"result": json.loads(lines[-1]), "cases": info.get("cases"),
            "op_times_s": info.get("op_times_s"),
            "op_times_at_reference_s": info.get("op_times_at_reference_s"),
            "setup_samples_s": info.get("setup_samples_s"), "env": info.get("env")}


def summarize(values, bound):
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median if median else float("inf")
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "n": len(values)}


def worse_by(metric, old, new):
    """Share by which `new` is worse than `old` (negative when better)."""
    if metric["better"] == "lower":
        return (new - old) / old
    return (old - new) / old


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=None, help="comma-separated; default all")
    ap.add_argument("--seconds", type=float, default=None,
                    help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--compare", default=None, help="an earlier --out file")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    seeds = parse_seeds(args.seeds)

    ok = True
    doc = {"seconds": seconds, "trace": args.trace, "runs": {}, "summary": {}}
    for workload in workloads:
        runs = doc["runs"][workload] = {}
        for seed in seeds:
            runs[str(seed)] = run = run_one(workload, seed, seconds, args.trace)
            r = run["result"]
            print(f"{workload} seed {seed}: correct={r['correct']} "
                  f"failed={r['failed']}/{r['attempted']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()
                             if args.trace == 0), flush=True)
            ok &= r["correct"]
        summary = doc["summary"][workload] = {}
        for m in metrics:
            values = [run["result"]["metrics"][m["name"]]["value"] for run in runs.values()]
            if len(values) >= 2 and "bound" in m:
                summary[m["name"]] = s = summarize(values, m["bound"])
                verdict = "ok" if s["spread"] < m["bound"] / 3 else (
                    "WIDE" if m["name"] != "setup_s" and s["spread"] > m["bound"] else "loose")
                ok &= verdict != "WIDE"
                print(f"  {workload:16s} {m['name']:12s} median {s['median']:.6g} "
                      f"quartiles {s['q1']:.6g}..{s['q3']:.6g} spread {s['spread']:.4f} "
                      f"bound {m['bound']} [{verdict}]")
        doc.setdefault("env", next(iter(runs.values())).pop("env"))
        for run in runs.values():
            run.pop("env", None)

    if args.compare:
        same = True
        old = json.loads(Path(args.compare).read_text(encoding="utf-8"))
        for workload, summary in doc["summary"].items():
            for m in metrics:
                before = old.get("summary", {}).get(workload, {}).get(m["name"])
                after = summary.get(m["name"])
                if not before or not after:
                    continue
                w = worse_by(m, before["median"], after["median"])
                good = w <= m["bound"]
                ok &= good
                print(f"  compare {workload:16s} {m['name']:12s} "
                      f"{before['median']:.6g} -> {after['median']:.6g} "
                      f"({w:+.4f} worse, bound {m['bound']}) [{'ok' if good else 'WORSE'}]")
            for seed, run in doc["runs"][workload].items():
                prior = old.get("runs", {}).get(workload, {}).get(seed)
                if prior and prior["cases"] != run["cases"]:
                    same = False
                    print(f"  compare {workload} seed {seed}: output digests differ")
                counts = [(r["result"]["attempted"], r["result"]["failed"])
                          for r in (prior, run) if r]
                if len(set(counts)) > 1:
                    same = False
                    print(f"  compare {workload} seed {seed}: attempted/failed "
                          f"{counts[0]} then {counts[1]}")
        ok &= same
        print(f"output digests and failure counts {'match' if same else 'DIFFER'} "
              "where the seeds overlap")

    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
