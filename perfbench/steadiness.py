#!/usr/bin/env python3
"""Steadiness evidence: repeated runs, workloads interleaved.

    python3 perfbench/steadiness.py --set A --seeds 1-10
    python3 perfbench/steadiness.py --set traced --seeds 1 --trace 1
    python3 perfbench/steadiness.py --summarize A B
    python3 perfbench/steadiness.py --summarize traced --metrics serve.max_qps

Runs use BENCHMARK.json's run_seconds. Each run's result line, host record and wall time is appended to
perfbench/results/<set>.jsonl. --summarize prints, per workload and
end-to-end metric (or each metric named by --metrics), each set's median, quartiles and spread (interquartile
distance over the median, as statistics.quantiles(values, n=4) gives them)
and the shift of the second set's median against the first, as a share of
the first.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")


def seeds_from(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_set(name, seeds, trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{name}.jsonl")
    for i, seed in enumerate(seeds):
        # Rotate the workload order so no workload always runs first.
        order = workloads[i % len(workloads):] + workloads[:i % len(workloads)]
        for workload in order:
            start = time.time()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace)],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True)
            lines = proc.stdout.strip().splitlines()
            record = {"set": name, "workload": workload, "seed": seed,
                      "returncode": proc.returncode,
                      "wall_s": round(time.time() - start, 2)}
            try:
                record["host"] = json.loads(lines[-2])["host"]
                record["result"] = json.loads(lines[-1])
            except (IndexError, ValueError, KeyError):
                record["stdout_tail"] = lines[-2:]
            with open(path, "a") as f:
                f.write(json.dumps(record) + "\n")
            print(f"{name} seed {seed} {workload}: rc {proc.returncode} "
                  f"{record['wall_s']} s", flush=True)


def load(name):
    out = {}
    with open(os.path.join(RESULTS, f"{name}.jsonl")) as f:
        for line in f:
            r = json.loads(line)
            for metric, m in r.get("result", {}).get("metrics", {}).items():
                out.setdefault((r["workload"], metric), []).append(m["value"])
    return out


def summarize(names, metrics):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    if metrics:
        bounds = {m: bounds.get(m, "-") for m in metrics}
    sets = [load(n) for n in names]
    print("| workload | metric | bound | " +
          " | ".join(f"{n} median [q1, q3] spread" for n in names) +
          (" | median shift |" if len(names) > 1 else " |"))
    print("|---|---|---|" + "---|" * len(names) + ("---|" if len(names) > 1 else ""))
    for w in [w["name"] for w in bench["workloads"]]:
        for metric in bounds:
            cells, medians = [], []
            for s in sets:
                v = [x for x in s.get((w, metric), []) if x is not None]
                if len(v) < 2:
                    cells.append("n/a")
                    continue
                q1, med, q3 = statistics.quantiles(v, n=4)
                med = statistics.median(v)
                medians.append(med)
                spread = f"{(q3 - q1) / med:.3f}" if med else "n/a"
                cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}] "
                              f"{spread} (n={len(v)})")
            shift = ""
            if len(medians) == 2:
                shift = (f" {(medians[1] - medians[0]) / medians[0]:+.3f} |"
                         if medians[0] else " n/a |")
            print(f"| {w} | {metric} | {bounds[metric]} | " +
                  " | ".join(cells) + " |" + shift)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--set")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--summarize", nargs="+")
    parser.add_argument("--metrics", nargs="+",
                        help="metrics to summarize (default: the end-to-end ones)")
    args = parser.parse_args()
    if args.set:
        run_set(args.set, seeds_from(args.seeds), args.trace)
    if args.summarize:
        summarize(args.summarize, args.metrics)


if __name__ == "__main__":
    main()
