"""Steadiness study: repeated benchmark runs, one seed each, summarised per
workload and end-to-end metric by median and quartiles.

    python3 perfbench/study.py run --label A --first-seed 101
    python3 perfbench/study.py compare A B

`run` makes RUNS runs of every workload in BENCHMARK.json, each of its
run_seconds, with seeds first-seed, first-seed + 1, ...  It writes
perfbench/out/study-<label>.json and prints, for every workload and metric, the median, the quartiles and their distance as a
share of the median, next to the metric's bound in BENCHMARK.json, plus
machine.calib_s (a kernel that does not use repnorm) measured before each
run.  `compare` prints how far the second set's medians sit from the
first's, the figure each bound has to cover.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
RUNS = 10


def load_benchmark():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_set(label, first_seed):
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from run import THREAD_VARS
    for var in THREAD_VARS:
        os.environ[var] = "1"
    from tracing import calibrate

    bench = load_benchmark()
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"label": label, "seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        rows, calib = [], []
        for seed in range(first_seed, first_seed + RUNS):
            calib.append(calibrate())
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=180)
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed} exited {proc.returncode}:"
                         f" {proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            rows.append(result)
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4f}" for k, v in result["metrics"].items())
                + f" failed {result['failed']}/{result['attempted']}"
                + ("" if result["correct"] else " INCORRECT"), flush=True)
        summary = {}
        for name in rows[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in rows]
            q1, med, q3 = statistics.quantiles(values, n=4)
            summary[name] = {"values": values, "q1": q1, "median": med,
                             "q3": q3, "spread": (q3 - q1) / med,
                             "bound": bounds[name]}
        report["workloads"][workload] = {
            "metrics": summary,
            "failed_share": sorted({r["failed"] / r["attempted"]
                                    for r in rows}),
            "all_correct": all(r["correct"] for r in rows),
            "calib_s": {"values": calib, "median": statistics.median(calib)},
        }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"study-{label}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print_set(report)


def print_set(report):
    print(f"\nset {report['label']} ({report['seconds']} s runs)")
    for workload, w in report["workloads"].items():
        print(f"  {workload}: calib_s median {w['calib_s']['median']:.4f},"
              f" failed share {w['failed_share']},"
              f" all correct {w['all_correct']}")
        for name, m in w["metrics"].items():
            print(f"    {name:12s} median {m['median']:.4f}"
                  f"  q1 {m['q1']:.4f}  q3 {m['q3']:.4f}"
                  f"  spread {m['spread']:.3f}  (bound {m['bound']})")


def compare(first, second):
    sets = []
    for label in (first, second):
        with open(OUT / f"study-{label}.json", encoding="utf-8") as fh:
            sets.append(json.load(fh))
    a, b = sets
    for workload, wa in a["workloads"].items():
        wb = b["workloads"][workload]
        print(f"{workload}: calib_s {wa['calib_s']['median']:.4f} ->"
              f" {wb['calib_s']['median']:.4f}")
        for name, ma in wa["metrics"].items():
            mb = wb["metrics"][name]
            shift = mb["median"] / ma["median"] - 1.0
            print(f"  {name:12s} {ma['median']:.4f} -> {mb['median']:.4f}"
                  f"  shift {shift:+.3f}  (bound {ma['bound']})")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--label", required=True)
    r.add_argument("--first-seed", type=int, required=True)
    c = sub.add_parser("compare")
    c.add_argument("first")
    c.add_argument("second")
    args = p.parse_args()
    if args.cmd == "compare":
        compare(args.first, args.second)
    else:
        run_set(args.label, args.first_seed)


if __name__ == "__main__":
    main()
