#!/usr/bin/env python3
"""Run the benchmark over several seeds and print, per workload and
end-to-end metric, the median, the quartiles and the spread (distance
between the quartiles as a share of the median) - the figures a bound in
BENCHMARK.json has to stand on. Run from the root of a checkout:

    python3 livebench/spread.py [--runs 10] [--first-seed 100] [--baseline]

--baseline also writes livebench/BASELINE.json with a host stamp.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

parser = argparse.ArgumentParser()
parser.add_argument("--runs", type=int, default=10)
parser.add_argument("--first-seed", type=int, default=100)
parser.add_argument("--baseline", action="store_true")
args = parser.parse_args()

bench = json.load(open("BENCHMARK.json"))
names = [m["name"] for m in bench["end_to_end"]]
values = {}
for k in range(args.runs):
    for w in bench["workloads"]:
        cmd = bench["command"] + ["--workload", w["name"], "--seed", str(args.first_seed + k),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, check=True)
        result = json.loads(out.stdout.decode().strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0, result
        for name in names:
            values.setdefault((w["name"], name), []).append(result["metrics"][name]["value"])
        print(w["name"], args.first_seed + k,
              " ".join(f"{result['metrics'][n]['value']:.4g}" for n in names), file=sys.stderr)

rows = {}
for (workload, name), v in values.items():
    q1, q2, q3 = statistics.quantiles(v, n=4)
    rows.setdefault(workload, {})[name] = {
        "median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2, "runs": len(v)}
    print(f"{workload:14} {name:14} median {q2:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}  "
          f"spread {(q3 - q1) / q2:6.3f}")

if args.baseline:
    def said(cmd):
        return subprocess.run(cmd, stdout=subprocess.PIPE, check=False).stdout.decode().strip()
    stamp = {"nproc": os.cpu_count(), "kernel": platform.release(), "machine": platform.machine(),
             "rustc": said(["rustc", "--version"]), "commit": said(["git", "rev-parse", "HEAD"]),
             "seeds": [args.first_seed, args.first_seed + args.runs - 1],
             "run_seconds": bench["run_seconds"]}
    json.dump({"host": stamp, "end_to_end": rows}, open("livebench/BASELINE.json", "w"), indent=1)
    print("wrote livebench/BASELINE.json")
