"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 evobench/spread.py [--runs 10] [--workload NAME ...]
        [--first-seed N] [--baseline OUT.json]

Runs run.py once per seed on each workload with the BENCHMARK.json run
length, and prints each metric's median and quartile spread
((q3 - q1) / median, by statistics.quantiles(n=4)) against its bound.
With --baseline it also makes one traced run per workload and writes
the medians, every run's value, the per-layer metrics and the machine
they came from.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import numpy as np

from workloads import HERE, ROOT, WORKLOADS, platform_key


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((l.split(":", 1)[1].strip() for l in fh
                          if l.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model, "python": platform.python_version(),
            "numpy": np.__version__, "platform_key": platform_key()}


def run(name, seed, trace, seconds):
    """One run.py run's metrics, or None (with its output) if it failed."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        print(proc.stdout, file=sys.stderr)
        return None
    return result["metrics"]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", nargs="*", choices=sorted(WORKLOADS),
                    default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--first-seed", type=int, default=0)
    ap.add_argument("--baseline", help="write the report here")
    args = ap.parse_args(argv)
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    report = {"machine": machine(), "run_seconds": spec["run_seconds"], "seeds": seeds,
              "workloads": {}}
    worst = 0.0
    for name in args.workload:
        runs = [run(name, seed, 0, spec["run_seconds"]) for seed in seeds]
        if None in runs:
            return 1
        rows = report["workloads"][name] = {}
        for m in spec["end_to_end"]:
            values = [r[m["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            rows[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                               "unit": m["unit"], "values": values}
            worst = max(worst, spread / m["bound"])
            print(f"{name:18s} {m['name']:12s} median {med:12.6g} {m['unit']:8s} "
                  f"spread {spread:7.4f}  bound {m['bound']:.2f}"
                  f"{'  OVER A THIRD' if spread > m['bound'] / 3 else ''}", flush=True)
        if args.baseline:
            traced = run(name, seeds[0], 1, spec["run_seconds"])
            if traced is None:
                return 1
            rows["per_layer"] = {k: v["value"] for k, v in traced.items()}
    print(f"largest spread / bound: {worst:.3f}")
    if args.baseline:
        with open(args.baseline, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
