"""Pin the log digest of every case of every workload for this platform.

    python3 evobench/pin.py [--workload NAME ...]

Runs cases 0..CASES-1 of each workload at its configured budget and
writes their digests to digests.json under this platform's key, keeping
other platforms' entries.  It also records the cases ordered by their
speed, the median scaled evals/s of REPEATS runs, which
workloads.pick_cases stratifies on; the repeats must agree on the digest.  It first checks the determinism contract on
cart-pole case 0: workers=1 and workers=2 must give the same digest.
Run it only when a change is meant to alter evolution results, and say
so in the change.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile

from case import run_case
from run import WORK
from workloads import CASES, DIGESTS, WORKLOADS, platform_key, write_dataset

REPEATS = 3     # one timing of a short case is too noisy to rank it by


def _problems(result) -> list:
    """Problems other than a missing or stale digest, which this replaces."""
    return [p for p in result["problems"] if not p.startswith("digest")]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", nargs="*", choices=sorted(WORKLOADS),
                    default=sorted(WORKLOADS))
    args = ap.parse_args(argv)
    one, two = (run_case("cartpole_ga", 0, workers=k) for k in (1, 2))
    if _problems(one) or _problems(two) or one["digest"] != two["digest"]:
        print(f"determinism check failed: workers=1 {one.get('digest')} "
              f"workers=2 {two.get('digest')}", file=sys.stderr)
        return 1
    table = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    entries = table.setdefault(platform_key(), {})
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        for name in args.workload:
            w = WORKLOADS[name]
            digests, speeds = [], []
            for case in range(CASES):
                data = write_dataset(w.data, case, tmp) if w.data else None
                runs = [run_case(name, case, data) for _ in range(REPEATS)]
                problems = [p for r in runs for p in _problems(r)]
                if len({r["digest"] for r in runs}) > 1:
                    problems.append("repeats give different digests")
                if problems:
                    print(f"{name} case {case}: {problems[0]}", file=sys.stderr)
                    return 1
                r = runs[0]
                digests.append(r["digest"])
                speeds.append(statistics.median(r["evals_per_s"] for r in runs))
                print(f"{name} case {case}: {r['digest']}  {speeds[-1]:.1f} evals/s"
                      f"  {len(r['gen_ms']) + 1} generations", flush=True)
            entries[name] = {"budget": r["budget"], "digests": digests,
                             "by_speed": sorted(range(CASES), key=speeds.__getitem__)}
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
