"""Fixed-seed evolution benchmark for pcgp.

    python3 evobench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Runs whole evolutions of one workload (or all of them), each in a fresh
process forked before pcgp is imported from the checkout's src/, and
prints the metrics by name and unit.  A run evaluates a fixed number of
cases, S divided by the workload's case time on the baseline.json
machine, so it takes about S seconds there; workloads.pick_cases draws
which cases from the seed.  The last line of standard output is one JSON
object: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1.  End-to-end times are scaled to reference machine speed
by the probes described in case.Speed; the raw rate and the speed factor
are printed beside them.  Every case is checked: its log must pass the
invariants in workloads.check_log, its best genome must re-evaluate to
the logged fitness, and its log digest must equal the one pinned in
digests.json for this platform.  A case with no pinned digest fails, so
a run on an unpinned platform is never correct.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import statistics
import sys
import tempfile
from time import monotonic as clock

from case import run_case
from workloads import ROOT, SRC, WORKLOADS, pick_cases, write_dataset

RUN_LIMIT_S = 170   # safety timeout: cases not started by then fail
POOL_WORKERS = 2    # thread-pool size whose speed-up --trace 1 reports
WORK = ROOT / ".evobench"
# Forked case processes skip interpreter start-up and the numpy import,
# most of a short case's wall time and none of what it measures, so a
# run holds about twice as many cases.  This process never imports pcgp.
FORK = multiprocessing.get_context("fork")

# name -> (unit, better); BENCHMARK.json lists the same names
END_TO_END = {
    "evals_per_s": ("evals/s", "higher"),
    "gen_ms_p50": ("ms", "lower"),
    "gen_ms_p90": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
PER_LAYER = {
    "decode.calls_per_eval": ("calls/eval", "lower"),
    "decode.us_per_call": ("us", "lower"),
    "decode.share": ("ratio", "lower"),
    "decode.active_frac": ("ratio", "higher"),
    "execute.step.calls_per_eval": ("calls/eval", "lower"),
    "execute.step.us_per_call": ("us", "lower"),
    "execute.step.share": ("ratio", "lower"),
    "execute.run_sequence.share": ("ratio", "lower"),
    "execute.run_batch.us_per_row": ("us", "lower"),
    "execute.run_batch.share": ("ratio", "lower"),
    "execute.batch_frac": ("ratio", "higher"),
    "mutate.apply_mutation.calls": ("count", "lower"),
    "mutate.apply_mutation.us_per_call": ("us", "lower"),
    "mutate.apply_mutation.share": ("ratio", "lower"),
    "crossover.apply_crossover.calls": ("count", "lower"),
    "crossover.apply_crossover.us_per_call": ("us", "lower"),
    "crossover.apply_crossover.share": ("ratio", "lower"),
    "bench.fitness.us_p50": ("us", "lower"),
    "bench.fitness.self_share": ("ratio", "lower"),
    "evolve.self_share": ("ratio", "lower"),
    "evolve.repeat_eval_frac": ("ratio", "higher"),
    "evolve.evaluate_population.share": ("ratio", "lower"),
    "evolve.parallel_efficiency": ("ratio", "higher"),
    "evolve.pool_speedup": ("ratio", "higher"),
    "config.make_fitness.s": ("s", "lower"),
    "bench.load_csv.s": ("s", "lower"),
    "trace.overhead": ("ratio", "higher"),
}


def _case_process(send, *args):
    send.send(run_case(*args))
    send.close()


def spawn_case(workload, case, data, trace, spans_dir, deadline,
               workers=None) -> dict:
    """Run one case in a fresh process and return its result."""
    # a case that dies or never starts counts its whole budget as failed
    budget = WORKLOADS[workload].overrides["budget"]
    lost = {"case": case, "ok": False, "evaluations": budget, "failed": budget}
    if clock() > deadline:
        return {**lost, "problems": [f"not started: run passed {RUN_LIMIT_S} s"]}
    receive, send = FORK.Pipe(duplex=False)
    proc = FORK.Process(target=_case_process,
                        args=(send, workload, case, data, trace, workers, spans_dir))
    proc.start()
    send.close()
    result, problem = None, "timed out"
    try:
        if receive.poll(max(1.0, deadline - clock())):
            result = receive.recv()
    except EOFError:
        problem = "case process ended without a result"
    finally:
        if result is None:
            proc.kill()
        proc.join()
        receive.close()
    if result is None:
        return {**lost, "problems": [f"{problem} (exit {proc.exitcode})"]}
    return result


def run_workload(name, seed, seconds, trace):
    """The seed's fixed set of cases, sized so the run takes about `seconds`.

    Returns (plain, traced, pooled): with trace, every case also runs
    traced and once more untraced on POOL_WORKERS threads.
    """
    w = WORKLOADS[name]
    WORK.mkdir(exist_ok=True)
    spans_dir = None
    if trace:
        spans_dir = WORK / "spans"
        spans_dir.mkdir(exist_ok=True)
    plain, traced, pooled = [], [], []
    deadline = clock() + RUN_LIMIT_S
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        for case in pick_cases(name, seed, max(1, round(seconds / w.case_s))):
            data = write_dataset(w.data, case, tmp) if w.data else None
            plain.append(spawn_case(name, case, data, False, None, deadline))
            if trace:
                traced.append(spawn_case(name, case, data, True, spans_dir, deadline))
                pooled.append(spawn_case(name, case, data, False, None, deadline,
                                         POOL_WORKERS))
    return plain, traced, pooled


def _median(values):
    return statistics.median(values) if values else 0.0


def _raw_rate(results):
    return _median([r["evals_per_s_raw"] for r in results if "evals_per_s_raw" in r])


def end_to_end(results) -> tuple:
    """(metrics, generation count, generations beyond p90) over the cases that ran."""
    ran = [r for r in results if "evals_per_s" in r]
    gens = sorted(g for r in ran for g in r["gen_ms"])
    p90 = statistics.quantiles(gens, n=10)[8] if len(gens) >= 2 else _median(gens)
    return {
        "evals_per_s": _median([r["evals_per_s"] for r in ran]),
        "gen_ms_p50": _median(gens),
        "gen_ms_p90": p90,
        "setup_s": _median([r["setup_s"] for r in ran]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in ran]),
    }, len(gens), sum(g > p90 for g in gens)


def per_layer(traced, plain, pooled) -> dict:
    """Per-layer metrics pooled over the traced cases."""
    layers = [r["layers"] for r in traced if "layers" in r]
    if not layers:
        return {name: 0.0 for name in PER_LAYER}

    def total(key, name=None):
        return sum(l[key].get(name, 0) if name else l[key] for l in layers)

    def ratio(a, b):
        return a / b if b else 0.0

    wall = total("wall")
    evals = total("calls", "bench.fitness")
    m = {}
    for layer, name in (("decode", "decode"), ("execute.step", "execute.step"),
                        ("mutate.apply_mutation", "mutate.apply_mutation"),
                        ("crossover.apply_crossover", "crossover.apply_crossover")):
        calls, secs = total("calls", name), total("seconds", name)
        if layer in ("decode", "execute.step"):
            m[f"{layer}.calls_per_eval"] = ratio(calls, evals)
        else:
            m[f"{layer}.calls"] = calls / len(layers)
        m[f"{layer}.us_per_call"] = ratio(secs, calls) * 1e6
        m[f"{layer}.share"] = ratio(secs, wall)
    m["decode.active_frac"] = ratio(total("active"), total("nodes"))
    m["execute.run_sequence.share"] = ratio(total("seconds", "execute.run_sequence"), wall)
    m["execute.run_batch.us_per_row"] = ratio(total("seconds", "execute.run_batch"),
                                              total("rows")) * 1e6
    m["execute.run_batch.share"] = ratio(total("seconds", "execute.run_batch"), wall)
    m["execute.batch_frac"] = ratio(total("calls", "execute.run_batch"),
                                    total("calls", "execute.run_supervised"))
    m["bench.fitness.us_p50"] = _median([l["fitness_us_p50"] for l in layers])
    m["bench.fitness.self_share"] = ratio(total("self", "bench.fitness"), wall)
    m["evolve.self_share"] = ratio(total("evolve_self"), wall)
    m["evolve.repeat_eval_frac"] = ratio(total("repeats"), evals)
    m["evolve.evaluate_population.share"] = ratio(
        total("seconds", "evolve.evaluate_population"), wall)
    m["evolve.parallel_efficiency"] = ratio(
        total("seconds", "bench.fitness"),
        sum(l["seconds"].get("evolve.evaluate_population", 0) * l["workers"]
            for l in layers))
    m["config.make_fitness.s"] = _median([l["seconds"].get("config.make_fitness", 0.0)
                                         for l in layers])
    m["bench.load_csv.s"] = _median([l["seconds"].get("bench.load_csv", 0.0)
                                     for l in layers])
    m["evolve.pool_speedup"] = ratio(end_to_end(pooled)[0]["evals_per_s"],
                                     end_to_end(plain)[0]["evals_per_s"])
    m["trace.overhead"] = ratio(_raw_rate(traced), _raw_rate(plain))
    return {name: m[name] for name in PER_LAYER}


def _fmt(value) -> str:
    return f"{value:.6g}"


def report(name, seed, plain, traced, pooled, trace) -> tuple:
    """Print one workload's human-readable block; return its JSON parts."""
    results = plain + traced + pooled
    attempted = sum(r["evaluations"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = all(r["ok"] for r in results)
    cases = [r["case"] for r in plain]
    pinned = all(r.get("pinned") for r in results)
    print(f"workload {name}  seed {seed}  cases {cases}  digest gate: "
          f"{'pinned' if pinned else 'NOT PINNED: the run is not correct'}")
    e2e, samples, beyond = end_to_end(plain)
    if trace:
        metrics, table = per_layer(traced, plain, pooled), PER_LAYER
    else:
        metrics, table = e2e, END_TO_END
    for key, value in metrics.items():
        line = f"  {key:40s} {_fmt(value):>12s} {table[key][0]}"
        if key == "gen_ms_p90":
            line += f"  ({samples} generations, {beyond} beyond p90)"
        print(line)
    speeds = [r["speed"] for r in plain if "speed" in r]
    print(f"  {'speed factor':40s} {_fmt(_median(speeds)):>12s}"
          f"  (median; raw evals_per_s {_fmt(_raw_rate(plain))})")
    print(f"  {'failed_eval_frac':40s} {_fmt(failed / max(attempted, 1)):>12s} ratio"
          f"  ({failed} of {attempted} evaluations)")
    absent = sorted({a for r in traced for a in r.get("layers", {}).get("absent", ())})
    if absent:
        print(f"  absent seams: {', '.join(absent)}")
    for r in results:
        for problem in r["problems"][:3]:
            print(f"  FAILED case {r['case']} (trace {int(r.get('trace', 0))}): {problem}")
    return correct, attempted, failed, metrics, table


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "pcgp" / "__init__.py").is_file():
        print(f"no pcgp sources under {SRC}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        runs = run_workload(name, args.seed, args.seconds, bool(args.trace))
        correct, attempted, failed, metrics, table = report(name, args.seed, *runs,
                                                            args.trace)
        out["correct"] = out["correct"] and correct
        out["attempted"] += attempted
        out["failed"] += failed
        prefix = f"{name}." if len(names) > 1 else ""
        for key, value in metrics.items():
            out["metrics"][prefix + key] = {"value": value, "unit": table[key][0]}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
