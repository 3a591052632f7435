"""One case of a workload: a whole fixed-seed evolution through the user path.

run_case runs load_preset -> validate_config -> make_fitness ->
build_evo_params -> run_evolution and returns its timings and checks.
run.py runs each case in a fresh process, forked before pcgp is
imported, so that set-up time and peak memory are the process's own.
Set-up time starts just before pcgp is imported: interpreter start-up
and the numpy import are left out, since they cost the same whatever
pcgp does and move with the host's memory and disk more than with its
processor speed.
"""

from __future__ import annotations

import importlib
import math
import resource
import statistics
import sys
import threading
import time
import traceback
from pathlib import Path

from tracer import Tracer, duration, self_times
from workloads import SRC, WORKLOADS, case_config, check_log, log_digest, \
    pinned_digest, program_key


PROBE_EVERY_S = 0.02     # per evaluating thread
PROBE_REF_S = 150e-6     # the probe's uncontended duration on the baseline.json machine


def _probe() -> float:
    """Seconds taken by a fixed piece of interpreter-bound work."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(1500):
        acc += math.sqrt(i * 0.5) % 3.0
    return time.perf_counter() - start


class Speed:
    """How fast the machine ran during a case, from interleaved probes.

    A virtual machine that shares cores with other tenants can slow down
    by tens of percent for seconds or minutes at a time.  Each thread that
    evaluates fitness times _probe every PROBE_EVERY_S; the probe's
    median over the case, against PROBE_REF_S, is the case's speed
    factor.  Reported times are divided by it, so they read as if the
    machine ran at reference speed throughout; the raw times are kept
    alongside.  Probe time itself is taken out of every timing.
    """

    def __init__(self):
        self.samples = []
        self._local = threading.local()

    def maybe_probe(self):
        now = time.perf_counter()
        if now - getattr(self._local, "last", -math.inf) >= PROBE_EVERY_S:
            self.samples.append(_probe())
            self._local.last = time.perf_counter()

    def spent(self) -> float:
        return sum(self.samples)

    def factor(self) -> float:
        """Above 1 when the case ran slower than reference speed."""
        if not self.samples:
            return 1.0
        return statistics.median(self.samples) / PROBE_REF_S


def import_pcgp():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return importlib.import_module("pcgp")


def run_case(workload: str, case: int, data_path=None, trace: bool = False,
             workers: int | None = None, spans_dir=None) -> dict:
    """Run one evolution; never raises for a failure of the program."""
    t0 = time.perf_counter()
    w = WORKLOADS[workload]
    result = {"workload": workload, "case": case, "trace": bool(trace)}
    tracer = None
    try:
        pcgp = import_pcgp()
        cfg = case_config(pcgp, w, case, data_path, workers)
        budget = cfg["budget"]
        result["budget"] = budget
        make_fitness, run_evolution = pcgp.make_fitness, pcgp.run_evolution
        if trace:
            tracer = Tracer(f"{workload}-{case}").install()
            make_fitness = tracer.wrap(make_fitness, "config.make_fitness")
            run_evolution = tracer.wrap(run_evolution, "evolve.run_evolution")
        pcgp.validate_config(cfg)
        plain_fit, n_in, n_out = make_fitness(cfg)
        params = pcgp.build_evo_params(cfg, n_in, n_out)

        bad, genomes = [], []
        speed = Speed()                 # traced cases do not probe

        def fit(g):
            if not trace:
                speed.maybe_probe()
            v = plain_fit(g)
            if not math.isfinite(v):
                bad.append(g)
            return v

        if trace:
            timed = tracer.wrap(fit, "bench.fitness")

            def fit(g):
                genomes.append(g)       # decoded again after the run
                return timed(g)

        stamps = []                     # (clock, probe seconds so far) per record

        def on_record(_record):
            stamps.append((time.perf_counter(), speed.spent()))

        setup = time.perf_counter() - t0
        start = time.perf_counter()
        best, log = run_evolution(fit, params, on_record=on_record)
        wall = time.perf_counter() - start - speed.spent()
        if tracer is not None:
            tracer.close()
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        evaluations = log[-1].evaluations if log else 0
        factor = speed.factor()
        result.update(
            evaluations=evaluations, failed=len(bad), speed=factor,
            wall_s_raw=wall, evals_per_s_raw=evaluations / wall,
            setup_s_raw=setup, setup_s=setup / factor,
            evals_per_s=evaluations / wall * factor,
            gen_ms=[(b - a - (pb - pa)) * 1e3 / factor
                    for (a, pa), (b, pb) in zip(stamps, stamps[1:])],
            digest=log_digest(log))
        problems = check_log(log, budget, w.fitness_range)
        again = plain_fit(best)
        if log and again != log[-1].best_fitness:
            problems.append(f"best genome re-evaluates to {again!r}, "
                            f"log says {log[-1].best_fitness!r}")
        expected = pinned_digest(workload, budget, case)
        result["pinned"] = expected is not None
        if expected is None:
            problems.append("digest not pinned for this case on this platform")
        elif expected != result["digest"]:
            problems.append(f"digest {result['digest']} != pinned {expected}")
        result["problems"] = problems
        if tracer is not None:
            result["layers"] = _layers(tracer, params, genomes, evaluations)
            if spans_dir is not None:
                tracer.write(Path(spans_dir) / f"{workload}-{case}.jsonl")
    except Exception:       # the program failed: report it as a failed case
        result["problems"] = [traceback.format_exc()]
        result.setdefault("evaluations", 0)
        result.setdefault("failed", 0)
    finally:
        if tracer is not None:
            tracer.close()
    if result["problems"]:
        result["failed"] = max(result["evaluations"], result.get("budget", 1))
        result["evaluations"] = result["failed"]
    result["ok"] = not result["problems"]
    return result


def _layers(tracer, params, genomes, evaluations) -> dict:
    """Per-case sums the per-layer metrics are pooled from."""
    spans = tracer.spans
    own = self_times(spans)
    calls, seconds, selfs = {}, {}, {}
    rows, fitness_us, root_wall, root_self = 0, [], 0.0, 0.0
    for s in spans:
        name, d = s[1], duration(s)
        calls[name] = calls.get(name, 0) + (s[7] if s[2] is None else 1)
        seconds[name] = seconds.get(name, 0.0) + d
        selfs[name] = selfs.get(name, 0.0) + own[s[0]]
        if name == "execute.run_batch":
            rows += s[7]
        elif name == "bench.fitness":
            fitness_us.append(d * 1e6)
        elif name == "evolve.run_evolution":
            root_wall, root_self = d, own[s[0]]
    decode = importlib.import_module("pcgp.decode").decode
    c_off = importlib.import_module("pcgp.genome").C_OFF
    seen, repeats, active, nodes = set(), 0, 0, 0
    for g in genomes:           # outside every span: the run is over
        graph = decode(g, params.settings, params.functions)
        key = program_key(graph, g, c_off)
        repeats += key in seen
        seen.add(key)
        active += int(graph.active.sum())
        nodes += graph.n_nodes
    return {"wall": root_wall, "evolve_self": root_self,
            "evaluations": evaluations, "workers": params.workers,
            "calls": calls, "seconds": seconds, "self": selfs, "rows": rows,
            "fitness_us_p50": statistics.median(fitness_us) if fitness_us else 0.0,
            "repeats": repeats, "active": active, "nodes": nodes,
            "absent": tracer.absent}

