"""Workload definitions, seeded synthetic datasets and run checks.

A workload is a bundled preset plus overrides.  A case is one
evolution of a workload: case c runs with evolution seed c on a dataset
generated from seed c, so every case is reproducible and its log digest
can be pinned in digests.json.  A run of the benchmark evaluates a fixed
number of the CASES pinned cases, picked from its --seed by pick_cases.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
CASES = 256         # pinned cases per workload


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    overrides: dict
    data: str | None          # synthetic dataset kind, or None for cart-pole
    why: str
    case_s: float             # one case's wall time, forking its process included,
                              # on the machine in baseline.json
    fitness_range: tuple = (0.0, 1.0)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cartpole_ga", "e3_rl",
            {"population": 50, "workers": 1, "budget": 200},
            None,
            "cart-pole GA: per-step execution, physics and crossover decodes; most "
            "evaluations repeat a program",
            case_s=0.36),
        Workload(
            "regression_1pl", "e4",
            {"task": "regression", "workers": 1, "budget": 800},
            "regression",
            "cheap 1+lambda evaluations, so decode, batch execution, mutation and "
            "loop overhead dominate; no step, crossover or thread pool",
            case_s=0.28, fitness_range=(-math.inf, 0.0)),
        Workload(
            "classification_ga", "e3_classification",
            {"population": 40, "workers": 1, "budget": 300},
            "classification",
            "recurrent PCGP GA on data: row-by-row run_sequence, serial tournament "
            "selection, fewer repeats than cart-pole",
            case_s=0.38),
    )
}
REGRESSION_ROWS = 200
CLASSIFICATION_ROWS_PER_CLASS = 50


def _rng(kind: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, sum(kind.encode())])


def write_dataset(kind: str, seed: int, directory: Path) -> Path:
    """Write the seeded synthetic CSV for one case and return its path.

    regression: 2 features, y = x0^3 - x0*x1 + 0.5*x1.
    classification: 4 features, 3 Gaussian blobs, rows shuffled.
    """
    rng = _rng(kind, seed)
    if kind == "regression":
        x = rng.uniform(-1.0, 1.0, (REGRESSION_ROWS, 2))
        y = x[:, 0] ** 3 - x[:, 0] * x[:, 1] + 0.5 * x[:, 1]
        header = ["x0", "x1", "y"]
        rows = [[repr(float(a)), repr(float(b)), repr(float(t))]
                for (a, b), t in zip(x, y)]
    elif kind == "classification":
        centers = rng.normal(0.0, 2.0, (3, 4))
        labels = np.repeat(np.arange(3), CLASSIFICATION_ROWS_PER_CLASS)
        x = centers[labels] + rng.normal(0.0, 1.0, (labels.size, 4))
        order = rng.permutation(labels.size)
        header = ["f0", "f1", "f2", "f3", "label"]
        rows = [[repr(float(v)) for v in x[i]] + [f"c{labels[i]}"] for i in order]
    else:
        raise ValueError(f"unknown dataset kind {kind!r}")
    path = Path(directory) / f"{kind}_{seed}.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path


def case_config(pcgp, workload: Workload, case: int, data_path=None,
                workers: int | None = None) -> dict:
    """The flat run config a user would pass: preset, overrides, seed, data."""
    cfg = dict(pcgp.load_preset(workload.preset))
    cfg.update(workload.overrides)
    cfg["seed"] = case
    if workload.data is not None:
        cfg["data"] = str(data_path)
    if workers is not None:
        cfg["workers"] = workers
    return cfg


def log_digest(log) -> str:
    """Exact digest of a RunRecord list (floats as hex)."""
    h = hashlib.sha256()
    for r in log:
        h.update(f"{r.generation},{r.evaluations},{float(r.best_fitness).hex()},"
                 f"{float(r.mean_fitness).hex()},{r.best_active_nodes}\n".encode())
    return h.hexdigest()[:16]


def check_log(log, budget: int, fitness_range) -> list:
    """Invariants every run log satisfies; returns the problems found."""
    if not log:
        return ["empty log"]
    lo, hi = fitness_range
    problems = []
    prev_eval, prev_best = 0, -math.inf
    for k, r in enumerate(log, start=1):
        if r.generation != k:
            problems.append(f"record {k}: generation {r.generation}")
        if r.evaluations <= prev_eval:
            problems.append(f"generation {k}: evaluations not increasing")
        if not (math.isfinite(r.best_fitness) and lo <= r.best_fitness <= hi):
            problems.append(f"generation {k}: best fitness {r.best_fitness!r}")
        if r.best_fitness < prev_best:
            problems.append(f"generation {k}: best fitness decreased")
        if r.best_active_nodes < 0:
            problems.append(f"generation {k}: negative active count")
        prev_eval, prev_best = r.evaluations, r.best_fitness
    if log[-1].evaluations < budget:
        problems.append(f"stopped at {log[-1].evaluations} of {budget} evaluations")
    return problems


def platform_key() -> str:
    """numpy version plus the SIMD targets it dispatches to.

    Transcendental ufuncs round differently per SIMD target, so pinned
    digests only hold on a matching platform.
    """
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    used = [t for t in __cpu_dispatch__ if __cpu_features__.get(t)]
    return f"numpy-{np.__version__}/" + "+".join(used)


def pinned(workload: str):
    """The workload's pinned entry on this platform, or None if it has none.

    {"budget": B, "digests": [one per case], "by_speed": case ids from
    the slowest case to the fastest, as measured when they were pinned}
    """
    if not DIGESTS.is_file():
        return None
    return json.loads(DIGESTS.read_text()).get(platform_key(), {}).get(workload)


def pinned_digest(workload: str, budget: int, case: int):
    """The case's pinned digest on this platform, or None if it has none."""
    entry = pinned(workload)
    if entry is None or entry["budget"] != budget or case >= len(entry["digests"]):
        return None
    return entry["digests"][case]


def pick_cases(workload: str, seed: int, count: int) -> list:
    """The cases a run with this seed evaluates: one from each of count strata.

    The strata are consecutive slices of the pinned cases ordered by
    speed, so every seed's set holds the same mix of slow and fast
    cases and a median over it moves little from seed to seed; the seed
    picks the case within each stratum.  Without a pinned order (a new
    platform, whose cases then fail the digest gate) the strata follow
    case ids.
    """
    entry = pinned(workload)
    order = entry["by_speed"] if entry and "by_speed" in entry else range(CASES)
    rng = random.Random(seed)
    return [int(rng.choice(stratum))
            for stratum in np.array_split(np.asarray(order), min(count, CASES))]


def program_key(graph, genome, c_off: int):
    """Canonical active program: what an evaluation can depend on.

    Active nodes renumbered in stored order, each with its function,
    followed targets, and its parameter only where it is used (const,
    or any node of a weighted program); then the output targets.
    """
    n_in = graph.n_in
    active = np.flatnonzero(graph.active).tolist()
    rank = {n_in + i: n_in + k for k, i in enumerate(active)}
    functions = graph.fset.functions
    targets = graph.targets.tolist()
    params = genome.nodes[:, c_off].tolist()
    nodes = []
    for i in active:
        f = functions[int(graph.function_index[i])]
        args = tuple(rank.get(t, t) for t in targets[i][:min(f.arity, 2)])
        used = graph.use_weights or f.arity == 0
        nodes.append((f.name, args, params[i] if used else None))
    outs = tuple(rank.get(t, t) for t in graph.output_targets.tolist())
    return tuple(nodes), outs
