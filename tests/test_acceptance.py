"""Acceptance gate: ten independent checks, one test (and one report
line under ``pytest -v``) per criterion.

Each test pins its own tolerances and seeds.  The stochastic checks
(c06-c08) use seed lists frozen after 30-run calibration pilots; the
statistical checks (c05) use 3-sigma bands; the geometric and algebraic
checks are exact or at 1e-12.
"""

from __future__ import annotations

import graphlib
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from pcgp.config import (
    build_evo_params,
    load_preset,
    make_fitness,
    preset_names,
    validate_config,
)
from pcgp.crossover import aligned_node, proportional, random_node, single_point
from pcgp.decode import DecodeSettings, _nearest, _sorted_entities, decode
from pcgp.evolve import run_evolution
from pcgp.functions import default_functions
from pcgp.genome import GenomeMode, SizeBounds, flatten, random_genome
from pcgp.mutate import MutationParams, add_probability, gene_mutation, mixed_node_mutate
from pcgp import cli

import reference
from scripted import Scripted

FSET = default_functions()


# --------------------------------------------------------------- fixtures

def write_parabola_csv(path, n=50):
    """f(x) = x^2 + 2x sampled on n points in [-1, 1]."""
    xs = np.linspace(-1.0, 1.0, n)
    lines = ["x,y"] + [f"{float(x)!r},{float(x * x + 2 * x)!r}" for x in xs]
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture(scope="module")
def parabola_csv(tmp_path_factory):
    return write_parabola_csv(tmp_path_factory.mktemp("data") / "parabola.csv")


@pytest.fixture(scope="module")
def tiny_classification_csv(tmp_path_factory):
    """Two interleaved 2-feature classes, 30 rows."""
    rng = np.random.default_rng(42)
    rows = ["f0,f1,label"]
    for k in range(30):
        label = k % 2
        x = rng.normal(label, 0.4)
        y = rng.normal(1 - label, 0.4)
        rows.append(f"{float(x)!r},{float(y)!r},c{label}")
    path = tmp_path_factory.mktemp("data") / "classes.csv"
    path.write_text("\n".join(rows) + "\n")
    return path


def regression_params(preset, csv_path, seed, **overrides):
    cfg = dict(load_preset(preset))
    cfg.update(task="regression", data=str(csv_path), n_nodes=20,
               budget=20000, seed=seed)
    cfg.update(overrides)
    fit, n_in, n_out = make_fitness(cfg)
    return fit, build_evo_params(cfg, n_in, n_out)


# ------------------------------------------------------------ criterion 1

def test_c01_active_graphs_acyclic_without_recurrency():
    """1000 random genomes per mode at recurrency 0: every active graph
    topologically sorts; finishes in under 5 seconds."""
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    for mode in (GenomeMode.CGP, GenomeMode.PCGP):
        settings = DecodeSettings(recurrency=0.0, input_start=-1.0)
        for k in range(1000):
            g = random_genome(mode, 1 + k % 3, 1 + k % 2, k % 25, rng)
            graph = decode(g, settings, FSET)
            sorter = graphlib.TopologicalSorter()
            for i in np.flatnonzero(graph.active):
                preds = [
                    int(t) - graph.n_in
                    for t in graph.targets[i, : graph.row(i)[3]]
                    if int(t) >= graph.n_in
                ]
                sorter.add(int(i), *preds)
            order = list(sorter.static_order())  # raises CycleError on a cycle
            assert len(order) >= int(graph.active.sum())
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


# ------------------------------------------------------------ criterion 2

def test_c02_snapping_matches_linear_scan_oracle():
    """100000 random (point, candidate-set) cases agree exactly with a
    pure-python linear scan, for the sorted-bisect snapper that decode
    runs (_sorted_entities, then _nearest)."""
    rng = np.random.default_rng(202)
    cases = 100_000
    sizes = rng.integers(1, 9, cases)
    for n in sizes:
        n = int(n)
        # coarse grid so exact distance ties occur regularly
        positions = rng.integers(0, 8, n) / 8.0
        point = float(rng.integers(-2, 10)) / 8.0 + float(rng.choice((0.0, 0.03)))
        cands = list(enumerate(positions.tolist()))
        best = min(cands, key=lambda c: (abs(c[1] - point), c[1], c[0]))[0]
        ordered, entity = _sorted_entities(positions.tolist(), n)
        assert entity[_nearest(ordered, point, n)] == best


# ------------------------------------------------------------ criterion 3

def test_c03_connection_geometry_hand_values_and_degeneracy():
    """Hand-computed reach values hold to 1e-12, and with input_start 0
    the positional formulas equal the CGP ones exactly: connection points
    on a 100x100x10 grid of (gene, node position, recurrency), output
    points on the 100 genes.  The formulas are the reference pipeline's
    own statement of the axis, and decode snaps every connection and
    output where they point on 200 random genomes of either mode."""
    tol = 1e-12
    cases = [
        (0.5, 0.4, 0.0, GenomeMode.CGP, -1.0, 0.2),
        (0.5, 0.4, 1.0, GenomeMode.CGP, -1.0, 0.5),
        (0.0, 0.3, 0.0, GenomeMode.PCGP, -1.0, -1.0),
        (0.0, 0.9, 1.0, GenomeMode.PCGP, -1.0, -1.0),
        (1.0, 0.6, 0.0, GenomeMode.PCGP, -0.5, 0.6),
    ]
    for x, p, r, mode, input_start, expected in cases:
        settings = DecodeSettings(recurrency=r, input_start=input_start)
        got = reference.connection_point(x, p, settings, mode)
        assert abs(got - expected) <= tol, (x, p, r, mode, got)

    xs = np.linspace(0.0, 1.0, 100)[:, None]
    ps = np.linspace(0.0, 1.0, 100)[None, :]
    for r in np.linspace(0.0, 1.0, 10):
        degenerate = DecodeSettings(recurrency=float(r), input_start=0.0)
        ladder = reference.connection_point(xs, ps, degenerate, GenomeMode.CGP)
        positional = reference.connection_point(xs, ps, degenerate, GenomeMode.PCGP)
        assert np.array_equal(ladder, positional)
        assert np.array_equal(reference.output_point(xs, degenerate, GenomeMode.CGP),
                              reference.output_point(xs, degenerate, GenomeMode.PCGP))

    rng = np.random.default_rng(303)
    for k in range(200):
        mode = (GenomeMode.CGP, GenomeMode.PCGP)[k % 2]
        g = random_genome(mode, 2, 2, int(rng.integers(0, 12)), rng)
        settings = DecodeSettings(recurrency=float(rng.random()) if k % 3 else 0.0,
                                  input_start=-float(rng.random()))
        d = decode(g, settings, FSET)
        want = reference.decode_lists(g, settings, FSET)
        assert [d.row(i)[:2] for i in range(d.n_nodes)] == want.targets
        assert d.output_list == want.outputs


# ------------------------------------------------------------ criterion 4

def test_c04_crossover_self_identity_and_blend_endpoints():
    """Crossing a genome with itself is the identity for single_point,
    random_node, aligned_node and proportional (200 random genomes
    each); proportional with all-zero / all-one weights reproduces the
    first / second parent's gene prefix exactly."""
    rng = np.random.default_rng(404)

    def sample(mode):
        return random_genome(mode, int(rng.integers(1, 4)), int(rng.integers(1, 3)),
                             int(rng.integers(1, 13)), rng)

    operators = {
        single_point: (GenomeMode.CGP, GenomeMode.PCGP),
        random_node: (GenomeMode.PCGP,),
        aligned_node: (GenomeMode.PCGP,),
        proportional: (GenomeMode.CGP, GenomeMode.PCGP),
    }
    for op, modes in operators.items():
        for k in range(200):
            g = sample(modes[k % len(modes)])
            child = op(g, g, rng)
            assert child.mode is g.mode and child.n_nodes == g.n_nodes
            assert np.array_equal(flatten(child), flatten(g)), op.__name__

    for _ in range(50):
        # differing sizes: compare the blended prefix (row order is
        # positional in PCGP, so use the ladder mode here)
        a = sample(GenomeMode.CGP)
        b = random_genome(GenomeMode.CGP, a.n_in, a.n_out, int(rng.integers(1, 13)), rng)
        low = min(flatten(a).size, flatten(b).size)
        keep_a = proportional(a, b, Scripted(rng, random=[np.zeros(low)]))
        keep_b = proportional(a, b, Scripted(rng, random=[np.ones(low)]))
        assert np.array_equal(flatten(keep_a)[:low], flatten(a)[:low])
        assert np.array_equal(flatten(keep_b)[:low], flatten(b)[:low])

    for _ in range(50):
        # equal sizes: the endpoint child equals the parent outright
        a = sample(GenomeMode.PCGP)
        b = random_genome(GenomeMode.PCGP, a.n_in, a.n_out, a.n_nodes, rng)
        low = flatten(a).size
        keep_a = proportional(a, b, Scripted(rng, random=[np.zeros(low)]))
        keep_b = proportional(a, b, Scripted(rng, random=[np.ones(low)]))
        assert np.array_equal(flatten(keep_a), flatten(a))
        assert np.array_equal(flatten(keep_b), flatten(b))


# ------------------------------------------------------------ criterion 5

def test_c05_operator_statistics_within_three_sigma():
    """Gene-mutation change counts sit within 3 sigma of the binomial
    expectation over 10^4 genes; mixed-operator branch frequencies sit
    within 3 sigma of their multinomial expectation; the growth
    probability hits its endpoints exactly."""
    rng = np.random.default_rng(505)
    bounds = SizeBounds(10, 40)

    rate = 0.25
    params = MutationParams(bounds=bounds, node_rate=rate, output_rate=0.0)
    parent = random_genome(GenomeMode.CGP, 2, 1, 2500, rng)  # 10^4 node genes
    child = gene_mutation(parent, params, rng)
    changed = int(np.count_nonzero(child.nodes != parent.nodes))
    n_genes = parent.nodes.size
    sigma = math.sqrt(n_genes * rate * (1.0 - rate))
    assert abs(changed - n_genes * rate) <= 3 * sigma, changed

    mixed = MutationParams(bounds=bounds, node_rate=0.1, output_rate=0.1,
                           delta_frac=0.2, modify_rate=0.6, operator="mixed_node")
    burst = max(1, round(mixed.delta_frac * bounds.size_min))
    parent = random_genome(GenomeMode.CGP, 2, 1, 25, rng)
    p_add = add_probability(parent.n_nodes, mixed)
    probs = {"modify": mixed.modify_rate, "add": p_add,
             "delete": 1.0 - mixed.modify_rate - p_add}
    trials = 10_000
    counts = {"modify": 0, "add": 0, "delete": 0}
    for _ in range(trials):
        delta = mixed_node_mutate(parent, mixed, rng).n_nodes - parent.n_nodes
        counts["modify" if delta == 0 else "add" if delta == burst else "delete"] += 1
    for branch, p in probs.items():
        sigma = math.sqrt(trials * p * (1.0 - p))
        assert abs(counts[branch] - trials * p) <= 3 * sigma, (branch, counts)

    assert add_probability(bounds.size_min, mixed) == 0.0
    assert add_probability(bounds.size_max, mixed) == 1.0 - mixed.modify_rate


# ------------------------------------------------------------ criterion 6

C6_SEEDS = tuple(range(10))  # frozen after a 30-run pilot (26/30 passing)


def test_c06_symbolic_regression_reaches_low_error(parabola_csv):
    """Elitist 1+lambda runs on f(x) = x^2 + 2x (20 nodes, budget
    20000) reach MSE < 0.01 in at least 7 of the 10 frozen seeds, all
    within 60 seconds."""
    started = time.perf_counter()
    successes = 0
    mses = []
    for seed in C6_SEEDS:
        fit, params = regression_params("e4", parabola_csv, seed)
        _, log = run_evolution(fit, params)
        mse = -log[-1].best_fitness
        mses.append(round(mse, 6))
        successes += mse < 0.01
    elapsed = time.perf_counter() - started
    assert successes >= 7, f"{successes}/10 below MSE 0.01: {mses}"
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


# ------------------------------------------------------------ criterion 7

C7_SEEDS = tuple(range(10))  # frozen after a 30-run pilot (29/30 passing)


def test_c07_ga_without_crossover_matches_elitist_progress(parabola_csv):
    """A GA running pure mutation with a single surviving elite keeps
    its best fitness monotone and reaches MSE < 0.05 on the same
    regression task in at least 6 of the 10 frozen seeds."""
    successes = 0
    mses = []
    for seed in C7_SEEDS:
        fit, params = regression_params("e5", parabola_csv, seed)
        params = replace(params, crossover=None, crossover_fraction=0.0,
                         elitism=0.02, mutation_fraction=1.0)
        assert round(params.elitism * params.population) == 1
        _, log = run_evolution(fit, params)
        curve = [rec.best_fitness for rec in log]
        assert all(b >= a for a, b in zip(curve, curve[1:])), f"seed {seed} regressed"
        mse = -curve[-1]
        mses.append(round(mse, 6))
        successes += mse < 0.05
    assert successes >= 6, f"{successes}/10 below MSE 0.05: {mses}"


# ------------------------------------------------------------ criterion 8

C8_SEEDS = tuple(range(10))  # frozen after a 30-run pilot


def test_c08_cartpole_recurrent_weighted_controller():
    """The recurrent weighted preset balances the cart-pole for at
    least 450 of 500 steps (fitness >= 0.9) in at least 5 of the 10
    frozen seeds within a 10000-evaluation budget."""
    successes = 0
    scores = []
    for seed in C8_SEEDS:
        cfg = dict(load_preset("e0_rl"))
        cfg.update(seed=seed)
        fit, n_in, n_out = make_fitness(cfg)
        _, log = run_evolution(fit, build_evo_params(cfg, n_in, n_out))
        score = log[-1].best_fitness
        scores.append(round(score, 4))
        successes += score >= 0.9
    assert successes >= 5, f"{successes}/10 reached 0.9: {scores}"


# ------------------------------------------------------------ criterion 9

def test_c09_logs_byte_identical_across_reruns_and_workers(
        tmp_path, parabola_csv):
    """The same config and seed produce byte-identical log CSVs on
    rerun, and a run with workers=3 writes the same bytes as one with
    workers=1 (workers has no effect: fitness is evaluated serially)."""
    def run_once(preset, out, tag, *extra):
        out.mkdir(exist_ok=True)
        code = cli.main([
            "run", preset, "--task", "regression", "--data", str(parabola_csv),
            "--budget", "600", "--seed", "11", "--out", str(out), "--tag", tag,
            *extra,
        ])
        assert code == 0
        return (out / f"{tag}_log.csv").read_bytes()

    first = run_once("e4", tmp_path / "a", "base")
    second = run_once("e4", tmp_path / "b", "base")
    assert first == second
    assert first.startswith(b"generation,")

    sequential = run_once("e5", tmp_path / "c", "pop", "--set", "workers=1")
    parallel = run_once("e5", tmp_path / "d", "pop", "--set", "workers=3")
    assert sequential == parallel


# ----------------------------------------------------------- criterion 10

def test_c10_all_presets_validate_and_smoke_run(
        tmp_path, parabola_csv, tiny_classification_csv):
    """Every bundled preset validates; each experiment family completes
    a 500-evaluation run on each problem class it applies to."""
    names = preset_names()
    assert len(names) == 14
    for name in names:
        validate_config(dict(load_preset(name)))

    class_data = {"classification": str(tiny_classification_csv),
                  "regression": str(parabola_csv), "rl": None}
    runs = [(f"e{k}_{cls}", cls) for k in range(4)
            for cls in ("classification", "regression", "rl")]
    runs += [(flavor, cls) for flavor in ("e4", "e5")
             for cls in ("classification", "regression", "rl")]
    for name, cls in runs:
        cfg = dict(load_preset(name))
        cfg.update(task=cls, data=class_data[cls], budget=500, seed=3)
        if cls == "rl":
            cfg["episode_len"] = 25
        validate_config(cfg)
        fit, n_in, n_out = make_fitness(cfg)
        _, log = run_evolution(fit, build_evo_params(cfg, n_in, n_out))
        assert log and log[-1].evaluations >= 500, name
