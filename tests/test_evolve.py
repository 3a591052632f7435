"""Tests for the 1+lambda EA and the generational GA."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from pcgp.decode import DecodeSettings
from pcgp.errors import ConfigError
from pcgp.evolve import (
    FAILED_FITNESS,
    EvoParams,
    _channel_sizes,
    _stream,
    _tournament,
    evaluate_population,
    ga,
    one_plus_lambda,
    run_evolution,
)
from pcgp.functions import default_functions
from pcgp.genome import GenomeMode, SizeBounds, flatten, random_genome
from pcgp.mutate import MutationParams


def hash_fitness(g):
    """Deterministic pseudo-random fitness derived from the genome bytes."""
    digest = hashlib.md5(flatten(g).tobytes()).digest()
    return int.from_bytes(digest[:8], "little") / 2**64


def make_params(**kw):
    mut = kw.pop("mutation", MutationParams(bounds=SizeBounds(2, 20)))
    base = dict(mode=GenomeMode.CGP, n_in=2, n_out=1, n_nodes=8, mutation=mut)
    base.update(kw)
    return EvoParams(**base)


# ---------------------------------------------------------------- 1+lambda

def test_generation_count_and_evaluation_column():
    params = make_params(lambda_=10, budget=101, seed=3)
    _, log = one_plus_lambda(hash_fitness, params)
    assert len(log) == 10
    assert [r.evaluations for r in log] == list(range(11, 102, 10))
    assert [r.generation for r in log] == list(range(1, 11))


def test_budget_overshoot_is_bounded():
    # the generation that reaches the budget always completes, so a run
    # overshoots by less than one generation's fresh evaluations
    lam = make_params(lambda_=7, budget=100, seed=1)
    ga_params = make_params(algorithm="ga", population=20, budget=25,
                            crossover="single_point")
    _, crossed, mutated, _ = _channel_sizes(ga_params)
    assert run_evolution(hash_fitness, replace(lam, lambda_=4, budget=10))[1][-1].evaluations == 13
    assert run_evolution(hash_fitness, ga_params)[1][-1].evaluations == 38
    for params, fresh in ((lam, lam.lambda_), (ga_params, crossed + mutated)):
        for budget in range(params.budget, params.budget + 2 * fresh + 1):
            _, log = run_evolution(hash_fitness, replace(params, budget=budget))
            assert budget <= log[-1].evaluations < budget + fresh


def test_neutral_drift_replaces_parent_on_ties():
    # Constant fitness: every generation's best child ties the parent and
    # must take over, so the survivor drifts away from the initial genome.
    params = make_params(budget=60, seed=9)
    survivor, log = one_plus_lambda(lambda g: 0.0, params)
    initial = random_genome(params.mode, params.n_in, params.n_out,
                            params.n_nodes, _stream(params.seed, 0, 0))
    assert not np.array_equal(flatten(survivor), flatten(initial))
    assert all(r.best_fitness == 0.0 for r in log)
    assert all(r.mean_fitness == 0.0 for r in log)


def test_best_fitness_monotone():
    params = make_params(budget=300, seed=11)
    _, log = one_plus_lambda(hash_fitness, params)
    best = [r.best_fitness for r in log]
    assert all(b >= a for a, b in zip(best, best[1:]))


def test_active_node_count_matches_survivor():
    from pcgp.decode import decode

    params = make_params(budget=80, seed=2)
    survivor, log = one_plus_lambda(hash_fitness, params)
    graph = decode(survivor, params.settings, params.functions)
    assert log[-1].best_active_nodes == int(graph.active.sum())


def test_fitness_failure_propagates_with_context():
    params = make_params(budget=50)

    def bad(g):
        raise ValueError("boom")

    with pytest.raises(RuntimeError, match="generation"):
        one_plus_lambda(bad, params)


def test_budget_must_cover_first_generation():
    with pytest.raises(ConfigError):
        make_params(lambda_=5, budget=5)


def test_on_record_callback_sees_every_record():
    params = make_params(lambda_=4, budget=30, seed=5)
    seen = []
    _, log = one_plus_lambda(hash_fitness, params, on_record=seen.append)
    assert seen == log


# ---------------------------------------------------------------------- GA

def test_channel_sizes_basic():
    p = make_params(algorithm="ga", population=20, elitism=0.1,
                    crossover_fraction=0.2, mutation_fraction=0.3,
                    crossover="single_point")
    assert _channel_sizes(p) == (2, 4, 6, 8)


def test_channel_sizes_overflow_truncates_mutation_first():
    p = make_params(algorithm="ga", population=10, elitism=0.2,
                    crossover_fraction=0.5, mutation_fraction=0.5,
                    crossover="single_point")
    assert _channel_sizes(p) == (2, 5, 3, 0)


def test_channel_sizes_overflow_then_truncates_crossover():
    p = make_params(algorithm="ga", population=10, elitism=0.5,
                    crossover_fraction=0.8, mutation_fraction=0.4,
                    crossover="single_point")
    assert _channel_sizes(p) == (5, 5, 0, 0)


def test_ga_copies_consume_no_evaluations():
    # 10 initial + 5 mutants per generation; the 5 copies are free.
    params = make_params(algorithm="ga", population=10, elitism=0.0,
                         crossover_fraction=0.0, mutation_fraction=0.5,
                         budget=31, seed=4)
    _, log = ga(hash_fitness, params)
    assert [r.evaluations for r in log] == [15, 20, 25, 30, 35]


def test_ga_pure_mutation_full_turnover():
    params = make_params(algorithm="ga", population=10, elitism=0.0,
                         crossover_fraction=0.0, mutation_fraction=1.0,
                         budget=45, seed=4)
    _, log = ga(hash_fitness, params)
    assert [r.evaluations for r in log] == [20, 30, 40, 50]


def test_ga_best_monotone_with_elitism():
    params = make_params(algorithm="ga", population=12, elitism=0.1,
                         crossover_fraction=0.25, mutation_fraction=0.5,
                         crossover="single_point", budget=200, seed=7)
    _, log = ga(hash_fitness, params)
    best = [r.best_fitness for r in log]
    assert all(b >= a for a, b in zip(best, best[1:]))
    assert best[-1] >= best[0]


def test_ga_budget_must_cover_population():
    with pytest.raises(ConfigError):
        make_params(algorithm="ga", population=30, budget=20,
                    crossover_fraction=0.0)
    # the initial population alone would leave the log empty
    with pytest.raises(ConfigError, match="plus one generation"):
        make_params(algorithm="ga", population=30, budget=30,
                    crossover_fraction=0.0)
    _, log = ga(hash_fitness, make_params(algorithm="ga", population=30, budget=31,
                                          crossover_fraction=0.0))
    assert [r.generation for r in log] == [1]


def test_ga_crossover_share_needs_operator():
    with pytest.raises(ConfigError):
        make_params(algorithm="ga", crossover=None, crossover_fraction=0.2)


def test_positional_crossover_rejected_for_plain_mode():
    with pytest.raises(ConfigError):
        make_params(algorithm="ga", crossover="aligned_node")


def test_positional_mutation_rejected_for_plain_mode():
    with pytest.raises(ConfigError):
        make_params(mutation=MutationParams(bounds=SizeBounds(2, 20),
                                            operator="mixed_subgraph"))


def test_unknown_algorithm_and_operator_names():
    with pytest.raises(ConfigError):
        make_params(algorithm="hillclimb")
    with pytest.raises(ConfigError):
        make_params(crossover="merge_sort")


def test_ga_positional_crossover_runs():
    params = make_params(mode=GenomeMode.PCGP, algorithm="ga", population=8,
                         elitism=0.25, crossover_fraction=0.25,
                         mutation_fraction=0.25, crossover="aligned_node",
                         settings=DecodeSettings(input_start=-0.5),
                         budget=40, seed=13)
    best, log = ga(hash_fitness, params)
    assert best.mode is GenomeMode.PCGP
    assert log


# ---------------------------------------------------------------- selection

def test_tournament_prefers_high_fitness():
    fits = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    rng = np.random.default_rng(0)
    wins = np.bincount([_tournament(fits, 3, rng) for _ in range(2000)],
                       minlength=5)
    assert wins[4] > 800          # expectation ~975
    assert wins[0] < 50           # only when all three draws hit slot 0


def test_tournament_breaks_ties_uniformly():
    fits = np.array([1.0, 1.0, 1.0])
    rng = np.random.default_rng(1)
    wins = np.bincount([_tournament(fits, 3, rng) for _ in range(900)],
                       minlength=3)
    assert all(w > 200 for w in wins)


# ---------------------------------------------------- population evaluation

def test_evaluate_population_empty():
    assert evaluate_population([], hash_fitness) == []


def test_evaluate_population_preserves_order():
    rng = np.random.default_rng(0)
    genomes = [random_genome(GenomeMode.CGP, 1, 1, 3, rng) for _ in range(6)]
    want = [g.outputs[0] for g in genomes]
    assert evaluate_population(genomes, lambda g: g.outputs[0]) == want


def test_evaluate_population_isolates_failures():
    rng = np.random.default_rng(0)
    genomes = [random_genome(GenomeMode.CGP, 1, 1, 3, rng) for _ in range(4)]
    doomed = genomes[2]

    def fit(g):
        if g is doomed:
            raise RuntimeError("bad genome")
        return 1.0

    with pytest.warns(UserWarning, match="sentinel"):
        out = evaluate_population(genomes, fit)
    assert out == [1.0, 1.0, FAILED_FITNESS, 1.0]


@pytest.mark.parametrize("isolate", [True, False])
def test_evaluate_population_maps_nan_to_sentinel(isolate):
    rng = np.random.default_rng(0)
    genomes = [random_genome(GenomeMode.CGP, 1, 1, 3, rng) for _ in range(3)]
    fits = iter([1.0, float("nan"), float("inf")])
    with pytest.warns(UserWarning, match="NaN"):
        out = evaluate_population(genomes, lambda g: next(fits), isolate=isolate)
    assert out == [1.0, FAILED_FITNESS, float("inf")]


def nan_for_half(g):
    value = hash_fitness(g)
    return float("nan") if value < 0.5 else value


def test_one_plus_lambda_replaces_a_nan_parent():
    params = make_params(budget=60, seed=3)
    calls = iter(range(10**6))

    def fit(g):
        return float("nan") if next(calls) == 0 else hash_fitness(g)

    with pytest.warns(UserWarning, match="NaN"):
        _, log = one_plus_lambda(fit, params)
    assert all(np.isfinite(r.best_fitness) for r in log)


def test_ga_survives_nan_fitness():
    params = make_params(algorithm="ga", population=10, crossover="single_point",
                         budget=100, seed=5)
    with pytest.warns(UserWarning, match="NaN"):
        _, log = ga(nan_for_half, params)
    assert log[-1].evaluations >= 100
    assert all(r.best_fitness >= 0.5 for r in log)


# -------------------------------------------------------------- determinism

def test_one_plus_lambda_deterministic():
    params = make_params(budget=120, seed=21)
    a_best, a_log = one_plus_lambda(hash_fitness, params)
    b_best, b_log = one_plus_lambda(hash_fitness, params)
    assert np.array_equal(flatten(a_best), flatten(b_best))
    assert a_log == b_log


def test_parallel_matches_sequential():
    common = dict(algorithm="ga", population=10, elitism=0.1,
                  crossover_fraction=0.3, mutation_fraction=0.4,
                  crossover="single_point", budget=60, seed=17)
    a_best, a_log = ga(hash_fitness, make_params(workers=1, **common))
    b_best, b_log = ga(hash_fitness, make_params(workers=3, **common))
    assert np.array_equal(flatten(a_best), flatten(b_best))
    assert a_log == b_log


def test_run_evolution_dispatch():
    params = make_params(lambda_=3, budget=20, seed=2)
    best, log = run_evolution(hash_fitness, params)
    _, direct = one_plus_lambda(hash_fitness, params)
    assert log == direct
    params = make_params(algorithm="ga", population=8, crossover_fraction=0.0,
                         mutation_fraction=0.5, budget=30, seed=2)
    _, log = run_evolution(hash_fitness, params)
    _, direct = ga(hash_fitness, params)
    assert log == direct
