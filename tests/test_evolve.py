"""Tests for the 1+lambda EA and the generational GA."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pcgp.bench
import pcgp.crossover
import pcgp.evolve
import pcgp.mutate
from pcgp.config import build_evo_params, load_preset, make_fitness
from pcgp.crossover import READS_GRAPHS, apply_crossover
from pcgp.decode import DecodeSettings, decode
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
from pcgp.genome import GenomeMode, SizeBounds, flatten, random_genome, validate_genome
from pcgp.mutate import MutationParams, apply_mutation, reads_graph

FSET = default_functions()


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


def _tournament_oracle(fits, size, rng):
    """Reference tournament on np.unique and rng.choice: _tournament must
    pick the same winner and consume the same draws."""
    idx = rng.integers(0, fits.shape[0], size)
    vals = fits[idx]
    tied = np.unique(idx[vals == vals.max()])
    return int(rng.choice(tied))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([-np.inf, 0.0, 0.5, 1.0, FAILED_FITNESS]),
                min_size=1, max_size=30),
       st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_tournament_matches_numpy_oracle(values, size, seed):
    # tie-heavy fitness vectors; the draw after the tournament must agree
    # too, so both consume exactly the same random numbers
    fits = np.array(values)
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    winner = _tournament(fits, size, ours)
    assert type(winner) is int
    assert winner == _tournament_oracle(fits, size, theirs)
    assert ours.random() == theirs.random()


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


def test_evaluate_population_propagates_failures():
    """A raising fitness stops the batch; nothing after it is scored."""
    rng = np.random.default_rng(0)
    genomes = [random_genome(GenomeMode.CGP, 1, 1, 3, rng) for _ in range(4)]
    doomed = genomes[2]
    scored = []

    def fit(g):
        if g is doomed:
            raise RuntimeError("bad genome")
        scored.append(g)
        return 1.0

    with pytest.raises(RuntimeError, match="bad genome"):
        evaluate_population(genomes, fit)
    assert scored == genomes[:2]


@pytest.mark.parametrize("numpy_scalar", [True, False])
def test_evaluate_population_maps_nan_to_sentinel(numpy_scalar):
    """NaN maps to the sentinel whether fitness returns a numpy or Python float."""
    rng = np.random.default_rng(0)
    genomes = [random_genome(GenomeMode.CGP, 1, 1, 3, rng) for _ in range(3)]
    box = np.float64 if numpy_scalar else float
    fits = iter([box(1.0), box("nan"), box("inf")])
    with pytest.warns(UserWarning, match="NaN"):
        out = evaluate_population(genomes, lambda g: next(fits))
    assert out == [1.0, FAILED_FITNESS, float("inf")]
    assert all(type(v) is float for v in out)


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


def test_decode_is_looked_up_at_call_time_in_every_module(tmp_path, monkeypatch):
    """Each module that decodes reads its module-level decode binding
    per call, so wrapping that binding (as a profiler does) sees every
    decode: of a cart-pole GA with output_graph crossover and
    require_active mutation and of a 1+lambda regression run (both
    decode in pcgp.bench and pcgp.evolve).  The operators never decode:
    handed graphs, they hit no decode binding."""
    calls = {}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)
        return wrapper

    modules = (pcgp.bench, pcgp.evolve, pcgp.mutate, pcgp.crossover)
    for module in modules:
        monkeypatch.setattr(module, "decode", counting(module.__name__, module.decode))

    data = tmp_path / "line.csv"
    data.write_text("x,y\n" + "".join(f"{v},{2 * v}\n" for v in np.linspace(0, 1, 20)))
    rl = dict(load_preset("e3_rl"), population=10, budget=60, episode_len=5,
              n_nodes=6, seed=3)
    regression = dict(load_preset("e4"), task="regression", data=str(data),
                      budget=40, n_nodes=6, seed=3)
    assert rl["crossover"] == "output_graph" and rl["require_active"]
    for cfg in (rl, regression):
        fit, n_in, n_out = make_fitness(cfg)
        run_evolution(fit, build_evo_params(cfg, n_in, n_out))
    assert sorted(calls) == ["pcgp.bench", "pcgp.evolve"], calls

    before = dict(calls)
    params = build_evo_params(rl, 4, 1)
    rng = np.random.default_rng(0)
    a, b = (random_genome(GenomeMode.PCGP, 4, 1, 6, rng) for _ in range(2))
    graphs = tuple(decode(g, params.settings, params.functions) for g in (a, b))
    pcgp.crossover.output_graph(a, b, graphs, rng)
    pcgp.crossover.subgraph(a, b, graphs, rng)
    pcgp.mutate.gene_mutation(a, params.mutation, rng, graphs[0])
    pcgp.mutate.mixed_subgraph_mutate(a, replace(params.mutation, modify_rate=0.0),
                                      params.settings, rng, graphs[0])
    assert calls == before


@pytest.mark.parametrize("preset, overrides", [
    ("e3_rl", {}),
    ("e3_rl", {"crossover": "subgraph", "operator": "mixed_subgraph"}),
    ("e0_rl", {"require_active": True}),
])
def test_loops_decode_each_individual_at_most_once(monkeypatch, preset, overrides):
    """The loops keep every graph they decode beside their population and
    hand it to the operators, so a cart-pole run with graph-reading
    crossover and mutation decodes no genome twice, and its operators
    decode none."""
    decoded = []            # the genomes themselves, so no id is reused
    calls = {}

    def counting(name, original):
        def wrapper(g, *args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            decoded.append(g)
            return original(g, *args, **kwargs)
        return wrapper

    for module in (pcgp.evolve, pcgp.mutate, pcgp.crossover):
        monkeypatch.setattr(module, "decode", counting(module.__name__, module.decode))
    cfg = dict(load_preset(preset), population=10, budget=300, episode_len=20,
               n_nodes=6, seed=5, **overrides)
    fit, n_in, n_out = make_fitness(cfg)
    _, log = run_evolution(fit, build_evo_params(cfg, n_in, n_out))
    assert len(log) > 5
    assert set(calls) == {"pcgp.evolve"}, calls
    ids = [id(g) for g in decoded]
    assert len(ids) == len(set(ids))


# --------------------------------------------- which operators read graphs

class Tripwire:
    """Stand-in for a graph the tables say is unread: any attribute read raises."""

    def __getattribute__(self, name):
        raise AssertionError(f"read .{name} of a graph the tables say is unread")


class Reads:
    """A decoded graph that counts the attribute reads made through it."""

    def __init__(self, graph):
        self.graph, self.count = graph, 0

    def __getattr__(self, name):
        self.count += 1
        return getattr(self.graph, name)


def _supports(mode, op, positional_only):
    return mode is GenomeMode.PCGP or op not in positional_only


OPERATOR_CASES = (
    [("mutation", op, active, mode)
     for op in pcgp.mutate.OPERATORS for active in (False, True) for mode in GenomeMode
     if _supports(mode, op, pcgp.mutate.POSITIONAL_ONLY)]
    + [("crossover", op, False, mode)
       for op in pcgp.crossover.OPERATORS for mode in GenomeMode
       if _supports(mode, op, pcgp.crossover.POSITIONAL_ONLY)])


def _tables_say_read(kind, op, active):
    if kind == "mutation":
        return reads_graph(MutationParams(SizeBounds(0, 20), operator=op,
                                          require_active=active))
    return op in READS_GRAPHS


def _vary(case, seed, modify_rate=0.5):
    """One child from the case's operator, handed counting graphs where the
    tables say it reads them and Tripwires elsewhere; returns the reads."""
    kind, op, active, mode = case
    rng = np.random.default_rng(seed)
    a, b = (random_genome(mode, 2, 2, int(rng.integers(0, 13)), rng) for _ in range(2))
    s = DecodeSettings(input_start=-0.5)
    reads = []
    if _tables_say_read(kind, op, active):
        reads = [Reads(decode(g, s, FSET)) for g in (a, b)]
    graph_a, graph_b = reads or (Tripwire(), Tripwire())
    if kind == "mutation":
        p = MutationParams(SizeBounds(0, 20), node_rate=0.1, delta_frac=0.3,
                           modify_rate=modify_rate, operator=op, require_active=active)
        child = apply_mutation(a, p, s, rng, graph_a)
    else:
        child = apply_crossover(a, b, op, rng, SizeBounds(0, 20), (graph_a, graph_b))
    validate_genome(child)
    return sum(r.count for r in reads)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(OPERATOR_CASES), st.integers(0, 2**31 - 1), st.floats(0.0, 1.0))
def test_graph_tables_cover_every_graph_read(case, seed, modify_rate):
    """reads_graph and READS_GRAPHS are the only record of which operators
    read a graph: every mutation operator with and without require_active
    and every crossover, in each mode it supports, reads no attribute of
    a graph the tables say it does not read."""
    _vary(case, seed, modify_rate)


@pytest.mark.parametrize("case", [c for c in OPERATOR_CASES if _tables_say_read(*c[:3])],
                         ids=lambda c: "-".join(map(str, c[:3])) + "-" + c[3].value)
def test_graph_tables_name_only_graph_readers(case):
    """Every operator the tables say reads a graph does read one."""
    assert sum(_vary(case, seed) for seed in range(20))
