"""Evolution loops: an elitist 1+lambda EA and a generational GA.

Both are deterministic given (params, seed): every child gets its own
random stream, bit for bit np.random.default_rng([seed, generation,
slot]), which pcgp.streams seeds in batches of hundreds of
(generation, slot) pairs.  Fitness is evaluated serially, in slot
order; the workers setting is accepted and validated but has no
effect, because a thread pool over GIL-bound Python ran slower than
one thread.

Each loop keeps a decoded graph per population slot, None until an
operator or the active-node count first reads it.  Elites, copies and
a mutant that is its own parent carry theirs into the next generation.
The operators never decode: reads_graph and READS_GRAPHS say which of
them read a graph, and the loops hand them their parents' graphs.

Budgets count fitness evaluations, not generations; copied individuals
(elites, unmodified tournament winners) are never re-evaluated.  A
budget must cover the first generation (lambda + 1 for 1+lambda, more
than the initial population for the GA); EvoParams rejects a smaller
one, so every run logs at least one generation.  The
generation that reaches the budget always completes, so a run may
overshoot it by less than one generation's fresh evaluations: budget
10 with lambda 4 runs 1 + 3 * 4 = 13 evaluations.

A NaN fitness becomes the worst-fitness sentinel FAILED_FITNESS (-inf),
with a warning, so selection always has an order to work with.

Fitnesses are kept as a list of Python floats.  GA elites come from a
stable descending sort, in np.argsort(-fits, kind="stable") order; the
best slot is the first maximum, as np.argmax picks; the mean is
np.mean's own sum and divide.  A tournament draws its slots with one
sized integers call, which a Stream runs in python (pcgp.streams),
reads each drawn fitness once and returns at once when the best is
unique; only a tie draws again.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .crossover import OPERATORS as CROSSOVER_OPERATORS
from .crossover import POSITIONAL_ONLY as POSITIONAL_CROSSOVERS
from .crossover import READS_GRAPHS as GRAPH_CROSSOVERS
from .crossover import apply_crossover
from .decode import DecodeSettings, decode
from .errors import ConfigError
from .functions import FunctionSet, default_functions
from .genome import GenomeMode, random_genome
from .mutate import POSITIONAL_ONLY as POSITIONAL_MUTATIONS
from .mutate import MutationParams, apply_mutation, reads_graph

ALGORITHMS = ("one_plus_lambda", "ga")
FAILED_FITNESS = float("-inf")


@dataclass(frozen=True)
class EvoParams:
    mode: GenomeMode
    n_in: int
    n_out: int
    n_nodes: int                  # initial genome size
    mutation: MutationParams
    settings: DecodeSettings = DecodeSettings()
    functions: FunctionSet = field(default_factory=default_functions)
    algorithm: str = "one_plus_lambda"
    lambda_: int = 5              # offspring per 1+lambda generation
    population: int = 50
    elitism: float = 0.1
    crossover_fraction: float = 0.5
    mutation_fraction: float = 0.5
    crossover: str | None = None
    budget: int = 20000
    seed: int = 0
    workers: int = 1              # accepted for old configs; has no effect
    tournament_size: int = 3

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(
                f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}")
        for name, minimum in (("lambda_", 1), ("population", 2), ("budget", 1),
                              ("workers", 1), ("tournament_size", 1), ("seed", 0)):
            if getattr(self, name) < minimum:
                raise ConfigError(f"{name.rstrip('_')} must be at least {minimum}")
        if self.n_in < 1 or self.n_out < 1:
            raise ConfigError("invalid genome shape")
        bounds = self.mutation.bounds
        if not bounds.size_min <= self.n_nodes <= bounds.size_max:
            raise ConfigError(f"n_nodes {self.n_nodes} outside size bounds "
                              f"[{bounds.size_min}, {bounds.size_max}]")
        for name in ("elitism", "crossover_fraction", "mutation_fraction"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")
        if self.crossover is not None and self.crossover not in CROSSOVER_OPERATORS:
            raise ConfigError(f"unknown crossover operator {self.crossover!r}")
        if self.mode is GenomeMode.CGP:
            if self.crossover in POSITIONAL_CROSSOVERS:
                raise ConfigError(
                    f"crossover {self.crossover!r} requires positional genomes")
            if self.mutation.operator in POSITIONAL_MUTATIONS:
                raise ConfigError(f"{self.mutation.operator} mutation requires "
                                  "positional genomes")
        if self.algorithm == "ga" and self.crossover is None and self.crossover_fraction > 0:
            raise ConfigError("GA with a crossover share needs a crossover operator")
        if self.algorithm == "ga" and self.budget <= self.population:
            raise ConfigError(f"budget {self.budget} must cover the initial "
                              f"population of {self.population} plus one generation")
        if self.algorithm == "one_plus_lambda" and self.budget < self.lambda_ + 1:
            raise ConfigError(f"budget {self.budget} must cover the initial parent "
                              f"plus one generation of {self.lambda_}")


@dataclass(frozen=True)
class RunRecord:
    generation: int
    evaluations: int
    best_fitness: float
    mean_fitness: float
    best_active_nodes: int


def evaluate_population(genomes, fit):
    """Fitness of each genome, evaluated serially in order.

    A NaN fitness becomes the worst-fitness sentinel plus a warning; a
    raising fitness propagates.
    """
    def call(g):
        value = float(fit(g))
        if math.isnan(value):
            warnings.warn("fitness evaluation returned NaN; using sentinel")
            return FAILED_FITNESS
        return value

    return [call(g) for g in genomes]


def _evaluate(genomes, fit, generation, evaluations):
    try:
        return evaluate_population(genomes, fit)
    except Exception as e:
        raise RuntimeError(
            f"fitness evaluation failed in generation {generation} "
            f"after {evaluations} evaluations") from e


def _mean(xs: list) -> float:
    """float(np.mean(xs)), bit for bit: np.mean's own sum and divide."""
    return float(np.add.reduce(np.array(xs))) / len(xs)


def _graph(graphs: list, pop: list, i: int, params: EvoParams):
    """The decoded graph of pop[i], decoded on first read and kept in graphs[i]."""
    graph = graphs[i]
    if graph is None:
        graph = graphs[i] = decode(pop[i], params.settings, params.functions)
    return graph


def one_plus_lambda(fit, params: EvoParams, on_record=None):
    """Elitist single-parent EA with neutral drift.

    Offspring replace the parent when at least as fit.  Returns the
    final parent and one RunRecord per generation.
    """
    from .streams import Streams    # loads numpy.random; see pcgp.streams

    stream = Streams(params.seed, params.lambda_)
    parent = random_genome(params.mode, params.n_in, params.n_out, params.n_nodes,
                           stream(0, 0))
    parent_fit = _evaluate([parent], fit, 0, 0)[0]
    evaluations = 1
    generation = 0
    graph = decode(parent, params.settings, params.functions)
    log = []
    while evaluations < params.budget:
        generation += 1
        children = [
            apply_mutation(parent, params.mutation, params.settings,
                           stream(generation, slot), graph)
            for slot in range(params.lambda_)
        ]
        fits = _evaluate(children, fit, generation, evaluations)
        evaluations += params.lambda_
        best = fits.index(max(fits))
        mean = _mean(fits + [parent_fit])
        if fits[best] >= parent_fit:
            if children[best] is not parent:
                graph = decode(children[best], params.settings, params.functions)
            parent, parent_fit = children[best], fits[best]
        record = RunRecord(generation, evaluations, parent_fit, mean,
                           sum(graph.active_list))
        log.append(record)
        if on_record is not None:
            on_record(record)
    return parent, log


def _tournament(fits: list, size: int, rng) -> int:
    """Draw size slots with replacement; the fittest wins, ties broken
    by one uniform draw over the distinct tied slots in ascending order."""
    idx = rng.integers(0, len(fits), size).tolist()
    drawn = [fits[i] for i in idx]
    best = max(drawn)
    if drawn.count(best) == 1:
        return idx[drawn.index(best)]
    tied = sorted({i for i, f in zip(idx, drawn) if f == best})
    return tied[rng.integers(len(tied))]    # integers(1) draws nothing


def _channel_sizes(params: EvoParams):
    """Elite/crossover/mutation/copy slot counts for one GA generation.

    Rounded shares can overshoot the population; mutation gives way
    first, then crossover.  Whatever remains is filled with unmodified
    tournament winners.
    """
    pop = params.population
    elites = min(pop, round(params.elitism * pop))
    crossed = round(params.crossover_fraction * pop)
    mutated = round(params.mutation_fraction * pop)
    if elites + crossed + mutated > pop:
        mutated = max(0, pop - elites - crossed)
    if elites + crossed > pop:
        crossed = max(0, pop - elites)
    return elites, crossed, mutated, pop - elites - crossed - mutated


def ga(fit, params: EvoParams, on_record=None):
    """Generational GA with elitism, crossover and mutation shares.

    Slots are filled elites first, then crossover children from pairs of
    distinct tournament winners, then mutants of tournament winners,
    then plain copies; only newly created individuals cost evaluations.
    """
    from .streams import Streams

    stream = Streams(params.seed, params.population)
    pop = [
        random_genome(params.mode, params.n_in, params.n_out, params.n_nodes,
                      stream(0, slot))
        for slot in range(params.population)
    ]
    graphs = [None] * params.population
    fits = _evaluate(pop, fit, 0, 0)
    evaluations = params.population
    best_idx = fits.index(max(fits))
    best, best_fit = pop[best_idx], fits[best_idx]
    best_active = sum(_graph(graphs, pop, best_idx, params).active_list)
    generation = 0
    log = []
    bounds = params.mutation.bounds
    cross_graphs = params.crossover in GRAPH_CROSSOVERS
    mutate_graph = reads_graph(params.mutation)
    while evaluations < params.budget:
        generation += 1
        elites, crossed, mutated, copied = _channel_sizes(params)
        elite = sorted(range(len(fits)), key=fits.__getitem__, reverse=True)[:elites]
        fresh, fresh_graphs = [], []
        for k in range(crossed):
            slot_rng = stream(generation, elites + k)
            first = _tournament(fits, params.tournament_size, slot_rng)
            second = first
            for _ in range(100):
                second = _tournament(fits, params.tournament_size, slot_rng)
                if second != first:
                    break
            pair = None
            if cross_graphs:
                pair = (_graph(graphs, pop, first, params),
                        _graph(graphs, pop, second, params))
            fresh.append(apply_crossover(pop[first], pop[second], params.crossover,
                                         slot_rng, bounds, pair))
            fresh_graphs.append(None)
        for k in range(mutated):
            slot_rng = stream(generation, elites + crossed + k)
            winner = _tournament(fits, params.tournament_size, slot_rng)
            graph = _graph(graphs, pop, winner, params) if mutate_graph else None
            child = apply_mutation(pop[winner], params.mutation, params.settings,
                                   slot_rng, graph)
            fresh.append(child)
            fresh_graphs.append(graphs[winner] if child is pop[winner] else None)
        fresh_fits = _evaluate(fresh, fit, generation, evaluations)
        evaluations += len(fresh)
        copies = [
            _tournament(fits, params.tournament_size,
                        stream(generation, elites + crossed + mutated + k))
            for k in range(copied)
        ]
        # elites and copies are gathered after variation, so they carry
        # the graphs decoded for this generation's parents
        pop = [pop[i] for i in elite] + fresh + [pop[i] for i in copies]
        graphs = [graphs[i] for i in elite] + fresh_graphs + [graphs[i] for i in copies]
        fits = [fits[i] for i in elite] + fresh_fits + [fits[i] for i in copies]
        gen_best = fits.index(max(fits))
        if fits[gen_best] >= best_fit:
            best, best_fit = pop[gen_best], fits[gen_best]
            best_active = sum(_graph(graphs, pop, gen_best, params).active_list)
        record = RunRecord(generation, evaluations, best_fit, _mean(fits), best_active)
        log.append(record)
        if on_record is not None:
            on_record(record)
    return best, log


def run_evolution(fit, params: EvoParams, on_record=None):
    """Dispatch to the configured algorithm."""
    if params.algorithm == "ga":
        return ga(fit, params, on_record)
    return one_plus_lambda(fit, params, on_record)
