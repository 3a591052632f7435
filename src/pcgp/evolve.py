"""Evolution: an elitist 1+lambda EA and a generational GA.

run_evolution runs either through one driver, _run: it draws the first
population, scores new individuals, keeps their graphs, tracks the
best (the first maximum, replacing the last best when at least as fit)
and logs a RunRecord per generation.  An algorithm is a policy:
vary(params, generation, pop, fits, graphs, stream) returns (before,
fresh, fresh_graphs, after), and the next population is pop[i] for i
in before, fresh, then pop[i] for i in after.  1+lambda mutates the
pool's first maximum and keeps it after its children, so a child at
least as fit takes over (neutral drift); the GA keeps elites first and
copies of tournament winners last.

Runs are deterministic given (params, seed): every child gets its own
random stream, bit for bit np.random.default_rng([seed, generation,
slot]), which pcgp.streams seeds in batches of hundreds of
(generation, slot) pairs.  Fitness is evaluated serially, in slot
order; the workers setting is accepted and validated but has no
effect, because a thread pool over GIL-bound Python ran slower than
one thread.  The driver keeps a decoded graph per slot, None until
first read; kept slots and a mutant that is its own parent carry
theirs.  The operators never decode: reads_graph and READS_GRAPHS say
which of them read a graph, and the policies hand them their parents'.

Budgets count fitness evaluations; kept individuals are never
re-evaluated.  EvoParams rejects a budget short of the first
generation (lambda + 1, or more than the GA's population) and a GA
generation with no child, so every run logs a generation and ends.
The last generation always completes, so a run overshoots its budget
by less than one generation: budget 10, lambda 4 runs 13 evaluations.

evaluate_population scores every new individual and states the fitness
value rule; its NaN sentinel gives selection an order to work with.

Fitnesses are kept as a list of Python floats.  GA elites come from a
stable descending sort, in np.argsort(-fits, kind="stable") order; the
best slot is the first maximum, as np.argmax picks; the mean is
np.mean's own sum and divide.  A tournament draws its slots with one
sized integers call, which a Stream runs in python (pcgp.streams),
reads each drawn fitness once and returns at once when the best is
unique; only a tie draws again."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from itertools import repeat

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
        for name in ("n_in", "n_out", "n_nodes", "lambda_", "population", "budget",
                     "workers", "tournament_size", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):    # as validate_config
                raise ConfigError(f"{name.rstrip('_')} must be an integer, got {value!r}")
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
            if not 0 <= getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be non-negative and finite")
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
        if self.algorithm == "ga" and sum(_channel_sizes(self)[1:3]) == 0:
            raise ConfigError("GA crossover and mutation shares round to 0 children")
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


def evaluate_population(genomes, fit, generation: int, evaluations: int) -> list:
    """The fitness of each genome, scored serially in order, for
    generation after evaluations earlier scores.

    The fitness value rule: a genome's fitness is float(fit(g)), so any
    value float accepts is a fitness (a numpy scalar, or the string
    "0.25" as 0.25).  NaN becomes FAILED_FITNESS (-inf) with a warning,
    and -inf is kept.  +inf is an error, ValueError("fitness evaluation
    returned +inf"), since beside -inf it would make the logged mean
    NaN.  An error from fit, from float (None, a 1-element array) or
    from the +inf rule ends the batch, with no later genome scored, as
    RuntimeError("fitness evaluation failed in generation G after E
    evaluations") caused by the error.
    """
    fits = []
    try:
        for g in genomes:
            value = float(fit(g))
            if math.isnan(value):
                warnings.warn("fitness evaluation returned NaN; using sentinel")
                value = FAILED_FITNESS
            elif value == math.inf:
                raise ValueError("fitness evaluation returned +inf")
            fits.append(value)
    except Exception as e:
        raise RuntimeError(f"fitness evaluation failed in generation {generation} "
                           f"after {evaluations} evaluations") from e
    return fits


def _mean(xs: list) -> float:
    """float(np.mean(xs)), bit for bit: np.mean's own sum and divide."""
    return float(np.add.reduce(np.array(xs))) / len(xs)


def _graph(graphs: list, pop: list, i: int, params: EvoParams):
    """The decoded graph of pop[i], decoded on first read and kept in graphs[i]."""
    graph = graphs[i]
    if graph is None:
        graph = graphs[i] = decode(pop[i], params.settings, params.functions)
    return graph


def _mutants(params: EvoParams, pop: list, graphs: list, parents, rngs):
    """A mutant of pop[i] drawn from rng for each i, rng in zip(parents,
    rngs), and its graph: pop[i]'s own for a mutant that is pop[i], else None."""
    read = reads_graph(params.mutation)
    children, child_graphs = [], []
    for i, rng in zip(parents, rngs):
        parent = pop[i]
        child = apply_mutation(parent, params.mutation, params.settings, rng,
                               _graph(graphs, pop, i, params) if read else None)
        children.append(child)
        child_graphs.append(graphs[i] if child is parent else None)
    return children, child_graphs


def _one_plus_lambda(params: EvoParams, generation: int, pop, fits, graphs, stream):
    """1+lambda: lambda mutants of the pool's first maximum, then that
    parent, so a child at least as fit is the next first maximum."""
    parent = fits.index(max(fits))
    rngs = map(stream, repeat(generation), range(params.lambda_))
    fresh, fresh_graphs = _mutants(params, pop, graphs, [parent] * params.lambda_, rngs)
    return (), fresh, fresh_graphs, (parent,)


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


def _ga(params: EvoParams, generation: int, pop, fits, graphs, stream):
    """GA: elites, crossover children of pairs of distinct tournament
    winners, mutants of winners, then plain copies of winners."""
    elites, crossed, mutated, _ = _channel_sizes(params)
    size = params.tournament_size
    children, winners, rngs = [], [], []
    for slot in range(elites, elites + crossed):
        rng = stream(generation, slot)
        first = second = _tournament(fits, size, rng)
        for _ in range(100):
            second = _tournament(fits, size, rng)
            if second != first:
                break
        pair = None
        if params.crossover in GRAPH_CROSSOVERS:
            pair = (_graph(graphs, pop, first, params), _graph(graphs, pop, second, params))
        children.append(apply_crossover(pop[first], pop[second], params.crossover, rng,
                                        params.mutation.bounds, pair))
    for slot in range(elites + crossed, elites + crossed + mutated):
        rngs.append(stream(generation, slot))
        winners.append(_tournament(fits, size, rngs[-1]))
    mutants, mutant_graphs = _mutants(params, pop, graphs, winners, rngs)
    copies = [_tournament(fits, size, stream(generation, slot))
              for slot in range(elites + crossed + mutated, params.population)]
    elite = sorted(range(len(fits)), key=fits.__getitem__, reverse=True)[:elites]
    return elite, children + mutants, [None] * crossed + mutant_graphs, copies


def _run(fit, params: EvoParams, size: int, slots: int, vary, on_record):
    """The generation loop of both algorithms; vary is the policy."""
    from .streams import Streams    # loads numpy.random; see pcgp.streams

    stream = Streams(params.seed, slots)
    pop = [random_genome(params.mode, params.n_in, params.n_out, params.n_nodes,
                         stream(0, slot))
           for slot in range(size)]
    graphs = [None] * size
    fits = evaluate_population(pop, fit, 0, 0)
    evaluations, generation, log = size, 0, []
    best_idx = fits.index(max(fits))
    best, best_fit = pop[best_idx], fits[best_idx]
    best_active = sum(_graph(graphs, pop, best_idx, params).active_list)
    while evaluations < params.budget:
        generation += 1
        before, fresh, fresh_graphs, after = vary(params, generation, pop, fits, graphs, stream)
        fresh_fits = evaluate_population(fresh, fit, generation, evaluations)
        evaluations += len(fresh)
        # gathered after vary, so kept slots carry the graphs it decoded
        kept, at = [*before, *after], len(before)
        pop = [pop[i] for i in kept]
        graphs = [graphs[i] for i in kept]
        fits = [fits[i] for i in kept]
        pop[at:at], graphs[at:at], fits[at:at] = fresh, fresh_graphs, fresh_fits
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
    """Run params.algorithm; return the best genome found and one
    RunRecord per generation, each also passed to on_record if given."""
    if params.algorithm == "ga":
        return _run(fit, params, params.population, params.population, _ga, on_record)
    return _run(fit, params, 1, params.lambda_, _one_plus_lambda, on_record)
