"""A slow reference pipeline, from config to run log, for the tests.

It reuses only primitives that tests pin on their own (step, the
operators, load_csv, _channel_sizes, and evaluate_population, which
scores serially and names a failure's generation) and avoids each fast
path of the package:

- axis, connection_point and output_point state the entity axis
  themselves, as the paper does: the CGP ladder as (2k + 1) / 2K, PCGP
  input and node positions, and each point as a fraction of the way
  from the axis start to its reach.  pcgp.decode states the same rules
  inline; nothing geometric is imported from the package.  The gene
  columns X_OFF, Y_OFF, F_OFF and C_OFF are stated here too.
- decode_lists snaps every point with its own linear scan of the
  snapping rule, snap_linear, over an explicit candidate list, not with
  bisect over one sorted list (pcgp.decode), and decodes every node,
  not only those an output reaches (pcgp.decode.decode); decode hands
  its lists to DecodedGraph with every row given.  plan_and_key_oracle,
  components_oracle and trace_oracle do without DecodedGraph.plan,
  program_key, components and output_trace.
- step_rows feeds a dataset one step call per row, not run_batch or
  run_sequence; step_balance makes one step call per cart-pole time
  step, not one run_feedback call.
- make_fitness has no memo (MemoizedFitness).
- The loops decode afresh for every operator call and active-node
  count instead of carrying graphs with the population.
- tournament is the numpy-era one (np.unique, rng.choice), not the
  list tournament, and the loops keep fitnesses in a numpy array:
  elites by np.argsort, the best by np.argmax, the mean by
  ndarray.mean, not a sorted list, max and np.mean of a list.
- The oracle_* builders are written field by field, not derived from
  the dataclass fields (config._build).

The loops derive each slot's stream with default_rng([seed,
generation, slot]), which pcgp.streams.Streams reproduces by hashing
the seeds of many (generation, slot) pairs at once, so run(cfg) must
give the RunRecords and best genome of make_fitness, build_evo_params
and run_evolution.  A speed change proves itself against this module
and copies no old code into the tests.
"""

import math
from typing import NamedTuple

import numpy as np

from pcgp.bench import (
    ANGLE_LIMIT, CART_MASS, CARTPOLE_INIT, FORCE, GRAVITY, POLE_HALF_LENGTH,
    POLE_MASS, POSITION_LIMIT, TIMESTEP, load_csv,
)
from pcgp.config import merge_config
from pcgp.crossover import apply_crossover
from pcgp.decode import DecodedGraph, DecodeSettings
from pcgp.evolve import EvoParams, RunRecord, _channel_sizes, evaluate_population
from pcgp.execute import step
from pcgp.functions import FunctionSet
from pcgp.genome import GenomeMode, SizeBounds, random_genome
from pcgp.mutate import MutationParams, apply_mutation

# ------------------------------------------------------------------ decode

# Per-node gene columns, counted from the end so both modes share them:
# PCGP rows are [p, x, y, f, c], CGP rows [x, y, f, c].
X_OFF, Y_OFF, F_OFF, C_OFF = -4, -3, -2, -1


class Decoded(NamedTuple):
    """What reference decoding finds, one list per attribute."""

    positions: list
    targets: list       # (target_a, target_b) per node
    outputs: list
    findex: list
    arity: list
    params: list
    active: list


def axis(g, s):
    """Every entity's position, inputs first.  CGP's K entities sit on
    the cell centres (2k + 1) / 2K of [0, 1]; a PCGP input sits at
    input_start times its gene, a PCGP node at its position gene."""
    total = g.n_in + g.n_nodes
    if g.mode is GenomeMode.CGP:
        return [(2 * k + 1) / (2 * total) for k in range(total)]
    return [s.input_start * v for v in g.inputs.tolist()] + g.nodes[:, 0].tolist()


def _axis_low(s, mode):
    """Where the axis starts: at 0.0 for CGP, at input_start for PCGP."""
    return 0.0 if mode is GenomeMode.CGP else s.input_start


def connection_point(x, here, s, mode):
    """The point connection gene x of a node at `here` addresses: x of
    the way from the axis start to the node's reach, which runs from
    the node itself at recurrency 0 to 1.0 at recurrency 1.  Works
    elementwise on arrays."""
    low = _axis_low(s, mode)
    reach = here + s.recurrency * (1.0 - here)
    return low + x * (reach - low)


def output_point(o, s, mode):
    """The point output gene o addresses: o of the way from the axis
    start to 1.0.  Works elementwise on arrays."""
    low = _axis_low(s, mode)
    return low + o * (1.0 - low)


def snap_linear(point, candidates):
    """The index that the snapping rule (pcgp.decode) gives, by a scan:
    the nearer of the highest position below point and the lowest at or
    above it, the lower one on a distance tie, then the smallest index
    at that position (-0.0 and 0.0 are one position)."""
    below = [p for _, p in candidates if p < point]
    above = [p for _, p in candidates if p >= point]
    if below and (not above or point - max(below) <= min(above) - point):
        best = max(below)
    else:
        best = min(above)
    return min(i for i, p in candidates if p == best)


def decode_lists(g, s, fset) -> Decoded:
    """Every node and output of g decoded: each point snaps over the
    entities it may reach, which are every entity or, at recurrency 0,
    the inputs and the nodes strictly left of the connection's own."""
    n_in = g.n_in
    pos = axis(g, s)
    everything = list(enumerate(pos))
    targets, findex = [], []
    for i, row in enumerate(g.nodes):
        here = pos[n_in + i]
        cands = everything if s.recurrency > 0 else [
            (j, p) for j, p in everything if j < n_in or p < here]
        targets.append(tuple(snap_linear(connection_point(row[k], here, s, g.mode), cands)
                             for k in (X_OFF, Y_OFF)))
        findex.append(min(math.floor(row[F_OFF] * len(fset)), len(fset) - 1))
    outputs = [snap_linear(output_point(o, s, g.mode), everything) for o in g.outputs]
    arity = [fset[f].arity for f in findex]
    active = [False] * g.n_nodes
    stack = [t - n_in for t in outputs if t >= n_in]
    while stack:
        i = stack.pop()
        if not active[i]:
            active[i] = True
            stack += [t - n_in for t in targets[i][:arity[i]] if t >= n_in]
    return Decoded(pos, targets, outputs, findex, arity, g.nodes[:, C_OFF].tolist(), active)


def decode(g, s, fset):
    """g's DecodedGraph, built from decode_lists with every row given."""
    d = decode_lists(g, s, fset)
    rows = [(*t, f, k, c) for t, f, k, c in zip(d.targets, d.findex, d.arity, d.params)]
    return DecodedGraph(g.n_in, g.n_out, g.n_nodes, d.outputs, d.active, rows, None, fset,
                        s.use_weights)


def trace_oracle(n_in, targets, arity, root, arity_aware):
    """Nodes reachable backward from entity root, grown to a fixpoint."""
    reached = {root - n_in} if root >= n_in else set()
    while True:
        more = {t - n_in for i in reached
                for t in targets[i][:arity[i] if arity_aware else 2] if t >= n_in}
        if more <= reached:
            return reached
        reached |= more


def plan_and_key_oracle(d: Decoded, use_weights: bool):
    """(plan nodes without functions, outputs, feedforward) and program key."""
    pos, arity = d.positions, d.arity
    n_in = len(pos) - len(d.targets)
    nodes = [(i, *d.targets[i], d.params[i]) for i, on in enumerate(d.active) if on]
    feedforward = not any(pos[t] >= pos[n_in + i]
                          for i, *used, _ in nodes for t in used[:arity[i]])
    rank = {n_in + node[0]: n_in + k for k, node in enumerate(nodes)}
    key_nodes = tuple((d.findex[i],
                       *[rank.get(t, t) for t in (ta, tb)[:arity[i]]],
                       param.hex() if use_weights or arity[i] == 0 else None)
                      for i, ta, tb, param in nodes)
    return (nodes, d.outputs, feedforward), (key_nodes, tuple(rank.get(t, t) for t in d.outputs))


def components_oracle(n_in, targets):
    """Labels by first appearance, from a flood fill over undirected edges."""
    edges = [(i, t - n_in) for i, row in enumerate(targets) for t in row if t >= n_in]
    labels = [-1] * len(targets)
    for i in range(len(targets)):
        stack, label = [i], max(labels, default=-1) + 1
        while stack:
            j = stack.pop()
            if labels[j] < 0:
                labels[j] = label
                stack += [b for a, b in edges if a == j] + [a for a, b in edges if b == j]
    return labels


# ----------------------------------------------------------------- fitness


def step_balance(graph, episode_len):
    """The cart-pole episode as one step call per time step."""
    state = np.zeros(graph.n_nodes)
    x, xd, th, thd = CARTPOLE_INIT
    total = CART_MASS + POLE_MASS
    pml = POLE_MASS * POLE_HALF_LENGTH
    for survived in range(episode_len):
        out, state = step(graph, state, (x, xd, th, thd))
        force = FORCE if out[0] > 0.0 else -FORCE
        s, c = math.sin(th), math.cos(th)
        temp = (force + pml * thd * thd * s) / total
        thdd = (GRAVITY * s - c * temp) / (
            POLE_HALF_LENGTH * (4.0 / 3.0 - POLE_MASS * c * c / total))
        xdd = temp - pml * thdd * c / total
        x += TIMESTEP * xd
        xd += TIMESTEP * xdd
        th += TIMESTEP * thd
        thd += TIMESTEP * thdd
        if abs(th) > ANGLE_LIMIT or abs(x) > POSITION_LIMIT:
            return survived / episode_len
    return 1.0


def stepped(graph, rows):
    """(rows, n_out) outputs, the rows fed one step call each."""
    state, outs = np.zeros(graph.n_nodes), []
    for row in rows:
        out, state = step(graph, state, row)
        outs.append(out)
    return np.array(outs)


def step_rows(graph, d):
    """Accuracy or negated MSE of the dataset's rows fed one step call each."""
    outs = stepped(graph, d.features)
    if d.task == "classification":
        return float(np.mean(np.argmax(outs, axis=1) == d.targets))
    with np.errstate(over="ignore"):
        return float(-np.mean((outs - d.targets) ** 2))


def make_fitness(cfg):
    """(fit, n_in, n_out) for cfg's task: memo-free, decoding every call."""
    merged = merge_config(cfg)
    s, fset = oracle_settings(cfg), FunctionSet.from_names(merged["functions"])
    if merged["task"] == "rl":
        return lambda g: step_balance(decode(g, s, fset), merged["episode_len"]), 4, 1
    d = load_csv(merged["data"], merged["task"])
    return lambda g: step_rows(decode(g, s, fset), d), d.n_features, d.n_out


# ---------------------------------------------------------------- builders
# Written out field by field, so they pin config._build, which derives
# build_evo_params and the objects in it from the fields.

def oracle_settings(cfg: dict) -> DecodeSettings:
    m = merge_config(cfg)
    return DecodeSettings(recurrency=float(m["recurrency"]), input_start=float(m["input_start"]),
                          use_weights=bool(m["use_weights"]))


def oracle_mutation(cfg: dict) -> MutationParams:
    m = merge_config(cfg)
    n, smin, smax = m["n_nodes"], m["size_min"], m["size_max"]
    bounds = SizeBounds(round(0.5 * n) if smin is None else smin,
                        round(1.5 * n) if smax is None else smax)
    return MutationParams(
        bounds=bounds, node_rate=float(m["node_rate"]), output_rate=float(m["output_rate"]),
        input_rate=float(m["input_rate"]), require_active=bool(m["require_active"]),
        delta_frac=float(m["delta_frac"]), modify_rate=float(m["modify_rate"]),
        operator=m["operator"], add_inverted=bool(m["add_inverted"]))


def oracle_evo_params(cfg: dict, n_in: int, n_out: int) -> EvoParams:
    m = merge_config(cfg)
    return EvoParams(
        mode=GenomeMode[m["mode"]], n_in=n_in, n_out=n_out, n_nodes=m["n_nodes"],
        mutation=oracle_mutation(cfg), settings=oracle_settings(cfg),
        functions=FunctionSet.from_names(m["functions"]), algorithm=m["algorithm"],
        lambda_=m["lambda"], population=m["population"], elitism=float(m["elitism"]),
        crossover_fraction=float(m["crossover_fraction"]),
        mutation_fraction=float(m["mutation_fraction"]), crossover=m["crossover"],
        budget=m["budget"], seed=m["seed"], workers=m["workers"],
        tournament_size=m["tournament_size"])


# ------------------------------------------------------------------- loops


def tournament(fits, size, rng):
    """The numpy-era tournament: the tied drawn slots through np.unique,
    the winner through rng.choice."""
    idx = rng.integers(0, fits.shape[0], size)
    vals = fits[idx]
    return int(rng.choice(np.unique(idx[vals == vals.max()])))


def _stream(p, generation, slot):
    return np.random.default_rng([p.seed, generation, slot])


def _graph(g, p):
    return decode(g, p.settings, p.functions)


def _mutant(g, p, rng):
    return apply_mutation(g, p.mutation, p.settings, rng, _graph(g, p))


def one_plus_lambda(fit, p):
    parent = random_genome(p.mode, p.n_in, p.n_out, p.n_nodes, _stream(p, 0, 0))
    (parent_fit,) = evaluate_population([parent], fit, 0, 0)
    evaluations, generation, log = 1, 0, []
    while evaluations < p.budget:
        generation += 1
        children = [_mutant(parent, p, _stream(p, generation, slot)) for slot in range(p.lambda_)]
        fits = evaluate_population(children, fit, generation, evaluations)
        evaluations += p.lambda_
        best = int(np.argmax(fits))
        mean = float(np.mean(fits + [parent_fit]))
        if fits[best] >= parent_fit:
            parent, parent_fit = children[best], fits[best]
        log.append(RunRecord(generation, evaluations, parent_fit, mean,
                             sum(_graph(parent, p).active_list)))
    return parent, log


def ga(fit, p):
    pop = [random_genome(p.mode, p.n_in, p.n_out, p.n_nodes, _stream(p, 0, slot))
           for slot in range(p.population)]
    fits = np.array(evaluate_population(pop, fit, 0, 0), dtype=float)
    evaluations, generation, log = p.population, 0, []
    best_idx = int(np.argmax(fits))
    best, best_fit = pop[best_idx], float(fits[best_idx])
    while evaluations < p.budget:
        generation += 1
        elites, crossed, mutated, copied = _channel_sizes(p)
        fresh = []
        for k in range(crossed):
            rng = _stream(p, generation, elites + k)
            first = second = tournament(fits, p.tournament_size, rng)
            for _ in range(100):
                second = tournament(fits, p.tournament_size, rng)
                if second != first:
                    break
            pair = pop[first], pop[second]
            fresh.append(apply_crossover(*pair, p.crossover, rng, p.mutation.bounds,
                                         [_graph(g, p) for g in pair]))
        for k in range(mutated):
            rng = _stream(p, generation, elites + crossed + k)
            fresh.append(_mutant(pop[tournament(fits, p.tournament_size, rng)], p, rng))
        fresh_fits = evaluate_population(fresh, fit, generation, evaluations)
        evaluations += len(fresh)
        copies = [tournament(fits, p.tournament_size,
                             _stream(p, generation, elites + crossed + mutated + k))
                  for k in range(copied)]
        elite = np.argsort(-fits, kind="stable")[:elites].tolist()
        pop = [pop[i] for i in elite] + fresh + [pop[i] for i in copies]
        fits = np.array([fits[i] for i in elite] + fresh_fits + [fits[i] for i in copies])
        gen_best = int(np.argmax(fits))
        if fits[gen_best] >= best_fit:
            best, best_fit = pop[gen_best], float(fits[gen_best])
        log.append(RunRecord(generation, evaluations, best_fit, float(fits.mean()),
                             sum(_graph(best, p).active_list)))
    return best, log


def run(cfg):
    """(best genome, RunRecord log) of cfg's run, the plain way."""
    fit, n_in, n_out = make_fitness(cfg)
    p = oracle_evo_params(cfg, n_in, n_out)
    return (ga if p.algorithm == "ga" else one_plus_lambda)(fit, p)
