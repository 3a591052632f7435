"""The fitness memo: the program key and memoized against memo-free runs."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pcgp.bench
from pcgp.bench import (
    Dataset,
    MemoizedFitness,
    cartpole_fitness,
    classification_fitness,
    regression_fitness,
)
from pcgp.cli import _log_writer
from pcgp.config import build_evo_params, load_preset, make_fitness
from pcgp.decode import DecodeSettings, decode
from pcgp.errors import ConfigError
from pcgp.evolve import run_evolution
from pcgp.functions import default_functions
from pcgp.genome import C_OFF, X_OFF, GenomeMode, SizeBounds, make_genome, random_genome
from pcgp.mutate import MutationParams, gene_mutation

import reference

FSET = default_functions()
EPISODE = 60


def f_gene(name):
    return (FSET.names.index(name) + 0.5) / len(FSET)


def key(g, s):
    return decode(g, s, FSET).program_key


def _dataset(task, rng, rows=16):
    feats = rng.random((rows, 4))
    if task == "classification":
        targets = rng.integers(0, 3, rows)
        return Dataset(feats, targets, task, feats.min(0), feats.max(0), ("a", "b", "c"))
    return Dataset(feats, rng.normal(size=(rows, 1)), task, feats.min(0), feats.max(0))


DATA = {task: _dataset(task, np.random.default_rng(4))
        for task in ("classification", "regression")}
# task -> (n_out, memo-free fitness, data for MemoizedFitness); every task has 4 inputs
TASKS = {
    "rl": (1, lambda g, s: cartpole_fitness(g, s, FSET, EPISODE), None),
    "classification": (3, lambda g, s: classification_fitness(
        g, DATA["classification"], s, FSET), DATA["classification"]),
    "regression": (1, lambda g, s: regression_fitness(
        g, DATA["regression"], s, FSET), DATA["regression"]),
}


# ------------------------------------------------------------- program key

def test_program_key_reads_only_what_execution_reads():
    plain = DecodeSettings()
    weighted = DecodeSettings(use_weights=True)

    def genome(const_param, add_param, spare_function):
        # node 0 adds the two inputs, node 1 is a constant, node 2 is inactive
        nodes = [[0.1, 0.4, f_gene("add"), add_param],
                 [0.5, 0.5, f_gene("const"), const_param],
                 [0.2, 0.7, spare_function, 0.3]]
        return make_genome(GenomeMode.CGP, 2, 2, nodes, [0.5, 0.7])

    base = genome(0.25, 0.5, f_gene("sub"))
    assert key(base, plain) == key(genome(0.25, 0.9, f_gene("sin")), plain)
    assert key(base, plain) != key(genome(0.75, 0.5, f_gene("sub")), plain)
    assert key(base, weighted) != key(genome(0.25, 0.9, f_gene("sub")), weighted)
    # signed zeros are separate keys wherever the parameter is read
    assert key(genome(0.0, 0.5, 0.1), plain) != key(genome(-0.0, 0.5, 0.1), plain)
    assert key(genome(0.25, 0.0, 0.1), weighted) != key(genome(0.25, -0.0, 0.1), weighted)
    assert key(genome(0.25, 0.0, 0.1), plain) == key(genome(0.25, -0.0, 0.1), plain)


def _silent_mutant(g, s, rng):
    """g with every gene redrawn that execution never reads.

    Node positions stay, so snapping cannot change: that leaves the
    connection and function genes of inactive nodes, and the parameter
    genes the key leaves out.
    """
    graph = decode(g, s, FSET)
    nodes = g.nodes.copy()
    idle = ~graph.active
    nodes[idle, X_OFF:C_OFF] = rng.random((int(idle.sum()), 3))
    arity = np.array([graph.row(i)[3] for i in range(g.n_nodes)], dtype=int)
    unread = idle if s.use_weights else idle | (arity > 0)
    nodes[unread, C_OFF] = rng.random(int(unread.sum()))
    return make_genome(g.mode, g.n_in, g.n_out, nodes, g.outputs, g.inputs)


@pytest.mark.parametrize("task", sorted(TASKS))
@settings(max_examples=30, deadline=None)
@given(mode=st.sampled_from(list(GenomeMode)),
       recurrency=st.sampled_from([0.2, 0.6, 1.0]),
       use_weights=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_equal_program_keys_score_bitwise_equal(task, mode, recurrency, use_weights, seed):
    rng = np.random.default_rng(seed)
    s = DecodeSettings(recurrency=recurrency, input_start=-0.5, use_weights=use_weights)
    n_out, plain, data = TASKS[task]
    mutation = MutationParams(bounds=SizeBounds(4, 12), node_rate=0.05, output_rate=0.1,
                              input_rate=0.1)
    parent = random_genome(mode, 4, n_out, 8, rng)
    family = [parent, _silent_mutant(parent, s, rng)]
    family += [gene_mutation(parent, mutation, rng) for _ in range(6)]
    assert key(family[1], s) == key(parent, s)
    memo = MemoizedFitness(s, FSET, data=data, episode_len=EPISODE)
    scores = {}
    for g in family:
        value = plain(g, s).hex()
        assert memo(g).hex() == value
        assert scores.setdefault(key(g, s), value) == value


# ---------------------------------------------------------- memoized runs

def log_bytes(log, path):
    with _log_writer(path) as write:
        for r in log:
            write(r)
    return path.read_bytes()


@pytest.fixture(scope="module")
def blobs_csv(tmp_path_factory):
    """Three 4-feature Gaussian classes, 20 rows each, rows shuffled."""
    rng = np.random.default_rng(8)
    labels = np.repeat(np.arange(3), 20)
    x = rng.normal(0.0, 2.0, (3, 4))[labels] + rng.normal(0.0, 1.0, (60, 4))
    rows = ["f0,f1,f2,f3,label"]
    for i in rng.permutation(60):
        rows.append(",".join(repr(float(v)) for v in x[i]) + f",c{labels[i]}")
    path = tmp_path_factory.mktemp("data") / "blobs.csv"
    path.write_text("\n".join(rows) + "\n")
    return path


def small_config(preset, blobs_csv):
    cfg = dict(load_preset(preset))
    cfg.update(population=30, budget=300, seed=5)
    if cfg["task"] == "rl":
        cfg["episode_len"] = 200
    else:
        cfg["data"] = str(blobs_csv)
    return cfg


@pytest.mark.parametrize("preset", ["e3_rl", "e3_classification"])
def test_memoized_runs_log_what_memo_free_runs_log(preset, blobs_csv, tmp_path):
    cfg = small_config(preset, blobs_csv)
    logs = []
    for workers in (1, 3):
        cfg["workers"] = workers
        fit, n_in, n_out = make_fitness(cfg)
        params = build_evo_params(cfg, n_in, n_out)
        best, log = run_evolution(fit, params)
        # the best genome re-scores to the logged best with an empty memo
        # and without one
        assert make_fitness(cfg)[0](best) == log[-1].best_fitness
        memo_free = reference.make_fitness(cfg)[0]
        assert memo_free(best) == log[-1].best_fitness
        _, plain_log = run_evolution(memo_free, params)
        logs.append(log_bytes(log, tmp_path / f"memo{workers}.csv"))
        logs.append(log_bytes(plain_log, tmp_path / f"plain{workers}.csv"))
    assert len(fit._memo) < log[-1].evaluations       # repeats were answered
    assert logs[1:] == logs[:-1]


def test_eviction_keeps_logs_identical(blobs_csv, tmp_path, monkeypatch):
    cfg = small_config("e3_rl", blobs_csv)
    fit, n_in, n_out = make_fitness(cfg)
    params = build_evo_params(cfg, n_in, n_out)
    _, whole = run_evolution(fit, params)
    assert len(fit._memo) > 3
    monkeypatch.setattr(pcgp.bench, "MEMO_ENTRIES", 3)
    fit = make_fitness(cfg)[0]
    _, evicting = run_evolution(fit, params)
    assert len(fit._memo) == 3
    assert log_bytes(evicting, tmp_path / "a.csv") == log_bytes(whole, tmp_path / "b.csv")


def test_memoized_fitness_checks_shapes_before_decoding():
    wrong = random_genome(GenomeMode.CGP, 3, 1, 4, np.random.default_rng(0))
    for data in (None, DATA["classification"], DATA["regression"]):
        with pytest.raises(ConfigError):
            MemoizedFitness(DecodeSettings(), FSET, data=data)(wrong)
    with pytest.raises(ConfigError, match="episode length"):
        MemoizedFitness(DecodeSettings(), FSET, episode_len=0)(
            random_genome(GenomeMode.CGP, 4, 1, 4, np.random.default_rng(0)))
