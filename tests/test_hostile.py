"""Hostile inputs, one row each: the input check it reaches and its rule.

ROWS is a hand-written table.  Each row calls the package with one
hostile input and names the outcome the check documents: the exception
and its message, or the value returned.  A new input check adds a row.
"""

import contextlib
import dataclasses
import io
import re
import subprocess
import sys
import warnings
from collections import namedtuple

import numpy as np
import pytest

from pcgp.bench import load_csv
from pcgp.cli import main
from pcgp.config import (
    build_evo_params, load_config, make_fitness, merge_config, validate_config,
)
from pcgp.decode import DecodeSettings, decode, invert_connection_position
from pcgp.evolve import evaluate_population, run_evolution
from pcgp.execute import step
from pcgp.functions import FunctionSet
from pcgp.genome import Genome, GenomeMode, derive, from_json, make_genome, random_genome
from pcgp.streams import Streams, _ReadySeed

from test_decode import snapped


def written(path, text):
    path.write_text(text)
    return path


def under_a_file(tmp):
    """A directory path whose parent is a regular file: mkdir fails, even as root."""
    return written(tmp / "file", "") / "logs"


def cli(*argv):
    """main's exit code and what it printed to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return f"exit {code}, {err.getvalue().strip()}"


def cli_process(*argv):
    """The exit code and stderr of `python -m pcgp.cli argv` in a new process."""
    done = subprocess.run([sys.executable, "-m", "pcgp.cli", *map(str, argv)],
                          capture_output=True, text=True)
    return f"exit {done.returncode}, {done.stderr.strip()}"


DEEP = "[" * 100000                     # past the interpreter's recursion limit
LONG_INT = "1" * 5000                   # past int's 4300-digit parsing limit


def evo_params(**changes):
    """The default EvoParams of a 1-input, 1-output problem, with changes."""
    return dataclasses.replace(build_evo_params(merge_config({}), 1, 1), **changes)


def scored(fit):
    """evaluate_population's scores of one genome under fit, in generation
    3 after 40 evaluations, and the messages of the warnings it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        return evaluate_population([None], fit, 3, 40), [str(w.message) for w in caught]


FAILED = r"RuntimeError: fitness evaluation failed in generation 3 after 40 evaluations <- "


def cartpole_run(**cfg):
    """A short cart-pole run of cfg: the sizes of every genome it scored,
    its best genome's decoded graph and its log."""
    cfg = {"task": "rl", "episode_len": 20, "budget": 60, **cfg}
    fit, n_in, n_out = make_fitness(cfg)
    params = build_evo_params(cfg, n_in, n_out)
    sizes = set()

    def sized(g):
        sizes.add(g.n_nodes)
        return fit(g)

    best, log = run_evolution(sized, params)
    return sizes, decode(best, params.settings, params.functions), log


def zero_node_runs():
    """Whether each output of each mode's best genome snaps to an input,
    and every logged best_active_nodes, in runs at n_nodes 0."""
    to_input, active = set(), set()
    for mode in ("CGP", "PCGP"):
        _, graph, log = cartpole_run(mode=mode, n_nodes=0)
        to_input.update(t < graph.n_in for t in graph.output_list)
        active.update(r.best_active_nodes for r in log)
    return to_input, active


def fixed_size_runs():
    """The sizes scored in mixed_node runs with size_min == size_max,
    under either growth bias."""
    sizes = set()
    for inverted in (False, True):
        sizes |= cartpole_run(operator="mixed_node", n_nodes=6, size_min=6, size_max=6,
                              add_inverted=inverted)[0]
    return sizes


def stepped(dtype):
    """step's outputs from a zero state of dtype on one add node reading
    its single input twice, at input 0.3."""
    g = make_genome(GenomeMode.CGP, 1, 1, [[0.1, 0.1, 0.5, 0.5]], [0.9])
    graph = decode(g, DecodeSettings(), FunctionSet.from_names(("add",)))
    return step(graph, np.zeros(1, dtype), [0.3])[0].tolist()


def sorted_pcgp_nodes():
    """The (position, x) genes of a PCGP genome built from nodes out of
    position order, two of them tied at 0.7."""
    nodes = np.array([[0.7, 0.9, 0.5, 0.5, 0.5], [0.2, 0.5, 0.5, 0.5, 0.5],
                      [0.7, 0.1, 0.5, 0.5, 0.5]])
    g = Genome(GenomeMode.PCGP, 1, 1, nodes, np.array([0.5]), np.array([0.5]))
    return g.nodes[:, :2].tolist()


def compared():
    """g == a genome of g's genes, one that differs from g only in its
    input gene, g with -0.0 for a 0.0 gene, and a non-genome."""
    g = make_genome(GenomeMode.PCGP, 1, 1, [[0.0, 0.5, 0.5, 0.5, 0.5]], [0.5], [0.5])
    return (g == make_genome(GenomeMode.PCGP, 1, 1, g.nodes, g.outputs, g.inputs),
            g == derive(g, inputs=np.array([0.25])),
            g == derive(g, nodes=np.array([[-0.0, 0.5, 0.5, 0.5, 0.5]])),
            g == "genome")


# name, call(tmp_path), outcome: a regex matched from the start of
# "<exception type>: <message>", followed by " <- <type>: <message>" of
# its cause if it has one, or of "returns <repr of the value>"
Row = namedtuple("Row", "name call outcome")
ROWS = [
    Row("load_csv-unreadable-file",
        lambda tmp: load_csv(tmp, "regression"), r"DatasetError: cannot read "),
    Row("load_csv-one-column",
        lambda tmp: load_csv(written(tmp / "t.csv", "t\n1\n2\n"), "regression"),
        r"DatasetError: .*need at least one feature and a target column"),
    # data cells (load_csv): features and regression targets are finite
    # numbers, a class label is text
    Row("load_csv-nan-feature",
        lambda tmp: load_csv(written(tmp / "t.csv", "x,t\n1,a\nnan,b\n"), "classification"),
        r"DatasetError: .* row 3 column 1 \('x'\): non-finite feature 'nan'$"),
    Row("load_csv-inf-target",
        lambda tmp: load_csv(written(tmp / "t.csv", "x,y\n1,2\n2,inf\n"), "regression"),
        r"DatasetError: .* row 3 column 2 \('y'\): non-finite target 'inf'$"),
    Row("load_csv-field-over-the-limit",
        lambda tmp: load_csv(written(tmp / "t.csv", "x,t\n1," + "a" * 131073 + "\n"),
                             "classification"),
        r"DatasetError: cannot read .*t\.csv: field larger than field limit \(131072\)$"),
    Row("load_csv-nan-class-label",
        lambda tmp: load_csv(written(tmp / "t.csv", "x,t\n1,nan\n2,a\n"),
                             "classification").labels,
        r"returns \('nan', 'a'\)$"),
    # JSON readers: nesting past the recursion limit and integers past
    # the digit limit are malformed documents, not tracebacks
    Row("load_config-deep-nesting",
        lambda tmp: load_config(written(tmp / "deep.json", DEEP)),
        r"ParseError: .*deep\.json: invalid JSON \(maximum recursion depth exceeded"),
    Row("load_config-long-integer",
        lambda tmp: load_config(written(tmp / "long.json", f'{{"budget": {LONG_INT}}}')),
        r"ParseError: .*long\.json: invalid JSON \(Exceeds the limit \(4300 digits\)"),
    Row("from_json-deep-nesting", lambda tmp: from_json(DEEP),
        r"ParseError: not valid JSON: maximum recursion depth exceeded.* <- RecursionError: "),
    Row("from_json-long-n_in",
        lambda tmp: from_json(f'{{"mode": "CGP", "n_in": {LONG_INT}, "n_out": 1, '
                              '"nodes": [], "outputs": [0.5]}'),
        r"ParseError: not valid JSON: Exceeds the limit \(4300 digits\).* <- ValueError: "),
    Row("cli-set-deep-nesting",
        lambda tmp: cli("validate", "e0_rl", "--set", "n_nodes=" + DEEP),
        r"returns .exit 2, error: override n_nodes: invalid JSON \(maximum recursion depth"),
    Row("cli-set-long-integer",
        lambda tmp: cli("validate", "e0_rl", "--set", "budget=" + LONG_INT),
        r"returns .exit 2, error: override budget: invalid JSON \(Exceeds the limit"),
    Row("cli-validate-deep-config-in-a-process",
        lambda tmp: cli_process("validate", written(tmp / "deep.json", DEEP)),
        r"returns .exit 2, error: .*deep\.json: invalid JSON \(maximum recursion depth"
        r" exceeded while decoding a JSON array from a unicode string\).$"),
    Row("validate_config-episode_len-0",
        lambda tmp: validate_config({"episode_len": 0}),
        r"ConfigError: episode_len must be at least 1"),
    Row("validate_config-data-not-a-string",
        lambda tmp: validate_config({"task": "regression", "data": 3}),
        r"ConfigError: data must be a file path string"),
    Row("EvoParams-n_in-0",
        lambda tmp: build_evo_params(merge_config({}), 0, 1),
        r"ConfigError: invalid genome shape"),
    # validate_config's RANGES stop a negative elitism first; the dataclass
    # holds the rule for run objects built without it
    Row("EvoParams-negative-elitism",
        lambda tmp: build_evo_params(merge_config({"elitism": -0.1}), 1, 1),
        r"ConfigError: elitism must be non-negative"),
    # NaN and inf shares would reach the GA's rounding as a bare
    # ValueError or OverflowError, and 1+lambda would keep them
    Row("EvoParams-nan-elitism",
        lambda tmp: build_evo_params(merge_config({"elitism": float("nan")}), 1, 1),
        r"ConfigError: elitism must be non-negative"),
    # integer fields must be ints, as validate_config's type tables
    # require: 2.5 and NaN are not counts, and True is not a number
    Row("EvoParams-fractional-lambda", lambda tmp: evo_params(lambda_=2.5),
        r"ConfigError: lambda must be an integer, got 2\.5$"),
    Row("EvoParams-nan-population", lambda tmp: evo_params(population=float("nan")),
        r"ConfigError: population must be an integer, got nan$"),
    Row("EvoParams-nan-budget", lambda tmp: evo_params(budget=float("nan")),
        r"ConfigError: budget must be an integer, got nan$"),
    Row("EvoParams-bool-lambda", lambda tmp: evo_params(lambda_=True),
        r"ConfigError: lambda must be an integer, got True$"),
    Row("EvoParams-inf-mutation_fraction",
        lambda tmp: build_evo_params(
            merge_config({"algorithm": "ga", "crossover_fraction": 0.0,
                          "mutation_fraction": float("inf")}), 1, 1),
        r"ConfigError: mutation_fraction must be non-negative"),
    Row("FunctionSet-empty",
        lambda tmp: FunctionSet(()), r"ValueError: function set must be non-empty"),
    Row("genome-n_out-0",
        lambda tmp: make_genome(GenomeMode.CGP, 1, 0, np.zeros((0, 4)), []),
        r"ValueError: need n_in >= 1 and n_out >= 1, got 1/0"),
    # make_genome shapes only an empty node list; any other block must
    # already be rows of the mode's width (genome._check)
    Row("make_genome-rows-of-the-wrong-width",
        lambda tmp: make_genome(GenomeMode.CGP, 1, 1, [[0.1, 0.2, 0.3]] * 4, [0.5]),
        r"ValueError: expected nodes of 4 genes, got shape \(4, 3\)$"),
    Row("make_genome-flat-node-list",
        lambda tmp: make_genome(GenomeMode.CGP, 1, 1, [0.1] * 8, [0.5]),
        r"ValueError: expected nodes of 4 genes, got shape \(8,\)$"),
    # output and input genes are not re-chunked either
    Row("make_genome-output-column",
        lambda tmp: make_genome(GenomeMode.CGP, 1, 2, [], [[0.2], [0.8]]),
        r"ValueError: expected 2 output genes, got shape \(2, 1\)$"),
    Row("make_genome-input-row-block",
        lambda tmp: make_genome(GenomeMode.PCGP, 2, 1, [], [0.5], [[0.1, 0.2]]),
        r"ValueError: expected 2 input position genes, got shape \(1, 2\)$"),
    # the gene range check (genome._check): NaN fails it, and the message names the array
    Row("make_genome-nan-node-gene",
        lambda tmp: make_genome(GenomeMode.CGP, 1, 1, [[0.5, np.nan, 0.5, 0.5]], [0.5]),
        r"ValueError: node genes outside \[0, 1\]$"),
    Row("make_genome-output-gene-1.5",
        lambda tmp: make_genome(GenomeMode.CGP, 1, 1, [[0.5] * 4], [1.5]),
        r"ValueError: output genes outside \[0, 1\]$"),
    Row("make_genome-input-gene-negative",
        lambda tmp: make_genome(GenomeMode.PCGP, 1, 1, [[0.5] * 5], [0.5], [-0.1]),
        r"ValueError: input genes outside \[0, 1\]$"),
    Row("derive-nan-in-fresh-node-block",
        lambda tmp: derive(random_genome(GenomeMode.PCGP, 1, 1, 2, np.random.default_rng(0)),
                           nodes=np.array([[0.2, 0.5, 0.5, 0.5, 0.5],
                                           [0.7, 0.5, np.nan, 0.5, 0.5]])),
        r"ValueError: node genes outside \[0, 1\]$"),
    Row("random_genome-negative-n_nodes",
        lambda tmp: random_genome(GenomeMode.CGP, 1, 1, -1, np.random.default_rng(0)),
        r"ValueError: n_nodes must be non-negative"),
    # Genome's constructor stores PCGP nodes in position order, stable on ties
    Row("Genome-sorts-pcgp-nodes-stably", lambda tmp: sorted_pcgp_nodes(),
        r"returns \[\[0\.2, 0\.5\], \[0\.7, 0\.9\], \[0\.7, 0\.1\]\]$"),
    # equality is mode, counts and flatten bytes, so -0.0 is not 0.0;
    # genomes are unhashable
    Row("Genome-equality", lambda tmp: compared(), r"returns \(True, False, False, False\)$"),
    Row("Genome-hash",
        lambda tmp: hash(random_genome(GenomeMode.CGP, 1, 1, 2, np.random.default_rng(0))),
        r"TypeError: unhashable type: 'Genome'$"),
    # at input_start 0 a node at 0.0 without recurrency reaches nothing
    Row("invert_connection_position-zero-reach",
        lambda tmp: invert_connection_position(
            0.0, 0.0, DecodeSettings(recurrency=0.0, input_start=0.0)),
        r"returns 0\.0$"),
    Row("ReadySeed-other-word-count",
        lambda tmp: _ReadySeed(np.zeros(4, np.uint64)).generate_state(2),
        r"ValueError: only the 4 uint64 words PCG64 asks for are ready"),
    Row("Streams-negative-generation",
        lambda tmp: Streams(0, 1)(-1, 0),
        r"ValueError: generation must be non-negative, got -1"),
    Row("Streams-negative-seed",
        lambda tmp: Streams(-1, 3), r"ValueError: seed must be non-negative, got -1"),
    # step updates a float copy of the state it is given
    Row("step-integer-state",
        lambda tmp: (stepped(float), stepped(int), stepped(bool)),
        r"returns \(\[0\.6\], \[0\.6\], \[0\.6\]\)$"),
    Row("cli-unwritable-out",
        lambda tmp: cli("run", "e0_rl", "--budget", 10, "--out", under_a_file(tmp)),
        r"returns .exit 2, error: cannot write .*logs"),
    Row("cli-export-dot-unreadable-genome",
        lambda tmp: cli("export-dot", tmp, "e0_rl", tmp / "out.dot"),
        r"returns .exit 2, error: cannot read genome "),
    # the fitness value rule (evaluate_population): float(fit(g)), NaN to -inf
    Row("evaluate_population-raising-fitness",
        lambda tmp: scored(lambda g: 1 / 0), FAILED + r"ZeroDivisionError: division by zero$"),
    Row("evaluate_population-nan", lambda tmp: scored(lambda g: float("nan")),
        r"returns \(\[-inf\], \['fitness evaluation returned NaN; using sentinel'\]\)$"),
    Row("evaluate_population-one-element-array",
        lambda tmp: scored(lambda g: np.array([0.5])), FAILED + r"TypeError: "),
    Row("evaluate_population-none",
        lambda tmp: scored(lambda g: None), FAILED + r"TypeError: float\(\) argument must be"),
    Row("evaluate_population-numeric-string",
        lambda tmp: scored(lambda g: "0.25"), r"returns \(\[0\.25\], \[\]\)$"),
    # beside -inf, +inf would make a generation's mean fitness NaN
    Row("evaluate_population-plus-inf",
        lambda tmp: scored(lambda g: float("inf")),
        FAILED + r"ValueError: fitness evaluation returned \+inf$"),
    # degenerate sizes: with no nodes the only entities are the inputs
    # (decode), and at size_min == size_max the mixed operators never
    # change the size (SizeBounds)
    Row("run-n_nodes-0", lambda tmp: zero_node_runs(), r"returns \(\{True\}, \{0\}\)$"),
    Row("mixed_node-size_min-equals-size_max",
        lambda tmp: fixed_size_runs(), r"returns \{6\}$"),
    # position ties (decode's snapping rule): the smallest index at one
    # position, the lower position on a distance tie, -0.0 and 0.0 as one
    # position; test_decode.py::test_snap_rule_holds_a_few_ulps_apart
    # holds the rule for positions a few ulps apart
    Row("snap-position-ties",
        lambda tmp: (snapped(0.3, [(3, 0.25), (1, 0.25), (2, 0.75)]),
                     snapped(0.5, [(1, 0.75), (0, 0.25)]),
                     snapped(0.0, [(2, 0.0), (1, -0.0)])),
        r"returns \(1, 0, 1\)$"),
]


def outcome(call, tmp_path) -> str:
    try:
        return f"returns {call(tmp_path)!r}"
    except Exception as e:
        cause = e.__cause__
        return f"{type(e).__name__}: {e}" + (
            "" if cause is None else f" <- {type(cause).__name__}: {cause}")


@pytest.mark.parametrize("row", ROWS, ids=lambda row: row.name)
def test_hostile_input(row, tmp_path):
    got = outcome(row.call, tmp_path)
    assert re.match(row.outcome, got), got
