"""Tests for the CLI verbs and the DOT exporter."""

import csv
import json
import re
import subprocess
import sys

import numpy as np
import pytest

import pcgp.cli
from pcgp.cli import LOG_COLUMNS, main
from pcgp.config import build_evo_params, load_preset, make_fitness
from pcgp.decode import DecodeSettings
from pcgp.dot import to_dot
from pcgp.evolve import run_evolution
from pcgp.functions import default_functions
from pcgp.genome import GenomeMode, from_json, make_genome, random_genome, to_json

FSET = default_functions()

NODE_LINE = re.compile(r'^  \w+ \[shape=\w+, label="(?:[^"\\]|\\.)*"(?:, style=dashed)?\];$')
EDGE_LINE = re.compile(r"^  \w+ -> \w+( \[style=dashed\])?;$")


def assert_well_formed_dot(text):
    lines = text.rstrip("\n").split("\n")
    assert lines[0] == "digraph program {"
    assert lines[-1] == "}"
    for line in lines[1:-1]:
        assert line == "  rankdir=LR;" or NODE_LINE.match(line) \
            or EDGE_LINE.match(line), f"bad DOT line: {line!r}"


def write_config(tmp_path, name="cfg.json", **kw):
    path = tmp_path / name
    path.write_text(json.dumps(kw))
    return path


def regression_csv(tmp_path):
    rows = ["x,y"] + [f"{v},{2 * v}" for v in np.linspace(0, 1, 20)]
    path = tmp_path / "line.csv"
    path.write_text("\n".join(rows) + "\n")
    return path


# ---------------------------------------------------------------------- dot

def test_dot_zero_node_genome():
    g = make_genome(GenomeMode.CGP, 2, 1, [], [0.2])
    text = to_dot(g, DecodeSettings(), FSET)
    assert_well_formed_dot(text)
    assert "in0 [shape=box" in text and "in1 [shape=box" in text
    assert "out0 [shape=doublecircle" in text
    assert not re.search(r"^  n\d", text, re.M)   # no computational nodes
    assert "in0 -> out0;" in text


def test_dot_feedforward_has_no_dashed_edges():
    g = random_genome(GenomeMode.CGP, 2, 2, 6, np.random.default_rng(0))
    text = to_dot(g, DecodeSettings(), FSET)
    assert_well_formed_dot(text)
    for line in text.split("\n"):
        if "->" in line:
            assert "dashed" not in line


def test_dot_marks_recurrent_edges_and_inactive_nodes():
    # A self-feeding adder: at full recurrency the connections point at
    # the node itself.
    nodes = [[0.99, 0.99, 0.0625, 0.5]]
    g = make_genome(GenomeMode.CGP, 1, 1, nodes, [0.9])
    text = to_dot(g, DecodeSettings(recurrency=1.0), FSET)
    assert "n0 -> n0 [style=dashed];" in text
    # pad with junk: second node unused by the output
    nodes = [[0.2, 0.2, 0.0625, 0.5], [0.2, 0.2, 0.0625, 0.5]]
    g = make_genome(GenomeMode.CGP, 1, 1, nodes, [0.4])
    text = to_dot(g, DecodeSettings(), FSET)
    assert re.search(r'n1 \[shape=ellipse, label="add", style=dashed\];', text)


def test_dot_weight_labels():
    nodes = [[0.2, 0.2, 0.0625, 0.25]]
    g = make_genome(GenomeMode.CGP, 1, 1, nodes, [0.6])
    text = to_dot(g, DecodeSettings(use_weights=True), FSET)
    assert 'label="add w=0.25"' in text
    text = to_dot(g, DecodeSettings(), FSET)
    assert "w=" not in text


# ----------------------------------------------------------------- validate

def test_validate_preset_ok(capsys):
    assert main(["validate", "e4"]) == 0
    assert "configuration valid" in capsys.readouterr().out


def test_validate_range_violation(tmp_path, capsys):
    cfg = write_config(tmp_path, recurrency=1.5)
    assert main(["validate", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "recurrency 1.5" in err and "[0.0, 1.0]" in err


def test_validate_missing_file(capsys):
    assert main(["validate", "nope/missing.json"]) == 2
    assert "not found" in capsys.readouterr().err


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "pcgp.cli", *map(str, args)],
                          capture_output=True, text=True)


def assert_clean_error(proc):
    """Exit 2 with an `error:` line, as every input error ends."""
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert any(line.startswith("error: ") for line in proc.stderr.splitlines())


def test_run_missing_data_file_is_an_error(tmp_path):
    assert_clean_error(run_cli("run", "e4", "--task", "regression",
                               "--data", tmp_path / "missing.csv", "--out", tmp_path))


def test_run_data_directory_is_an_error(tmp_path):
    assert_clean_error(run_cli("run", "e4", "--task", "regression",
                               "--data", tmp_path, "--out", tmp_path))


def test_run_non_utf8_data_is_an_error(tmp_path):
    data = tmp_path / "latin.csv"
    data.write_bytes(b"x,y\n0.5,caf\xe9\n")
    assert_clean_error(run_cli("run", "e4", "--task", "regression",
                               "--data", data, "--out", tmp_path))


def test_validate_non_utf8_config_is_an_error(tmp_path):
    cfg = tmp_path / "latin.json"
    cfg.write_bytes(b'{"data": "caf\xe9"}')
    assert_clean_error(run_cli("validate", cfg))


def test_export_dot_missing_genome_is_an_error(tmp_path):
    dest = tmp_path / "out.dot"
    assert_clean_error(run_cli("export-dot", tmp_path / "nope.json", "e4", dest))
    assert not dest.exists()


def assert_output_error(proc, path):
    """A path that cannot be written ends like bad input, naming the path."""
    assert_clean_error(proc)
    assert f"error: cannot write {path}: " in proc.stderr


@pytest.mark.parametrize("verb", ["run", "sweep"])
def test_out_that_is_a_file_is_an_error(tmp_path, verb):
    out = tmp_path / "afile"
    out.write_text("")
    extra = ["--trials", "0"] if verb == "sweep" else []
    assert_output_error(run_cli(verb, "e0_rl", "--out", out, *extra), out)


def test_unwritable_log_is_an_error(tmp_path):
    data = regression_csv(tmp_path)
    log = tmp_path / "logs" / "e4_log.csv"
    log.mkdir(parents=True)
    assert_output_error(run_cli(*run_args(tmp_path, data)), log)


def test_unwritable_best_genome_is_an_error(tmp_path):
    data = regression_csv(tmp_path)
    best = tmp_path / "logs" / "e4_best.json"
    best.mkdir(parents=True)
    assert_output_error(run_cli(*run_args(tmp_path, data)), best)
    assert len((tmp_path / "logs" / "e4_log.csv").read_text().splitlines()) > 1


def test_unwritable_sweep_csv_is_an_error(tmp_path):
    table = tmp_path / "logs" / "e0_rl_sweep.csv"
    table.mkdir(parents=True)
    assert_output_error(run_cli("sweep", "e0_rl", "--trials", "0",
                                "--out", tmp_path / "logs"), table)


def test_export_dot_unwritable_destination_is_an_error(tmp_path):
    genome = tmp_path / "g.json"
    genome.write_text(to_json(random_genome(GenomeMode.CGP, 4, 1, 3,
                                            np.random.default_rng(0))))
    dest = tmp_path / "nodir" / "out.dot"
    assert_output_error(run_cli("export-dot", genome, "e0_rl", dest), dest)


def test_validate_override_can_break_config(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["validate", str(cfg), "--set", "lambda=99"]) == 2
    assert "lambda" in capsys.readouterr().err


def test_validate_unknown_function_is_a_config_error(capsys):
    assert main(["validate", "e0_rl", "--set", 'functions=["add","nope"]']) == 2
    assert "error: unknown functions" in capsys.readouterr().err


def test_validate_rejects_budget_run_would_reject(capsys):
    assert main(["validate", "e0_rl", "--set", "budget=3"]) == 2
    assert "error: budget 3 must cover" in capsys.readouterr().err


def test_run_rejects_ga_budget_that_only_covers_the_population(tmp_path, capsys):
    args = ["run", "e5", "--task", "rl", "--set", "episode_len=5",
            "--set", "population=20", "--budget", "20", "--out", str(tmp_path)]
    assert main(args) == 2
    assert "error: budget 20 must cover the initial population of 20" \
        in capsys.readouterr().err
    assert not (tmp_path / "e5_log.csv").exists()


# ---------------------------------------------------------------------- run

def run_args(tmp_path, data, extra=()):
    return ["run", "e4", "--set", "budget=40", "--set", "n_nodes=6",
            "--task", "regression", "--data", str(data),
            "--out", str(tmp_path / "logs"), *extra]


def test_run_writes_log_and_best(tmp_path, capsys):
    data = regression_csv(tmp_path)
    assert main(run_args(tmp_path, data)) == 0
    out = capsys.readouterr().out
    assert "best fitness:" in out
    log_path = tmp_path / "logs" / "e4_log.csv"
    with open(log_path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(LOG_COLUMNS)
    assert len(rows) > 1
    evals = [int(r[1]) for r in rows[1:]]
    assert evals == sorted(evals)
    assert evals[-1] >= 40
    best = from_json((tmp_path / "logs" / "e4_best.json").read_text())
    assert best.n_in == 1 and best.n_out == 1


def test_log_header_bytes(tmp_path):
    assert main(run_args(tmp_path, regression_csv(tmp_path))) == 0
    assert (tmp_path / "logs" / "e4_log.csv").read_bytes().startswith(
        b"generation,evaluations,best_fitness,mean_fitness,best_active_nodes\n")


def test_run_byte_identical_for_same_seed(tmp_path):
    data = regression_csv(tmp_path)
    assert main(run_args(tmp_path, data, ["--tag", "a"])) == 0
    assert main(run_args(tmp_path, data, ["--tag", "b"])) == 0
    assert main(run_args(tmp_path, data, ["--tag", "c", "--seed", "5"])) == 0
    logs = tmp_path / "logs"
    a = (logs / "a_log.csv").read_bytes()
    assert a == (logs / "b_log.csv").read_bytes()
    assert a != (logs / "c_log.csv").read_bytes()
    assert (logs / "a_best.json").read_bytes() == (logs / "b_best.json").read_bytes()


def test_run_uses_log_dir_env(tmp_path, monkeypatch):
    data = regression_csv(tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("PCGP_LOG_DIR", str(tmp_path / "envlogs"))
    args = run_args(tmp_path, data)
    args = [a for a in args if not str(a).startswith(str(tmp_path / "logs"))]
    args.remove("--out")
    assert main(args) == 0
    assert (tmp_path / "envlogs" / "e4_log.csv").exists()


def test_run_invalid_config_exits_before_evaluation(tmp_path, capsys):
    data = regression_csv(tmp_path)
    args = run_args(tmp_path, data, ["--set", "crossover=aligned_node",
                                     "--set", "algorithm=ga"])
    assert main(args) == 2
    assert "positional" in capsys.readouterr().err
    assert not (tmp_path / "logs").exists()


def test_run_classification_preset(tmp_path, capsys):
    data = tmp_path / "c.csv"
    data.write_text("a,b,label\n0,1,p\n1,0,q\n0.9,0.2,q\n0.1,0.8,p\n")
    args = ["run", "e1_classification", "--set", "budget=30",
            "--set", "n_nodes=6", "--data", str(data),
            "--out", str(tmp_path / "logs")]
    assert main(args) == 0
    assert (tmp_path / "logs" / "e1_classification_log.csv").exists()


def run_config(data):
    """The config run_args hands to pcgp run."""
    return {**load_preset("e4"), "budget": 40, "n_nodes": 6,
            "task": "regression", "data": str(data)}


def whole_log_bytes(log, path):
    """The log file as written after the run, from the finished record list."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(LOG_COLUMNS)
        for r in log:
            writer.writerow([r.generation, r.evaluations, r.best_fitness,
                             r.mean_fitness, r.best_active_nodes])
    return path.read_bytes()


def test_streamed_log_equals_log_written_after_the_run(tmp_path):
    data = regression_csv(tmp_path)
    assert main(run_args(tmp_path, data)) == 0
    cfg = run_config(data)
    fit, n_in, n_out = make_fitness(cfg)
    _, log = run_evolution(fit, build_evo_params(cfg, n_in, n_out))
    assert len(log) > 1
    streamed = (tmp_path / "logs" / "e4_log.csv").read_bytes()
    assert streamed == whole_log_bytes(log, tmp_path / "whole.csv")


def test_interrupted_run_leaves_every_finished_generation(tmp_path, monkeypatch):
    data = regression_csv(tmp_path)
    assert main(run_args(tmp_path, data, ["--tag", "whole"])) == 0
    whole = (tmp_path / "logs" / "whole_log.csv").read_bytes().splitlines(keepends=True)

    def interrupted_fitness(cfg):
        fit, n_in, n_out = make_fitness(cfg)
        calls = [0]

        def counting(g):
            calls[0] += 1
            if calls[0] == 14:
                raise KeyboardInterrupt
            return fit(g)
        return counting, n_in, n_out

    monkeypatch.setattr(pcgp.cli, "make_fitness", interrupted_fitness)
    with pytest.raises(KeyboardInterrupt):
        main(run_args(tmp_path, data, ["--tag", "cut"]))
    cut = (tmp_path / "logs" / "cut_log.csv").read_bytes().splitlines(keepends=True)
    # e4 evaluates one parent, then lambda = 5 children per generation:
    # calls 2-6 and 7-11 finish generations 1 and 2, call 14 is in the third
    assert cut == whole[:3]
    assert not (tmp_path / "logs" / "cut_best.json").exists()


# -------------------------------------------------------------------- sweep

def test_sweep_zero_trials_writes_header_only(tmp_path):
    cfg = write_config(tmp_path, task="rl", episode_len=10, budget=12,
                       n_nodes=4, **{"lambda": 2})
    out = tmp_path / "logs"
    assert main(["sweep", str(cfg), "--trials", "0", "--out", str(out)]) == 0
    with open(out / "cfg_sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1
    assert rows[0][:2] == ["trial", "best_fitness"]


def test_sweep_negative_trials_is_an_error(tmp_path, capsys):
    cfg = write_config(tmp_path, task="rl", episode_len=10, budget=12,
                       n_nodes=4, **{"lambda": 2})
    out = tmp_path / "logs"
    assert main(["sweep", str(cfg), "--trials", "-1", "--out", str(out)]) == 2
    assert "error: --trials must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_ranks_descending(tmp_path):
    cfg = write_config(tmp_path, task="rl", episode_len=10, budget=12,
                       n_nodes=4, **{"lambda": 2})
    out = tmp_path / "logs"
    assert main(["sweep", str(cfg), "--trials", "4", "--out", str(out)]) == 0
    with open(out / "cfg_sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 5
    fits = [float(r[1]) for r in rows[1:]]
    assert fits == sorted(fits, reverse=True)
    trials = sorted(int(r[0]) for r in rows[1:])
    assert trials == [0, 1, 2, 3]


def test_ga_sweep_draws_only_populations_the_budget_covers(tmp_path):
    cfg = write_config(tmp_path, task="rl", episode_len=5, budget=100, n_nodes=4,
                       algorithm="ga", crossover="single_point")
    out = tmp_path / "logs"
    assert main(["sweep", str(cfg), "--trials", "4", "--out", str(out)]) == 0
    with open(out / "cfg_sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert sorted(int(r["trial"]) for r in rows) == [0, 1, 2, 3]
    assert all(int(r["population"]) < 100 for r in rows)


# --------------------------------------------------------------- export-dot

def test_export_dot_roundtrip(tmp_path):
    g = random_genome(GenomeMode.PCGP, 2, 1, 5, np.random.default_rng(2))
    genome_path = tmp_path / "g.json"
    genome_path.write_text(to_json(g))
    cfg = write_config(tmp_path, mode="PCGP", recurrency=0.5, input_start=-0.5)
    dest = tmp_path / "g.dot"
    assert main(["export-dot", str(genome_path), str(cfg), str(dest)]) == 0
    assert_well_formed_dot(dest.read_text())


def test_export_dot_invalid_genome(tmp_path, capsys):
    genome_path = tmp_path / "g.json"
    genome_path.write_text("{\"mode\": \"CGP\"}")
    cfg = write_config(tmp_path)
    assert main(["export-dot", str(genome_path), str(cfg),
                 str(tmp_path / "g.dot")]) == 2
    assert capsys.readouterr().err


def test_export_dot_nan_gene_is_an_error(tmp_path, capsys):
    genome_path = tmp_path / "nan.json"
    genome_path.write_text('{"mode": "CGP", "n_in": 4, "n_out": 1, '
                           '"nodes": [[NaN, 0.1, 0.2, 0.3]], "outputs": [0.5]}')
    assert main(["export-dot", str(genome_path), "e0_rl",
                 str(tmp_path / "out.dot")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out.dot").exists()


# ------------------------------------------------------------- entry points

def test_module_entry_point(tmp_path):
    proc = subprocess.run([sys.executable, "-m", "pcgp.cli", "validate", "e5"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "configuration valid" in proc.stdout


def test_bad_override_syntax(tmp_path, capsys):
    assert main(["validate", "e4", "--set", "lambda"]) == 2
    assert "KEY=VALUE" in capsys.readouterr().err
