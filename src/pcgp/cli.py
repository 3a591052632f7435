"""Command line experiment runner.

Verbs: run (one seeded evolution with CSV log + best-genome JSON),
sweep (uniform random hyperparameter search, ranked CSV), export-dot
(genome to Graphviz), validate (config check only).  The log directory
defaults to $PCGP_LOG_DIR, then the current directory.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path

import numpy as np

from .config import (
    build_evo_params,
    load_config,
    load_preset,
    make_fitness,
    sample_config,
    sweep_keys,
    validate_config,
)
from .dot import to_dot
from .errors import CgpError, ConfigError, OutputError, ParseError
from .evolve import RunRecord, run_evolution
from .genome import from_json, to_json

LOG_DIR_VAR = "PCGP_LOG_DIR"
LOG_COLUMNS = tuple(f.name for f in fields(RunRecord))


def _resolve_config(token: str):
    """A config argument is a JSON file path or a bundled preset name."""
    if os.path.exists(token):
        return load_config(token), Path(token).stem
    if "/" not in token and "." not in token:
        return load_preset(token), token
    raise ConfigError(f"config file not found: {token}")


def _parse_overrides(pairs):
    out = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ConfigError(f"override {pair!r} is not KEY=VALUE")
        try:
            out[key] = json.loads(value)
        except json.JSONDecodeError:
            out[key] = value          # bare strings need no quoting
        except (ValueError, RecursionError) as e:   # the digit limit, deep nesting
            raise ParseError(f"override {key}: invalid JSON ({e})") from None
    return out


def _gather_config(args):
    cfg, tag = _resolve_config(args.config)
    cfg = dict(cfg)
    cfg.update(_parse_overrides(getattr(args, "overrides", [])))
    for key in ("seed", "budget", "task", "data"):
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    validate_config(cfg)
    return cfg, getattr(args, "tag", None) or tag


@contextmanager
def _output(path):
    """Report an OSError raised while writing path as an OutputError naming it."""
    try:
        yield
    except OSError as e:
        raise OutputError(f"cannot write {path}: {e.strerror or e}") from None


def _out_dir(args) -> Path:
    path = Path(args.out or os.environ.get(LOG_DIR_VAR) or ".")
    with _output(path):
        path.mkdir(parents=True, exist_ok=True)
    return path


@contextmanager
def _log_writer(path: Path):
    """Open a run log and write its header; yields a function that
    appends one RunRecord row and flushes it, so an interrupted run
    leaves every finished generation on disk."""
    with _output(path):
        fh = open(path, "w", newline="")
    with fh:
        writer = csv.writer(fh, lineterminator="\n")

        def write(row):
            with _output(path):
                writer.writerow(row)
                fh.flush()

        write(LOG_COLUMNS)
        yield lambda r: write([getattr(r, name) for name in LOG_COLUMNS])


def _cmd_run(args) -> int:
    cfg, tag = _gather_config(args)
    fit, n_in, n_out = make_fitness(cfg)
    params = build_evo_params(cfg, n_in, n_out)
    out = _out_dir(args)
    with _log_writer(out / f"{tag}_log.csv") as write:
        best, log = run_evolution(fit, params, on_record=write)
    best_path = out / f"{tag}_best.json"
    with _output(best_path):
        best_path.write_text(to_json(best) + "\n")
    print(f"best fitness: {log[-1].best_fitness}")
    return 0


def _cmd_sweep(args) -> int:
    if args.trials < 0:
        raise ConfigError(f"--trials must be >= 0, got {args.trials}")
    cfg, tag = _gather_config(args)
    out = _out_dir(args)
    keys = sweep_keys(cfg)
    rng = np.random.default_rng(args.sweep_seed)
    rows = []
    for trial in range(args.trials):
        sampled = sample_config(cfg, rng)
        validate_config(sampled)
        fit, n_in, n_out = make_fitness(sampled)
        params = build_evo_params(sampled, n_in, n_out)
        _, log = run_evolution(fit, params)
        rows.append((trial, log[-1].best_fitness, [sampled[k] for k in keys]))
    rows.sort(key=lambda row: (-row[1], row[0]))
    path = out / f"{tag}_sweep.csv"
    with _output(path), open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["trial", "best_fitness", *keys])
        for trial, fitness, values in rows:
            writer.writerow([trial, fitness, *values])
    print(f"wrote {path}")
    return 0


def _cmd_export_dot(args) -> int:
    cfg, _ = _gather_config(args)
    try:
        text = Path(args.genome).read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise ParseError(f"cannot read genome {args.genome}: {e}") from None
    genome = from_json(text)
    params = build_evo_params(cfg, genome.n_in, genome.n_out)
    dot = to_dot(genome, params.settings, params.functions)
    with _output(args.dest):
        Path(args.dest).write_text(dot)
    print(f"wrote {args.dest}")
    return 0


def _cmd_validate(args) -> int:
    _gather_config(args)
    print(f"{args.config}: configuration valid")
    return 0


def _add_config_options(sub, with_run_flags=True):
    sub.add_argument("config", help="config JSON path or bundled preset name")
    sub.add_argument("--set", dest="overrides", action="append", default=[],
                     metavar="KEY=VALUE", help="override a top-level config key")
    if with_run_flags:
        sub.add_argument("--seed", type=int)
        sub.add_argument("--budget", type=int)
        sub.add_argument("--task")
        sub.add_argument("--data")
        sub.add_argument("--out", help=f"output directory (default ${LOG_DIR_VAR} or .)")
        sub.add_argument("--tag", help="output file prefix (default config name)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcgp", description="Evolve floating-point CGP/PCGP programs.")
    verbs = parser.add_subparsers(dest="verb", required=True)

    run_p = verbs.add_parser("run", help="run one seeded evolution")
    _add_config_options(run_p)
    run_p.set_defaults(func=_cmd_run)

    sweep_p = verbs.add_parser("sweep", help="random hyperparameter search")
    _add_config_options(sweep_p)
    sweep_p.add_argument("--trials", type=int, required=True)
    sweep_p.add_argument("--sweep-seed", type=int, default=0,
                         help="seed for parameter sampling (runs use the config seed)")
    sweep_p.set_defaults(func=_cmd_sweep)

    dot_p = verbs.add_parser("export-dot", help="write a genome as Graphviz DOT")
    dot_p.add_argument("genome", help="genome JSON path")
    _add_config_options(dot_p, with_run_flags=False)
    dot_p.add_argument("dest", help="output DOT path")
    dot_p.set_defaults(func=_cmd_export_dot)

    val_p = verbs.add_parser("validate", help="check a config and exit")
    _add_config_options(val_p, with_run_flags=False)
    val_p.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CgpError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
