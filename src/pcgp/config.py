"""Run configuration: JSON documents, validation, presets and sweeps.

A config is one flat JSON object whose keys mirror the dataclass field
names of EvoParams, DecodeSettings and MutationParams, plus the problem
binding (task, data, episode_len, functions) and genome sizing.  CLI
flags override these top-level scalars.  Bundled presets e0..e5 live in
the package's presets/ directory.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, fields
from importlib import resources

from .bench import TASKS, MemoizedFitness, load_csv
from .crossover import OPERATORS as CROSSOVER_OPERATORS
from .crossover import POSITIONAL_ONLY as POSITIONAL_CROSSOVERS
from .decode import DecodeSettings
from .errors import ConfigError, ParseError
from .evolve import EvoParams
from .functions import DEFAULT_FUNCTION_NAMES, FunctionSet
from .genome import GenomeMode, SizeBounds
from .mutate import OPERATORS as MUTATION_OPERATORS
from .mutate import POSITIONAL_ONLY as POSITIONAL_MUTATIONS
from .mutate import MutationParams

PROBLEM_TASKS = TASKS + ("rl",)


def _field_defaults(cls, skip=()) -> dict:
    """Config keys and defaults of the dataclass fields that have one."""
    return {{"lambda_": "lambda"}.get(f.name, f.name): f.default
            for f in fields(cls) if f.default is not MISSING and f.name not in skip}


DEFAULTS = {
    "mode": "CGP",
    "task": None,
    "data": None,
    "episode_len": 500,
    "functions": list(DEFAULT_FUNCTION_NAMES),
    "n_nodes": 20,
    "size_min": None,            # None: round(0.5 * n_nodes)
    "size_max": None,            # None: round(1.5 * n_nodes)
    **_field_defaults(DecodeSettings),
    **_field_defaults(MutationParams),
    **_field_defaults(EvoParams, skip=("settings",)),
}

# Tunable ranges; sweeps sample these, validation enforces them.
RANGES = {
    "lambda": (1, 10),
    "population": (20, 200),
    "input_start": (-1.0, -0.1),
    "recurrency": (0.0, 1.0),
    "input_rate": (0.0, 1.0),
    "output_rate": (0.1, 1.0),
    "node_rate": (0.1, 1.0),
    "delta_frac": (0.1, 0.5),
    "modify_rate": (0.1, 0.9),
    "elitism": (0.0, 0.8),
    "crossover_fraction": (0.1, 1.0),
    "mutation_fraction": (0.1, 1.0),
}
INT_KEYS = ("lambda", "population", "n_nodes", "size_min", "size_max", "budget",
            "seed", "workers", "tournament_size", "episode_len")
BOOL_KEYS = ("use_weights", "require_active", "add_inverted")
CHOICES = {
    "mode": ("CGP", "PCGP"),
    "task": (None, *PROBLEM_TASKS),
}
# Population values used when sweeping (tuning grid); validation accepts
# any integer in RANGES["population"] so hand-written configs may sit
# off-grid (the bundled e5 preset uses 50).
POPULATION_GRID = (20, 40, 60, 80, 100, 120, 140, 160, 200)
GRID_STEP = 0.1


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: invalid JSON ({e})") from None
    if not isinstance(cfg, dict):
        raise ParseError(f"{path}: config must be a JSON object")
    return cfg


def merge_config(*layers) -> dict:
    """Later layers override earlier ones; defaults underlie everything."""
    cfg = dict(DEFAULTS)
    for layer in layers:
        cfg.update(layer)
    return cfg


def _check_int(key, value, allow_none=False):
    if value is None and allow_none:
        return
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer, got {value!r}")


def _check_number(key, value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number, got {value!r}")


def validate_config(cfg: dict) -> None:
    """Raise ConfigError unless cfg describes a run that can start.

    The document is checked here: unknown keys, JSON types, the tuning
    RANGES and the problem binding.  Every other rule lives in the
    dataclasses, so the run objects are then built for a one-input,
    one-output problem and whatever they reject is a ConfigError too.
    """
    unknown = sorted(set(cfg) - set(DEFAULTS))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    merged = merge_config(cfg)
    for key, allowed in CHOICES.items():
        value = merged[key]
        if value not in allowed:
            raise ConfigError(f"{key} must be one of {allowed}, got {value!r}")
    for key in BOOL_KEYS:
        value = merged[key]
        if isinstance(value, int) and not isinstance(value, bool) and value in (0, 1):
            continue        # accept 0/1 spellings
        if not isinstance(value, bool):
            raise ConfigError(f"{key} must be true or false, got {value!r}")
    for key in INT_KEYS:
        _check_int(key, merged[key], allow_none=key in ("size_min", "size_max"))
    for key, (lo, hi) in RANGES.items():
        value = merged[key]
        _check_number(key, value)
        if not lo <= value <= hi:
            raise ConfigError(f"{key} {value} outside allowed range [{lo}, {hi}]")
    if merged["episode_len"] < 1:
        raise ConfigError("episode_len must be at least 1")
    names = merged["functions"]
    if (not isinstance(names, (list, tuple)) or not names
            or not all(isinstance(n, str) for n in names)):
        raise ConfigError("functions must be a non-empty list of names")
    if merged["task"] in TASKS and merged["data"] is not None \
            and not isinstance(merged["data"], str):
        raise ConfigError("data must be a file path string")
    try:
        build_evo_params(merged, 1, 1)
    except (ValueError, OverflowError) as e:
        # ValueError: SizeBounds, DecodeSettings or FunctionSet rejected a
        # value; OverflowError: n_nodes too large to derive size bounds from.
        raise ConfigError(str(e)) from None


def _size_bounds(merged) -> tuple:
    n = merged["n_nodes"]
    smin = merged["size_min"]
    smax = merged["size_max"]
    if smin is None:
        smin = round(0.5 * n)
    if smax is None:
        smax = round(1.5 * n)
    return smin, smax


def build_settings(cfg: dict) -> DecodeSettings:
    merged = merge_config(cfg)
    return DecodeSettings(recurrency=float(merged["recurrency"]),
                          input_start=float(merged["input_start"]),
                          use_weights=bool(merged["use_weights"]))


def build_mutation(cfg: dict) -> MutationParams:
    merged = merge_config(cfg)
    smin, smax = _size_bounds(merged)
    return MutationParams(bounds=SizeBounds(smin, smax),
                          node_rate=float(merged["node_rate"]),
                          output_rate=float(merged["output_rate"]),
                          input_rate=float(merged["input_rate"]),
                          require_active=bool(merged["require_active"]),
                          delta_frac=float(merged["delta_frac"]),
                          modify_rate=float(merged["modify_rate"]),
                          operator=merged["operator"],
                          add_inverted=bool(merged["add_inverted"]))


def build_functions(cfg: dict) -> FunctionSet:
    return FunctionSet.from_names(merge_config(cfg)["functions"])


def build_evo_params(cfg: dict, n_in: int, n_out: int) -> EvoParams:
    merged = merge_config(cfg)
    return EvoParams(mode=GenomeMode[merged["mode"]],
                     n_in=n_in,
                     n_out=n_out,
                     n_nodes=merged["n_nodes"],
                     mutation=build_mutation(cfg),
                     settings=build_settings(cfg),
                     functions=build_functions(cfg),
                     algorithm=merged["algorithm"],
                     lambda_=merged["lambda"],
                     population=merged["population"],
                     elitism=float(merged["elitism"]),
                     crossover_fraction=float(merged["crossover_fraction"]),
                     mutation_fraction=float(merged["mutation_fraction"]),
                     crossover=merged["crossover"],
                     budget=merged["budget"],
                     seed=merged["seed"],
                     workers=merged["workers"],
                     tournament_size=merged["tournament_size"])


def make_fitness(cfg: dict):
    """Bind the configured problem; returns (fit, n_in, n_out).

    fit is a fresh MemoizedFitness, so each call starts an empty memo.
    """
    merged = merge_config(cfg)
    task = merged["task"]
    settings = build_settings(cfg)
    fset = build_functions(cfg)
    if task is None:
        raise ConfigError("config sets no task")
    if task == "rl":
        return MemoizedFitness(settings, fset, episode_len=merged["episode_len"]), 4, 1
    if merged["data"] is None:
        raise ConfigError(f"task {task!r} needs a data file")
    d = load_csv(merged["data"], task)
    return MemoizedFitness(settings, fset, data=d), d.n_features, d.n_out


# ------------------------------------------------------------------ presets

def preset_names() -> list:
    root = resources.files("pcgp") / "presets"
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".json"))


def load_preset(name: str) -> dict:
    root = resources.files("pcgp") / "presets"
    path = root / f"{name}.json"
    if not path.is_file():
        raise ConfigError(f"unknown preset {name!r}; available: {preset_names()}")
    return json.loads(path.read_text())


# ------------------------------------------------------------------- sweeps

def _grid(lo, hi):
    count = int(round((hi - lo) / GRID_STEP)) + 1
    return [round(lo + GRID_STEP * k, 1) for k in range(count)]


def _pick(rng, values):
    return values[int(rng.integers(len(values)))]


def sweep_keys(cfg: dict) -> list:
    """Keys sampled for this config's algorithm/mode, in sampling order."""
    merged = merge_config(cfg)
    positional = merged["mode"] == "PCGP"
    keys = ["operator", "use_weights", "require_active",
            "recurrency", "node_rate", "output_rate",
            "delta_frac", "modify_rate"]
    if positional:
        keys += ["input_start", "input_rate"]
    if merged["algorithm"] == "ga":
        keys += ["crossover", "population", "elitism",
                 "crossover_fraction", "mutation_fraction"]
    else:
        keys += ["lambda"]
    return keys


def sample_config(cfg: dict, rng) -> dict:
    """One sweep trial: tunables drawn uniformly from their ranges.

    Reals are drawn on a 0.1 grid, population from the tuning grid;
    operator choices respect the genome mode, and population and lambda
    only take values the budget covers.  Everything else (mode,
    algorithm, problem, budget, seed) is inherited from cfg, which must
    be valid.
    """
    merged = merge_config(cfg)
    positional = merged["mode"] == "PCGP"
    budget = merged["budget"]
    out = dict(cfg)
    mutations = [op for op in MUTATION_OPERATORS
                 if positional or op not in POSITIONAL_MUTATIONS]
    crossovers = [op for op in CROSSOVER_OPERATORS
                  if positional or op not in POSITIONAL_CROSSOVERS]
    for key in sweep_keys(cfg):
        if key == "operator":
            out[key] = _pick(rng, mutations)
        elif key == "crossover":
            out[key] = _pick(rng, crossovers)
        elif key in BOOL_KEYS:
            out[key] = bool(rng.integers(2))
        elif key == "lambda":
            lo, hi = RANGES["lambda"]
            out[key] = int(rng.integers(lo, min(hi, budget - 1) + 1))
        elif key == "population":
            out[key] = _pick(rng, [p for p in POPULATION_GRID if p < budget])
        else:
            out[key] = _pick(rng, _grid(*RANGES[key]))
    return out
