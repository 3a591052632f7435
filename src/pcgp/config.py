"""Run configuration: JSON documents, validation, presets and sweeps.

A config is one flat JSON object.  Every key that names a field of
EvoParams, DecodeSettings or MutationParams (``lambda`` for ``lambda_``)
reaches that field, and its default and JSON type are the field's: a
float field takes any number, a bool field true, false, 0 or 1.  The
other keys are the genome mode and sizing (mode, n_nodes, size_min,
size_max) and the problem binding (task, data, episode_len, functions).
CLI flags override these top-level scalars.  Bundled presets e0..e5 live
in the package's presets/ directory.
"""

from __future__ import annotations

import json
from dataclasses import fields
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


_CONFIG_KEYS = {"lambda_": "lambda"}    # fields whose config key differs


def _field_defaults(cls) -> dict:
    """Config keys and defaults of the dataclass fields with a scalar default."""
    return {_CONFIG_KEYS.get(f.name, f.name): f.default for f in fields(cls)
            if isinstance(f.default, (int, float, str, type(None)))}


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
    **_field_defaults(EvoParams),
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
NULLABLE_INT_KEYS = ("size_min", "size_max")
INT_KEYS = (*(k for k, v in DEFAULTS.items() if type(v) is int), *NULLABLE_INT_KEYS)
BOOL_KEYS = tuple(k for k, v in DEFAULTS.items() if type(v) is bool)
CHOICES = {
    "mode": tuple(m.name for m in GenomeMode),
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
    except (OSError, UnicodeDecodeError) as e:
        raise ParseError(f"cannot read config {path}: {e}") from None
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
        _check_int(key, merged[key], allow_none=key in NULLABLE_INT_KEYS)
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


def _build(cls, merged: dict, **given):
    """A cls whose fields not in `given` are read from their config keys.

    A field with a float default gets float() and one with a bool
    default bool(), so 0 and 0.0, or 1 and true, build equal objects.
    """
    for f in fields(cls):
        if f.name not in given:
            value = merged[_CONFIG_KEYS.get(f.name, f.name)]
            if isinstance(f.default, (bool, float)):
                value = type(f.default)(value)
            given[f.name] = value
    return cls(**given)


def _mutation(merged: dict) -> MutationParams:
    n = merged["n_nodes"]
    smin, smax = merged["size_min"], merged["size_max"]
    bounds = SizeBounds(round(0.5 * n) if smin is None else smin,
                        round(1.5 * n) if smax is None else smax)
    return _build(MutationParams, merged, bounds=bounds)


def build_settings(cfg: dict) -> DecodeSettings:
    return _build(DecodeSettings, merge_config(cfg))


def build_mutation(cfg: dict) -> MutationParams:
    return _mutation(merge_config(cfg))


def build_functions(cfg: dict) -> FunctionSet:
    return FunctionSet.from_names(merge_config(cfg)["functions"])


def build_evo_params(cfg: dict, n_in: int, n_out: int) -> EvoParams:
    merged = merge_config(cfg)
    return _build(EvoParams, merged, mode=GenomeMode[merged["mode"]],
                  n_in=n_in, n_out=n_out, mutation=_mutation(merged),
                  settings=_build(DecodeSettings, merged),
                  functions=FunctionSet.from_names(merged["functions"]))


def make_fitness(cfg: dict):
    """Bind the configured problem; returns (fit, n_in, n_out).

    fit is a fresh MemoizedFitness, so each call starts an empty memo.
    """
    merged = merge_config(cfg)
    task = merged["task"]
    settings = _build(DecodeSettings, merged)
    fset = FunctionSet.from_names(merged["functions"])
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
