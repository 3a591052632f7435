"""Tests for config documents, validation, presets and sweep sampling."""

import math
from dataclasses import dataclass, fields, is_dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pcgp.config import (
    BOOL_KEYS,
    CHOICES,
    DEFAULTS,
    POPULATION_GRID,
    PROBLEM_TASKS,
    RANGES,
    _build,
    build_evo_params,
    load_config,
    load_preset,
    make_fitness,
    merge_config,
    preset_names,
    sample_config,
    sweep_keys,
    validate_config,
)
from pcgp.crossover import OPERATORS as CROSSOVER_OPERATORS
from pcgp.decode import DecodeSettings
from pcgp.errors import ConfigError, ParseError
from pcgp.evolve import ALGORITHMS, EvoParams
from pcgp.functions import DEFAULT_FUNCTION_NAMES, FunctionSet
from pcgp.genome import GenomeMode
from pcgp.mutate import OPERATORS as MUTATION_OPERATORS
from pcgp.mutate import MutationParams

from reference import oracle_evo_params, oracle_mutation, oracle_settings


def test_merge_layers_defaults_under_overrides():
    cfg = merge_config({"recurrency": 0.4}, {"recurrency": 0.7, "seed": 3})
    assert cfg["recurrency"] == 0.7
    assert cfg["seed"] == 3
    assert cfg["budget"] == DEFAULTS["budget"]


def test_load_config_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError):
        load_config(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1,2]")
    with pytest.raises(ParseError):
        load_config(arr)
    for unreadable in (tmp_path / "missing.json", tmp_path):
        with pytest.raises(ParseError, match="cannot read config"):
            load_config(unreadable)
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"data": "\xe9"}')
    with pytest.raises(ParseError, match="cannot read config"):
        load_config(latin)


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown config keys: recurency"):
        validate_config({"recurency": 0.5})


def test_range_violation_cites_the_range():
    with pytest.raises(ConfigError, match=r"recurrency 1.5 outside allowed range \[0.0, 1.0\]"):
        validate_config({"recurrency": 1.5})
    with pytest.raises(ConfigError, match=r"\[-1.0, -0.1\]"):
        validate_config({"mode": "PCGP", "input_start": -0.05})
    with pytest.raises(ConfigError, match=r"\[1, 10\]"):
        validate_config({"lambda": 11})
    with pytest.raises(ConfigError, match=r"\[20, 200\]"):
        validate_config({"algorithm": "ga", "crossover": "single_point",
                         "population": 19})


def test_off_grid_population_is_still_valid():
    validate_config({"algorithm": "ga", "crossover": "single_point",
                     "population": 50})


def test_type_checks():
    with pytest.raises(ConfigError, match="must be an integer"):
        validate_config({"lambda": 2.5})
    with pytest.raises(ConfigError, match="must be true or false"):
        validate_config({"use_weights": "yes"})
    validate_config({"use_weights": 1, "require_active": 0})  # 0/1 accepted
    with pytest.raises(ConfigError, match="must be one of"):
        validate_config({"mode": "cgp"})
    with pytest.raises(ConfigError, match="must be one of"):
        validate_config({"operator": "swap"})
    with pytest.raises(ConfigError, match="crossover"):
        validate_config({"crossover": "merge"})


def test_structural_checks():
    with pytest.raises(ConfigError, match="budget"):
        validate_config({"budget": 0})
    with pytest.raises(ConfigError, match="size bounds"):
        validate_config({"size_min": 30, "size_max": 10})
    with pytest.raises(ConfigError, match="n_nodes"):
        validate_config({"n_nodes": 5, "size_min": 10, "size_max": 40})
    with pytest.raises(ConfigError, match="functions"):
        validate_config({"functions": []})
    with pytest.raises(ConfigError, match="unknown functions"):
        validate_config({"functions": ["add", "nope"]})
    with pytest.raises(ConfigError, match="too large"):
        validate_config({"n_nodes": 10**400})


def test_mode_compatibility_checks():
    with pytest.raises(ConfigError, match="positional"):
        validate_config({"algorithm": "ga", "crossover": "aligned_node"})
    with pytest.raises(ConfigError, match="positional"):
        validate_config({"operator": "mixed_subgraph"})
    validate_config({"mode": "PCGP", "algorithm": "ga", "crossover": "subgraph"})
    with pytest.raises(ConfigError, match="crossover operator"):
        validate_config({"algorithm": "ga"})          # share 0.5, no operator


# Values that pass every key, type and range check, so that drawn configs
# reach the rules the run objects enforce (sizes, budgets, operator and
# mode compatibility, function names).
DOCUMENT_VALID = {
    "mode": st.sampled_from(["CGP", "PCGP"]),
    "task": st.sampled_from([None, *PROBLEM_TASKS]),
    "data": st.none() | st.text(max_size=5),
    "episode_len": st.integers(1, 600),
    "functions": st.lists(st.sampled_from([*DEFAULT_FUNCTION_NAMES, "nope"]),
                          min_size=1, max_size=4),
    "algorithm": st.sampled_from([*ALGORITHMS, "hill_climb"]),
    "operator": st.sampled_from([*MUTATION_OPERATORS, "swap"]),
    "crossover": st.sampled_from([None, *CROSSOVER_OPERATORS, "merge"]),
    "n_nodes": st.integers(-3, 60),
    "size_min": st.none() | st.integers(-3, 60),
    "size_max": st.none() | st.integers(-3, 60),
    "lambda": st.integers(*RANGES["lambda"]),
    "population": st.integers(*RANGES["population"]),
    "budget": st.integers(-1, 300),
    "seed": st.integers(-2, 2**40),
    "workers": st.integers(-1, 4),
    "tournament_size": st.integers(-1, 5),
    **{key: st.booleans() | st.sampled_from([0, 1]) for key in BOOL_KEYS},
}
for _key, (_lo, _hi) in RANGES.items():
    # Integer spellings of real keys too, so that a lost float() shows.
    _whole = (st.integers(math.ceil(_lo), math.floor(_hi))
              if math.ceil(_lo) <= math.floor(_hi) else st.nothing())
    DOCUMENT_VALID.setdefault(_key, st.floats(_lo, _hi) | _whole)
assert set(DOCUMENT_VALID) == set(DEFAULTS)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=4)


@settings(max_examples=200, deadline=None)
@given(st.fixed_dictionaries(
    {}, optional={**{key: strategy | JSON_VALUES
                     for key, strategy in DOCUMENT_VALID.items()},
                  "recurency": JSON_VALUES}))
def test_validate_raises_only_config_errors(cfg):
    try:
        validate_config(cfg)
    except ConfigError:
        pass


@settings(max_examples=400, deadline=None)
@given(st.fixed_dictionaries({}, optional=DOCUMENT_VALID),
       st.integers(1, 5), st.integers(1, 5))
def test_validate_accepts_exactly_what_builds(cfg, n_in, n_out):
    try:
        validate_config(cfg)
        accepted = True
    except ConfigError:
        accepted = False
    try:
        build_evo_params(cfg, n_in, n_out)
        built = True
    except (ConfigError, ValueError):
        built = False
    assert accepted == built


def field_types(obj, prefix=""):
    """(path, type) of every field, nested dataclasses included."""
    out = []
    for f in fields(obj):
        value = getattr(obj, f.name)
        out.append((prefix + f.name, type(value)))
        if is_dataclass(value):
            out += field_types(value, f"{prefix}{f.name}.")
    return out


def built_or_error(build, *args):
    try:
        return build(*args)
    except (ConfigError, ValueError, OverflowError) as e:
        return type(e), str(e)


@settings(max_examples=400, deadline=None)
@given(st.fixed_dictionaries({}, optional=DOCUMENT_VALID),
       st.integers(1, 5), st.integers(1, 5))
def test_builders_match_hand_written_oracle(cfg, n_in, n_out):
    """About a third of the drawn documents are valid: those build equal
    objects with equal field types, and the rest fail with the same error."""
    got = built_or_error(build_evo_params, cfg, n_in, n_out)
    want = built_or_error(oracle_evo_params, cfg, n_in, n_out)
    assert got == want
    if is_dataclass(want):
        assert field_types(got) == field_types(want)   # 0 == 0.0 hides a lost float()
        assert got.settings == oracle_settings(cfg)
        assert got.mutation == oracle_mutation(cfg)


FIELD_HOLDERS = {EvoParams: lambda p: p, DecodeSettings: lambda p: p.settings,
                 MutationParams: lambda p: p.mutation}
FIELD_KEYS = [(key, cls) for key in DEFAULTS for cls in FIELD_HOLDERS
              if {"lambda": "lambda_"}.get(key, key) in {f.name for f in fields(cls)}]
# The keys whose field holds an object made from the config value.
FIELD_VALUES = {"mode": lambda name: GenomeMode[name], "functions": FunctionSet.from_names}
OTHER_CHOICES = {"operator": MUTATION_OPERATORS, "algorithm": ALGORITHMS,
                 "crossover": CROSSOVER_OPERATORS, "mode": CHOICES["mode"]}


def non_default(key):
    default = DEFAULTS[key]
    if key in OTHER_CHOICES:
        return next(v for v in OTHER_CHOICES[key] if v != default)
    if key == "functions":
        return default[:2]
    if type(default) is bool:
        return not default
    if key in RANGES and isinstance(default, float):
        lo, hi = RANGES[key]
        return (lo + hi) / 2
    return default + 1


def test_every_field_key_is_covered():
    assert len(FIELD_KEYS) == len({key for key, _ in FIELD_KEYS})
    assert {"mode", "n_nodes", "lambda", "recurrency", "operator",
            "workers"} <= {key for key, _ in FIELD_KEYS}


@pytest.mark.parametrize("key, cls", FIELD_KEYS, ids=[k for k, _ in FIELD_KEYS])
def test_non_default_value_reaches_its_field(key, cls):
    value = non_default(key)
    assert value != DEFAULTS[key]
    cfg = {key: value}
    if key == "algorithm":
        cfg["crossover"] = "single_point"
    validate_config(cfg)
    obj = FIELD_HOLDERS[cls](build_evo_params(cfg, 1, 1))
    got = getattr(obj, {"lambda": "lambda_"}.get(key, key))
    want = FIELD_VALUES.get(key, lambda v: v)(value)
    assert got == want and type(got) is type(want)


def test_builder_converts_by_the_field_default():
    @dataclass
    class Knobs:
        lambda_: int = 1
        rate: float = 0.5
        flag: bool = False
        name: str | None = None
        given: object = None

    got = _build(Knobs, {"lambda": 2, "rate": 1, "flag": 1, "name": "x"}, given=3)
    assert got == Knobs(2, 1.0, True, "x", 3)
    assert [type(getattr(got, f.name)) for f in fields(got)] == [int, float, bool, str, int]


def test_build_settings_and_mutation():
    cfg = {"mode": "PCGP", "recurrency": 0.3, "input_start": -0.4,
           "use_weights": True, "operator": "mixed_node", "node_rate": 0.2,
           "delta_frac": 0.25, "n_nodes": 20}
    p = build_evo_params(cfg, 1, 1)
    s = p.settings
    assert (s.recurrency, s.input_start, s.use_weights) == (0.3, -0.4, True)
    m = p.mutation
    assert m.operator == "mixed_node"
    assert m.node_rate == 0.2
    assert (m.bounds.size_min, m.bounds.size_max) == (10, 30)


def test_default_size_bounds_derived_from_node_count():
    m = build_evo_params({"n_nodes": 3}, 1, 1).mutation
    assert (m.bounds.size_min, m.bounds.size_max) == (2, 4)
    m = build_evo_params({"n_nodes": 3, "size_min": 1, "size_max": 9}, 1, 1).mutation
    assert (m.bounds.size_min, m.bounds.size_max) == (1, 9)


def test_build_evo_params():
    cfg = {"mode": "PCGP", "algorithm": "ga", "crossover": "proportional",
           "population": 40, "elitism": 0.2, "budget": 500, "seed": 9}
    p = build_evo_params(cfg, 3, 2)
    assert p.mode is GenomeMode.PCGP
    assert (p.n_in, p.n_out, p.population, p.elitism) == (3, 2, 40, 0.2)
    assert p.crossover == "proportional"
    assert p.budget == 500 and p.seed == 9


# ------------------------------------------------------------------ presets

def test_all_presets_load_validate_and_build():
    names = preset_names()
    assert len(names) == 14
    for name in names:
        cfg = load_preset(name)
        validate_config(cfg)
        build_evo_params(cfg, 4, 1)


def test_preset_spot_checks():
    e5 = load_preset("e5")
    assert e5["mode"] == "CGP"
    assert e5["crossover"] == "proportional"
    assert e5["population"] == 50
    assert e5["recurrency"] == 0.0
    e1c = load_preset("e1_classification")
    assert e1c["mode"] == "PCGP"
    assert e1c["operator"] == "gene"
    assert e1c["lambda"] == 6
    assert e1c["input_start"] == -0.5
    rl = load_preset("e0_rl")
    assert rl["task"] == "rl"
    assert rl["budget"] == 10000
    assert rl["recurrency"] == 0.6 and rl["use_weights"] is True


def test_unknown_preset():
    with pytest.raises(ConfigError, match="unknown preset"):
        load_preset("e9")


# ------------------------------------------------------------------ fitness

def test_make_fitness_rl_shape():
    fit, n_in, n_out = make_fitness({"task": "rl", "episode_len": 20})
    assert (n_in, n_out) == (4, 1)
    from pcgp.genome import random_genome
    g = random_genome(GenomeMode.CGP, 4, 1, 5, np.random.default_rng(0))
    assert 0.0 <= fit(g) <= 1.0


def test_make_fitness_csv(tmp_path):
    data = tmp_path / "toy.csv"
    data.write_text("a,b,label\n0,1,x\n1,0,y\n")
    fit, n_in, n_out = make_fitness({"task": "classification", "data": str(data)})
    assert (n_in, n_out) == (2, 2)
    from pcgp.genome import random_genome
    g = random_genome(GenomeMode.CGP, 2, 2, 4, np.random.default_rng(1))
    assert 0.0 <= fit(g) <= 1.0


def test_make_fitness_needs_task_and_data():
    with pytest.raises(ConfigError, match="task"):
        make_fitness({})
    with pytest.raises(ConfigError, match="data"):
        make_fitness({"task": "regression"})


# ------------------------------------------------------------------- sweeps

def test_sweep_keys_depend_on_algorithm_and_mode():
    keys = sweep_keys({"mode": "CGP", "algorithm": "one_plus_lambda"})
    assert "lambda" in keys and "population" not in keys
    assert "input_start" not in keys and "crossover" not in keys
    keys = sweep_keys({"mode": "PCGP", "algorithm": "ga",
                       "crossover": "proportional"})
    assert "population" in keys and "lambda" not in keys
    assert "input_start" in keys and "crossover" in keys


def test_samples_respect_ranges_and_grid():
    rng = np.random.default_rng(0)
    base = {"mode": "PCGP", "algorithm": "ga", "crossover": "proportional",
            "task": "rl", "budget": 100}
    for _ in range(50):
        cfg = sample_config(base, rng)
        validate_config(cfg)
        assert cfg["population"] in POPULATION_GRID
        for key, (lo, hi) in RANGES.items():
            if key in ("lambda", "population") or key not in cfg:
                continue
            value = cfg[key]
            assert lo <= value <= hi
            assert round(value * 10) == pytest.approx(value * 10)
        assert cfg["task"] == "rl" and cfg["budget"] == 100   # inherited


def test_samples_fit_the_budget():
    rng = np.random.default_rng(2)
    for _ in range(40):
        cfg = sample_config({"budget": 4}, rng)
        validate_config(cfg)
        assert cfg["lambda"] <= 3


def test_cgp_samples_avoid_positional_operators():
    rng = np.random.default_rng(1)
    base = {"mode": "CGP", "algorithm": "ga", "crossover": "single_point"}
    for _ in range(60):
        cfg = sample_config(base, rng)
        assert cfg["operator"] != "mixed_subgraph"
        assert cfg["crossover"] in ("single_point", "random_node", "proportional")


def test_sampling_deterministic():
    base = {"mode": "CGP", "algorithm": "one_plus_lambda"}
    a = [sample_config(base, np.random.default_rng(7)) for _ in range(5)]
    b = [sample_config(base, np.random.default_rng(7)) for _ in range(5)]
    assert a == b
