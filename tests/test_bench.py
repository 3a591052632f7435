"""Tests for dataset ingestion and the three bundled tasks' fitness."""

import math
import struct
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings as hsettings, strategies as st

import pcgp.bench
from pcgp.bench import Dataset, MemoizedFitness, load_csv
from pcgp.decode import DecodeSettings, decode
from pcgp.errors import ConfigError, DatasetError
from pcgp.functions import Function, FunctionSet, default_functions
from pcgp.genome import GenomeMode, make_genome, random_genome

import reference

FSET = default_functions()
SETTINGS = DecodeSettings()


def f_gene(name):
    index = [f.name for f in FSET.functions].index(name)
    return (index + 0.5) / len(FSET)


def score(g, data=None, settings=SETTINGS, episode_len=500, fset=FSET):
    """g's fitness on data's task, or on cart-pole, from an empty memo."""
    return MemoizedFitness(settings, fset, data, episode_len)(g)


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


# ------------------------------------------------------------- CSV loading

def test_min_max_scaling(tmp_path):
    d = load_csv(write(tmp_path, "f,t\n1,a\n2,b\n3,a\n"), "classification")
    assert np.allclose(d.features[:, 0], [0.0, 0.5, 1.0])
    assert d.feature_min[0] == 1.0 and d.feature_max[0] == 3.0


def test_constant_column_maps_to_half(tmp_path):
    d = load_csv(write(tmp_path, "f,g,t\n7,1,a\n7,2,b\n"), "classification")
    assert np.all(d.features[:, 0] == 0.5)
    assert np.allclose(d.features[:, 1], [0.0, 1.0])


def test_labels_first_appearance_order(tmp_path):
    d = load_csv(write(tmp_path, "f,t\n1,b\n2,a\n3,b\n"), "classification")
    assert d.labels == ("b", "a")
    assert list(d.targets) == [0, 1, 0]
    assert d.n_classes == 2


def test_regression_targets_not_scaled(tmp_path):
    d = load_csv(write(tmp_path, "f,t\n0,2.0\n1,4.0\n"), "regression")
    assert d.targets.shape == (2, 1)
    assert list(d.targets[:, 0]) == [2.0, 4.0]


def test_ragged_row_names_row_number(tmp_path):
    path = write(tmp_path, "f,g,t\n1,2,a\n1,b\n")
    with pytest.raises(DatasetError, match="row 3"):
        load_csv(path, "classification")


def test_non_numeric_feature_names_row_number(tmp_path):
    path = write(tmp_path, "f,t\n1,a\nx,b\n")
    with pytest.raises(DatasetError, match="row 3"):
        load_csv(path, "classification")


def test_non_numeric_regression_target(tmp_path):
    path = write(tmp_path, "f,t\n1,2.0\n2,oops\n")
    with pytest.raises(DatasetError, match="row 3"):
        load_csv(path, "regression")


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
def test_non_finite_feature_names_row_and_column(tmp_path, cell):
    path = write(tmp_path, f"f,g,t\n1,2,a\n3,{cell},b\n")
    with pytest.raises(DatasetError, match=r"row 3 column 2 \('g'\): non-finite feature"):
        load_csv(path, "classification")


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_non_finite_regression_target_names_row_and_column(tmp_path, cell):
    path = write(tmp_path, f"f,y\n1,2.0\n2,{cell}\n")
    with pytest.raises(DatasetError, match=r"row 3 column 2 \('y'\): non-finite target"):
        load_csv(path, "regression")


def test_feature_range_too_wide_to_scale_names_column(tmp_path):
    path = write(tmp_path, "f,g,t\n0,-1e308,a\n1,1e308,b\n2,0,a\n")
    with pytest.raises(DatasetError, match=r"column 2 \('g'\): feature range"):
        load_csv(path, "classification")
    d = load_csv(write(tmp_path, "f,t\n-1e308,a\n1e307,b\n", "ok.csv"), "classification")
    assert np.isfinite(d.features).all()


def test_nan_class_label_is_just_a_label(tmp_path):
    d = load_csv(write(tmp_path, "f,t\n1,nan\n2,a\n"), "classification")
    assert d.labels == ("nan", "a")


def test_empty_and_header_only_files(tmp_path):
    with pytest.raises(DatasetError, match="empty"):
        load_csv(write(tmp_path, ""), "classification")
    with pytest.raises(DatasetError, match="no data"):
        load_csv(write(tmp_path, "f,t\n"), "classification")


def test_blank_lines_skipped(tmp_path):
    d = load_csv(write(tmp_path, "f,t\n\n1,a\n\n2,b\n\n"), "classification")
    assert d.n_rows == 2


def test_unknown_task_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_csv(write(tmp_path, "f,t\n1,a\n"), "clustering")


# ----------------------------------------------------------- classification

def const_pair_genome():
    """One input, two constant outputs: always predicts (1.0, 0.0)."""
    nodes = [[0.5, 0.5, f_gene("const"), 1.0],    # 2c-1 = 1.0
             [0.5, 0.5, f_gene("const"), 0.5]]    # 2c-1 = 0.0
    return make_genome(GenomeMode.CGP, 1, 2, nodes, [0.5, 0.9])


def test_constant_predictor_scores_base_rate(tmp_path):
    d = load_csv(write(tmp_path, "f,t\n1,z\n2,z\n3,z\n4,y\n5,y\n"),
                 "classification")
    assert score(const_pair_genome(), d) == 0.6


def test_separable_toy_set_solved_by_one_comparison(tmp_path):
    # Rows are "pos" when f1 > f2; a single subtraction against a zero
    # constant separates them perfectly under argmax.
    d = load_csv(write(tmp_path,
                       "f1,f2,t\n1,0,pos\n0,1,neg\n0.8,0.2,pos\n0.3,0.7,neg\n"),
                 "classification")
    nodes = [[0.2, 0.6, f_gene("sub"), 0.5],
             [0.5, 0.5, f_gene("const"), 0.5]]
    g = make_genome(GenomeMode.CGP, 2, 2, nodes, [0.625, 0.875])
    assert score(g, d) == 1.0


def test_accuracy_matches_confusion_matrix_oracle():
    rng = np.random.default_rng(0)
    feats = rng.random((20, 3))
    targets = rng.integers(0, 3, 20)
    d = Dataset(feats, targets, "classification",
                feats.min(0), feats.max(0), ("a", "b", "c"))
    from pcgp.decode import decode
    from pcgp.execute import run_supervised

    for _ in range(10):
        g = random_genome(GenomeMode.PCGP, 3, 3, 6, rng)
        out = run_supervised(decode(g, SETTINGS, FSET), feats)
        confusion = np.zeros((3, 3), dtype=int)
        for row in range(20):
            confusion[targets[row], np.argmax(out[:, row])] += 1
        want = confusion.trace() / confusion.sum()
        assert score(g, d) == want


def test_classification_shape_errors(tmp_path):
    d = load_csv(write(tmp_path, "f,t\n1,a\n2,b\n"), "classification")
    wrong_in = make_genome(GenomeMode.CGP, 2, 2, [], [0.2, 0.8])
    with pytest.raises(ConfigError):
        score(wrong_in, d)
    wrong_out = make_genome(GenomeMode.CGP, 1, 3, [], [0.2, 0.5, 0.8])
    with pytest.raises(ConfigError):
        score(wrong_out, d)


def test_empty_dataset_rejected():
    d = Dataset(np.empty((0, 1)), np.empty(0, dtype=int), "classification",
                np.zeros(1), np.zeros(1), ("a", "b"))
    with pytest.raises(ConfigError, match="empty"):
        score(const_pair_genome(), d)


# --------------------------------------------------------------- regression

def test_exact_passthrough_predictor_is_perfect(tmp_path):
    d = load_csv(write(tmp_path, "f,t\n0,0\n0.25,0.25\n1,1\n"), "regression")
    g = make_genome(GenomeMode.CGP, 1, 1, [], [0.5])   # output = input
    assert score(g, d) == 0.0


def test_constant_zero_on_targets_two(tmp_path):
    d = load_csv(write(tmp_path, "f,t\n0,2\n1,2\n"), "regression")
    nodes = [[0.5, 0.5, f_gene("const"), 0.5]]
    g = make_genome(GenomeMode.CGP, 1, 1, nodes, [0.9])
    assert score(g, d) == -4.0


def test_row_order_invariance_without_recurrency(tmp_path):
    d = load_csv(write(tmp_path, "f,t\n0,1\n0.2,3\n0.7,0\n1,5\n"), "regression")
    rng = np.random.default_rng(3)
    g = random_genome(GenomeMode.CGP, 1, 1, 5, rng)
    base = score(g, d)
    perm = np.array([2, 0, 3, 1])
    shuffled = Dataset(d.features[perm], d.targets[perm], "regression",
                       d.feature_min, d.feature_max)
    assert score(g, shuffled) == base


def test_multi_output_regression():
    feats = np.array([[0.0], [1.0]])
    targets = np.array([[0.0, 1.0], [1.0, 0.0]])
    d = Dataset(feats, targets, "regression", feats.min(0), feats.max(0))
    g = make_genome(GenomeMode.CGP, 1, 2, [], [0.5, 0.5])  # both outputs = input
    # per-element squared errors: (0,1),(0,1) on column two -> mean 0.5
    assert score(g, d) == -0.5


@pytest.mark.parametrize("recurrency", [0.0, 1.0])
def test_overflowing_error_scores_minus_inf_without_warning(recurrency):
    """An output whose error is too large to square scores -inf, batched
    or row by row, and no RuntimeWarning escapes."""
    fset = FunctionSet(FSET.functions + (Function("huge", 0, lambda a, b, c: 1e200),))
    huge = (len(FSET) + 0.5) / len(fset)
    g = make_genome(GenomeMode.CGP, 1, 1, [[0.5, 0.5, huge, 0.5]], [0.9])
    settings = DecodeSettings(recurrency=recurrency)
    feats = np.array([[0.0], [1.0]])
    d = Dataset(feats, np.zeros((2, 1)), "regression", feats.min(0), feats.max(0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert score(g, d, settings, fset=fset) == -math.inf
        assert reference.step_rows(decode(g, settings, fset), d) == -math.inf


@hsettings(max_examples=300, deadline=None)
@given(st.integers(1, 3), st.integers(1, 40), st.integers(0, 308), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_fitness_reductions_are_np_mean(n_out, rows, exponent, ties, seed):
    """_neg_mse and _accuracy give np.mean's value bitwise, on outputs up
    to overflow and on argmax ties."""
    rng, shape = np.random.default_rng(seed), (n_out, rows)
    if ties:
        outputs = rng.integers(-1, 2, shape) * 10.0 ** exponent
    else:
        outputs = rng.uniform(-1.0, 1.0, shape) * 10.0 ** rng.integers(0, exponent + 1, shape)
    feats = np.zeros((rows, 1))
    numbers = Dataset(feats, rng.normal(size=(rows, n_out)), "regression", feats[0], feats[0])
    labels = Dataset(feats, rng.integers(0, n_out, rows), "classification", feats[0], feats[0],
                     tuple("abc"[:n_out]))
    with mock.patch.object(pcgp.bench, "run_supervised", lambda graph, batch: outputs):
        with np.errstate(over="ignore"):
            want = float(-np.mean((outputs.T - numbers.targets) ** 2))
        assert pcgp.bench._neg_mse(None, numbers).hex() == want.hex()
        want = float(np.mean(np.argmax(outputs, axis=0) == labels.targets))
        assert pcgp.bench._accuracy(None, labels).hex() == want.hex()


# ---------------------------------------------------------------- cart-pole

def zero_controller():
    nodes = [[0.5, 0.5, f_gene("const"), 0.5]]
    return make_genome(GenomeMode.CGP, 4, 1, nodes, [0.99])


def test_uncontrolled_pole_falls_quickly():
    # Constant zero output pushes one way forever; the independent
    # simulation fails at step 7, i.e. fitness 7/500.
    fit = score(zero_controller(), episode_len=500)
    assert fit == 7 / 500
    assert fit < 0.1


def test_hand_built_balancer_survives():
    # Computes 0.1*(x + x_dot) + (theta + theta_dot) via node weights:
    # bang-bang on that sum keeps the pole up for the whole episode.
    add = f_gene("add")
    nodes = [[0.10, 0.33, add, 0.1],    # 0.1-weighted cart terms
             [0.45, 0.65, add, 1.0],    # pole terms
             [0.70, 0.82, add, 1.0]]    # sum of the two
    g = make_genome(GenomeMode.CGP, 4, 1, nodes, [0.95])
    weighted = DecodeSettings(use_weights=True)
    assert score(g, settings=weighted, episode_len=500) == 1.0
    assert score(g, settings=weighted, episode_len=200) == 1.0


def test_cartpole_bounds_and_determinism():
    rng = np.random.default_rng(1)
    for _ in range(10):
        g = random_genome(GenomeMode.CGP, 4, 1, 6, rng)
        fit = score(g, episode_len=50)
        assert 0.0 <= fit <= 1.0
        assert fit == score(g, episode_len=50)


def test_cartpole_recurrent_controller_allowed():
    rng = np.random.default_rng(5)
    g = random_genome(GenomeMode.PCGP, 4, 1, 6, rng)
    settings = DecodeSettings(recurrency=0.6, input_start=-0.5, use_weights=True)
    fit = score(g, settings=settings, episode_len=100)
    assert 0.0 <= fit <= 1.0


# default functions plus two whose values are non-finite: overflow to
# +-inf, and nan (inf - inf) or -inf
BLOWUP = FunctionSet(FSET.functions + (
    Function("overflow", 2, lambda a, b, c: (a - b + 0.5) * 1e308 * 1e10),
    Function("nan", 1, lambda a, b, c: a * math.inf - math.inf),
))


@hsettings(max_examples=300, deadline=None)
@given(st.sampled_from(["cgp", "pcgp", "balancer"]), st.integers(0, 15),
       st.sampled_from([0.0, 0.2, 1.0]), st.booleans(), st.booleans(),
       st.integers(1, 50), st.integers(0, 2**31 - 1))
def test_episode_matches_step_oracle(kind, n_nodes, recurrency, weights, blowup,
                                     episode_len, seed):
    """One interpreter call per episode scores every controller to the
    same float bytes as one step call per time step."""
    fset = BLOWUP if blowup else FSET
    settings = DecodeSettings(recurrency=recurrency, input_start=-0.5,
                              use_weights=weights or kind == "balancer")
    if kind == "balancer":
        add = ([f.name for f in FSET.functions].index("add") + 0.5) / len(fset)
        g = make_genome(GenomeMode.CGP, 4, 1, [[0.10, 0.33, add, 0.1],
                                               [0.45, 0.65, add, 1.0],
                                               [0.70, 0.82, add, 1.0]], [0.95])
    else:
        mode = GenomeMode.CGP if kind == "cgp" else GenomeMode.PCGP
        g = random_genome(mode, 4, 1, n_nodes, np.random.default_rng(seed))
    got = score(g, None, settings, episode_len, fset)
    want = reference.step_balance(decode(g, settings, fset), episode_len)
    assert struct.pack("<d", got) == struct.pack("<d", want)


def test_cartpole_shape_errors():
    with pytest.raises(ConfigError):
        score(const_pair_genome())
    with pytest.raises(ConfigError):
        score(zero_controller(), episode_len=0)
