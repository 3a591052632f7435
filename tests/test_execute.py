"""Program evaluation: stepwise semantics, batching, protection."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pcgp.decode import DecodeSettings, decode
from pcgp.execute import new_state, reset, run_batch, run_sequence, run_supervised, step
from pcgp.functions import FunctionSet, default_functions
from pcgp.genome import GenomeMode, make_genome, random_genome

import reference

FSET = default_functions()


def f_gene(name, fset=FSET):
    i = fset.names.index(name)
    return (i + 0.5) / len(fset)


def cgp(nodes, outputs, n_in=1):
    return make_genome(GenomeMode.CGP, n_in, len(outputs), nodes, outputs)


# ------------------------------------------------------- hand-worked programs

def test_weighted_square():
    # single mult node fed twice by the input, weighted by its c gene
    g = cgp([[0.1, 0.1, f_gene("mult"), 0.5]], [0.9])
    d = decode(g, DecodeSettings(use_weights=True), FSET)
    out, _ = step(d, new_state(d), np.array([0.8]))
    assert out[0] == pytest.approx(0.32, abs=1e-12)


def test_self_loop_accumulator():
    # add node reading (input, itself) at full recurrency: 1, 2, 3, ...
    g = cgp([[0.2, 0.8, f_gene("add"), 0.5]], [0.9])
    d = decode(g, DecodeSettings(recurrency=1.0), FSET)
    assert d.targets.tolist() == [[0, 1]]
    state = new_state(d)
    seen = []
    for _ in range(3):
        out, state = step(d, state, np.array([1.0]))
        seen.append(out[0])
    assert seen == [1.0, 2.0, 3.0]


def test_feedforward_statelessness():
    rng = np.random.default_rng(5)
    g = random_genome(GenomeMode.CGP, 2, 2, 12, rng)
    d = decode(g, DecodeSettings(), FSET)
    s = new_state(d)
    x = np.array([0.3, 0.7])
    o1, s = step(d, s, x)
    o2, s = step(d, s, x)
    assert o1.tolist() == o2.tolist()


def test_input_length_checked():
    g = cgp([[0.1, 0.1, f_gene("add"), 0.5]], [0.9])
    d = decode(g, DecodeSettings(), FSET)
    with pytest.raises(ValueError):
        step(d, new_state(d), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        run_batch(d, np.zeros((4, 2)))


def test_zero_nodes_pass_through():
    g = make_genome(GenomeMode.CGP, 2, 2, np.zeros((0, 4)), [0.1, 0.9])
    d = decode(g, DecodeSettings(), FSET)
    out, _ = step(d, new_state(d), np.array([3.0, 4.0]))
    assert out.tolist() == [3.0, 4.0]


# ---------------------------------------------------------------- reset

def test_reset_contract():
    g = cgp([[0.2, 0.8, f_gene("add"), 0.5]], [0.9])
    d = decode(g, DecodeSettings(recurrency=1.0), FSET)
    s = new_state(d)
    _, s = step(d, s, np.array([1.0]))
    assert s[0] == 1.0
    r = reset(s)
    assert r.tolist() == [0.0]
    assert reset(r).tolist() == [0.0]
    out_fresh, _ = step(d, new_state(d), np.array([1.0]))
    out_reset, _ = step(d, r, np.array([1.0]))
    assert out_fresh.tolist() == out_reset.tolist()


# ------------------------------------------------------------ invariants

def test_weights_off_ignores_params():
    # const uses its param as the function's own constant, so exclude it
    fset = FunctionSet.from_names(("add", "sub", "mult", "pdiv", "sin", "cos", "abs"))
    rng = np.random.default_rng(17)
    for _ in range(20):
        g = random_genome(GenomeMode.PCGP, 2, 2, 10, rng)
        altered = make_genome(
            g.mode, g.n_in, g.n_out,
            np.column_stack([g.nodes[:, :-1], rng.random(g.n_nodes)]),
            g.outputs, g.inputs,
        )
        s = DecodeSettings(recurrency=float(rng.random()), input_start=-0.5)
        x = rng.uniform(-2, 2, (6, 2))
        a = run_sequence(decode(g, s, fset), x)
        b = run_sequence(decode(altered, s, fset), x)
        assert a.tolist() == b.tolist()


def test_junk_nodes_cannot_interfere():
    rng = np.random.default_rng(23)
    for _ in range(20):
        g = random_genome(GenomeMode.CGP, 2, 1, 15, rng)
        s = DecodeSettings(recurrency=float(rng.random()))
        d = decode(g, s, FSET)
        if d.active.all():
            continue
        # scramble everything but the position of every inactive node
        nodes = np.array(g.nodes)
        nodes[~d.active, -4:] = rng.random((int((~d.active).sum()), 4))
        h = make_genome(g.mode, g.n_in, g.n_out, nodes, g.outputs, g.inputs)
        x = rng.uniform(-1, 1, (5, 2))
        assert run_sequence(d, x).tolist() == run_sequence(decode(h, s, FSET), x).tolist()


def test_outputs_always_finite():
    rng = np.random.default_rng(31)
    for _ in range(50):
        mode = GenomeMode.CGP if rng.random() < 0.5 else GenomeMode.PCGP
        g = random_genome(mode, 2, 2, 20, rng)
        s = DecodeSettings(recurrency=float(rng.random()), input_start=-0.3)
        d = decode(g, s, FSET)
        x = rng.uniform(-1e8, 1e8, (8, 2))
        assert np.isfinite(run_sequence(d, x)).all()
        assert np.isfinite(run_supervised(d, x)).all()


# --------------------------------------------------------------- batching

@settings(max_examples=50, deadline=None)
@given(st.sampled_from(list(GenomeMode)), st.integers(0, 2**31 - 1))
def test_batch_equals_stepping_bitwise(mode, seed):
    rng = np.random.default_rng(seed)
    g = random_genome(mode, 2, 2, int(rng.integers(0, 15)), rng)
    d = decode(g, DecodeSettings(use_weights=bool(rng.integers(0, 2))), FSET)
    x = rng.uniform(-3, 3, (7, 2))
    # scaled inputs overflow, so both non-finite rules are compared too
    for xs in (x, x * 1e200):
        batched = run_batch(d, xs)
        stepped = run_sequence(d, xs)
        assert batched.tolist() == stepped.tolist()


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(list(GenomeMode)), st.floats(0.0, 1.0), st.booleans(),
       st.integers(0, 2**31 - 1))
def test_step_equals_run_sequence_bitwise(mode, recurrency, weights, seed):
    # run_sequence computes on python floats, step on the state array and
    # whatever inputs it is given: numpy rows here, python tuples in cart-pole
    rng = np.random.default_rng(seed)
    g = random_genome(mode, 2, 2, int(rng.integers(0, 15)), rng)
    s = DecodeSettings(recurrency=recurrency, use_weights=weights, input_start=-0.5)
    d = decode(g, s, FSET)
    x = rng.uniform(-3, 3, (7, 2))
    # scaled inputs overflow, so the non-finite rule is compared too
    for xs in (x, x * 1e200):
        expected = run_sequence(d, xs).tobytes()
        for as_row in (np.asarray, lambda r: tuple(r.tolist())):
            assert reference.stepped(d, [as_row(r) for r in xs]).T.tobytes() == expected


def test_run_sequence_shape_rules():
    g = cgp([[0.1, 0.1, f_gene("add"), 0.5]], [0.9, 0.1, 0.9], n_in=2)
    d = decode(g, DecodeSettings(), FSET)
    with pytest.raises(ValueError):
        run_sequence(d, np.zeros(2))
    with pytest.raises(ValueError):
        run_sequence(d, np.zeros((4, 3)))
    assert run_sequence(d, np.zeros((0, 2))).shape == (3, 0)
    out = run_sequence(d, np.ones((4, 2)))
    assert out.shape == (3, 4) and out.flags.c_contiguous


def test_batch_broadcasts_nullary_nodes():
    # a const node's value is one scalar, yet its output row is full
    g = cgp([[0.1, 0.1, f_gene("const"), 0.75]], [0.9, 0.1])
    d = decode(g, DecodeSettings(), FSET)
    out = run_batch(d, np.array([[1.0], [2.0], [3.0]]))
    assert out.tolist() == [[0.5, 0.5, 0.5], [1.0, 2.0, 3.0]]


def test_batch_refuses_recurrent_flow():
    g = cgp([[0.2, 0.8, f_gene("add"), 0.5]], [0.9])
    d = decode(g, DecodeSettings(recurrency=1.0), FSET)
    with pytest.raises(ValueError):
        run_batch(d, np.ones((3, 1)))
    out = run_supervised(d, np.ones((3, 1)))
    assert out[0].tolist() == [1.0, 2.0, 3.0]


def test_supervised_dispatch_matches_sequence_when_recurrent():
    rng = np.random.default_rng(41)
    g = random_genome(GenomeMode.CGP, 2, 1, 10, rng)
    d = decode(g, DecodeSettings(recurrency=0.9), FSET)
    x = rng.uniform(-1, 1, (6, 2))
    assert run_supervised(d, x).tolist() == run_sequence(d, x).tolist()
