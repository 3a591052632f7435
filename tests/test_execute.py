"""Program evaluation: stepwise semantics, batching, protection."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pcgp.decode import DecodeSettings, decode
from pcgp.execute import (
    _schedule, _strong_components, new_state, reset, run_batch, run_sequence, run_supervised,
    step,
)
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


def test_state_shape_checked():
    g = cgp([[0.1, 0.1, f_gene("add"), 0.5], [0.1, 0.1, f_gene("sub"), 0.5]], [0.9])
    d = decode(g, DecodeSettings(), FSET)
    for state in (np.zeros(1), np.zeros(3), np.zeros((2, 1)), [0.0, 0.0]):
        with pytest.raises(ValueError, match=r"state must be an array of shape \(2,\)"):
            step(d, state, np.array([1.0]))
    assert step(d, np.zeros(2), np.array([1.0]))[1].shape == (2,)


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


def test_step_equals_run_sequence_bitwise():
    # run_sequence runs by columns and keeps only cycle members in a row
    # loop; step runs the whole plan on the state array and whatever
    # inputs it is given: numpy rows here, python tuples in cart-pole
    kinds = set()

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(list(GenomeMode)), st.integers(0, 30),
           st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)), st.booleans(),
           st.integers(0, 20), st.integers(0, 2**31 - 1))
    def check(mode, n_nodes, recurrency, weights, n_rows, seed):
        rng = np.random.default_rng(seed)
        g = random_genome(mode, 2, 2, n_nodes, rng)
        s = DecodeSettings(recurrency=recurrency, use_weights=weights, input_start=-0.5)
        d = decode(g, s, FSET)
        if not d.plan.feedforward:
            cyclic = any(members is not None for members, *_ in _schedule(d))
            kinds.add("cyclic" if cyclic else "acyclic recurrent")
        x = rng.uniform(-3, 3, (n_rows, 2))
        # scaled inputs overflow, so the non-finite rule is compared too
        for xs in (x, x * 1e200):
            expected = run_sequence(d, xs).tobytes()
            for as_row in (np.asarray, lambda r: tuple(r.tolist())):
                assert stepped(d, [as_row(r) for r in xs]).tobytes() == expected

    check()
    assert kinds == {"cyclic", "acyclic recurrent"}


def stepped(d, rows):
    """reference.stepped as run_sequence's (n_out, rows) C-order array."""
    return np.ascontiguousarray(reference.stepped(d, rows).reshape(len(rows), d.n_out).T)


# one-input CGP genomes at recurrency 1, where a connection gene snaps
# to the ladder rung nearest to it: (nodes, outputs, the input column,
# the outputs unweighted, the number of cycles)
BY_COLUMNS = {
    # rungs at 0.25, 0.75
    "self-read accumulator": (
        [[0.2, 0.8, f_gene("add"), 0.5]], [0.9],
        [1.0, 1.0, 1.0], [[1.0, 2.0, 3.0]], 1),
    # rungs at 1/6, 1/2, 5/6: node 0 reads node 1's previous row
    "read of a later acyclic node": (
        [[0.1, 0.9, f_gene("add"), 0.5], [0.1, 0.1, f_gene("mult"), 0.5]], [0.5],
        [1.0, 2.0, 3.0], [[1.0, 3.0, 7.0]], 0),
    # node 0 reads node 1's previous row, node 1 reads node 0's fresh value
    "two-node cycle": (
        [[0.1, 0.9, f_gene("add"), 0.5], [0.5, 0.1, f_gene("add"), 0.5]], [0.9],
        [1.0, 2.0, 3.0], [[2.0, 6.0, 12.0]], 1),
    # rungs at 1/8, 3/8, 5/8, 7/8: the cycle above, then node 2 reads it
    "column node downstream of a cycle": (
        [[0.1, 0.6, f_gene("add"), 0.5], [0.4, 0.1, f_gene("add"), 0.5],
         [0.6, 0.4, f_gene("mult"), 0.5]], [0.9, 0.4],
        [1.0, 2.0, 3.0], [[2.0, 24.0, 108.0], [1.0, 4.0, 9.0]], 1),
    # node 0 reads the const node 1 (0.5) across a previous-row edge
    "const read across a previous-row edge": (
        [[0.1, 0.9, f_gene("add"), 0.5], [0.1, 0.1, f_gene("const"), 0.75]], [0.5],
        [1.0, 2.0, 3.0], [[1.0, 2.5, 3.5]], 0),
}


@pytest.mark.parametrize("weights", [False, True])
@pytest.mark.parametrize("name", list(BY_COLUMNS))
def test_run_sequence_by_columns_hand_built(name, weights):
    nodes, outputs, column, want, n_cycles = BY_COLUMNS[name]
    d = decode(cgp(nodes, outputs), DecodeSettings(recurrency=1.0, use_weights=weights), FSET)
    assert not d.plan.feedforward
    assert sum(members is not None for members, *_ in _schedule(d)) == n_cycles
    rows = np.array(column)[:, None]
    if not weights:
        assert run_sequence(d, rows).tolist() == want
    for n_rows in (0, 1, 3):
        xs = rows[:n_rows]
        got = run_sequence(d, xs)
        assert got.shape == (len(outputs), n_rows) and got.flags.c_contiguous
        assert got.tobytes() == stepped(d, xs).tobytes()


def test_strong_components_need_no_recursion():
    # a ring and a chain far deeper than the interpreter's recursion limit
    n = 5000
    ring = {i: [(i + 1) % n] for i in range(n)}
    assert [sorted(c) for c in _strong_components(ring)] == [list(range(n))]
    chain = {i: [i + 1] for i in range(n - 1)} | {n - 1: []}
    # each component comes after every component it reaches
    assert _strong_components(chain) == [[i] for i in reversed(range(n))]


def test_sin_cos_give_python_floats_on_scalars():
    for name, ref in (("sin", np.sin), ("cos", np.cos)):
        fn = FSET[FSET.names.index(name)].apply
        x = np.linspace(-4.0, 4.0, 9)
        assert fn(x, None, 0.5).tobytes() == ref(x).tobytes()
        for a in (x[3], float(x[3])):
            v = fn(a, None, 0.5)
            assert type(v) is float and v == ref(a)


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
