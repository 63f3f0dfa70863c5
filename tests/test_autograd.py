import gc

import numpy as np
import pytest

from jamoparse.autograd import Parameter, ShapeMismatchError, backward, concat, gather
from jamoparse.nn import Adam, LSTMCell, ParameterStore, Sgd, bilstm, clip_gradients

from conftest import assert_gradients_match
from graph_ops import (add, add_n, affine, affine_tanh, constant, matvec, mul, pick, row, scale,
                       sigmoid, stack, sub, tanh, vslice, vsum)


def param(name, values):
    return Parameter(name, np.asarray(values, dtype=np.float64))


def test_sum_of_parameter_gives_ones():
    p = param("p", [1.0, -2.0, 3.0])
    backward(vsum(p))
    assert np.array_equal(p.grad, np.ones(3))


def test_two_backward_passes_accumulate():
    p = param("p", [0.5, 0.25])
    backward(vsum(tanh(p)))
    single = p.grad.copy()
    backward(vsum(tanh(p)))
    assert np.allclose(p.grad, 2 * single)


def test_affine_tanh_trivial_cases():
    w = param("w", np.zeros((3, 3)))
    x = param("x", [1.0, 2.0, 3.0])
    b = param("b", np.zeros(3))
    assert np.array_equal(affine_tanh([(w, x)], b).value, np.zeros(3))
    eye = param("eye", np.eye(3))
    out = affine_tanh([(eye, x)], b)
    assert np.allclose(out.value, np.tanh(x.value))


def test_affine_tanh_matches_straight_line_oracle():
    rng = np.random.default_rng(7)
    u = param("u", rng.normal(size=(4, 4)))
    v = param("v", rng.normal(size=(4, 4)))
    x = param("x", rng.normal(size=4))
    y = param("y", rng.normal(size=4))
    b = param("b", rng.normal(size=4))
    out = affine_tanh([(u, x), (v, y)], b)
    # independent straight-line evaluation, no graph involved
    expected = np.tanh(u.value @ x.value + v.value @ y.value + b.value)
    assert np.allclose(out.value, expected)


def test_affine_shape_error_names_pair():
    w = param("w", np.zeros((3, 2)))
    x = param("x", np.zeros(3))
    b = param("b", np.zeros(3))
    with pytest.raises(ShapeMismatchError, match="pair 1"):
        affine([(param("ok", np.zeros((3, 3))), param("x3", np.zeros(3))), (w, x)], b)


@pytest.mark.parametrize("op_name", [
    "add", "sub", "mul", "tanh", "sigmoid", "scale", "matvec", "concat",
    "vslice", "row", "pick", "vsum", "affine", "affine_tanh", "add_n", "gather",
    "concat_rows",
])
def test_per_op_gradients(op_name):
    rng = np.random.default_rng(hash(op_name) % 2**32)
    a = param("a", rng.normal(size=5))
    b = param("b", rng.normal(size=5))
    w = param("w", rng.normal(size=(4, 5)))
    e = param("e", rng.normal(size=(3, 5)))
    bias = param("bias", rng.normal(size=4))
    builders = {
        "add": (lambda: vsum(tanh(add(a, b))), [a, b]),
        "sub": (lambda: vsum(tanh(sub(a, b))), [a, b]),
        "mul": (lambda: vsum(tanh(mul(a, b))), [a, b]),
        "tanh": (lambda: vsum(tanh(a)), [a]),
        "sigmoid": (lambda: vsum(sigmoid(a)), [a]),
        "scale": (lambda: vsum(scale(a, -1.7)), [a]),
        "matvec": (lambda: vsum(tanh(matvec(w, a))), [w, a]),
        "concat": (lambda: vsum(tanh(concat([a, b]))), [a, b]),
        "vslice": (lambda: vsum(tanh(vslice(a, 1, 4))), [a]),
        "row": (lambda: vsum(tanh(row(e, 1))), [e]),
        "pick": (lambda: tanh(pick(a, 2)), [a]),
        "vsum": (lambda: tanh(vsum(a)), [a]),
        "affine": (lambda: vsum(tanh(affine([(w, a)], bias))), [w, a, bias]),
        "affine_tanh": (lambda: vsum(affine_tanh([(w, a), (w, b)], bias)), [w, a, b, bias]),
        "add_n": (lambda: vsum(add_n([tanh(a), mul(a, b), b])), [a, b]),
        "gather": (lambda: vsum(tanh(mul(gather(e, [2, 0, 2, -1]), w))), [e, w]),
        "concat_rows": (lambda: vsum(tanh(concat([w, gather(e, [1, 0, 1, 2])]))), [w, e]),
    }
    build, params = builders[op_name]
    assert_gradients_match(build, params)


def test_tanh_composition_matches_finite_differences():
    rng = np.random.default_rng(3)
    x = param("x", rng.normal(size=3))
    w = param("w", rng.normal(size=(3, 3)))
    b = param("b", rng.normal(size=3))

    def build():
        return vsum(tanh(affine([(w, tanh(matvec(w, x)))], b)))

    assert_gradients_match(build, [x, w, b])


def test_separate_losses_equal_one_summed_pass():
    rng = np.random.default_rng(11)
    x = param("x", rng.normal(size=4))
    w = param("w", rng.normal(size=(4, 4)))
    backward(vsum(tanh(matvec(w, x))))
    backward(vsum(sigmoid(matvec(w, x))))
    separate = (x.grad.copy(), w.grad.copy())
    x.grad.fill(0.0)
    w.grad.fill(0.0)
    backward(add(vsum(tanh(matvec(w, x))), vsum(sigmoid(matvec(w, x)))))
    assert np.allclose(separate[0], x.grad)
    assert np.allclose(separate[1], w.grad)


def test_unused_parameters_keep_zero_gradient():
    store = ParameterStore(seed=0)
    used = store.vector("used", 3)
    unused = store.matrix("unused", 2, 2)
    used.value[:] = 1.0
    backward(vsum(tanh(used)))
    assert np.array_equal(unused.grad, np.zeros((2, 2)))


def test_finite_outputs_on_extreme_inputs():
    big = param("big", [1e3, -1e3, 0.0])
    out = sigmoid(big)
    assert np.all(np.isfinite(out.value))
    backward(vsum(out))
    assert np.all(np.isfinite(big.grad))


def test_dropped_graph_leaves_no_reference_cycles():
    # graphs must be freed by reference counting, not by the cyclic collector
    store = ParameterStore(seed=0)
    cell = LSTMCell(store, "cell", 3, 2)
    back = LSTMCell(store, "back", 3, 2)
    table = store.embedding("emb", 4, 3)
    w, b = store.matrix("w", 4, 3), store.vector("b", 4)
    gc.collect()
    gc.disable()
    try:
        states = bilstm(cell, back, stack([row(table, index) for index in (0, 2, 0)]))
        out = affine_tanh([(w, row(table, 1))], b)
        loss = vsum(mul(tanh(sigmoid(add(row(states, -1), out))), row(states, 0)))
        backward(loss)
        del states, out, loss
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_gather_records_the_rows_row_would():
    store = ParameterStore(seed=0)
    batched, single = store.embedding("batched", 6, 3), store.embedding("single", 6, 3)
    single.value[:] = batched.value
    ids = [4, 1, 4, -1, 0]
    upstream = np.random.default_rng(0).normal(size=(len(ids), 3))
    gathered = gather(batched, ids)
    assert np.array_equal(gathered.value, batched.value[ids])
    backward(vsum(mul(gathered, constant(upstream))))
    backward(add_n([vsum(mul(row(single, i), constant(u))) for i, u in zip(ids, upstream)]))
    assert batched.rows == single.rows == {0, 1, 4, 5}
    np.testing.assert_allclose(batched.grad, single.grad, rtol=1e-15)


def test_concat_joins_sequence_nodes_row_by_row():
    x = param("x", np.arange(6.0).reshape(3, 2))
    y = param("y", np.arange(3.0).reshape(3, 1))
    joined = concat([x, y])
    assert np.array_equal(joined.value, np.hstack([x.value, y.value]))
    backward(vsum(mul(joined, constant(np.arange(9.0).reshape(3, 3)))))
    assert np.array_equal(x.grad, [[0.0, 1.0], [3.0, 4.0], [6.0, 7.0]])
    assert np.array_equal(y.grad, [[2.0], [5.0], [8.0]])


class TestLSTM:
    def test_zero_weights_zero_state_gives_zero_hidden(self):
        store = ParameterStore(seed=0)
        cell = LSTMCell(store, "cell", 3, 2)
        cell.weights.value.fill(0.0)
        cell.bias.value.fill(0.0)
        states = bilstm(cell, cell, constant([[5.0, -1.0, 2.0]]))
        assert np.array_equal(states.value, np.zeros((1, 4)))
        _, h, c = cell.step(np.zeros(8), np.zeros(2), np.zeros(2))
        assert np.array_equal(h, np.zeros(2))
        assert np.array_equal(c, np.zeros(2))

    def test_matches_gate_by_gate_oracle(self):
        # fixed 2-dim weights; oracle is an independent gate-by-gate evaluation
        store = ParameterStore(seed=0)
        cell = LSTMCell(store, "cell", 2, 2)
        weights = np.arange(1, 8 * 4 + 1, dtype=np.float64).reshape(8, 4) * 0.05
        bias = np.array([0.1, -0.2, 0.3, -0.4, 0.5, -0.6, 0.7, -0.8])
        cell.weights.value[:] = weights
        cell.bias.value[:] = bias
        x = np.array([0.5, -1.0])
        h0 = np.array([0.25, 0.1])
        c0 = np.array([-0.3, 0.2])

        def sigmoid_ref(z):
            return 1.0 / (1.0 + np.exp(-z))

        gates = weights @ np.concatenate([x, h0]) + bias
        i = sigmoid_ref(gates[0:2])
        f = sigmoid_ref(gates[2:4])
        g = np.tanh(gates[4:6])
        o = sigmoid_ref(gates[6:8])
        c_expected = f * c0 + i * g
        h_expected = o * np.tanh(c_expected)

        # the step kernel takes the input projection plus bias precomputed
        _, h, c = cell.step(weights[:, :2] @ x + bias, h0, c0)
        assert np.allclose(h, h_expected)
        assert np.allclose(c, c_expected)

    def test_repeated_steps_stay_bounded(self):
        store = ParameterStore(seed=5)
        cell = LSTMCell(store, "cell", 2, 3)
        states = bilstm(cell, cell, constant(np.tile([0.7, -0.4], (200, 1))))
        assert np.all(np.abs(states.value) < 1.0)

    def test_input_shape_mismatch(self):
        store = ParameterStore(seed=0)
        cell = LSTMCell(store, "cell", 3, 2)
        with pytest.raises(ShapeMismatchError):
            bilstm(cell, cell, constant([[1.0, 2.0]]))

    def test_gradients_through_two_steps(self):
        store = ParameterStore(seed=9)
        cell = LSTMCell(store, "cell", 2, 2)
        back = LSTMCell(store, "back", 2, 2)
        x = param("x", [[0.3, -0.5], [-0.2, 0.8]])

        def build():
            return vsum(bilstm(cell, back, x))

        assert_gradients_match(build, [cell.weights, cell.bias, back.weights, back.bias, x])


class TestParameterStore:
    def test_gradient_slots_mirror_shapes(self):
        store = ParameterStore(seed=1)
        store.matrix("m", 3, 4)
        store.vector("v", 2)
        store.embedding("e", 5, 3)
        for _, p in store.parameters():
            assert p.grad.shape == p.value.shape
            assert np.array_equal(p.grad, np.zeros_like(p.value))

    def test_names_unique_and_ordered(self):
        store = ParameterStore(seed=1)
        store.vector("b", 2)
        store.vector("a", 2)
        assert store.names() == ["b", "a"]
        with pytest.raises(ShapeMismatchError):
            store.vector("a", 3)  # same name, different shape

    def test_same_seed_same_init(self):
        values = []
        for _ in range(2):
            store = ParameterStore(seed=7)
            store.matrix("m", 4, 4)
            store.embedding("e", 3, 4)
            values.append(store.state_dict())
        for name in values[0]:
            assert np.array_equal(values[0][name], values[1][name])

    def test_glorot_range(self):
        store = ParameterStore(seed=2)
        m = store.matrix("m", 50, 30)
        limit = np.sqrt(6.0 / 80.0)
        assert np.all(np.abs(m.value) <= limit)
        e = store.embedding("e", 50, 30)
        assert np.all(np.abs(e.value) <= 0.01)
        assert np.array_equal(store.vector("b", 30).value, np.zeros(30))


class TestOptimizers:
    def test_sgd_exact_update(self):
        store = ParameterStore(seed=0)
        p = store.vector("p", 3)
        p.value[:] = [1.0, 2.0, 3.0]
        p.grad[:] = [0.5, -0.5, 0.0]
        Sgd(learning_rate=0.1).step(store)
        assert np.allclose(p.value, [0.95, 2.05, 3.0])
        assert np.array_equal(p.grad, np.zeros(3))  # cleared

    def test_zero_gradient_leaves_parameters_unchanged(self):
        store = ParameterStore(seed=0)
        p = store.matrix("p", 3, 3)
        before = p.value.copy()
        Sgd(0.5).step(store)
        assert np.array_equal(p.value, before)
        adam = Adam(0.5)
        adam.step(store)
        assert np.array_equal(p.value, before)
        # even with accumulated moments, zero-grad entries stay put
        p.grad[0, 0] = 1.0
        adam.step(store)
        moved = p.value.copy()
        adam.step(store)
        assert np.array_equal(p.value, moved)

    def test_adam_converges_on_quadratic(self):
        # scripted convergence oracle: minimize x^2/2 from x=1
        store = ParameterStore(seed=0)
        x = store.vector("x", 1)
        x.value[:] = 1.0
        adam = Adam(learning_rate=0.05)
        for _ in range(500):
            x.grad[:] = x.value
            adam.step(store)
        assert abs(float(x.value[0])) < 1e-3

    def test_clip_gradients(self):
        store = ParameterStore(seed=0)
        p = store.vector("p", 4)
        p.grad[:] = [3.0, 4.0, 0.0, 0.0]
        norm = clip_gradients(store, 1.0)
        assert norm == pytest.approx(5.0)
        assert np.allclose(np.linalg.norm(p.grad), 1.0)
        p.grad[:] = [0.1, 0.0, 0.0, 0.0]
        clip_gradients(store, 1.0)
        assert np.allclose(p.grad, [0.1, 0.0, 0.0, 0.0])  # under the cap: untouched
