"""The fused BiLSTM node against the node-per-gate graph it replaced."""
import warnings

import numpy as np
import pytest

from jamoparse.autograd import Parameter, backward, concat
from jamoparse.nn import LSTMCell, ParameterStore, bilstm

from graph_ops import (add, add_n, affine, constant, logistic, mul, row, sigmoid, tanh, vslice,
                       vsum)


def reference_step(cell, x, state):
    """One LSTM step built from graph ops: about a dozen nodes per step."""
    hidden, memory = state
    gates = affine([(cell.weights, concat([x, hidden]))], cell.bias)
    n = cell.hidden_dim
    gate_in = sigmoid(vslice(gates, 0, n))
    gate_forget = sigmoid(vslice(gates, n, 2 * n))
    candidate = tanh(vslice(gates, 2 * n, 3 * n))
    gate_out = sigmoid(vslice(gates, 3 * n, 4 * n))
    new_memory = add(mul(gate_forget, memory), mul(gate_in, candidate))
    return mul(gate_out, tanh(new_memory)), new_memory


def reference_hidden_states(cell, inputs):
    zeros = np.zeros(cell.hidden_dim)
    state = (constant(zeros), constant(zeros))
    states = []
    for x in inputs:
        state = reference_step(cell, x, state)
        states.append(state[0])
    return states


def reference_bilstm(fwd, bwd, inputs):
    """Per position, the forward state then the backward state, as vectors."""
    forward = reference_hidden_states(fwd, inputs)
    backward_states = reference_hidden_states(bwd, inputs[::-1])[::-1]
    return [concat([f, b]) for f, b in zip(forward, backward_states)]


def gradients(params):
    return [p.grad.copy() for p in params]


@pytest.mark.parametrize("steps", [1, 2, 7])
@pytest.mark.parametrize("hidden", [(3, 3), (2, 5)])
def test_fused_matches_per_step_graph(steps, hidden):
    rng = np.random.default_rng(steps * 10 + hidden[1])
    store = ParameterStore(seed=steps)
    fwd = LSTMCell(store, "fwd", 4, hidden[0])
    bwd = LSTMCell(store, "bwd", 4, hidden[1])
    for cell in (fwd, bwd):  # nonzero biases exercise every gate
        cell.bias.value[:] = rng.normal(size=cell.bias.value.shape)
    x = Parameter("x", rng.normal(size=(steps, 4)))
    weight = rng.normal(size=(steps, sum(hidden)))
    params = [fwd.weights, fwd.bias, bwd.weights, bwd.bias, x]

    fused = bilstm(fwd, bwd, x)
    backward(vsum(mul(fused, constant(weight))))
    fused_grads = gradients(params)
    for p in params:
        p.grad.fill(0.0)

    reference = reference_bilstm(fwd, bwd, [row(x, t) for t in range(steps)])
    backward(add_n([vsum(mul(state, constant(weight[t]))) for t, state in enumerate(reference)]))
    reference_grads = gradients(params)

    expected = np.stack([state.value for state in reference])
    assert fused.value.shape == (steps, sum(hidden))
    assert np.max(np.abs(fused.value - expected)) <= 1e-12
    for p, got, want in zip(params, fused_grads, reference_grads):
        assert np.any(want != 0.0), p.name
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-15, err_msg=p.name)


def test_step_is_called_once_per_direction_and_position(monkeypatch):
    calls = []
    original = LSTMCell.step

    def counting(self, gates_x, hidden, memory):
        calls.append(self)
        return original(self, gates_x, hidden, memory)

    monkeypatch.setattr(LSTMCell, "step", counting)
    store = ParameterStore(seed=0)
    fwd, bwd = LSTMCell(store, "fwd", 2, 2), LSTMCell(store, "bwd", 2, 2)
    bilstm(fwd, bwd, constant(np.ones((5, 2))))
    assert calls.count(fwd) == 5
    assert calls.count(bwd) == 5



@pytest.mark.parametrize("lengths", [[1], [3, 3], [5, 3, 3, 1], [4, 2, 1, 1, 1]])
def test_packed_sequences_match_one_call_per_sequence(lengths):
    rng = np.random.default_rng(sum(lengths))
    store = ParameterStore(seed=len(lengths))
    fwd, bwd = LSTMCell(store, "fwd", 3, 2), LSTMCell(store, "bwd", 3, 4)
    for cell in (fwd, bwd):
        cell.bias.value[:] = rng.normal(size=cell.bias.value.shape)
    x = Parameter("x", rng.normal(size=(sum(lengths), 3)))
    weight = rng.normal(size=(sum(lengths), 6))
    params = [fwd.weights, fwd.bias, bwd.weights, bwd.bias, x]

    packed = bilstm(fwd, bwd, x, lengths)
    backward(vsum(mul(packed, constant(weight))))
    packed_grads = gradients(params)
    for p in params:
        p.grad.fill(0.0)

    starts = np.cumsum(lengths) - lengths
    pieces = [vslice(x, start, start + length) for start, length in zip(starts, lengths)]
    separate = [bilstm(fwd, bwd, piece) for piece in pieces]
    backward(add_n([vsum(mul(states, constant(weight[start:start + len(states.value)])))
                    for start, states in zip(starts, separate)]))
    separate_grads = gradients(params)

    expected = np.concatenate([states.value for states in separate])
    assert np.max(np.abs(packed.value - expected)) <= 1e-12
    for p, got, want in zip(params, packed_grads, separate_grads):
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-15, err_msg=p.name)


def test_step_runs_once_per_packed_step_on_the_sequences_still_running(monkeypatch):
    blocks = []
    original = LSTMCell.step

    def recording(self, gates_x, hidden, memory):
        blocks.append((self, hidden.shape[0]))
        return original(self, gates_x, hidden, memory)

    monkeypatch.setattr(LSTMCell, "step", recording)
    store = ParameterStore(seed=0)
    fwd, bwd = LSTMCell(store, "fwd", 2, 2), LSTMCell(store, "bwd", 2, 2)
    bilstm(fwd, bwd, constant(np.ones((8, 2))), [4, 3, 1])
    assert [size for cell, size in blocks if cell is fwd] == [3, 2, 2, 1]
    assert [size for cell, size in blocks if cell is bwd] == [3, 2, 2, 1]


@pytest.mark.parametrize("lengths", [[1, 2], [2, 0], [2, 2], [4, 1, -1]])
def test_lengths_must_be_positive_sorted_and_cover_the_rows(lengths):
    store = ParameterStore(seed=0)
    fwd, bwd = LSTMCell(store, "fwd", 2, 2), LSTMCell(store, "bwd", 2, 2)
    with pytest.raises(ValueError, match="lengths"):
        bilstm(fwd, bwd, constant(np.ones((3, 2))), lengths)


EXTREMES = [0.0, 40.0, -40.0, 800.0, -800.0, 1e300, -1e300, 0.5, -3.0]


@pytest.mark.parametrize("dtype,extremes,tolerance", [
    (np.float64, EXTREMES, 2.3e-16),
    (np.float32, EXTREMES[:5] + EXTREMES[7:], 1.2e-7),  # 1e300 is no float32
])
def test_step_gates_on_extreme_preactivations(dtype, extremes, tolerance):
    # zero previous states: the pre-activation is gates_x, each value in every gate block
    pre = np.repeat(np.array(extremes, dtype=dtype)[:, None], 4, axis=1)
    store = ParameterStore(seed=0, dtype=dtype)
    cell = LSTMCell(store, "cell", 1, 1)
    zeros = np.zeros((len(extremes), 1), dtype=dtype)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        gates, hidden, memory = cell.step(pre, zeros, zeros)
    assert gates.dtype == hidden.dtype == memory.dtype == dtype
    assert np.all(np.isfinite(gates)) and np.all(np.isfinite(hidden))
    sigmoid_gates = gates[:, [0, 1, 3]]
    assert np.all((sigmoid_gates >= 0.0) & (sigmoid_gates <= 1.0))
    reference = logistic(pre[:, :1].astype(np.float64))
    assert np.max(np.abs(sigmoid_gates - reference)) <= tolerance
    assert np.array_equal(gates[:, 2], np.tanh(pre[:, 2]))
