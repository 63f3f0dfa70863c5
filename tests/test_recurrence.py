"""The in-place LSTM recurrence against the copying one it replaced.

The reference functions below are ``LSTMCell.step`` and ``_lstm_forward``
as they were before the step wrote in place: each step returned new gate,
hidden and memory arrays, and the loop copied them into the output buffers
and carried the states to the next block. The in-place kernel does the same
arithmetic per element, with only commuted additions and products, so the
gates, states and every gradient of ``bilstm`` must match it bit for bit,
in float64 and float32 alike.
"""
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from jamoparse import nn
from jamoparse.autograd import Parameter, backward
from jamoparse.nn import LSTMCell, ParameterStore, bilstm

from graph_ops import constant, mul, vsum


def reference_step(cell, gates_x, hidden, memory):
    n = cell.hidden_dim
    scale = np.full(4 * n, 0.5, dtype=gates_x.dtype)
    scale[2 * n:3 * n] = 1.0
    offset = 1.0 - scale
    gates = hidden @ cell.weights.value[:, cell.input_dim:].T
    gates += gates_x
    gates *= scale
    np.tanh(gates, out=gates)
    gates *= scale
    gates += offset
    gate_in, gate_forget = gates[..., :n], gates[..., n:2 * n]
    candidate, gate_out = gates[..., 2 * n:3 * n], gates[..., 3 * n:]
    memory = gate_forget * memory
    memory += gate_in * candidate
    return gates, gate_out * np.tanh(memory), memory


def reference_lstm_forward(cell, x, sizes):
    rows, n = x.shape[0], cell.hidden_dim
    gates_x = x @ cell.weights.value[:, :cell.input_dim].T
    gates_x += cell.bias.value
    gates = np.empty((rows, 4 * n), dtype=x.dtype)
    hiddens, memories = np.zeros((2, rows + 1, n), dtype=x.dtype)
    hidden = memory = np.zeros((sizes[0] if sizes.size else 0, n), dtype=x.dtype)
    start = 0
    for size in sizes.tolist():
        stop = start + size
        gates[start:stop], hidden, memory = reference_step(cell, gates_x[start:stop],
                                                           hidden[:size], memory[:size])
        hiddens[start:stop] = hidden
        memories[start:stop] = memory
        start = stop
    return gates.reshape(rows, 4, n), hiddens, memories


def make_cells(seed, dtype, input_dim, hidden):
    """Two cells on a fresh store, with nonzero biases so every gate is exercised."""
    store = ParameterStore(seed=seed, dtype=dtype)
    fwd = LSTMCell(store, "fwd", input_dim, hidden[0])
    bwd = LSTMCell(store, "bwd", input_dim, hidden[1])
    for cell in (fwd, bwd):
        cell.bias.value[:] = store.rng.normal(size=cell.bias.value.shape)
    return fwd, bwd


def run_bilstm(cells, x_value, lengths, upstream):
    """``bilstm``'s value and its input and weight gradients under ``upstream``."""
    fwd, bwd = cells
    x = Parameter("x", x_value.copy())
    out = bilstm(fwd, bwd, x, lengths)
    backward(vsum(mul(out, constant(upstream))))
    return [out.value] + [p.grad for p in (x, fwd.weights, fwd.bias, bwd.weights, bwd.bias)]


lengths_strategy = st.lists(st.integers(1, 7), min_size=1, max_size=6).map(
    lambda drawn: sorted(drawn, reverse=True))
dims_strategy = st.tuples(st.integers(1, 4), st.tuples(st.integers(1, 4), st.integers(1, 4)))


@settings(max_examples=80, deadline=None)
@given(lengths=lengths_strategy, dims=dims_strategy,
       dtype=st.sampled_from([np.float64, np.float32]), seed=st.integers(0, 2**16))
def test_forward_matches_the_copying_recurrence(lengths, dims, dtype, seed):
    input_dim, hidden = dims
    fwd, _ = make_cells(seed, dtype, input_dim, hidden)
    x = np.random.default_rng(seed).normal(size=(sum(lengths), input_dim)).astype(dtype)
    ahead, _, sizes, _ = nn._packing(np.array(lengths))
    got = nn._lstm_forward(fwd, x[ahead], sizes)
    want = reference_lstm_forward(fwd, x[ahead], sizes)
    for name, g, w in zip(("gates", "hiddens", "memories"), got, want):
        assert g.dtype == w.dtype == dtype, name
        assert g.shape == w.shape, name
        assert np.array_equal(g, w), name


@settings(max_examples=60, deadline=None)
@given(lengths=lengths_strategy, dims=dims_strategy,
       dtype=st.sampled_from([np.float64, np.float32]), seed=st.integers(0, 2**16),
       one_sequence=st.booleans())
def test_bilstm_value_and_gradients_match_the_copying_recurrence(lengths, dims, dtype, seed,
                                                                  one_sequence):
    input_dim, hidden = dims
    rng = np.random.default_rng(seed)
    if one_sequence:
        lengths = lengths[:1]
    x = rng.normal(size=(sum(lengths), input_dim)).astype(dtype)
    upstream = rng.normal(size=(sum(lengths), sum(hidden))).astype(dtype)
    # a single sequence runs through lengths=None, the reference through explicit lengths
    got = run_bilstm(make_cells(seed, dtype, input_dim, hidden), x,
                     None if one_sequence else lengths, upstream)
    with mock.patch.object(nn, "_lstm_forward", reference_lstm_forward):
        want = run_bilstm(make_cells(seed, dtype, input_dim, hidden), x, lengths, upstream)
    for name, g, w in zip(("value", "x", "fwd/W", "fwd/b", "bwd/W", "bwd/b"), got, want):
        assert g.dtype == dtype, name
        assert np.array_equal(g, w), name

