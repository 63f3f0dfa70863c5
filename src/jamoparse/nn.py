"""Trainable parameter storage, initialisation, LSTM cells, and optimizers."""
from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .autograd import Node, Parameter, ShapeMismatchError, _accumulate, logistic


class ParameterStore:
    """All trainable tensors, addressed by stable name.

    Creation order is the iteration order. Asking for an existing name
    returns the stored parameter (after a shape check), which lets model
    code bind against a store loaded from disk.
    """

    def __init__(self, seed: int = 42, dtype=np.float64):
        self.seed = seed
        self.dtype = np.dtype(dtype)
        self.rng = np.random.default_rng(seed)
        self._params: dict[str, Parameter] = {}

    def _existing(self, name: str, shape: tuple[int, ...]) -> Parameter:
        param = self._params[name]
        if param.value.shape != shape:
            raise ShapeMismatchError(
                "parameter %r has shape %s, expected %s" % (name, param.value.shape, shape))
        return param

    def _register(self, name: str, value: np.ndarray, track_rows: bool = False) -> Parameter:
        param = Parameter(name, value, track_rows)
        self._params[name] = param
        return param

    def matrix(self, name: str, rows: int, cols: int) -> Parameter:
        """Dense weight matrix, uniform Glorot range ±sqrt(6/(rows+cols))."""
        if name in self._params:
            return self._existing(name, (rows, cols))
        limit = math.sqrt(6.0 / (rows + cols))
        value = self.rng.uniform(-limit, limit, size=(rows, cols)).astype(self.dtype, copy=False)
        return self._register(name, value)

    def vector(self, name: str, dim: int) -> Parameter:
        """Bias-style vector, zero-initialised."""
        if name in self._params:
            return self._existing(name, (dim,))
        return self._register(name, np.zeros(dim, dtype=self.dtype))

    def embedding(self, name: str, rows: int, dim: int) -> Parameter:
        """Lookup table, uniform ±0.01 rows.

        A new table is row-tracked (see :class:`Parameter`): read it through
        ``autograd.gather`` only. A table bound from a loaded store stays dense.
        """
        if name in self._params:
            return self._existing(name, (rows, dim))
        value = self.rng.uniform(-0.01, 0.01, size=(rows, dim)).astype(self.dtype, copy=False)
        return self._register(name, value, track_rows=True)

    def add_raw(self, name: str, value: np.ndarray) -> Parameter:
        """Insert a pre-built array (deserialisation path)."""
        if name in self._params:
            raise ValueError("duplicate parameter %r" % name)
        return self._register(name, np.array(value, dtype=value.dtype))

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __getitem__(self, name: str) -> Parameter:
        return self._params[name]

    def names(self) -> list[str]:
        return list(self._params)

    def parameters(self) -> Iterator[tuple[str, Parameter]]:
        return iter(self._params.items())

    def count(self) -> int:
        """Total number of trainable scalars."""
        return int(sum(p.value.size for p in self._params.values()))

    def zero_gradients(self) -> None:
        """Clear every gradient where :func:`live_index` says it can be nonzero."""
        for param in self._params.values():
            param.grad[live_index(param)] = 0.0
            if param.rows:
                param.rows.clear()

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: p.value.copy() for name, p in self._params.items()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        for name, value in state.items():
            param = self._existing(name, value.shape)
            param.value[...] = value


class LSTMCell:
    """Standard LSTM update: input/forget/cell/output gates over [x; h].

    One fused weight matrix of shape (4*hidden, input+hidden) plus a bias;
    gate blocks are ordered input, forget, cell candidate, output. The
    first ``input_dim`` columns act on the input, the rest on the previous
    hidden state. Sequences, one or a packed batch, run through :func:`bilstm`.
    """

    def __init__(self, store: ParameterStore, prefix: str, input_dim: int, hidden_dim: int):
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.weights = store.matrix(prefix + "/W", 4 * hidden_dim, input_dim + hidden_dim)
        self.bias = store.vector(prefix + "/b", 4 * hidden_dim)
        self.dtype = store.dtype

    def step(self, gates_x: np.ndarray, hidden: np.ndarray, memory: np.ndarray):
        """One time step of a batch of sequences on plain arrays; builds no graph node.

        ``gates_x`` holds each sequence's input projection plus the bias, shape
        (B, 4*hidden); ``hidden`` and ``memory`` its previous states, shape
        (B, hidden). One sequence may also come as 1-d arrays. Returns the
        activated gates, the new hidden states and the new memories.
        """
        pre = hidden @ self.weights.value[:, self.input_dim:].T
        pre += gates_x
        gates = logistic(pre)
        n = self.hidden_dim
        np.tanh(pre[..., 2 * n:3 * n], out=gates[..., 2 * n:3 * n])
        gate_in, gate_forget, candidate, gate_out = (gates[..., k * n:(k + 1) * n]
                                                     for k in range(4))
        memory = gate_forget * memory
        memory += gate_in * candidate
        return gates, gate_out * np.tanh(memory), memory


def bilstm(fwd: LSTMCell, bwd: LSTMCell, inputs: Node, lengths=None) -> Node:
    """Both directions of a BiLSTM over sequences stored in the rows of ``inputs``, as one node.

    The sequences are consecutive runs of rows, ``lengths`` rows each and
    longest first; None is one sequence over all the rows. Row i of the
    (N, fwd.hidden_dim + bwd.hidden_dim) value is ``fwd``'s hidden state
    after reading its sequence up to row i, then ``bwd``'s after reading it
    back from the end to row i. All sequences run as one packed batch: step
    t calls :meth:`LSTMCell.step` once on the B_t sequences longer than t,
    which the sort makes the first B_t. Each direction projects every input
    row with one GEMM; the backward pass runs backpropagation through time
    over the same shrinking blocks and accumulates each weight gradient with
    one GEMM.
    """
    x = inputs.value
    for cell in (fwd, bwd):
        if x.ndim != 2 or x.shape[1] != cell.input_dim:
            raise ShapeMismatchError(
                "lstm input has shape %s, expected (T, %d)" % (x.shape, cell.input_dim))
    lengths = np.array([x.shape[0]] if lengths is None else lengths, dtype=np.intp)
    if (lengths.ndim != 1 or np.any(lengths < 1) or lengths.sum() != x.shape[0]
            or np.any(lengths[1:] > lengths[:-1])):
        raise ValueError("sequence lengths %s must be positive, longest first and sum to %d"
                         % (lengths.tolist(), x.shape[0]))
    ahead_rows, behind_rows, sizes, previous = _packing(lengths)
    ahead = _lstm_forward(fwd, x[ahead_rows], sizes)
    behind = _lstm_forward(bwd, x[behind_rows], sizes)
    split = fwd.hidden_dim
    value = np.empty((x.shape[0], split + bwd.hidden_dim), dtype=x.dtype)
    value[ahead_rows, :split] = ahead[1][:-1]
    value[behind_rows, split:] = behind[1][:-1]
    out = Node(value, (inputs, fwd.weights, fwd.bias, bwd.weights, bwd.bias))

    def backward_fn(grad):
        d_x = np.empty_like(x)
        d_x[ahead_rows] = _lstm_backward(fwd, x[ahead_rows], sizes, previous, *ahead,
                                         grad[ahead_rows, :split])
        d_x[behind_rows] += _lstm_backward(bwd, x[behind_rows], sizes, previous, *behind,
                                           grad[behind_rows, split:])
        _accumulate(inputs, d_x)

    out.backward_fn = backward_fn
    return out


def _packing(lengths: np.ndarray):
    """The packed, step-major layout of sequences with sorted ``lengths``.

    Block t holds one row per sequence longer than t, in sequence order.
    Returns the input row each packed row reads in the forward direction
    (``start + t``) and in the backward one (``start + length - 1 - t``),
    the block sizes, and each packed row's previous state: its own
    sequence's row in block t - 1, or row N (the zero state) in block 0.
    """
    longer = lengths > np.arange(lengths[0] if lengths.size else 0)[:, None]
    step, sequence = np.nonzero(longer)
    sizes = np.count_nonzero(longer, axis=1)
    starts = np.cumsum(lengths) - lengths
    offsets = np.cumsum(sizes) - sizes
    ahead = starts[sequence] + step
    behind = starts[sequence] + lengths[sequence] - 1 - step
    previous = np.where(step > 0, offsets[step - 1] + sequence, len(step))
    return ahead, behind, sizes, previous


def _lstm_forward(cell: LSTMCell, x: np.ndarray, sizes: np.ndarray):
    """One direction over the packed rows ``x``, in blocks of ``sizes`` rows.

    Returns the activated gates, shape (N, 4, hidden), then the hidden and
    the memory states, each of shape (N + 1, hidden) with the zero state in
    the last row.
    """
    rows, n = x.shape[0], cell.hidden_dim
    gates_x = x @ cell.weights.value[:, :cell.input_dim].T
    gates_x += cell.bias.value
    gates = np.empty((rows, 4 * n), dtype=cell.dtype)
    hiddens, memories = np.zeros((2, rows + 1, n), dtype=cell.dtype)
    hidden = memory = np.zeros((sizes[0] if sizes.size else 0, n), dtype=cell.dtype)
    step = cell.step
    start = 0
    for size in sizes.tolist():
        stop = start + size
        gates[start:stop], hidden, memory = step(gates_x[start:stop], hidden[:size],
                                                 memory[:size])
        hiddens[start:stop] = hidden
        memories[start:stop] = memory
        start = stop
    return gates.reshape(rows, 4, n), hiddens, memories


def _lstm_backward(cell: LSTMCell, x: np.ndarray, sizes: np.ndarray, previous: np.ndarray,
                   gates: np.ndarray, hiddens: np.ndarray, memories: np.ndarray,
                   d_hidden: np.ndarray) -> np.ndarray:
    """Backpropagation through time for one direction of :func:`bilstm`.

    ``x`` and ``d_hidden`` (the gradient of every hidden state) are in the
    packed order :func:`_lstm_forward` read; ``d_hidden`` is overwritten.
    Adds the weight and bias gradients to the cell's parameters and returns
    the gradient of ``x``, in the same order.
    """
    rows, n = d_hidden.shape
    gate_in, gate_forget, candidate, gate_out = gates.transpose(1, 0, 2)
    tanh_memory = np.tanh(memories[:-1])
    # d pre-activation = slope * (d memory for the first three gates, d hidden for the last)
    slope = gates * (1.0 - gates)
    slope[:, 2] = 1.0 - candidate * candidate
    slope *= np.stack([candidate, memories[previous], gate_in, tanh_memory], axis=1)
    through_tanh = gate_out * (1.0 - tanh_memory * tanh_memory)
    recurrent = cell.weights.value[:, cell.input_dim:]
    d_gates = np.empty_like(gates)
    stop = rows
    later = 0  # rows in the block after this one: their sequences continue it
    d_c_later = None
    for size in sizes.tolist()[::-1]:
        start = stop - size
        d_h = d_hidden[start:stop]
        if later:
            d_h[:later] += d_gates[stop:stop + later].reshape(later, 4 * n) @ recurrent
        d_c = d_h * through_tanh[start:stop]
        if later:
            d_c[:later] += d_c_later * gate_forget[stop:stop + later]
        np.multiply(slope[start:stop, :3], d_c[:, None], out=d_gates[start:stop, :3])
        np.multiply(slope[start:stop, 3], d_h, out=d_gates[start:stop, 3])
        stop, later, d_c_later = start, size, d_c
    d_gates = d_gates.reshape(rows, 4 * n)
    _accumulate(cell.weights, d_gates.T @ np.concatenate([x, hiddens[previous]], axis=1))
    _accumulate(cell.bias, d_gates.sum(axis=0))
    return d_gates @ cell.weights.value[:, :cell.input_dim]


def live_index(param: Parameter):
    """Where ``param.grad`` can be nonzero: ``...`` for a dense parameter,
    the sorted touched rows of a row-tracked table.

    Zero, clip, SGD and Adam read and write ``param.grad[live_index(param)]``
    and the same entries of the value and the moments, so an update costs
    the dense parameters plus the rows the sentence used.
    """
    if param.rows is None:
        return ...
    return np.array(sorted(param.rows), dtype=np.intp)


class Sgd:
    """Plain stochastic gradient descent."""

    def __init__(self, learning_rate: float = 0.1):
        self.learning_rate = learning_rate

    def step(self, store: ParameterStore) -> None:
        for _, param in store.parameters():
            live = live_index(param)
            param.value[live] -= self.learning_rate * param.grad[live]
        store.zero_gradients()


class Adam:
    """Adam with lazy (nonzero-gradient-only) moment updates.

    Entries whose gradient is exactly zero are left untouched, so unused
    embedding rows never drift; the per-parameter step counter advances
    only when that parameter receives gradient. Each step reads and writes
    the :func:`live_index` entries only. Every entry sees the same
    arithmetic as a full sweep masked with ``grad != 0``, so the results are
    bit-identical to one.
    """

    def __init__(self, learning_rate: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, epsilon: float = 1e-8):
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self._t: dict[str, int] = {}

    def step(self, store: ParameterStore) -> None:
        for name, param in store.parameters():
            live = live_index(param)
            grad = param.grad[live]
            nonzero = np.count_nonzero(grad)
            if not nonzero:
                continue
            if name not in self._m:
                self._m[name] = np.zeros_like(param.value)
                self._v[name] = np.zeros_like(param.value)
                self._t[name] = 0
            self._t[name] += 1
            m, v = self._m[name], self._v[name]
            # a view for a dense parameter, so the write-back copies nothing
            value, m_live, v_live = param.value[live], m[live], v[live]
            where = True if nonzero == grad.size else grad != 0
            self._apply(value, grad, m_live, v_live, self._t[name], where)
            param.value[live], m[live], v[live] = value, m_live, v_live
        store.zero_gradients()

    def _apply(self, value, grad, m, v, t: int, where) -> None:
        """Step ``value`` and the moments in place where ``where`` holds.

        ``m = beta1 m + (1 - beta1) g``, ``v = beta2 v + (1 - beta2) g g``,
        ``value -= lr (m / (1 - beta1^t)) / (sqrt(v / (1 - beta2^t)) + eps)``.
        """
        scratch = np.empty_like(grad)
        step = np.empty_like(m)
        np.multiply(m, self.beta1, out=m, where=where)
        np.multiply(grad, 1.0 - self.beta1, out=scratch, where=where)
        np.add(m, scratch, out=m, where=where)
        np.multiply(v, self.beta2, out=v, where=where)
        np.multiply(grad, 1.0 - self.beta2, out=scratch, where=where)
        np.multiply(scratch, grad, out=scratch, where=where)
        np.add(v, scratch, out=v, where=where)
        np.divide(m, 1.0 - self.beta1 ** t, out=step, where=where)
        np.divide(v, 1.0 - self.beta2 ** t, out=scratch, where=where)
        np.sqrt(scratch, out=scratch, where=where)
        np.add(scratch, self.epsilon, out=scratch, where=where)
        np.multiply(step, self.learning_rate, out=step, where=where)
        np.divide(step, scratch, out=step, where=where)
        np.subtract(value, step, out=value, where=where)


def clip_gradients(store: ParameterStore, max_norm: float) -> float:
    """Scale all gradients down to a global L2 norm of ``max_norm``.

    Returns the norm before clipping. Only the :func:`live_index` entries
    are read and scaled: a table's squared norm sums its touched rows in
    sorted order, so it can differ in the last bits from a sum over the
    full array; a dense parameter's is the full-array sum.
    """
    live = [(param, live_index(param)) for _, param in store.parameters()]
    total = 0.0
    for param, index in live:
        grad = param.grad[index]
        total += float(np.sum(grad * grad))
    norm = math.sqrt(total)
    if norm > max_norm and norm > 0.0:
        factor = max_norm / norm
        for param, index in live:
            param.grad[index] *= factor
    return norm


def make_optimizer(kind: str, learning_rate: float):
    if kind == "adam":
        return Adam(learning_rate=learning_rate)
    if kind == "sgd":
        return Sgd(learning_rate=learning_rate)
    raise ValueError("unknown optimizer %r" % kind)
