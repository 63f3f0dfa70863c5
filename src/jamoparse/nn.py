"""Trainable parameter storage, initialisation, LSTM cells, and optimizers."""
from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .autograd import Node, Parameter, ShapeMismatchError, _accumulate

ALIGN = 64  # bytes: every arena segment starts on a cache line
CHUNK = 16384  # elements per optimizer pass: a piece's operands stay in cache between ufuncs
BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator guard


def _aligned_zeros(size: int, dtype) -> np.ndarray:
    """``np.zeros(size, dtype)`` starting on an ``ALIGN``-byte boundary.

    ``np.zeros`` leaves its pages untouched until they are written.
    """
    raw = np.zeros(size + ALIGN // dtype.itemsize, dtype=dtype)
    skip = (-raw.ctypes.data % ALIGN) // dtype.itemsize
    return raw[skip:skip + size]


class ParameterStore:
    """All trainable tensors, addressed by stable name.

    Creation order is the iteration order; each name is created once (again
    raises ValueError). A fresh store draws initial values from ``rng``; one
    given ``saved`` arrays (name -> array, as a model file holds them) takes
    each parameter's array from them after a shape and dtype check, draws
    nothing, and raises KeyError for a name they lack. ``version`` advances
    on every write to the values through :meth:`load_state_dict` or an
    optimizer step, so a cache of values computed from the parameters knows
    when it is stale; a direct write to ``param.value`` leaves it as it is.
    """

    def __init__(self, seed: int = 42, dtype=np.float64,
                 saved: dict[str, np.ndarray] | None = None):
        self.seed = seed
        self.dtype = np.dtype(dtype)
        self.rng = np.random.default_rng(seed)
        self._params: dict[str, Parameter] = {}
        self._saved = None if saved is None else dict(saved)  # each array is taken once
        self._arena = None  # (values, grads, segments) once packed; see dense()
        self.version = 0

    def _create(self, name: str, shape: tuple[int, ...], limit: float,
                track_rows: bool = False) -> Parameter:
        """The one way to make a parameter: its saved array, else uniform ±``limit`` (0: zeros)."""
        if name in self._params:
            raise ValueError("parameter %r already exists" % name)
        if self._arena is not None and not track_rows:
            raise RuntimeError("cannot add dense parameter %r: the store's arena is packed" % name)
        if self._saved is not None:
            value = self._saved.pop(name)
            _check_shape(name, value.shape, shape)
            if value.dtype != self.dtype:
                raise ValueError("parameter %r is %s, the store holds %s"
                                 % (name, value.dtype, self.dtype))
        elif limit:
            value = self.rng.uniform(-limit, limit, size=shape).astype(self.dtype, copy=False)
        else:
            value = np.zeros(shape, dtype=self.dtype)
        param = Parameter(name, value, track_rows)
        self._params[name] = param
        return param

    def matrix(self, name: str, rows: int, cols: int) -> Parameter:
        """Dense weight matrix, uniform Glorot range ±sqrt(6/(rows+cols))."""
        # int / int is 0.0, not OverflowError, for a size no float holds (a model file's)
        return self._create(name, (rows, cols), math.sqrt(6 / (rows + cols)))

    def vector(self, name: str, dim: int) -> Parameter:
        """Bias-style vector, zero-initialised."""
        return self._create(name, (dim,), 0.0)

    def embedding(self, name: str, rows: int, dim: int) -> Parameter:
        """Lookup table, uniform ±0.01 rows.

        The table is row-tracked (see :class:`Parameter`), a drawn one or a
        saved one alike: read it through ``autograd.gather`` only.
        """
        return self._create(name, (rows, dim), 0.01, track_rows=True)

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __getitem__(self, name: str) -> Parameter:
        return self._params[name]

    def parameters(self) -> Iterator[tuple[str, Parameter]]:
        return iter(self._params.items())

    def count(self) -> int:
        """Total number of trainable scalars."""
        return int(sum(p.value.size for p in self._params.values()))

    def tables(self) -> list[tuple[str, Parameter]]:
        """The row-tracked parameters, in creation order."""
        return [(name, p) for name, p in self._params.items() if p.rows is not None]

    def dense(self) -> tuple[np.ndarray, np.ndarray, list[tuple[str, slice]]]:
        """Every dense parameter (``rows is None``) packed into one value and one gradient arena.

        Returns the two 1-d arenas and, per dense parameter in creation
        order, its name and slice; ``value`` and ``grad`` become reshaped
        views of that slice, so no second copy survives. The gradient arena
        is made here: it holds any gradient accumulated before packing and
        zeros elsewhere, so a store that is never packed (a loaded model
        that only parses) holds no dense gradient. Each segment starts on
        an ``ALIGN``-byte boundary and the gaps stay zero. The first call
        packs; adding a dense parameter afterwards raises RuntimeError.
        """
        if self._arena is None:
            dense = [(name, p) for name, p in self._params.items() if p.rows is None]
            align = ALIGN // self.dtype.itemsize
            segments, end = [], 0
            for name, param in dense:
                start = -(-end // align) * align
                end = start + param.value.size
                segments.append((name, slice(start, end)))
            values, grads = _aligned_zeros(end, self.dtype), _aligned_zeros(end, self.dtype)
            for (_, param), (_, part) in zip(dense, segments):
                values[part] = param.value.reshape(-1)
                if param.grad is not None:
                    grads[part] = param.grad.reshape(-1)
                param.value = values[part].reshape(param.value.shape)
                param.grad = grads[part].reshape(param.value.shape)
            self._arena = values, grads, segments
        return self._arena

    def zero_gradients(self) -> None:
        """One fill of the gradient arena, plus each touched table's rows."""
        # zero bytes are +0.0; numpy fills a byte view with memset, about a quarter faster
        self.dense()[1].view(np.uint8).fill(0)
        for _, table, live in touched_tables(self):
            table.grad[live] = 0.0
            table.rows.clear()

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: p.value.copy() for name, p in self._params.items()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Write each array into its parameter; a name or shape refused first writes nothing."""
        for name, value in state.items():
            _check_shape(name, value.shape, self._params[name].value.shape)
        for name, value in state.items():
            self._params[name].value[...] = value
        self.version += 1


def _check_shape(name: str, shape: tuple[int, ...], expected: tuple[int, ...]) -> None:
    if shape != expected:
        raise ShapeMismatchError("parameter %r has shape %s, expected %s" % (name, shape, expected))


class LSTMCell:
    """Standard LSTM update: input/forget/cell/output gates over [x; h].

    One fused weight matrix of shape (4*hidden, input+hidden) plus a bias;
    gate blocks are ordered input, forget, cell candidate, output. The
    first ``input_dim`` columns act on the input, the rest on the previous
    hidden state. Sequences, one or a packed batch, run through :func:`bilstm`;
    :meth:`step` is its per-block kernel, which writes into the caller's rows.
    """

    def __init__(self, store: ParameterStore, prefix: str, input_dim: int, hidden_dim: int):
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.weights = store.matrix(prefix + "/W", 4 * hidden_dim, input_dim + hidden_dim)
        self.bias = store.vector(prefix + "/b", 4 * hidden_dim)
        # the per-column scale and offset of step's one tanh: 1/2 and 1/2 for the
        # sigmoid gates, 1 and 0 for the cell candidate; one row, so a one-row block
        # (the sentence tier's every step) takes numpy's same-shape loop, not a broadcast
        self._scale = np.full((1, 4 * hidden_dim), 0.5, dtype=store.dtype)
        self._scale[:, 2 * hidden_dim:3 * hidden_dim] = 1.0
        self._offset = 1.0 - self._scale

    def step(self, gates: np.ndarray, hidden: np.ndarray, memory: np.ndarray,
             new_hidden: np.ndarray, new_memory: np.ndarray) -> None:
        """One time step of a block of sequences, in place on plain arrays; builds no graph node.

        ``gates`` holds each sequence's input projection plus the bias, shape
        (B, 4*hidden); ``hidden @ W_h^T`` is added into it and it is left
        holding the activated gates. ``hidden`` and ``memory`` are the
        previous states, shape (B, hidden); the new ones are written into
        ``new_hidden`` and ``new_memory``. A previous state may be the very
        rows its new state is written to (block 0's zero rows in
        :func:`_lstm_forward`). All four gates take one ``tanh``, the sigmoid
        ones as sigma(x) = 1/2 + tanh(x/2)/2, which stays in [0, 1] and cannot
        overflow.
        """
        gates += hidden @ self.weights.value[:, self.input_dim:].T
        gates *= self._scale
        np.tanh(gates, out=gates)
        gates *= self._scale
        gates += self._offset
        n = self.hidden_dim
        gate_in, gate_forget = gates[:, :n], gates[:, n:2 * n]
        candidate, gate_out = gates[:, 2 * n:3 * n], gates[:, 3 * n:]
        np.multiply(gate_forget, memory, out=new_memory)
        new_memory += gate_in * candidate
        np.tanh(new_memory, out=new_hidden)
        new_hidden *= gate_out


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
    the last row. One GEMM writes every row's input projection into the
    gate buffer; :meth:`LSTMCell.step` then runs in place on each block's
    rows of the three buffers. Block t's previous states are the first
    rows of block t - 1, its own sequences' (the sort keeps the running
    sequences first); block 0 reads its own rows, still zero.
    """
    rows, n = x.shape[0], cell.hidden_dim
    gates = x @ cell.weights.value[:, :cell.input_dim].T
    gates += cell.bias.value
    hiddens, memories = np.zeros((2, rows + 1, n), dtype=x.dtype)
    step = cell.step
    before = start = 0  # the first rows of the block before this one, and of this one
    for size in sizes.tolist():
        stop = start + size
        step(gates[start:stop], hiddens[before:before + size], memories[before:before + size],
             hiddens[start:stop], memories[start:stop])
        before, start = start, stop
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
    # rows in the block after this one (their sequences continue it) and their d memory;
    # the last block has none, so its slices below are empty and add nothing
    stop, later, d_c_later = rows, 0, d_hidden[rows:]
    for size in sizes.tolist()[::-1]:
        start = stop - size
        d_h = d_hidden[start:stop]
        d_h[:later] += d_gates[stop:stop + later].reshape(later, 4 * n) @ recurrent
        d_c = d_h * through_tanh[start:stop]
        d_c[:later] += d_c_later * gate_forget[stop:stop + later]
        np.multiply(slope[start:stop, :3], d_c[:, None], out=d_gates[start:stop, :3])
        np.multiply(slope[start:stop, 3], d_h, out=d_gates[start:stop, 3])
        stop, later, d_c_later = start, size, d_c
    d_gates = d_gates.reshape(rows, 4 * n)
    _accumulate(cell.weights, d_gates.T @ np.concatenate([x, hiddens[previous]], axis=1))
    _accumulate(cell.bias, d_gates.sum(axis=0))
    return d_gates @ cell.weights.value[:, :cell.input_dim]


def touched_tables(store: ParameterStore) -> list[tuple[str, Parameter, np.ndarray]]:
    """Name, table and sorted touched rows of each row-tracked table holding gradient.

    The touched rows are where a table's gradient can be nonzero: zero,
    clip, SGD and Adam read and write those entries of its gradient, value
    and moments only, so an update costs the dense arena plus the rows the
    sentence used. A table that no backward pass has reached since the
    last clear is left out; its gradient may not exist yet.
    """
    return [(name, table, np.array(sorted(table.rows), dtype=np.intp))
            for name, table in store.tables() if table.rows]


class Sgd:
    """Plain stochastic gradient descent."""

    def __init__(self, learning_rate: float):
        self.learning_rate = learning_rate

    def step(self, store: ParameterStore) -> None:
        values, grads, _ = store.dense()
        values -= self.learning_rate * grads
        for _, table, live in touched_tables(store):
            table.value[live] -= self.learning_rate * table.grad[live]
        store.zero_gradients()
        store.version += 1


class Adam:
    """Adam with lazy (nonzero-gradient-only) moment updates.

    Entries whose gradient is exactly zero are left untouched, so unused
    embedding rows never drift; the per-parameter step counter advances
    only when that parameter receives gradient. The step is the reordered
    one of Kingma & Ba 2015 (section 2): ``value -= alpha_t m / (sqrt(v) +
    eps_hat)`` with ``alpha_t = lr sqrt(1 - beta2^t) / (1 - beta1^t)`` and
    ``eps_hat = eps sqrt(1 - beta2^t)``, with ``BETA1``, ``BETA2`` and
    ``EPSILON``. The moments of the dense parameters live in two arenas
    laid out like the store's (see :meth:`ParameterStore.dense`), a
    table's in two arrays of its shape. Each arena segment is stepped in
    ``CHUNK``-element pieces that stay in cache across the arithmetic;
    a table steps its touched rows only (see :func:`touched_tables`).
    Every entry sees the same arithmetic as a full sweep masked with
    ``grad != 0``, so the results are bit-identical to one.
    """

    def __init__(self, learning_rate: float):
        self.learning_rate = learning_rate
        self._arena = None  # the store's value arena, then the two moment arenas
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self._t: dict[str, int] = {}

    def step(self, store: ParameterStore) -> None:
        values, grads, segments = store.dense()
        if self._arena is None:
            self._arena = values, *(_aligned_zeros(values.size, values.dtype) for _ in range(2))
        elif self._arena[0] is not values:
            raise ValueError("an Adam instance steps the parameters of one store")
        _, m, v = self._arena
        for name, part in segments:
            self._step(name, values[part], grads[part], m[part], v[part])
        for name, table, live in touched_tables(store):
            if name not in self._m:
                self._m[name] = np.zeros(table.value.shape, table.value.dtype)
                self._v[name] = np.zeros(table.value.shape, table.value.dtype)
            m_table, v_table = self._m[name], self._v[name]
            value, m_live, v_live = table.value[live], m_table[live], v_table[live]
            if self._step(name, value.reshape(-1), table.grad[live].reshape(-1),
                          m_live.reshape(-1), v_live.reshape(-1)):
                table.value[live], m_table[live], v_table[live] = value, m_live, v_live
        store.zero_gradients()
        store.version += 1

    def _step(self, name: str, value, grad, m, v) -> bool:
        """Step the 1-d ``value`` and moments where ``grad`` is nonzero; False if it is all zero.

        ``where=`` is a mask only for a chunk that holds a zero.
        """
        t = None
        for start in range(0, grad.size, CHUNK):
            part = slice(start, start + CHUNK)
            g = grad[part]
            where = g != 0
            if where.all():
                where = True
            elif not where.any():
                continue
            if t is None:
                t = self._t[name] = self._t.get(name, 0) + 1
                correction = math.sqrt(1.0 - BETA2 ** t)
                alpha_t = self.learning_rate * correction / (1.0 - BETA1 ** t)
                eps_hat = EPSILON * correction
            self._apply(value[part], g, m[part], v[part], alpha_t, eps_hat, where)
        return t is not None

    def _apply(self, value, grad, m, v, alpha_t: float, eps_hat: float, where) -> None:
        """Step ``value`` and the moments in place where ``where`` holds.

        ``m = BETA1 m + (1 - BETA1) g``, ``v = BETA2 v + (1 - BETA2) g g``,
        ``value -= alpha_t m / (sqrt(v) + eps_hat)``.
        """
        scratch = np.empty_like(grad)
        step = np.empty_like(grad)
        np.multiply(m, BETA1, out=m, where=where)
        np.multiply(grad, 1.0 - BETA1, out=scratch, where=where)
        np.add(m, scratch, out=m, where=where)
        np.multiply(v, BETA2, out=v, where=where)
        np.multiply(grad, 1.0 - BETA2, out=scratch, where=where)
        np.multiply(scratch, grad, out=scratch, where=where)
        np.add(v, scratch, out=v, where=where)
        np.multiply(m, alpha_t, out=step, where=where)
        np.sqrt(v, out=scratch, where=where)
        np.add(scratch, eps_hat, out=scratch, where=where)
        np.divide(step, scratch, out=step, where=where)
        np.subtract(value, step, out=value, where=where)


def clip_gradients(store: ParameterStore, max_norm: float) -> float:
    """Scale all gradients down to a global L2 norm of ``max_norm``.

    Returns the norm before clipping. The squared norm is the gradient
    arena's (summed with ``np.sum`` over ``CHUNK``-element pieces, in
    order), then each table's touched rows in sorted order, so a table's
    share can differ in the last bits from a sum over its full array.
    Scaling touches the arena and those rows only.
    """
    _, grads, _ = store.dense()
    tables = touched_tables(store)
    total = 0.0
    scratch = np.empty(min(grads.size, CHUNK), dtype=grads.dtype)
    for start in range(0, grads.size, CHUNK):
        part = grads[start:start + CHUNK]
        total += float(np.sum(np.square(part, out=scratch[:part.size])))
    for _, table, live in tables:
        grad = table.grad[live]
        total += float(np.sum(grad * grad))
    norm = math.sqrt(total)
    if norm > max_norm and norm > 0.0:
        factor = max_norm / norm
        grads *= factor
        for _, table, live in tables:
            table.grad[live] *= factor
    return norm


#: Every optimizer by name; each is built from a learning rate alone.
OPTIMIZERS = {"adam": Adam, "sgd": Sgd}
