"""Trainable parameter storage, initialisation, LSTM cells, and optimizers."""
from __future__ import annotations

import bisect
import math
from typing import Iterator

import numpy as np

from .autograd import (Node, Parameter, ShapeMismatchError, add, affine, concat, mul,
                       sigmoid, tanh, vslice)


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
        ``autograd.row`` only. A table bound from a loaded store stays dense.
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
        """Clear every gradient; a row-tracked table clears its touched rows."""
        for param in self._params.values():
            if param.rows is None:
                param.grad.fill(0.0)
            elif param.rows:
                param.grad[touched_rows(param)] = 0.0
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
    gate blocks are ordered input, forget, cell candidate, output.
    """

    def __init__(self, store: ParameterStore, prefix: str, input_dim: int, hidden_dim: int):
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.weights = store.matrix(prefix + "/W", 4 * hidden_dim, input_dim + hidden_dim)
        self.bias = store.vector(prefix + "/b", 4 * hidden_dim)
        self._dtype = store.dtype

    def initial_state(self) -> tuple[Node, Node]:
        zeros = np.zeros(self.hidden_dim, dtype=self._dtype)
        return Node(zeros), Node(zeros.copy())

    def step(self, x: Node, state: tuple[Node, Node]) -> tuple[Node, Node]:
        hidden, memory = state
        if x.value.shape != (self.input_dim,):
            raise ShapeMismatchError(
                "lstm input has shape %s, expected (%d,)" % (x.value.shape, self.input_dim))
        if hidden.value.shape != (self.hidden_dim,):
            raise ShapeMismatchError(
                "lstm state has shape %s, expected (%d,)" % (hidden.value.shape, self.hidden_dim))
        gates = affine([(self.weights, concat([x, hidden]))], self.bias)
        h = self.hidden_dim
        gate_in = sigmoid(vslice(gates, 0, h))
        gate_forget = sigmoid(vslice(gates, h, 2 * h))
        candidate = tanh(vslice(gates, 2 * h, 3 * h))
        gate_out = sigmoid(vslice(gates, 3 * h, 4 * h))
        new_memory = add(mul(gate_forget, memory), mul(gate_in, candidate))
        new_hidden = mul(gate_out, tanh(new_memory))
        return new_hidden, new_memory


def bilstm(fwd: LSTMCell, bwd: LSTMCell, inputs: list[Node]) -> tuple[list[Node], list[Node]]:
    """Hidden states of ``fwd`` run left to right and ``bwd`` right to left.

    Both lists are in input order: ``forward[i]`` has read ``inputs[:i + 1]``
    and ``backward[i]`` has read ``inputs[i:]``.
    """
    return _hidden_states(fwd, inputs), _hidden_states(bwd, inputs[::-1])[::-1]


def _hidden_states(cell: LSTMCell, inputs: list[Node]) -> list[Node]:
    states = []
    state = cell.initial_state()
    for x in inputs:
        state = cell.step(x, state)
        states.append(state[0])
    return states


def touched_rows(param: Parameter) -> np.ndarray:
    """Sorted indices of the rows a row-tracked parameter has gradient in."""
    return np.array(sorted(param.rows), dtype=np.intp)


class Sgd:
    """Plain stochastic gradient descent."""

    def __init__(self, learning_rate: float = 0.1):
        self.learning_rate = learning_rate

    def step(self, store: ParameterStore) -> None:
        for _, param in store.parameters():
            if param.rows is None:
                param.value -= self.learning_rate * param.grad
            elif param.rows:
                rows = touched_rows(param)
                param.value[rows] -= self.learning_rate * param.grad[rows]
        store.zero_gradients()


class Adam:
    """Adam with lazy (nonzero-gradient-only) moment updates.

    Entries whose gradient is exactly zero are left untouched, so unused
    embedding rows never drift; the per-parameter step counter advances
    only when that parameter receives gradient. A row-tracked table is
    updated on its touched rows only, and a dense tensor whose gradient is
    nonzero everywhere in place, so a step costs the dense parameters plus
    the rows the sentence used. Every entry sees the same arithmetic as a
    full masked sweep, so the results are bit-identical to one.
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
            rows = None if param.rows is None else touched_rows(param)
            grad = param.grad if rows is None else param.grad[rows]
            nonzero = np.count_nonzero(grad)
            if not nonzero:
                continue
            if name not in self._m:
                self._m[name] = np.zeros_like(param.value)
                self._v[name] = np.zeros_like(param.value)
                self._t[name] = 0
            self._t[name] += 1
            t, m, v = self._t[name], self._m[name], self._v[name]
            dense = nonzero == grad.size
            if rows is None:
                self._apply(param.value, grad, m, v, t, dense)
            else:
                value, m_rows, v_rows = param.value[rows], m[rows], v[rows]
                self._apply(value, grad, m_rows, v_rows, t, dense)
                param.value[rows], m[rows], v[rows] = value, m_rows, v_rows
        store.zero_gradients()

    def _apply(self, value, grad, m, v, t: int, dense: bool) -> None:
        """Step ``value`` and the moments in place; ``dense``: no zero in ``grad``."""
        if not dense:
            mask = grad != 0
            g = grad[mask]
            m[mask] = self.beta1 * m[mask] + (1.0 - self.beta1) * g
            v[mask] = self.beta2 * v[mask] + (1.0 - self.beta2) * g * g
            m_hat = m[mask] / (1.0 - self.beta1 ** t)
            v_hat = v[mask] / (1.0 - self.beta2 ** t)
            value[mask] -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)
            return
        # the masked arithmetic above, operation for operation, on whole arrays
        m *= self.beta1
        scratch = np.multiply(grad, 1.0 - self.beta1)
        m += scratch
        v *= self.beta2
        np.multiply(grad, 1.0 - self.beta2, out=scratch)
        scratch *= grad
        v += scratch
        step = np.divide(m, 1.0 - self.beta1 ** t)
        np.divide(v, 1.0 - self.beta2 ** t, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += self.epsilon
        step *= self.learning_rate
        step /= scratch
        value -= step


def _square_sum(param: Parameter) -> float:
    """``float(np.sum(param.grad * param.grad))``, bit for bit.

    For a row-tracked table only the touched rows are read. numpy sums a
    contiguous array pairwise: a block of at most 128 elements directly, a
    longer one as the sum of its halves, split at half its length rounded
    down to a multiple of 8. Untouched rows are zero, and a block of zeros
    adds exactly 0.0, so recursing only into blocks that overlap a touched
    row reproduces the full sum.
    """
    grad = param.grad
    if param.rows is None:
        return float(np.sum(grad * grad))
    if not param.rows:
        return 0.0
    flat = grad.reshape(-1)
    width = grad.shape[1]
    starts = [r * width for r in sorted(param.rows)]

    def touched(lo: int, hi: int) -> bool:
        last = bisect.bisect_left(starts, hi)  # rows starting before hi: starts[:last]
        return last > 0 and starts[last - 1] + width > lo

    def block(lo: int, hi: int):
        if hi - lo <= 128:
            part = flat[lo:hi]
            return np.sum(part * part)
        half = (hi - lo) // 2
        mid = lo + half - half % 8
        left, right = touched(lo, mid), touched(mid, hi)
        if left and right:
            return block(lo, mid) + block(mid, hi)
        return block(lo, mid) if left else block(mid, hi)

    return float(block(0, flat.size))


def clip_gradients(store: ParameterStore, max_norm: float) -> float:
    """Scale all gradients down to a global L2 norm of ``max_norm``.

    Returns the norm before clipping. Row-tracked tables are read and
    scaled on their touched rows only.
    """
    total = 0.0
    for _, param in store.parameters():
        total += _square_sum(param)
    norm = math.sqrt(total)
    if norm > max_norm and norm > 0.0:
        factor = max_norm / norm
        for _, param in store.parameters():
            if param.rows is None:
                param.grad *= factor
            elif param.rows:
                param.grad[touched_rows(param)] *= factor
    return norm


def make_optimizer(kind: str, learning_rate: float):
    if kind == "adam":
        return Adam(learning_rate=learning_rate)
    if kind == "sgd":
        return Sgd(learning_rate=learning_rate)
    raise ValueError("unknown optimizer %r" % kind)
