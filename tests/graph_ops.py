"""Graph ops that only the tests build: oracles for the fused model ops.

The node-per-gate reference LSTM in ``test_bilstm.py``, the per-word
reference char tier in ``test_encoder.py``, the per-transition reference
scorer in ``test_parser.py``, the optimizer tests and the per-op gradient
suites compose these with the model's own ops from
:mod:`jamoparse.autograd`; the package itself never builds them.
"""
from typing import Sequence

import numpy as np

from jamoparse.autograd import Node, Parameter, ShapeMismatchError, _accumulate


def _add_at(node: Node, index, grad) -> None:
    """``node.grad[index] += grad``, allocating the gradient on first use."""
    if node.grad is None:
        node.grad = np.zeros_like(node.value)
    node.grad[index] += grad


def row(table: Node, index: int) -> Node:
    """Row lookup into a 2-d table (one-row ``gather``).

    On a row-tracked :class:`Parameter` the backward pass also records the
    row in ``table.rows``.
    """
    out = Node(table.value[index], (table,))
    rows = table.rows if isinstance(table, Parameter) else None
    if rows is not None and index < 0:
        index += table.value.shape[0]  # one id per row

    def backward_fn(grad):
        _add_at(table, index, grad)
        if rows is not None:
            rows.add(index)

    out.backward_fn = backward_fn
    return out


def pick(a: Node, index) -> Node:
    """``a.value[index]`` for a basic numpy index.

    One element of a vector gives a 0-d node; ``(t, slice(...))`` reads part
    of row ``t`` of a sequence node.
    """
    out = Node(a.value[index], (a,))

    def backward_fn(grad):
        _add_at(a, index, grad)

    out.backward_fn = backward_fn
    return out


def stack(parts: Sequence[Node]) -> Node:
    """Same-sized vectors as the rows of one sequence node."""
    parts = tuple(parts)
    out = Node(np.stack([p.value for p in parts]), parts)

    def backward_fn(grad):
        for part, part_grad in zip(parts, grad):
            _accumulate(part, part_grad)

    out.backward_fn = backward_fn
    return out


def constant(value, dtype=np.float64) -> Node:
    """Wrap a plain array as a leaf node (no gradient tracking)."""
    return Node(np.asarray(value, dtype=dtype))


def add(a: Node, b: Node) -> Node:
    if a.value.shape != b.value.shape:
        raise ShapeMismatchError("add: %s vs %s" % (a.value.shape, b.value.shape))
    out = Node(a.value + b.value, (a, b))

    def backward_fn(grad):
        _accumulate(a, grad)
        _accumulate(b, grad)

    out.backward_fn = backward_fn
    return out


def mul(a: Node, b: Node) -> Node:
    """Elementwise product."""
    if a.value.shape != b.value.shape:
        raise ShapeMismatchError("mul: %s vs %s" % (a.value.shape, b.value.shape))
    out = Node(a.value * b.value, (a, b))

    def backward_fn(grad):
        _accumulate(a, grad * b.value)
        _accumulate(b, grad * a.value)

    out.backward_fn = backward_fn
    return out


def scale(a: Node, factor: float) -> Node:
    out = Node(a.value * factor, (a,))

    def backward_fn(grad):
        _accumulate(a, grad * factor)

    out.backward_fn = backward_fn
    return out


def tanh(a: Node) -> Node:
    val = np.tanh(a.value)
    out = Node(val, (a,))

    def backward_fn(grad):
        _accumulate(a, grad * (1.0 - val * val))

    out.backward_fn = backward_fn
    return out


def logistic(x: np.ndarray) -> np.ndarray:
    """Elementwise ``1 / (1 + exp(-x))`` on a plain array.

    ``exp`` only ever sees ``-|x|``, so it cannot overflow: the result is
    ``1 / (1 + e)`` where ``x >= 0`` and ``e / (1 + e)`` elsewhere.
    """
    e = np.exp(-np.abs(x))
    value = np.maximum(e, x >= 0)  # 1 where x >= 0 (there e <= 1), else e
    e += 1.0
    value /= e
    return value


def sigmoid(a: Node) -> Node:
    val = logistic(a.value)
    out = Node(val, (a,))

    def backward_fn(grad):
        _accumulate(a, grad * val * (1.0 - val))

    out.backward_fn = backward_fn
    return out


def matvec(w: Node, x: Node) -> Node:
    """2-d weight times 1-d vector."""
    if w.value.ndim != 2 or x.value.ndim != 1 or w.value.shape[1] != x.value.shape[0]:
        raise ShapeMismatchError("matvec: %s @ %s" % (w.value.shape, x.value.shape))
    out = Node(w.value @ x.value, (w, x))

    def backward_fn(grad):
        _accumulate(w, np.outer(grad, x.value))
        _accumulate(x, w.value.T @ grad)

    out.backward_fn = backward_fn
    return out


def vslice(a: Node, start: int, stop: int) -> Node:
    out = Node(a.value[start:stop], (a,))

    def backward_fn(grad):
        _add_at(a, slice(start, stop), grad)

    out.backward_fn = backward_fn
    return out


def vsum(a: Node) -> Node:
    """Sum of all elements, as a 0-d node."""
    out = Node(np.sum(a.value), (a,))

    def backward_fn(grad):
        _accumulate(a, np.full_like(a.value, grad))

    out.backward_fn = backward_fn
    return out


def sub(a: Node, b: Node) -> Node:
    if a.value.shape != b.value.shape:
        raise ShapeMismatchError("sub: %s vs %s" % (a.value.shape, b.value.shape))
    out = Node(a.value - b.value, (a, b))

    def backward_fn(grad):
        _accumulate(a, grad)
        _accumulate(b, -grad)

    out.backward_fn = backward_fn
    return out


def add_n(nodes: Sequence[Node]) -> Node:
    """Sum of same-shaped nodes; handy for accumulating loss terms."""
    nodes = tuple(nodes)
    if not nodes:
        raise ValueError("add_n needs at least one node")
    total = nodes[0].value
    for node in nodes[1:]:
        total = total + node.value
    out = Node(total, nodes)

    def backward_fn(grad):
        for node in nodes:
            _accumulate(node, grad)

    out.backward_fn = backward_fn
    return out


def _affine_forward(pairs: tuple, bias: Node) -> tuple[np.ndarray, tuple[Node, ...]]:
    """Checked ``bias + sum of matrix @ vector`` over all pairs, and the parent nodes."""
    if bias.value.ndim != 1:
        raise ShapeMismatchError("affine: bias must be a vector, got %s" % (bias.value.shape,))
    pre = bias.value.copy()
    for i, (w, x) in enumerate(pairs):
        if (w.value.ndim != 2 or x.value.ndim != 1
                or w.value.shape[1] != x.value.shape[0]):
            raise ShapeMismatchError(
                "affine: pair %d has %s @ %s" % (i, w.value.shape, x.value.shape))
        if w.value.shape[0] != bias.value.shape[0]:
            raise ShapeMismatchError(
                "affine: pair %d rows %d != bias size %d"
                % (i, w.value.shape[0], bias.value.shape[0]))
        pre += w.value @ x.value
    return pre, tuple(n for pair in pairs for n in pair) + (bias,)


def _affine_backward(pairs: tuple, bias: Node, grad) -> None:
    """Accumulate gradients of the pre-activation ``grad`` into weights, inputs and bias."""
    for w, x in pairs:
        _accumulate(w, np.outer(grad, x.value))
        _accumulate(x, w.value.T @ grad)
    _accumulate(bias, grad)


def affine(pairs: Sequence[tuple[Node, Node]], bias: Node) -> Node:
    """bias + sum of matrix @ vector over all pairs."""
    pairs = tuple(pairs)
    out = Node(*_affine_forward(pairs, bias))

    def backward_fn(grad):
        _affine_backward(pairs, bias, grad)

    out.backward_fn = backward_fn
    return out


def affine_tanh(pairs: Sequence[tuple[Node, Node]], bias: Node) -> Node:
    """tanh of :func:`affine`, as one node; the pre-activation is not retained."""
    pairs = tuple(pairs)
    pre, parents = _affine_forward(pairs, bias)
    val = np.tanh(pre)
    out = Node(val, parents)

    def backward_fn(grad):
        _affine_backward(pairs, bias, grad * (1.0 - val * val))

    out.backward_fn = backward_fn
    return out
