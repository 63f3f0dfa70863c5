"""Graph ops that only the tests build: oracles for the fused model ops.

The node-per-gate reference LSTM in ``test_bilstm.py``, the per-transition
reference scorer in ``test_parser.py``, the optimizer tests and the per-op
gradient suites compose these with the model's own ops from
:mod:`jamoparse.autograd`; the package itself never builds them.
"""
from typing import Sequence

import numpy as np

from jamoparse.autograd import (Node, ShapeMismatchError, _accumulate, _add_at, _affine_backward,
                                _affine_forward, logistic)


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


def affine(pairs: Sequence[tuple[Node, Node]], bias: Node) -> Node:
    """bias + sum of matrix @ vector over all pairs."""
    pairs = tuple(pairs)
    out = Node(*_affine_forward(pairs, bias))

    def backward_fn(grad):
        _affine_backward(pairs, bias, grad)

    out.backward_fn = backward_fn
    return out
