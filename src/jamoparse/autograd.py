"""Reverse-mode differentiation over dense numpy arrays.

A graph is assembled dynamically while the forward pass runs and is torn
down afterwards; only Parameter gradients survive a backward() call. A
backward closure never holds its own output node, so a graph has no
reference cycles and is freed by reference counting as soon as it is
dropped, without waiting for Python's cyclic garbage collector.
Vectors are 1-d arrays, weight matrices 2-d, scalars 0-d; a sequence node
(see :func:`stack`) holds a 2-d ``(T, d)`` value, one row per position.
A graph is single-threaded; a finished parameter set may be shared
read-only.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np


class ShapeMismatchError(ValueError):
    """Operands with incompatible shapes."""


class Node:
    """One value in the computation graph."""

    __slots__ = ("value", "grad", "parents", "backward_fn")

    def __init__(self, value, parents=(), backward_fn=None):
        self.value = value
        self.grad = None
        self.parents = parents
        self.backward_fn = backward_fn

    def __repr__(self):
        return "Node(shape=%s)" % (self.value.shape,)


class Parameter(Node):
    """Named leaf tensor with a persistent, same-shaped gradient slot.

    A row-tracked parameter (``track_rows``: a 2-d lookup table) keeps in
    ``rows`` the set of row indices :func:`row` has written gradient into
    since the gradient was last cleared; its gradient is zero outside them,
    so it must receive gradient through :func:`row` only. ``rows`` is None
    for every other parameter.
    """

    __slots__ = ("name", "rows")

    def __init__(self, name: str, value: np.ndarray, track_rows: bool = False):
        super().__init__(value)
        self.name = name
        self.grad = np.zeros_like(value)
        self.rows = set() if track_rows else None

    def __repr__(self):
        return "Parameter(%r, shape=%s)" % (self.name, self.value.shape)


def _accumulate(node: Node, delta) -> None:
    if node.grad is not None:
        node.grad += delta
    elif np.shape(delta) == node.value.shape:
        node.grad = np.array(delta, dtype=node.value.dtype)  # a copy: one delta may feed two nodes
    else:  # a broadcast delta
        node.grad = np.zeros_like(node.value)
        node.grad += delta


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


def concat(parts: Sequence[Node]) -> Node:
    parts = tuple(parts)
    out = Node(np.concatenate([p.value for p in parts]), parts)
    sizes = [p.value.shape[0] for p in parts]

    def backward_fn(grad):
        offset = 0
        for part, size in zip(parts, sizes):
            _accumulate(part, grad[offset:offset + size])
            offset += size

    out.backward_fn = backward_fn
    return out


def _add_at(node: Node, index, grad) -> None:
    """``node.grad[index] += grad``, allocating the gradient on first use."""
    if node.grad is None:
        node.grad = np.zeros_like(node.value)
    node.grad[index] += grad


def row(table: Node, index: int) -> Node:
    """Row lookup into a 2-d table (embedding access).

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


def _topological_order(root: Node) -> list[Node]:
    order: list[Node] = []
    visited: set[int] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order  # parents precede children


def backward(root: Node) -> None:
    """Fill gradients of every node reachable from ``root``.

    The root is seeded with ones (for a scalar loss this is d loss / d loss
    = 1). Parameter gradients accumulate across calls until cleared, so two
    separate losses backpropagated one after the other equal one summed pass.
    """
    order = _topological_order(root)
    if root.grad is None:
        root.grad = np.ones_like(root.value)
    else:
        root.grad = root.grad + np.ones_like(root.value)
    for node in reversed(order):
        if node.backward_fn is not None and node.grad is not None:
            node.backward_fn(node.grad)
