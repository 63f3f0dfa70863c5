"""Reverse-mode differentiation over dense numpy arrays.

A graph is assembled dynamically while the forward pass runs and is torn
down afterwards; only Parameter gradients survive a backward() call. A
backward closure never holds its own output node, so a graph has no
reference cycles and is freed by reference counting as soon as it is
dropped, without waiting for Python's cyclic garbage collector.
Vectors are 1-d arrays, weight matrices 2-d, scalars 0-d; a sequence node
(see :func:`gather`) holds a 2-d ``(T, d)`` value, one row per position.
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
    ``rows`` the set of row indices :func:`gather` has written gradient into
    since the gradient was last cleared; its gradient is zero outside them,
    so it must receive gradient through :func:`gather` only. ``rows`` is None
    for every other parameter.
    """

    __slots__ = ("name", "rows")

    def __init__(self, name: str, value: np.ndarray, track_rows: bool = False):
        super().__init__(value)
        self.name = name
        self.grad = np.zeros(value.shape, dtype=value.dtype)  # pages stay untouched until written
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


def concat(parts: Sequence[Node]) -> Node:
    """The parts side by side along their last axis.

    Vectors join into one longer vector; ``(T, d_k)`` sequence nodes join
    into one ``(T, sum of d_k)`` node, row by row.
    """
    parts = tuple(parts)
    out = Node(np.concatenate([p.value for p in parts], axis=-1), parts)
    sizes = [p.value.shape[-1] for p in parts]

    def backward_fn(grad):
        offset = 0
        for part, size in zip(parts, sizes):
            _accumulate(part, grad[..., offset:offset + size])
            offset += size

    out.backward_fn = backward_fn
    return out


def gather(table: Node, ids) -> Node:
    """Rows ``ids`` of a 2-d table as one ``(len(ids), d)`` node (embedding access).

    An id may repeat; each occurrence adds its gradient to the row. On a
    row-tracked :class:`Parameter` the backward pass also records the rows
    in ``table.rows``.
    """
    ids = np.asarray(ids, dtype=np.intp)
    out = Node(table.value[ids], (table,))
    rows = table.rows if isinstance(table, Parameter) else None
    if rows is not None:
        ids = np.where(ids < 0, ids + table.value.shape[0], ids)  # one id per row

    def backward_fn(grad):
        if table.grad is None:
            table.grad = np.zeros_like(table.value)
        np.add.at(table.grad, ids, grad)
        if rows is not None:
            rows.update(ids.tolist())

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
