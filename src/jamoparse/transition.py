"""Arc-hybrid transition system: configurations, legality, and oracle costs.

Token indices are 1-based; index 0 is the artificial root, which starts at
the bottom of the stack and is never shifted or attached. Every sentence of
n tokens is parsed in exactly 2n transitions (n shifts, n attachments).
"""
from __future__ import annotations

from collections import deque

SHIFT = 0
LEFT_ARC = 1
RIGHT_ARC = 2


class ParserConfiguration:
    """Stack, buffer, and arc set of a partial parse.

    - shift moves the first buffer token onto the stack;
    - left-arc attaches the stack top to the first buffer token and pops;
    - right-arc attaches the stack top to the item below it and pops.
    """

    __slots__ = ("n_tokens", "stack", "buffer", "heads", "labels")

    def __init__(self, n_tokens: int):
        if n_tokens < 1:
            raise ValueError("a sentence needs at least one token")
        self.n_tokens = n_tokens
        self.stack: list[int] = [0]
        self.buffer: deque[int] = deque(range(1, n_tokens + 1))
        self.heads: dict[int, int] = {}
        self.labels: dict[int, int] = {}

    def is_terminal(self) -> bool:
        return not self.buffer and len(self.stack) == 1

    def legal_kinds(self) -> list[int]:
        """Legal transition kinds; never empty on a non-terminal configuration."""
        kinds = []
        if self.buffer:
            kinds.append(SHIFT)
            if self.stack[-1] != 0:
                kinds.append(LEFT_ARC)
        if len(self.stack) >= 2:
            kinds.append(RIGHT_ARC)
        return kinds

    def apply(self, kind: int, label: int | None = None) -> None:
        if kind == SHIFT:
            self.stack.append(self.buffer.popleft())
            return
        dependent = self.stack.pop()
        if kind == LEFT_ARC:
            head = self.buffer[0]
        elif kind == RIGHT_ARC:
            head = self.stack[-1]
        else:
            raise ValueError("unknown transition kind %d" % kind)
        self.heads[dependent] = head
        self.labels[dependent] = label

    def arcs(self) -> set[tuple[int, int]]:
        return {(head, dep) for dep, head in self.heads.items()}


def legal_transitions(config: ParserConfiguration) -> set[int]:
    """Set-valued view of :meth:`ParserConfiguration.legal_kinds`."""
    return set(config.legal_kinds())


def transition_costs(config: ParserConfiguration, gold_heads) -> dict[int, int]:
    """Dynamic-oracle cost of each legal kind: gold arcs made unreachable.

    ``gold_heads[i]`` is the gold head of token i (1-based; slot 0 unused).
    A zero-cost transition keeps the best reachable tree reachable.
    """
    costs: dict[int, int] = {}
    stack, buffer = config.stack, config.buffer
    if buffer:
        front = buffer[0]
        cost = sum(1 for item in stack[:-1] if gold_heads[front] == item)
        cost += sum(1 for item in stack if item != 0 and gold_heads[item] == front)
        costs[SHIFT] = cost
        if stack[-1] != 0:
            top = stack[-1]
            below = stack[-2]
            cost = 1 if gold_heads[top] == below else 0
            rest = list(buffer)[1:]
            if gold_heads[top] in rest:
                cost += 1
            cost += sum(1 for item in buffer if gold_heads[item] == top)
            costs[LEFT_ARC] = cost
    if len(stack) >= 2:
        top = stack[-1]
        cost = sum(1 for item in buffer if gold_heads[item] == top)
        if gold_heads[top] in buffer:
            cost += 1
        costs[RIGHT_ARC] = cost
    return costs


def formed_arc(config: ParserConfiguration, kind: int) -> tuple[int, int] | None:
    """The (head, dependent) pair an arc transition would create."""
    if kind == LEFT_ARC:
        return config.buffer[0], config.stack[-1]
    if kind == RIGHT_ARC:
        return config.stack[-2], config.stack[-1]
    return None


def correct_label(config: ParserConfiguration, kind: int, gold_heads, gold_labels) -> int | None:
    """The label a zero-cost ``kind`` must carry to stay correct, or None if any will do.

    Shift carries no label. An arc that builds a gold arc needs its gold
    label; an arc whose dependent already lost its gold head is
    label-indifferent.
    """
    if kind == SHIFT:
        return None
    head, dependent = formed_arc(config, kind)
    return gold_labels[dependent] if gold_heads[dependent] == head else None


def static_oracle(config: ParserConfiguration, gold_heads,
                  gold_labels) -> tuple[int, int | None]:
    """Canonical zero-cost (kind, label): attach eagerly, shift otherwise."""
    costs = transition_costs(config, gold_heads)
    for kind in (LEFT_ARC, RIGHT_ARC):
        if costs.get(kind) == 0:
            head, dependent = formed_arc(config, kind)
            if gold_heads[dependent] == head:
                return kind, gold_labels[dependent]
    if costs.get(SHIFT) == 0:
        return SHIFT, None
    # off the gold path (exploration): fall back to any zero-cost transition
    for kind in (LEFT_ARC, RIGHT_ARC):
        if costs.get(kind) == 0:
            return kind, gold_labels[formed_arc(config, kind)[1]]
    raise RuntimeError("no zero-cost transition; gold heads are not a projective tree")
