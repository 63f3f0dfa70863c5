"""Arc-hybrid transition system: configurations, legality, arcs, and dynamic-oracle costs.

Token indices are 1-based; index 0 is the artificial root, which starts at
the bottom of the stack and is never shifted or attached. Every sentence of
n tokens is parsed in exactly 2n transitions (n shifts, n attachments).
"""
from __future__ import annotations

SHIFT = 0
LEFT_ARC = 1
RIGHT_ARC = 2


class ParserConfiguration:
    """Stack, buffer, and arc set of a partial parse.

    The buffer is always the sentence's unshifted suffix, so it is a
    ``range``: membership is a bounds check.

    - shift moves the first buffer token onto the stack;
    - left-arc attaches the stack top to the first buffer token and pops;
    - right-arc attaches the stack top to the item below it and pops.
    """

    __slots__ = ("stack", "buffer", "heads", "labels")

    def __init__(self, n_tokens: int):
        if n_tokens < 1:
            raise ValueError("a sentence needs at least one token")
        self.stack: list[int] = [0]
        self.buffer = range(1, n_tokens + 1)
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
        """Apply ``kind``; ValueError, before anything changes, unless it is legal here."""
        if kind not in self.legal_kinds():
            raise ValueError("transition kind %r is not legal here" % (kind,))
        if kind == SHIFT:
            self.stack.append(self.buffer[0])
            self.buffer = self.buffer[1:]
            return
        head, dependent = formed_arc(self, kind)
        self.stack.pop()
        self.heads[dependent] = head
        self.labels[dependent] = label


def formed_arc(config: ParserConfiguration, kind: int) -> tuple[int, int] | None:
    """The (head, dependent) arc ``kind`` forms: None for shift, ValueError if unknown."""
    if kind == LEFT_ARC:
        return config.buffer[0], config.stack[-1]
    if kind == RIGHT_ARC:
        return config.stack[-2], config.stack[-1]
    if kind == SHIFT:
        return None
    raise ValueError("unknown transition kind %d" % kind)


def transition_costs(config: ParserConfiguration, gold_heads) -> dict[int, int]:
    """Dynamic-oracle cost of each legal kind: gold arcs made unreachable.

    ``gold_heads[i]`` is the gold head of token i (1-based; slot 0 unused).
    A zero-cost transition keeps the best reachable tree reachable. Shift
    loses the front's gold head if it is on the stack below the top, and its
    gold dependents on the stack. An arc popping d under h loses d's gold
    head if that is not h and still reachable (``stack[-2]`` or in the
    buffer), and d's gold dependents in the buffer.
    """
    costs: dict[int, int] = {}
    stack, buffer = config.stack, config.buffer
    for kind in config.legal_kinds():
        if kind == SHIFT:
            front = buffer[0]
            cost = gold_heads[front] in stack[:-1]
            cost += sum(1 for item in stack if item != 0 and gold_heads[item] == front)
        else:
            head, dependent = formed_arc(config, kind)
            gold = gold_heads[dependent]
            cost = gold != head and (gold == stack[-2] or gold in buffer)
            cost += sum(1 for item in buffer if gold_heads[item] == dependent)
        costs[kind] = cost
    return costs
