"""Output checks. Each returns a reason string on failure and None on success.

The checks see the program only through plain values (forms, heads,
labels, arrays), so a corrupted prediction can be fed to them directly.
"""
from __future__ import annotations

import hashlib
import math

import numpy as np


def tree_problem(forms: list[str], pred_forms: list[str], heads: list,
                 labels: list, label_set) -> str | None:
    """Why a predicted sentence is not a well-formed labelled tree over ``forms``."""
    n = len(forms)
    if len(pred_forms) != n or len(heads) != n or len(labels) != n:
        return "expected %d tokens, got %d" % (n, len(pred_forms))
    if list(pred_forms) != list(forms):
        return "forms changed"
    for pos, (head, label) in enumerate(zip(heads, labels), start=1):
        if not isinstance(head, (int, np.integer)) or isinstance(head, bool) or not 0 <= head <= n:
            return "token %d: head %r out of range" % (pos, head)
        if head == pos:
            return "token %d: self-loop" % pos
        if label not in label_set:
            return "token %d: label %r not in the model's labels" % (pos, label)
    # every token must reach the root; a walk longer than n steps is a cycle
    for pos in range(1, n + 1):
        node, steps = pos, 0
        while node != 0:
            node = heads[node - 1]
            steps += 1
            if steps > n:
                return "token %d: cycle, never reaches the root" % pos
    return None


def read_back(path) -> list[list[tuple[str, int | None, str | None]]]:
    """(form, head, label) per token of a 10-column CoNLL-U file."""
    sentences, current = [], []
    with open(path, encoding="utf-8") as handle:
        for raw in handle:
            line = raw.rstrip("\n")
            if not line:
                if current:
                    sentences.append(current)
                    current = []
                continue
            if line.startswith("#"):
                continue
            cols = line.split("\t")
            if len(cols) != 10:
                raise ValueError("not a 10-column line: %r" % line)
            head = None if cols[6] == "_" else int(cols[6])
            current.append((cols[1], head, None if cols[7] == "_" else cols[7]))
    if current:
        sentences.append(current)
    return sentences


def readback_problems(expected: list[list[tuple]], path) -> list[str | None]:
    """Per expected sentence: does the written file hold the same tokens?"""
    try:
        written = read_back(path)
    except (OSError, ValueError) as exc:
        return ["unreadable output: %s" % exc] * len(expected)
    if len(written) != len(expected):
        return ["written file has %d sentences, expected %d" % (len(written), len(expected))
                ] * len(expected)
    return [None if got == want else "written file differs"
            for got, want in zip(written, expected)]


def params_digest(named_arrays) -> str:
    """SHA-256 over (name, dtype, shape, bytes) of each parameter, in order."""
    digest = hashlib.sha256()
    for name, value in named_arrays:
        digest.update(("%s|%s|%s\n" % (name, value.dtype, value.shape)).encode("utf-8"))
        digest.update(np.ascontiguousarray(value).tobytes())
    return digest.hexdigest()


def file_digest(path) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def training_problem(losses: list[float], named_arrays) -> str | None:
    """Loss and every parameter must be finite."""
    for loss in losses:
        if not math.isfinite(float(loss)):
            return "non-finite loss %r" % loss
    for name, value in named_arrays:
        if not np.all(np.isfinite(value)):
            return "non-finite values in %s" % name
    return None
