"""Dense contiguous vocabularies for the jamo, character, word, and label tiers."""
from __future__ import annotations

from collections import Counter
from typing import Iterable

from . import hangul

UNK = "<unk>"

#: Special entries prepended per tier. The jamo tier keeps an unknown slot
#: for unseen atomic characters and an entry for the empty tail, which is a
#: real embedded unit, not a skipped slot. Labels are a closed set.
_SPECIALS = {
    "jamo": (UNK, hangul.EMPTY),
    "char": (UNK,),
    "word": (UNK,),
    "label": (),
}


class Vocabulary:
    """Stable string-to-index map for one unit tier.

    Ids are contiguous from 0, specials first, then unit types in sorted
    order, so two builds over the same corpus agree exactly. A token list
    that repeats a token or does not open with its kind's specials raises
    ValueError.
    """

    def __init__(self, kind: str, tokens: Iterable[str], counts: dict[str, int] | None = None):
        if kind not in _SPECIALS:
            raise ValueError("unknown vocabulary kind %r" % kind)
        self.kind = kind
        self.tokens = list(tokens)
        self.counts = dict(counts) if counts else {}
        self._index = {token: i for i, token in enumerate(self.tokens)}
        if len(self._index) != len(self.tokens):
            raise ValueError("duplicate tokens in %s vocabulary" % kind)
        specials = list(_SPECIALS[kind])
        if self.tokens[:len(specials)] != specials:
            raise ValueError("%s vocabulary does not start with %s" % (kind, specials))

    @classmethod
    def build(cls, kind: str, counts: Counter | dict[str, int]) -> "Vocabulary":
        specials = _SPECIALS[kind]
        ordered = list(specials) + sorted(t for t in counts if t not in specials)
        return cls(kind, ordered, counts)

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._index

    @property
    def unk_id(self) -> int | None:
        return self._index.get(UNK)

    def id_of(self, token: str) -> int:
        """Index of ``token``, falling back to the unknown id.

        Label vocabularies have no unknown entry; an unseen label raises.
        """
        idx = self._index.get(token)
        if idx is not None:
            return idx
        unk = self.unk_id
        if unk is None:
            raise KeyError("unknown %s %r" % (self.kind, token))
        return unk

    def token_of(self, idx: int) -> str:
        return self.tokens[idx]

    def count_of(self, token: str) -> int:
        return self.counts.get(token, 0)

    def add_tokens(self, tokens: Iterable[str]) -> int:
        """Append new tokens (id order = input order); returns how many were new."""
        added = 0
        for token in tokens:
            if token not in self._index:
                self._index[token] = len(self.tokens)
                self.tokens.append(token)
                added += 1
        return added

    def to_dict(self) -> dict:
        return {"kind": self.kind, "tokens": self.tokens, "counts": self.counts}

    @classmethod
    def from_dict(cls, payload: dict) -> "Vocabulary":
        return cls(payload["kind"], payload["tokens"], payload.get("counts"))
