"""Compositional sentence encoder: jamo -> character -> word -> context vectors.

A character is the tanh-affine blend of its three letter embeddings; a word
is read off a character-level BiLSTM; a sentence runs through a two-layer
BiLSTM over [composed word; word lookup] inputs. Any tier can be switched
off by setting its dimension to zero, in which case its parameters are
never allocated.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import hangul
from .autograd import Node, affine_tanh, concat, pick, row, stack
from .nn import LSTMCell, ParameterStore, bilstm
from .vocab import UNK, Vocabulary


@dataclass(frozen=True)
class UnitConfig:
    """Dimensions of the jamo, character, word, and encoder tiers.

    ``dim_encoder`` is the total context-vector size over both directions,
    so it must be even; each direction gets half.
    """

    dim_jamo: int = 100
    dim_char: int = 100
    dim_word: int = 100
    dim_encoder: int = 250

    def __post_init__(self):
        for name in ("dim_jamo", "dim_char", "dim_word", "dim_encoder"):
            if getattr(self, name) < 0:
                raise ValueError("%s must be >= 0" % name)
        if self.dim_jamo == 0 and self.dim_char == 0 and self.dim_word == 0:
            raise ValueError("at least one of jamo/char/word dimensions must be positive")
        if self.dim_encoder <= 0 or self.dim_encoder % 2:
            raise ValueError("dim_encoder must be positive and even (split across directions)")

    @property
    def composed_dim(self) -> int:
        """Size of the composed word vector (char-BiLSTM hidden size)."""
        if self.dim_jamo > 0:
            return self.dim_jamo
        return self.dim_char

    @property
    def uses_chars(self) -> bool:
        return self.dim_jamo > 0 or self.dim_char > 0

    @property
    def word_input_dim(self) -> int:
        return (self.composed_dim if self.uses_chars else 0) + self.dim_word

    def to_dict(self) -> dict:
        return {"dim_jamo": self.dim_jamo, "dim_char": self.dim_char,
                "dim_word": self.dim_word, "dim_encoder": self.dim_encoder}

    @classmethod
    def from_dict(cls, payload: dict) -> "UnitConfig":
        return cls(**payload)


#: Word-dropout constant: replace a word by UNK with prob a/(a + freq).
WORD_DROPOUT_ALPHA = 0.25


class SentenceEncoder:
    """Builds per-word context vectors over a ParameterStore.

    Construction allocates (or, on a loaded store, binds) exactly the
    parameters the configuration calls for.
    """

    def __init__(self, store: ParameterStore, config: UnitConfig,
                 jamo_vocab: Vocabulary, char_vocab: Vocabulary, word_vocab: Vocabulary):
        self.store = store
        self.config = config
        self.jamo_vocab = jamo_vocab
        self.char_vocab = char_vocab
        self.word_vocab = word_vocab

        d = config.dim_jamo
        if d > 0:
            self.jamo_emb = store.embedding("jamo/emb", len(jamo_vocab), d)
            self.head_weight = store.matrix("jamo/head", d, d)
            self.vowel_weight = store.matrix("jamo/vowel", d, d)
            self.tail_weight = store.matrix("jamo/tail", d, d)
            self.jamo_bias = store.vector("jamo/bias", d)
        if config.dim_char > 0:
            self.char_emb = store.embedding("char/emb", len(char_vocab), config.dim_char)
        if config.uses_chars:
            comp = config.composed_dim
            char_input = config.dim_jamo + config.dim_char
            self.char_fwd = LSTMCell(store, "char/fwd", char_input, comp)
            self.char_bwd = LSTMCell(store, "char/bwd", char_input, comp)
            self.char_out = store.matrix("char/out", comp, 2 * comp)
            self.char_out_bias = store.vector("char/out_bias", comp)
        if config.dim_word > 0:
            self.word_emb = store.embedding("word/emb", len(word_vocab), config.dim_word)
        half = config.dim_encoder // 2
        word_input = config.word_input_dim
        self.layer1_fwd = LSTMCell(store, "enc/l1_fwd", word_input, half)
        self.layer1_bwd = LSTMCell(store, "enc/l1_bwd", word_input, half)
        self.layer2_fwd = LSTMCell(store, "enc/l2_fwd", config.dim_encoder, half)
        self.layer2_bwd = LSTMCell(store, "enc/l2_bwd", config.dim_encoder, half)

    def char_repr(self, char: str) -> Node:
        """Composed representation of one character (jamo tier must be on).

        Hangul syllables blend head/vowel/tail letter embeddings through
        three position matrices; anything else is an atomic unit whose own
        jamo-tier embedding passes through the head matrix alone.
        """
        if self.config.dim_jamo == 0:
            raise ValueError("jamo tier is disabled (dim_jamo = 0)")
        triple = hangul.decompose(char)
        letters = [char] if triple is None else [triple.head, triple.vowel, triple.tail]
        weights = (self.head_weight, self.vowel_weight, self.tail_weight)
        return affine_tanh([(w, row(self.jamo_emb, self.jamo_vocab.id_of(letter)))
                            for w, letter in zip(weights, letters)], self.jamo_bias)

    def _char_input(self, char: str) -> Node:
        parts = []
        if self.config.dim_jamo > 0:
            parts.append(self.char_repr(char))
        if self.config.dim_char > 0:
            parts.append(row(self.char_emb, self.char_vocab.id_of(char)))
        return parts[0] if len(parts) == 1 else concat(parts)

    def word_repr(self, word: str) -> Node:
        """Composed word vector from a character BiLSTM.

        With both sub-word tiers off this is the empty vector; the word
        lookup embedding then carries the whole signal.
        """
        if not self.config.uses_chars:
            return Node(np.zeros(0, dtype=self.store.dtype))
        if not word:
            raise ValueError("cannot encode an empty word")
        states = bilstm(self.char_fwd, self.char_bwd,
                        stack([self._char_input(c) for c in word]))
        n = self.config.composed_dim
        # the forward direction's last state and the backward direction's first
        ends = concat([pick(states, (-1, slice(None, n))), pick(states, (0, slice(n, None)))])
        return affine_tanh([(self.char_out, ends)], self.char_out_bias)

    def _word_id(self, word: str, training: bool, rng) -> int:
        idx = self.word_vocab.id_of(word)
        if training and rng is not None:
            freq = self.word_vocab.count_of(word)
            if rng.random() < WORD_DROPOUT_ALPHA / (WORD_DROPOUT_ALPHA + freq):
                return self.word_vocab.unk_id
        return idx

    def encode(self, words: list[str], training: bool = False, rng=None) -> Node:
        """Context vectors as one ``(len(words), dim_encoder)`` node, row i for word i.

        ``training`` enables frequency-based word dropout at the lookup
        tier (sub-word tiers always see the real spelling).
        """
        if not words:
            raise ValueError("cannot encode an empty sentence")
        inputs = []
        for word in words:
            parts = []
            if self.config.uses_chars:
                parts.append(self.word_repr(word))
            if self.config.dim_word > 0:
                parts.append(row(self.word_emb, self._word_id(word, training, rng)))
            inputs.append(parts[0] if len(parts) == 1 else concat(parts))
        sequence = stack(inputs)
        for fwd, bwd in ((self.layer1_fwd, self.layer1_bwd), (self.layer2_fwd, self.layer2_bwd)):
            sequence = bilstm(fwd, bwd, sequence)
        return sequence
