"""Compositional sentence encoder: jamo -> character -> word -> context vectors.

A character is the tanh-affine blend of its three letter embeddings; a word
is read off a character-level BiLSTM; a sentence runs through a two-layer
BiLSTM over [composed word; word lookup] inputs. Each tier runs once per
sentence over all of its words or characters. Any tier can be switched off
by setting its dimension to zero, in which case its parameters are never
allocated.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import hangul
from .autograd import Node, Parameter, _accumulate, concat, gather
from .nn import LSTMCell, ParameterStore, bilstm
from .vocab import Vocabulary


def require_ints(settings, names, minimum: int | None = None) -> None:
    """ValueError naming the first of ``names`` on ``settings`` that is not an int >= ``minimum``.

    Python and numpy integers pass and a bool does not; a None ``minimum`` is no bound.
    """
    for name in names:
        value = getattr(settings, name)
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError("%s must be an int, got %r" % (name, value))
        if minimum is not None and value < minimum:
            raise ValueError("%s must be >= %d" % (name, minimum))


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
        require_ints(self, ("dim_jamo", "dim_char", "dim_word", "dim_encoder"), minimum=0)
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
#: Most forms a memo of composed word vectors holds (see SentenceEncoder.encode):
#: 6.6 MB of rows at the default 100-dimensional composed vector.
MEMO_FORMS = 8192


class SentenceEncoder:
    """Builds per-word context vectors over a ParameterStore.

    Construction creates exactly the parameters the configuration calls
    for, drawn or, on a store given saved arrays, taken from them.
    """

    def __init__(self, store: ParameterStore, config: UnitConfig,
                 jamo_vocab: Vocabulary, char_vocab: Vocabulary, word_vocab: Vocabulary):
        self.store = store
        self.config = config
        self.jamo_vocab = jamo_vocab
        self.char_vocab = char_vocab
        self.word_vocab = word_vocab
        self._letters: dict[str, tuple[int, ...]] = {}  # char -> jamo ids, see _letter_ids

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

    def _letter_ids(self, char: str) -> tuple[int, ...]:
        """Jamo ids of ``char``'s :func:`hangul.units`: (head, vowel, tail) or its own id alone."""
        ids = self._letters.get(char)
        if ids is None:
            ids = self._letters[char] = tuple(map(self.jamo_vocab.id_of, hangul.units(char)))
        return ids

    def char_repr(self, chars: Sequence[str]) -> Node:
        """Composed representations of ``chars`` as one ``(len(chars), dim_jamo)`` node.

        Hangul syllables blend head/vowel/tail letter embeddings through
        three position matrices; anything else is an atomic unit whose own
        jamo-tier embedding passes through the head matrix alone. The jamo
        tier must be on.
        """
        if self.config.dim_jamo == 0:
            raise ValueError("jamo tier is disabled (dim_jamo = 0)")
        ids = [self._letter_ids(char) for char in chars]
        syllables = [i for i, letters in enumerate(ids) if len(letters) == 3]
        lookup = ([letters[0] for letters in ids] + [ids[i][1] for i in syllables]
                  + [ids[i][2] for i in syllables])
        return _blend(gather(self.jamo_emb, lookup), np.array(syllables, dtype=np.intp),
                      (self.head_weight, self.vowel_weight, self.tail_weight), self.jamo_bias)

    def _char_inputs(self, chars: str) -> Node:
        parts = []
        if self.config.dim_jamo > 0:
            parts.append(self.char_repr(chars))
        if self.config.dim_char > 0:
            parts.append(gather(self.char_emb, [self.char_vocab.id_of(c) for c in chars]))
        return parts[0] if len(parts) == 1 else concat(parts)

    def word_repr(self, words: Sequence[str]) -> Node:
        """Composed vectors of ``words``: one ``(len(words), composed_dim)`` node, row i for word i.

        One character BiLSTM call reads every word, packed longest first; a
        word's vector is read off the forward state at its last character
        and the backward state at its first. With both sub-word tiers off
        the rows are empty; the word lookup embedding then carries the whole
        signal.
        """
        if not self.config.uses_chars:
            return Node(np.zeros((len(words), 0), dtype=self.store.dtype))
        if not all(words):
            raise ValueError("cannot encode an empty word")
        order = sorted(range(len(words)), key=lambda i: len(words[i]), reverse=True)
        lengths = np.array([len(words[i]) for i in order], dtype=np.intp)
        first = np.empty(len(words), dtype=np.intp)
        first[order] = np.cumsum(lengths) - lengths
        last = first + np.array([len(word) for word in words], dtype=np.intp) - 1
        states = bilstm(self.char_fwd, self.char_bwd,
                        self._char_inputs("".join(words[i] for i in order)), lengths)
        return _read_words(states, first, last, self.char_out, self.char_out_bias)

    def _word_id(self, word: str, rng) -> int:
        idx = self.word_vocab.id_of(word)
        if rng is not None:
            freq = self.word_vocab.count_of(word)
            if rng.random() < WORD_DROPOUT_ALPHA / (WORD_DROPOUT_ALPHA + freq):
                return self.word_vocab.unk_id
        return idx

    def encode(self, words: list[str], rng=None, memo: dict | None = None) -> Node:
        """Context vectors as one ``(len(words), dim_encoder)`` node, row i for word i.

        Given an ``rng``, frequency-based word dropout draws from it at the
        lookup tier (sub-word tiers always see the real spelling). Given a
        ``memo``, a dict from form to composed row, the composed vectors
        are read through it (see :meth:`_memo_repr`); no gradient then
        reaches the sub-word tiers, so pass one to parse only.
        """
        if not words:
            raise ValueError("cannot encode an empty sentence")
        parts = []
        if self.config.uses_chars:
            parts.append(self.word_repr(words) if memo is None else self._memo_repr(words, memo))
        if self.config.dim_word > 0:
            parts.append(gather(self.word_emb, [self._word_id(w, rng) for w in words]))
        sequence = parts[0] if len(parts) == 1 else concat(parts)
        for fwd, bwd in ((self.layer1_fwd, self.layer1_bwd), (self.layer2_fwd, self.layer2_bwd)):
            sequence = bilstm(fwd, bwd, sequence)
        return sequence

    def _memo_repr(self, words: list[str], memo: dict) -> Node:
        """:meth:`word_repr` of ``words`` as a graph-free node, composed once per form per ``memo``.

        One :meth:`word_repr` call composes the distinct forms ``memo``
        lacks, in first-occurrence order, and stores their rows; a memo that
        would pass ``MEMO_FORMS`` forms is cleared first. A row composed in
        another batch can differ from this sentence's own in the last bits.
        """
        rows = {word: memo.get(word) for word in words}
        new = [word for word, row in rows.items() if row is None]
        if new:
            rows.update(zip(new, self.word_repr(new).value))
            if len(memo) + len(new) > MEMO_FORMS:
                memo.clear()
            memo.update((word, rows[word]) for word in new[:MEMO_FORMS])
        return Node(np.stack([rows[word] for word in words]))


def _blend(letters: Node, syllables: np.ndarray, weights: tuple[Parameter, ...],
           bias: Parameter) -> Node:
    """``tanh(E_head W_head^T + E_vowel W_vowel^T + E_tail W_tail^T + b)`` per character, one node.

    ``letters`` holds every character's head row, then the vowel rows and
    then the tail rows of the characters at rows ``syllables``; the other
    characters get the head term alone. Each term is one GEMM.
    """
    chars = letters.value.shape[0] - 2 * len(syllables)
    blocks = np.split(letters.value, [chars, chars + len(syllables)])
    head, vowel, tail = (w.value.T for w in weights)
    pre = blocks[0] @ head
    pre += bias.value
    pre[syllables] += blocks[1] @ vowel
    pre[syllables] += blocks[2] @ tail
    val = np.tanh(pre)
    out = Node(val, (letters, *weights, bias))

    def backward_fn(grad):
        d_pre = grad * (1.0 - val * val)
        d_syllables = d_pre[syllables]
        d_letters = []
        for weight, d_term, block in zip(weights, (d_pre, d_syllables, d_syllables), blocks):
            _accumulate(weight, d_term.T @ block)
            d_letters.append(d_term @ weight.value)
        _accumulate(bias, d_pre.sum(axis=0))
        _accumulate(letters, np.concatenate(d_letters))

    out.backward_fn = backward_fn
    return out


def _read_words(states: Node, first: np.ndarray, last: np.ndarray, weight: Parameter,
                bias: Parameter) -> Node:
    """``tanh(ends W^T + b)``, one row per word, as one node.

    A word's ends are the forward half of ``states`` at its ``last`` row and
    the backward half at its ``first`` row.
    """
    split = weight.value.shape[0]
    ends = np.concatenate([states.value[last, :split], states.value[first, split:]], axis=1)
    pre = ends @ weight.value.T
    pre += bias.value
    val = np.tanh(pre)
    out = Node(val, (states, weight, bias))

    def backward_fn(grad):
        d_pre = grad * (1.0 - val * val)
        _accumulate(weight, d_pre.T @ ends)
        _accumulate(bias, d_pre.sum(axis=0))
        d_ends = d_pre @ weight.value
        d_states = np.zeros_like(states.value)
        d_states[last, :split] = d_ends[:, :split]
        d_states[first, split:] = d_ends[:, split:]
        _accumulate(states, d_states)

    out.backward_fn = backward_fn
    return out
