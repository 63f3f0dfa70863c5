"""Seeded Korean-like treebanks, parse inputs and embedding files.

Everything here is a pure function of a seed: the same seed gives the same
files byte for byte. Word spellings are drawn from the 11,172 precomposed
Hangul syllable blocks at U+AC00, word frequencies are Zipfian, trees are
random projective trees grown by recursive span splitting, and labels come
from a fixed set.

The seed decides content: spellings, which characters are Latin, trees and
labels. The shape of a corpus does not depend on it: the sequence of
sentence lengths, word lengths and word-frequency ranks is drawn by
stratified sampling from a fixed stream, so every seed gives the same
histograms in the same order. Timing then varies with the machine, not
with the seed, when a benchmark changes the seed on every run.
"""
from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass, field

SYLLABLE_FIRST = 0xAC00
SYLLABLE_COUNT = 11172
#: Non-Hangul characters mixed in at ``latin_frac``; atomic at the jamo tier.
LATIN = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
ROOT_LABEL = "root"
#: Seed of the stream that fixes corpus shapes (see module docstring).
SHAPE_SEED = 20170721
#: Dependency labels and their relative frequencies.
LABELS = (("nsubj", 12), ("obj", 10), ("obl", 10), ("advmod", 8), ("nmod", 8),
          ("amod", 6), ("case", 6), ("conj", 5), ("advcl", 5), ("acl", 4),
          ("aux", 4), ("det", 4), ("mark", 3), ("cc", 3), ("ccomp", 3),
          ("xcomp", 2), ("compound", 2), ("flat", 2), ("punct", 2), ("dep", 1))


@dataclass(frozen=True)
class CorpusSpec:
    """Shape of one generated corpus."""

    sentences: int
    min_len: int
    max_len: int
    #: Mean sentence length the length distribution is fitted to.
    mean_len: float
    #: Zipf exponent over word types; 0 makes every token a fresh word.
    zipf_s: float = 1.1
    #: Number of word types the Zipfian draw reuses.
    types: int = 2000
    #: Syllables per word, cycled over frequency rank.
    syllables: tuple[int, ...] = (2, 3, 1, 2, 3, 4, 2, 3, 2, 1)
    #: Share of characters replaced by Latin letters or digits.
    latin_frac: float = 0.0


@dataclass
class Sentence:
    forms: list[str]
    heads: list[int]
    labels: list[str]

    def __len__(self) -> int:
        return len(self.forms)


@dataclass
class Corpus:
    spec: CorpusSpec
    sentences: list[Sentence] = field(default_factory=list)

    @property
    def tokens(self) -> int:
        return sum(len(s) for s in self.sentences)

    def types(self) -> list[str]:
        """Distinct forms in order of first appearance."""
        return list(dict.fromkeys(f for s in self.sentences for f in s.forms))


def _cumulative(weights: list[float]) -> list[float]:
    total = 0.0
    cum = []
    for w in weights:
        total += w
        cum.append(total)
    return [c / total for c in cum]


def _stratified(rng: random.Random, cum: list[float], n: int) -> list[int]:
    """n indices whose histogram follows ``cum`` as closely as n allows.

    One uniform draw per stratum ((i + u) / n), mapped through the inverse
    CDF, then shuffled.
    """
    picks = [min(bisect.bisect_left(cum, (i + rng.random()) / n), len(cum) - 1)
             for i in range(n)]
    rng.shuffle(picks)
    return picks


def length_weights(min_len: int, max_len: int, mean_len: float) -> list[float]:
    """Exponentially tilted weights over [min_len, max_len] with the given mean.

    A treebank-like right skew when the mean is below the midpoint; the tilt
    is found by bisection.
    """
    lengths = range(min_len, max_len + 1)

    def mean(tilt):
        w = [math.exp(tilt * (L - min_len)) for L in lengths]
        return sum(L * x for L, x in zip(lengths, w)) / sum(w)

    lo, hi = -5.0, 5.0
    for _ in range(80):
        mid = (lo + hi) / 2
        if mean(mid) < mean_len:
            lo = mid
        else:
            hi = mid
    return [math.exp(lo * (L - min_len)) for L in lengths]


class Generator:
    """Seeded source of syllables, word types, trees and files."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.shape = random.Random(SHAPE_SEED)
        order = list(range(SYLLABLE_COUNT))
        self.rng.shuffle(order)
        self._syllables = [chr(SYLLABLE_FIRST + i) for i in order]
        # Zipf (s = 1) over a seeded permutation of every syllable block
        self._syllable_cum = _cumulative([1.0 / (r + 1) for r in range(SYLLABLE_COUNT)])
        self._label_names = [name for name, _ in LABELS]
        self._label_cum = _cumulative([float(w) for _, w in LABELS])
        self._seen: set[str] = set()

    def _char(self, latin_frac: float) -> str:
        if latin_frac and self.rng.random() < latin_frac:
            return self.rng.choice(LATIN)
        index = bisect.bisect_left(self._syllable_cum, self.rng.random())
        return self._syllables[min(index, SYLLABLE_COUNT - 1)]

    def word(self, syllables: int, latin_frac: float = 0.0) -> str:
        """A spelling never returned before by this generator."""
        while True:
            form = "".join(self._char(latin_frac) for _ in range(syllables))
            if form not in self._seen:
                self._seen.add(form)
                return form

    def word_types(self, count: int, syllables: tuple[int, ...],
                   latin_frac: float = 0.0) -> list[str]:
        """``count`` new types; rank r gets ``syllables[r % len]`` syllables."""
        return [self.word(syllables[r % len(syllables)], latin_frac) for r in range(count)]

    def tree(self, n: int) -> list[int]:
        """Random projective tree: heads of tokens 1..n (0 = root)."""
        heads = [0] * (n + 1)
        root = self.rng.randint(1, n)
        # (lo, hi, head): span [lo, hi] becomes subtrees attached to head
        stack = [(1, root - 1, root), (root + 1, n, root)]
        while stack:
            lo, hi, head = stack.pop()
            if lo > hi:
                continue
            end = self.rng.randint(lo, hi)
            sub = self.rng.randint(lo, end)
            heads[sub] = head
            stack.extend(((lo, sub - 1, sub), (sub + 1, end, sub), (end + 1, hi, head)))
        heads[root] = 0
        return heads[1:]

    def _label(self) -> str:
        return self._label_names[bisect.bisect_left(self._label_cum, self.rng.random())]

    def corpus(self, spec: CorpusSpec, types: list[str] | None = None) -> Corpus:
        """Sentences of the given shape.

        With ``spec.zipf_s > 0`` words are drawn from ``types`` (made fresh
        when not given) by Zipfian rank; with 0 every token is a new word.
        """
        lengths_cum = _cumulative(length_weights(spec.min_len, spec.max_len, spec.mean_len))
        lengths = [spec.min_len + i for i in _stratified(self.shape, lengths_cum, spec.sentences)]
        total = sum(lengths)
        if spec.zipf_s > 0:
            if types is None:
                types = self.word_types(spec.types, spec.syllables, spec.latin_frac)
            zipf_cum = _cumulative([1.0 / (r + 1) ** spec.zipf_s for r in range(len(types))])
            words = [types[r] for r in _stratified(self.shape, zipf_cum, total)]
        else:
            sizes = [spec.syllables[i] for i in
                     _stratified(self.shape, _cumulative([1.0] * len(spec.syllables)), total)]
            words = [self.word(k, spec.latin_frac) for k in sizes]
        corpus = Corpus(spec)
        start = 0
        for n in lengths:
            heads = self.tree(n)
            labels = [ROOT_LABEL if h == 0 else self._label() for h in heads]
            corpus.sentences.append(Sentence(words[start:start + n], heads, labels))
            start += n
        return corpus

    def embeddings(self, words: list[str], total: int, dim: int,
                   syllables: tuple[int, ...]) -> list[tuple[str, list[float]]]:
        """Vectors for ``words`` plus fresh words up to ``total`` entries, shuffled."""
        vocab = list(dict.fromkeys(words))
        vocab += self.word_types(max(0, total - len(vocab)), syllables)
        self.rng.shuffle(vocab)
        return [(w, [self.rng.uniform(-0.5, 0.5) for _ in range(dim)]) for w in vocab]


def write_conllu(corpus: Corpus, path, gold: bool = True) -> None:
    """10-column CoNLL-U; with ``gold`` off, heads and labels are ``_``."""
    with open(path, "w", encoding="utf-8") as handle:
        for sentence in corpus.sentences:
            for i, form in enumerate(sentence.forms):
                head = str(sentence.heads[i]) if gold else "_"
                label = sentence.labels[i] if gold else "_"
                handle.write("%d\t%s\t_\t_\t_\t_\t%s\t%s\t_\t_\n" % (i + 1, form, head, label))
            handle.write("\n")


def write_embeddings(rows: list[tuple[str, list[float]]], path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for word, vector in rows:
            handle.write(word + " " + " ".join("%.4f" % x for x in vector) + "\n")
