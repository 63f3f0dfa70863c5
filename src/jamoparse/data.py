"""Treebank ingestion, corpus statistics, embedding files, and attachment scores."""
from __future__ import annotations

import re
import unicodedata
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import hangul
from .vocab import Vocabulary


class ConlluFormatError(ValueError):
    """Malformed treebank input; message carries the line number."""


class AlignmentError(ValueError):
    """Gold and predicted treebanks do not line up."""


class EmbeddingFormatError(ValueError):
    """Malformed or dimension-inconsistent embedding file."""


@dataclass
class Token:
    form: str
    head: int | None  # 0 = artificial root
    label: str | None


@dataclass
class ConlluSentence:
    tokens: list[Token] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def forms(self) -> list[str]:
        return [t.form for t in self.tokens]

    def head_array(self) -> list[int | None]:
        """Gold heads indexed by 1-based token position (slot 0 unused)."""
        return [None] + [t.head for t in self.tokens]


#: IDs of lines the reader skips: multiword ranges N-M and empty nodes N.M.
_SKIPPED_ID = re.compile(r"[0-9]+-[0-9]+|[0-9]+\.[0-9]+")


def read_conllu(path, allow_missing_heads: bool = False) -> list[ConlluSentence]:
    """Parse a 10-column CoNLL-U / CoNLL-X file.

    Multiword ranges (1-2) and empty nodes (1.1) are skipped, comment lines
    ignored, blank lines separate sentences; every other line's ID (``-``
    and ``x.y`` included) must be the next integer of its sentence (1, 2,
    ...). Head `_` is only accepted when ``allow_missing_heads`` is set
    (unannotated input for parsing). A leading UTF-8 byte-order mark is
    dropped.
    """
    sentences: list[ConlluSentence] = []
    current: list[Token] = []
    with open(path, encoding="utf-8-sig") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            if not line:
                if current:
                    sentences.append(ConlluSentence(current))
                    current = []
                continue
            if line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 10:
                raise ConlluFormatError(
                    "line %d: expected 10 tab-separated columns, got %d" % (lineno, len(fields)))
            token_id = fields[0]
            if _SKIPPED_ID.fullmatch(token_id):
                continue
            if token_id != str(len(current) + 1):
                raise ConlluFormatError("line %d: expected token id %d, got %r"
                                        % (lineno, len(current) + 1, token_id))
            head_field = fields[6]
            if head_field == "_":
                if not allow_missing_heads:
                    raise ConlluFormatError("line %d: missing head" % lineno)
                head = None
            else:
                try:
                    head = int(head_field)
                except ValueError:
                    raise ConlluFormatError(
                        "line %d: non-integer head %r" % (lineno, head_field)) from None
            label = fields[7] if fields[7] != "_" else None
            current.append(Token(form=fields[1], head=head, label=label))
    if current:
        sentences.append(ConlluSentence(current))
    return sentences


def write_conllu(sentences: list[ConlluSentence], path) -> None:
    """Write form/head/label; columns this tool does not own become `_`."""
    with open(path, "w", encoding="utf-8") as handle:
        for sentence in sentences:
            for i, token in enumerate(sentence.tokens, start=1):
                head = "_" if token.head is None else str(token.head)
                label = token.label if token.label is not None else "_"
                handle.write("%d\t%s\t_\t_\t_\t_\t%s\t%s\t_\t_\n" % (i, token.form, head, label))
            handle.write("\n")


def validate_treebank(sentences: list[ConlluSentence]) -> list[str]:
    """Report (not raise) check_tree failures and odd root counts, as "sentence N: <issue>"."""
    issues = []
    for num, sentence in enumerate(sentences, start=1):
        for issue in (check_tree(sentence), root_count_warning(sentence)):
            if issue is not None:
                issues.append("sentence %d: %s" % (num, issue))
    return issues


def root_count_warning(sentence: ConlluSentence) -> str | None:
    """"K tokens attached to root" when an annotated sentence has K != 1 root attachments."""
    roots = sum(t.head == 0 for t in sentence.tokens)
    if roots != 1 and any(t.head is not None for t in sentence.tokens):
        return "%d tokens attached to root" % roots
    return None


def check_tree(sentence: ConlluSentence) -> str | None:
    """Why the gold annotation is not a labeled tree under the root, or None if it is.

    The reason is one of "empty form" (a token with no spelling, which no
    tier can encode), "missing head", "head out of range" (outside 0..n),
    "self-loop", "missing label" and "cycle" (some token does not reach the
    root). Several tokens may attach to the root: the arc-hybrid system
    builds such trees, and :func:`validate_treebank` warns about them.
    """
    heads = [None] + [t.head for t in sentence.tokens]
    n = len(sentence)
    for pos in range(1, n + 1):
        if not sentence.tokens[pos - 1].form:
            return "empty form"
        if heads[pos] is None:
            return "missing head"
        if not 0 <= heads[pos] <= n:
            return "head out of range"
        if heads[pos] == pos:
            return "self-loop"
        if sentence.tokens[pos - 1].label is None:
            return "missing label"
    # 0: not seen yet, 1: on the current walk, 2: reaches the root
    state = [2] + [0] * n
    for start in range(1, n + 1):
        walk = []
        pos = start
        while state[pos] == 0:
            state[pos] = 1
            walk.append(pos)
            pos = heads[pos]
        if state[pos] == 1:
            return "cycle"
        for pos in walk:
            state[pos] = 2
    return None


def is_projective(sentence: ConlluSentence) -> bool:
    """True iff no two arcs cross (root arcs included, root at position 0).

    Arcs are visited by left end, and among equal left ends longest first,
    against a stack of the right ends of the arcs still open. While nothing
    crosses, the open arcs nest, so a new arc crosses an earlier one iff it
    ends beyond the innermost open arc.
    """
    arcs = []
    for pos, token in enumerate(sentence.tokens, start=1):
        if token.head is None:
            raise ValueError("projectivity needs gold heads")
        arcs.append((min(token.head, pos), max(token.head, pos)))
    ordered = sorted(arcs, key=lambda arc: (arc[0], -arc[1]))
    open_ends: list[int] = []
    for lo, hi in ordered:
        while open_ends and open_ends[-1] <= lo:
            open_ends.pop()
        if open_ends and open_ends[-1] < hi:
            return False
        open_ends.append(hi)
    return True


def untrainable_reason(sentence: ConlluSentence) -> str | None:
    """Why training cannot use ``sentence``: a check_tree reason, "non-projective", or None."""
    reason = check_tree(sentence)
    if reason is None and not is_projective(sentence):
        return "non-projective"
    return reason


@dataclass
class CorpusStats:
    """Unit-type counts over a training split, with Korean-only sub-counts."""

    n_trees: int
    n_projective: int
    n_nonprojective: int
    word_types: int
    char_types: int
    char_types_korean: int
    jamo_types: int
    jamo_types_korean: int

    def report(self) -> str:
        lines = [
            "trees      total %6d   projective %6d   non-projective %d"
            % (self.n_trees, self.n_projective, self.n_nonprojective),
            "",
            "           #        # Ko",
            "word   %7d          --" % self.word_types,
            "char   %7d     %7d" % (self.char_types, self.char_types_korean),
            "jamo   %7d     %7d" % (self.jamo_types, self.jamo_types_korean),
        ]
        return "\n".join(lines)


def build_vocabularies(
    sentences: list[ConlluSentence],
) -> tuple[Vocabulary, Vocabulary, Vocabulary, CorpusStats]:
    """Word/char/jamo vocabularies plus corpus statistics.

    The jamo tier holds canonical Korean letters and atomic non-Hangul
    characters; the empty tail lives in the vocabulary as a special, not as
    a counted type.
    """
    if not sentences:
        raise ValueError("empty treebank")
    word_counts: Counter = Counter()
    char_counts: Counter = Counter()
    jamo_counts: Counter = Counter()
    n_projective = 0
    for sentence in sentences:
        if is_projective(sentence):
            n_projective += 1
        for token in sentence.tokens:
            word_counts[token.form] += 1
            for char in token.form:
                char_counts[char] += 1
            for unit in hangul.decompose_text(token.form):
                if isinstance(unit, hangul.JamoTriple):
                    for letter in unit.letters():
                        jamo_counts[letter] += 1
                else:
                    jamo_counts[unit] += 1
    stats = CorpusStats(
        n_trees=len(sentences),
        n_projective=n_projective,
        n_nonprojective=len(sentences) - n_projective,
        word_types=len(word_counts),
        char_types=len(char_counts),
        char_types_korean=sum(1 for c in char_counts if hangul.is_syllable(c)),
        jamo_types=len(jamo_counts),
        jamo_types_korean=sum(1 for j in jamo_counts if j in hangul.ALPHABET),
    )
    return (
        Vocabulary.build("jamo", jamo_counts),
        Vocabulary.build("char", char_counts),
        Vocabulary.build("word", word_counts),
        stats,
    )


def build_label_vocabulary(sentences: list[ConlluSentence]) -> Vocabulary:
    labels = Counter(t.label for s in sentences for t in s.tokens if t.label is not None)
    if not labels:
        raise ValueError("treebank has no dependency labels")
    return Vocabulary.build("label", labels)


def read_embeddings(path, expected_dim: int | None = None) -> tuple[int, dict[str, np.ndarray]]:
    """Read `token v1 .. vD` lines after any byte-order mark; rows share one finite dimension."""
    vectors: dict[str, np.ndarray] = {}
    dim: int | None = None
    with open(path, encoding="utf-8-sig") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) < 2:
                raise EmbeddingFormatError("line %d: expected token and values" % lineno)
            token, values = parts[0], parts[1:]
            try:
                vector = np.array(values, dtype=np.float64)
            except ValueError:
                raise EmbeddingFormatError("line %d: non-numeric value" % lineno) from None
            if not np.isfinite(vector).all():
                raise EmbeddingFormatError("line %d: non-finite value" % lineno)
            if dim is None:
                dim = vector.size
                if expected_dim is not None and dim != expected_dim:
                    raise EmbeddingFormatError(
                        "embedding dimension %d does not match configured %d" % (dim, expected_dim))
            elif vector.size != dim:
                raise EmbeddingFormatError(
                    "line %d: dimension %d differs from %d" % (lineno, vector.size, dim))
            vectors[token] = vector
    if dim is None:
        raise EmbeddingFormatError("embedding file is empty")
    return dim, vectors


def load_embeddings(vectors: dict[str, np.ndarray], vocabulary: Vocabulary,
                    table: np.ndarray) -> int:
    """Overwrite table rows for in-vocabulary tokens; returns the overlap count."""
    if table.shape[0] != len(vocabulary):
        raise ValueError("table rows %d != vocabulary size %d" % (table.shape[0], len(vocabulary)))
    overlap = 0
    for token, vector in vectors.items():
        if token in vocabulary:
            table[vocabulary.id_of(token)] = vector
            overlap += 1
    return overlap


def _is_punctuation(form: str) -> bool:
    return bool(form) and all(unicodedata.category(c).startswith("P") for c in form)


def evaluate(gold: list[ConlluSentence], predicted: list[ConlluSentence],
             exclude_punct: bool = False) -> tuple[float, float]:
    """Unlabeled and labeled attachment scores, as percentages.

    Tokens whose form is entirely Unicode punctuation are skipped when
    ``exclude_punct`` is set.
    """
    if len(gold) != len(predicted):
        raise AlignmentError(
            "sentence count mismatch: %d gold vs %d predicted" % (len(gold), len(predicted)))
    total = correct_heads = correct_labeled = 0
    for num, (g, p) in enumerate(zip(gold, predicted), start=1):
        if len(g) != len(p):
            raise AlignmentError(
                "sentence %d: token count mismatch (%d vs %d)" % (num, len(g), len(p)))
        for gt, pt in zip(g.tokens, p.tokens):
            if exclude_punct and _is_punctuation(gt.form):
                continue
            total += 1
            if gt.head == pt.head:
                correct_heads += 1
                if gt.label == pt.label:
                    correct_labeled += 1
    if total == 0:
        return 0.0, 0.0
    return 100.0 * correct_heads / total, 100.0 * correct_labeled / total
