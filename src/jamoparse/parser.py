"""Greedy transition parsing and max-margin training over sentence encodings."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import transition as T
from .autograd import Node, _accumulate, backward
from .data import (ConlluSentence, Token, build_label_vocabulary, build_vocabularies, evaluate,
                   load_embeddings, untrainable_reason)
from .encoder import SentenceEncoder, UnitConfig
from .nn import OPTIMIZERS, ParameterStore, clip_gradients
from .vocab import Vocabulary


class NonProjectiveError(ValueError):
    """Training was handed a non-projective tree; filter first."""


class MalformedTreeError(ValueError):
    """Training was handed gold heads that do not form a tree; see data.check_tree."""


class EmptyFormError(ValueError):
    """A dev sentence has a token with no spelling, which no tier can encode."""


#: Hinge margin: a wrong transition must score this much below the best correct one.
MARGIN = 1.0
#: Chance of following a wrong transition that outscores every correct one.
EXPLORATION = 0.1
#: Global L2 norm gradients are clipped to before each update.
CLIP_NORM = 5.0
#: Training oracles: "dynamic" explores, "static" follows the gold transitions.
ORACLES = ("dynamic", "static")


@dataclass
class TrainSettings:
    """Hyperparameters of a training run."""

    epochs: int = 30
    seed: int = 42
    optimizer: str = "adam"
    learning_rate: float = 1e-3
    hidden_dim: int = 100
    oracle: str = "dynamic"  # one of ORACLES
    explore_from_epoch: int = 2
    float32: bool = False

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.hidden_dim < 1:
            raise ValueError("hidden_dim must be positive")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be a finite positive number")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError("unknown optimizer %r" % self.optimizer)
        if self.oracle not in ORACLES:
            raise ValueError("unknown oracle %r" % self.oracle)


class TransitionScorer:
    """One-hidden-layer feedforward from four context vectors to scores.

    Features are the top three stack items and the first buffer item; a
    learned placeholder vector stands in for the root and absent positions.
    :meth:`scores` runs on plain arrays; a training sentence's one scorer
    node is :meth:`hinge_loss`. Output is one score per labeled transition:
    index 0 is shift, then left-arc per label, then right-arc per label.
    :meth:`block` and :meth:`transition_of` are the only code that knows
    this layout.
    """

    def __init__(self, store: ParameterStore, dim_encoder: int, n_labels: int, hidden_dim: int):
        self.n_labels = n_labels
        self.n_outputs = 1 + 2 * n_labels
        self.placeholder = store.vector("scorer/placeholder", dim_encoder)
        self.hidden_weight = store.matrix("scorer/W1", hidden_dim, 4 * dim_encoder)
        self.hidden_bias = store.vector("scorer/b1", hidden_dim)
        self.out_weight = store.matrix("scorer/W2", self.n_outputs, hidden_dim)
        self.out_bias = store.vector("scorer/b2", self.n_outputs)

    def block(self, kind: int) -> slice:
        """Output indices of ``kind``: shift's one, or an arc's one per label."""
        if kind == T.SHIFT:
            return slice(0, 1)
        start = 1 if kind == T.LEFT_ARC else 1 + self.n_labels
        return slice(start, start + self.n_labels)

    def transition_of(self, index: int) -> tuple[int, int | None]:
        """(kind, label) of an output index; shift has label None."""
        if index == 0:
            return T.SHIFT, None
        index -= 1
        if index < self.n_labels:
            return T.LEFT_ARC, index
        return T.RIGHT_ARC, index - self.n_labels

    def feature_table(self, encoded: Node) -> tuple[np.ndarray, np.ndarray]:
        """``(rows, products)``: a sentence's feature rows and their products with ``W1``.

        The rows are the placeholder stacked above the encoder's rows, so
        token i is row i. ``W1`` has one block of ``dim_encoder`` columns per
        feature slot; ``products[i, :, k]`` is block k times row i, the share
        of row i in the hidden layer when it fills slot k (Chen & Manning
        2014). One GEMM computes them all, reading ``W1`` uncopied.
        """
        rows = np.concatenate([self.placeholder.value[None], encoded.value])
        weight = self.hidden_weight.value
        products = rows @ weight.reshape(4 * weight.shape[0], -1).T
        return rows, products.reshape(rows.shape[0], weight.shape[0], 4)

    def scores(self, table: tuple[np.ndarray, np.ndarray],
               rows: list[int]) -> tuple[np.ndarray, np.ndarray]:
        """(hidden layer, one score per output) for the features at ``rows`` of ``table``.

        ``table`` is :meth:`feature_table`'s; the hidden layer's input is
        ``b1`` plus one product per feature slot.
        """
        products = table[1]
        pre = self.hidden_bias.value.copy()
        for slot, row in enumerate(rows):
            pre += products[row, :, slot]
        hidden = np.tanh(pre, out=pre)
        scores = self.out_bias.value.copy()
        scores += self.out_weight.value @ hidden
        return hidden, scores

    def hinge_loss(self, encoded: Node, table: tuple[np.ndarray, np.ndarray],
                   steps: list[tuple]) -> Node:
        """Sum of score[wrong] - score[correct] over ``steps``, as one node.

        ``table`` is :meth:`feature_table` of ``encoded``; each step is the
        ``(rows, hidden, scores, wrong, correct)`` of one margin violation.
        The backward pass takes one GEMM per weight over all steps and
        scatters the feature gradient into the placeholder and ``encoded``.
        """
        stacked = table[0]
        rows, hidden, scores, wrong, correct = (np.array(column) for column in zip(*steps))
        taken = np.arange(len(steps))
        out = Node(np.sum(scores[taken, wrong] - scores[taken, correct]),
                   (encoded, self.placeholder, self.hidden_weight, self.hidden_bias,
                    self.out_weight, self.out_bias))

        def backward_fn(grad):
            d_scores = np.zeros_like(scores)
            d_scores[taken, wrong] = grad
            d_scores[taken, correct] = -grad
            _accumulate(self.out_weight, d_scores.T @ hidden)
            _accumulate(self.out_bias, d_scores.sum(axis=0))
            d_pre = (d_scores @ self.out_weight.value) * (1.0 - hidden * hidden)
            features = stacked[rows]  # (steps, 4, dim)
            _accumulate(self.hidden_weight, d_pre.T @ features.reshape(len(steps), -1))
            _accumulate(self.hidden_bias, d_pre.sum(axis=0))
            d_table = np.zeros_like(stacked)
            np.add.at(d_table, rows, (d_pre @ self.hidden_weight.value).reshape(features.shape))
            _accumulate(self.placeholder, d_table[0])
            _accumulate(encoded, d_table[1:])

        out.backward_fn = backward_fn
        return out

    def legal_mask(self, config: T.ParserConfiguration) -> np.ndarray:
        """Which outputs are legal transitions in ``config``."""
        mask = np.zeros(self.n_outputs, dtype=bool)
        for kind in config.legal_kinds():
            mask[self.block(kind)] = True
        return mask

    def correct_mask(self, config: T.ParserConfiguration, costs: dict[int, int],
                     gold_heads, gold_labels) -> np.ndarray:
        """Which outputs keep the best reachable tree reachable.

        ``costs`` is :func:`transition.transition_costs` of ``config``: a
        correct transition has zero cost and, on a gold arc, the gold label.
        """
        mask = np.zeros(self.n_outputs, dtype=bool)
        for kind, cost in costs.items():
            if cost == 0:
                block = self.block(kind)
                label = T.correct_label(config, kind, gold_heads, gold_labels)
                mask[block if label is None else block.start + label] = True
        return mask


def feature_rows(config: T.ParserConfiguration) -> list[int]:
    """Table rows of stack[-1], stack[-2], stack[-3] and buffer[0]; 0 for the root or none."""
    stack = config.stack
    rows = [stack[-depth] if len(stack) >= depth else 0 for depth in (1, 2, 3)]
    rows.append(config.buffer[0] if config.buffer else 0)
    return rows


def best_index(mask: np.ndarray, values: np.ndarray) -> int:
    """Index of the highest value where ``mask`` holds, the lowest among ties; -1 if none."""
    if not mask.any():
        return -1
    return int(np.argmax(np.where(mask, values, -np.inf)))


def greedy_parse(encoder: SentenceEncoder, scorer: TransitionScorer,
                 forms: list[str]) -> list[tuple[int, int]]:
    """Parse one sentence; returns (head, label id) per token.

    The highest-scoring legal transition is applied until the terminal
    configuration; ties break towards the lowest transition index.
    """
    table = scorer.feature_table(encoder.encode(forms))
    config = T.ParserConfiguration(len(forms))
    steps = 0
    limit = 2 * len(forms)
    while not config.is_terminal():
        if steps >= limit:
            raise RuntimeError("parse exceeded %d transitions" % limit)
        _, values = scorer.scores(table, feature_rows(config))
        config.apply(*scorer.transition_of(best_index(scorer.legal_mask(config), values)))
        steps += 1
    if steps != limit:
        raise RuntimeError("parse finished in %d transitions, expected %d" % (steps, limit))
    return [(config.heads[i], config.labels[i]) for i in range(1, len(forms) + 1)]


def sentence_training_pass(encoder, scorer, sentence: ConlluSentence,
                           label_vocab: Vocabulary, settings: TrainSettings, rng, epoch: int):
    """Run the oracle-guided transition sequence once; returns (loss node, hinge total).

    Hinge terms MARGIN + score(best wrong) - score(best correct) are collected
    whenever the margin is violated; the :meth:`TransitionScorer.hinge_loss`
    node returned backpropagates their sum, or is None without a violation.
    ``rng`` draws word dropout and exploration; without it, ``epoch`` must
    come before ``settings.explore_from_epoch``.
    """
    forms = sentence.forms
    gold_heads = sentence.head_array()
    gold_labels = [None] + [label_vocab.id_of(t.label) for t in sentence.tokens]
    encoded = encoder.encode(forms, rng)
    table = scorer.feature_table(encoded)
    config = T.ParserConfiguration(len(forms))
    violations = []
    hinge_total = 0.0
    explore = settings.oracle == "dynamic" and epoch >= settings.explore_from_epoch
    while not config.is_terminal():
        costs = T.transition_costs(config, gold_heads)
        rows = feature_rows(config)
        hidden, values = scorer.scores(table, rows)
        correct = scorer.correct_mask(config, costs, gold_heads, gold_labels)
        best_correct = best_index(correct, values)
        best_wrong = best_index(scorer.legal_mask(config) & ~correct, values)
        if best_correct < 0:
            raise RuntimeError("no correct transition available; oracle invariant broken")
        if best_wrong >= 0:
            hinge = MARGIN + values[best_wrong] - values[best_correct]
            if hinge > 0:
                violations.append((rows, hidden, values, best_wrong, best_correct))
                hinge_total += hinge
        if settings.oracle == "static":
            move = T.static_oracle(config, costs, gold_heads, gold_labels)
        else:
            move = scorer.transition_of(best_correct)
            if (explore and best_wrong >= 0 and values[best_wrong] > values[best_correct]
                    and rng.random() < EXPLORATION):
                move = scorer.transition_of(best_wrong)
        config.apply(*move)
    loss = scorer.hinge_loss(encoded, table, violations) if violations else None
    return loss, hinge_total


@dataclass(eq=False)
class TrainedModel:
    """One parser: unit config, vocabularies, parameters and scorer hidden size.

    Construction binds :attr:`encoder` and :attr:`scorer` to ``store``: on a
    fresh store this creates their parameters, encoder first; on a loaded
    one it re-checks every shape against the vocabularies.
    """

    config: UnitConfig
    jamo_vocab: Vocabulary
    char_vocab: Vocabulary
    word_vocab: Vocabulary
    label_vocab: Vocabulary
    store: ParameterStore
    hidden_dim: int

    def __post_init__(self):
        self.encoder = SentenceEncoder(self.store, self.config, self.jamo_vocab,
                                       self.char_vocab, self.word_vocab)
        self.scorer = TransitionScorer(self.store, self.config.dim_encoder,
                                       len(self.label_vocab), self.hidden_dim)

    @classmethod
    def from_training(cls, result: "TrainResult") -> "TrainedModel":
        """The model a training run built; a TrainResult already is one."""
        return result

    def parse(self, forms: list[str]) -> list[tuple[int, str]]:
        """Heads and label strings for one tokenized sentence."""
        return [(head, self.label_vocab.token_of(label))
                for head, label in greedy_parse(self.encoder, self.scorer, forms)]

    def parse_sentence(self, forms: list[str]) -> ConlluSentence:
        return ConlluSentence([Token(form=form, head=head, label=label)
                               for form, (head, label) in zip(forms, self.parse(forms))])


@dataclass(eq=False)
class TrainResult(TrainedModel):
    """The trained model with the settings it was trained with and one history entry per epoch."""

    settings: TrainSettings
    history: list[dict] = field(default_factory=list)


def train(train_sentences: list[ConlluSentence],
          dev_sentences: list[ConlluSentence] | None,
          config: UnitConfig,
          settings: TrainSettings,
          embedding_vectors: dict[str, np.ndarray] | None = None,
          expand_vocabulary: bool = True,
          log=None) -> TrainResult:
    """Max-margin training with per-epoch dev model selection.

    Raises MalformedTreeError on gold heads that do not form a tree,
    NonProjectiveError on non-projective training input and EmptyFormError
    on a dev sentence with an empty form, all before the first epoch. With
    a dev treebank the best-LAS parameter snapshot wins; otherwise the last
    epoch does. ``log`` receives one machine-parseable line per epoch.

    Each history entry holds the epoch, its summed hinge loss, dev ``uas``
    and ``las`` when a dev treebank is given, the number of parameter
    ``updates``, the mean and maximum gradient norm before clipping
    (``grad_norm_mean``, ``grad_norm_max``) and the share of updates that
    were clipped (``clip_rate``); the last three are 0.0 without updates.
    """
    if not train_sentences:
        raise ValueError("empty training treebank")
    if embedding_vectors and config.dim_word == 0:
        raise ValueError("pre-trained embeddings need dim_word > 0")
    for num, sentence in enumerate(train_sentences, start=1):
        problem = untrainable_reason(sentence)
        if problem == "non-projective":
            raise NonProjectiveError("training sentence %d is non-projective" % num)
        if problem is not None:
            raise MalformedTreeError("training sentence %d is not a tree: %s" % (num, problem))
    for num, sentence in enumerate(dev_sentences or (), start=1):
        if not all(sentence.forms):
            raise EmptyFormError("dev sentence %d has an empty form" % num)

    jamo_vocab, char_vocab, word_vocab, _ = build_vocabularies(train_sentences)
    label_vocab = build_label_vocabulary(train_sentences)
    if embedding_vectors and expand_vocabulary:
        word_vocab.add_tokens(embedding_vectors)

    dtype = np.float32 if settings.float32 else np.float64
    store = ParameterStore(seed=settings.seed, dtype=dtype)
    result = TrainResult(config, jamo_vocab, char_vocab, word_vocab, label_vocab, store,
                         settings.hidden_dim, settings)
    if embedding_vectors:
        load_embeddings(embedding_vectors, word_vocab, store["word/emb"].value)
    store.dense()  # pack the arena here, in set-up, rather than inside the first update

    optimizer = OPTIMIZERS[settings.optimizer](settings.learning_rate)
    rng = store.rng  # one seeded stream drives init, shuffling, dropout, exploration
    best_las = -1.0
    best_state = None
    for epoch in range(1, settings.epochs + 1):
        order = rng.permutation(len(train_sentences))
        epoch_loss = 0.0
        norms = []
        for position in order:
            sentence = train_sentences[int(position)]
            loss_node, hinge_total = sentence_training_pass(
                result.encoder, result.scorer, sentence, label_vocab, settings, rng, epoch)
            epoch_loss += hinge_total
            if loss_node is not None:
                backward(loss_node)
                norms.append(clip_gradients(store, CLIP_NORM))
                optimizer.step(store)
        entry = {"epoch": epoch, "loss": epoch_loss, "updates": len(norms),
                 "grad_norm_mean": sum(norms) / len(norms) if norms else 0.0,
                 "grad_norm_max": max(norms, default=0.0),
                 "clip_rate": (sum(norm > CLIP_NORM for norm in norms) / len(norms)
                               if norms else 0.0)}
        if dev_sentences:
            predicted = [result.parse_sentence(s.forms) for s in dev_sentences]
            uas, las = evaluate(dev_sentences, predicted)
            entry.update(uas=uas, las=las)
            if log:
                log("epoch=%d uas=%.2f las=%.2f" % (epoch, uas, las))
            if las > best_las:
                best_las = las
                best_state = store.state_dict()
        elif log:
            log("epoch=%d loss=%.4f" % (epoch, epoch_loss))
        result.history.append(entry)
    if best_state is not None:
        store.load_state_dict(best_state)
    return result
