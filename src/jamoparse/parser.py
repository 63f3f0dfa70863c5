"""Greedy transition parsing and max-margin training over sentence encodings."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import transition as T
from .autograd import Node, add_n, affine, affine_tanh, backward, concat, pick, sub
from .data import (ConlluSentence, Token, build_label_vocabulary, build_vocabularies, check_tree,
                   evaluate, is_projective)
from .encoder import SentenceEncoder, UnitConfig
from .nn import ParameterStore, clip_gradients, make_optimizer
from .vocab import Vocabulary


class NonProjectiveError(ValueError):
    """Training was handed a non-projective tree; filter first."""


class MalformedTreeError(ValueError):
    """Training was handed gold heads that do not form a tree; see data.check_tree."""


#: Hinge margin: a wrong transition must score this much below the best correct one.
MARGIN = 1.0
#: Chance of following a wrong transition that outscores every correct one.
EXPLORATION = 0.1
#: Global L2 norm gradients are clipped to before each update.
CLIP_NORM = 5.0


@dataclass
class TrainSettings:
    """Hyperparameters of a training run."""

    epochs: int = 30
    seed: int = 42
    optimizer: str = "adam"
    learning_rate: float = 1e-3
    hidden_dim: int = 100
    oracle: str = "dynamic"  # or "static"
    explore_from_epoch: int = 2
    float32: bool = False


class TransitionScorer:
    """One-hidden-layer feedforward from four context vectors to scores.

    Features are the top three stack items and the first buffer item; a
    learned placeholder vector stands in for absent positions. Output is
    one score per labeled transition: index 0 is shift, then left-arc per
    label, then right-arc per label. :meth:`block` and
    :meth:`transition_of` are the only code that knows this layout.
    """

    def __init__(self, store: ParameterStore, dim_encoder: int, n_labels: int,
                 hidden_dim: int = 100):
        self.dim_encoder = dim_encoder
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

    def features(self, config: T.ParserConfiguration, encodings: list[Node]) -> Node:
        """Concatenation of stack[-1], stack[-2], stack[-3], buffer[0] vectors.

        ``encodings[i]`` must hold token i+1; the root and absent slots use
        the learned placeholder.
        """
        parts = []
        for depth in (1, 2, 3):
            if len(config.stack) > depth - 1 and config.stack[-depth] != 0:
                parts.append(encodings[config.stack[-depth] - 1])
            else:
                parts.append(self.placeholder)
        if config.buffer:
            parts.append(encodings[config.buffer[0] - 1])
        else:
            parts.append(self.placeholder)
        return concat(parts)

    def scores(self, config: T.ParserConfiguration, encodings: list[Node]) -> Node:
        hidden = affine_tanh([(self.hidden_weight, self.features(config, encodings))],
                             self.hidden_bias)
        return affine([(self.out_weight, hidden)], self.out_bias)

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
    encodings = encoder.encode(forms)
    config = T.ParserConfiguration(len(forms))
    steps = 0
    limit = 2 * len(forms)
    while not config.is_terminal():
        if steps >= limit:
            raise RuntimeError("parse exceeded %d transitions" % limit)
        values = scorer.scores(config, encodings).value
        config.apply(*scorer.transition_of(best_index(scorer.legal_mask(config), values)))
        steps += 1
    if steps != limit:
        raise RuntimeError("parse finished in %d transitions, expected %d" % (steps, limit))
    return [(config.heads[i], config.labels[i]) for i in range(1, len(forms) + 1)]


def parse_to_sentence(encoder: SentenceEncoder, scorer: TransitionScorer,
                      label_vocab: Vocabulary, forms: list[str]) -> ConlluSentence:
    parsed = greedy_parse(encoder, scorer, forms)
    tokens = [Token(form=form, head=head, label=label_vocab.token_of(label))
              for form, (head, label) in zip(forms, parsed)]
    return ConlluSentence(tokens)


def sentence_training_pass(encoder, scorer, sentence: ConlluSentence,
                           label_vocab: Vocabulary, settings: TrainSettings,
                           rng, epoch: int, training: bool = True):
    """Run the oracle-guided transition sequence once; returns (loss node, hinge total).

    Hinge terms MARGIN + score(best wrong) - score(best correct) are collected
    whenever the margin is violated; the returned node backpropagates their
    sum (the margin constant has no gradient).
    """
    forms = sentence.forms
    gold_heads = sentence.head_array()
    gold_labels = [None] + [label_vocab.id_of(t.label) for t in sentence.tokens]
    encodings = encoder.encode(forms, training=training, rng=rng)
    config = T.ParserConfiguration(len(forms))
    loss_terms: list[Node] = []
    hinge_total = 0.0
    explore = (training and settings.oracle == "dynamic"
               and epoch >= settings.explore_from_epoch)
    while not config.is_terminal():
        costs = T.transition_costs(config, gold_heads)
        score_node = scorer.scores(config, encodings)
        values = score_node.value
        correct = scorer.correct_mask(config, costs, gold_heads, gold_labels)
        best_correct = best_index(correct, values)
        best_wrong = best_index(scorer.legal_mask(config) & ~correct, values)
        if best_correct < 0:
            raise RuntimeError("no correct transition available; oracle invariant broken")
        if best_wrong >= 0:
            hinge = MARGIN + values[best_wrong] - values[best_correct]
            if hinge > 0:
                loss_terms.append(sub(pick(score_node, best_wrong),
                                      pick(score_node, best_correct)))
                hinge_total += hinge
        if settings.oracle == "static" and training:
            move = T.static_oracle(config, gold_heads, gold_labels)
        else:
            move = scorer.transition_of(best_correct)
            if (explore and best_wrong >= 0 and values[best_wrong] > values[best_correct]
                    and rng.random() < EXPLORATION):
                move = scorer.transition_of(best_wrong)
        config.apply(*move)
    loss_node = add_n(loss_terms) if loss_terms else None
    return loss_node, hinge_total


def sentence_loss(encoder, scorer, sentence: ConlluSentence,
                  label_vocab: Vocabulary, settings: TrainSettings) -> float:
    """Total hinge along the best-correct path, without dropout or updates."""
    _, hinge_total = sentence_training_pass(
        encoder, scorer, sentence, label_vocab, settings, rng=None, epoch=0, training=False)
    return hinge_total


@dataclass
class TrainResult:
    store: ParameterStore
    config: UnitConfig
    jamo_vocab: Vocabulary
    char_vocab: Vocabulary
    word_vocab: Vocabulary
    label_vocab: Vocabulary
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

    Raises MalformedTreeError on gold heads that do not form a tree and
    NonProjectiveError on non-projective training input. With a dev
    treebank the best-LAS parameter snapshot wins; otherwise the last epoch
    does. ``log`` receives one machine-parseable line per epoch.

    Each history entry holds the epoch, its summed hinge loss, dev ``uas``
    and ``las`` when a dev treebank is given, the number of parameter
    ``updates``, the mean and maximum gradient norm before clipping
    (``grad_norm_mean``, ``grad_norm_max``) and the share of updates that
    were clipped (``clip_rate``); the last three are 0.0 without updates.
    """
    if not train_sentences:
        raise ValueError("empty training treebank")
    for num, sentence in enumerate(train_sentences, start=1):
        problem = check_tree(sentence)
        if problem is not None:
            raise MalformedTreeError("training sentence %d is not a tree: %s" % (num, problem))
        if not is_projective(sentence):
            raise NonProjectiveError("training sentence %d is non-projective" % num)

    jamo_vocab, char_vocab, word_vocab, _ = build_vocabularies(train_sentences)
    label_vocab = build_label_vocabulary(train_sentences)
    if embedding_vectors and expand_vocabulary:
        word_vocab.add_tokens(t for t in embedding_vectors if t not in word_vocab)

    dtype = np.float32 if settings.float32 else np.float64
    store = ParameterStore(seed=settings.seed, dtype=dtype)
    encoder = SentenceEncoder(store, config, jamo_vocab, char_vocab, word_vocab)
    scorer = TransitionScorer(store, config.dim_encoder, len(label_vocab), settings.hidden_dim)
    if embedding_vectors:
        if config.dim_word == 0:
            raise ValueError("pre-trained embeddings need dim_word > 0")
        from .data import load_embeddings
        load_embeddings(embedding_vectors, word_vocab, store["word/emb"].value)

    optimizer = make_optimizer(settings.optimizer, settings.learning_rate)
    rng = store.rng  # one seeded stream drives init, shuffling, dropout, exploration
    result = TrainResult(store, config, jamo_vocab, char_vocab, word_vocab,
                         label_vocab, settings)
    best_las = -1.0
    best_state = None
    for epoch in range(1, settings.epochs + 1):
        order = rng.permutation(len(train_sentences))
        epoch_loss = 0.0
        norms = []
        for position in order:
            sentence = train_sentences[int(position)]
            loss_node, hinge_total = sentence_training_pass(
                encoder, scorer, sentence, label_vocab, settings, rng, epoch)
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
            predicted = [parse_to_sentence(encoder, scorer, label_vocab, s.forms)
                         for s in dev_sentences]
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
