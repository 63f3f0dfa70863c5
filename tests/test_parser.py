# -*- coding: utf-8 -*-
import copy
import gc
import os
import stat
import threading
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jamoparse import transition as T
from jamoparse.autograd import ShapeMismatchError, backward, concat
from jamoparse.data import (ConlluSentence, Token, build_label_vocabulary, build_vocabularies,
                            evaluate, read_conllu)
from jamoparse.encoder import SentenceEncoder, UnitConfig
from jamoparse.model_io import (CorruptModelError, ModelVersionError, TrainedModel,
                                load_model, save_model)
from jamoparse import encoder as encoder_module
from jamoparse.nn import OPTIMIZERS, ParameterStore
from jamoparse.parser import (MARGIN, EmptyFormError, MalformedTreeError, NonProjectiveError,
                              TrainSettings, TransitionScorer, best_index, feature_rows,
                              greedy_parse, sentence_training_pass, train)
from jamoparse.vocab import Vocabulary

from conftest import TOY_TREEBANK
from graph_ops import add_n, affine, affine_tanh, constant, pick, row, sub


def sentence_loss(encoder, scorer, sentence, label_vocab, settings):
    """Total hinge along the best-correct path, without dropout or exploration."""
    _, hinge_total = sentence_training_pass(
        encoder, scorer, sentence, label_vocab, settings, rng=None, epoch=0)
    return hinge_total


class TestConfiguration:
    def test_initial_one_word_sentence_allows_only_shift(self):
        config = T.ParserConfiguration(1)
        assert set(config.legal_kinds()) == {T.SHIFT}

    def test_terminal_has_no_transitions(self):
        config = T.ParserConfiguration(1)
        config.apply(T.SHIFT)
        config.apply(T.RIGHT_ARC, 0)
        assert config.is_terminal()
        assert set(config.legal_kinds()) == set()
        assert config.heads == {1: 0}

    def test_mid_parse_all_three_legal(self):
        # stack [root, w1], buffer [w2]
        config = T.ParserConfiguration(2)
        config.apply(T.SHIFT)
        assert config.stack == [0, 1]
        assert list(config.buffer) == [2]
        assert set(config.legal_kinds()) == {T.SHIFT, T.LEFT_ARC, T.RIGHT_ARC}

    def test_legality_enumeration_oracle(self):
        # compare legal_kinds against a direct restatement of the rules
        def expected(config):
            kinds = set()
            if config.buffer:
                kinds.add(T.SHIFT)
                if config.stack and config.stack[-1] != 0:
                    kinds.add(T.LEFT_ARC)
            if len(config.stack) >= 2:
                kinds.add(T.RIGHT_ARC)
            return kinds

        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            config = T.ParserConfiguration(n)
            while not config.is_terminal():
                legal = set(config.legal_kinds())
                assert legal == expected(config)
                assert legal, "non-terminal configuration must have a move"
                kind = sorted(legal)[int(rng.integers(len(legal)))]
                config.apply(kind, 0)

    def test_unknown_kind_raises_and_leaves_the_configuration_unchanged(self):
        config = T.ParserConfiguration(2)
        config.apply(T.SHIFT)
        with pytest.raises(ValueError):
            config.apply(7, 0)
        assert config.stack == [0, 1]
        assert list(config.buffer) == [2]
        assert config.heads == {} and config.labels == {}

    def test_illegal_kind_raises_and_leaves_the_configuration_unchanged(self):
        config = T.ParserConfiguration(2)
        with pytest.raises(ValueError, match="not legal"):
            config.apply(T.LEFT_ARC, 0)  # would pop the root
        assert config.stack == [0]
        assert list(config.buffer) == [1, 2]
        assert config.heads == {} and config.labels == {}

    def test_every_parse_takes_exactly_2n_transitions(self):
        rng = np.random.default_rng(1)
        for n in (1, 2, 5, 9):
            config = T.ParserConfiguration(n)
            steps = 0
            while not config.is_terminal():
                legal = sorted(set(config.legal_kinds()))
                config.apply(legal[int(rng.integers(len(legal)))], 0)
                steps += 1
            assert steps == 2 * n
            assert len(config.heads) == n


def enumerate_projective_trees(n):
    """All head assignments over 1..n forming a projective tree rooted at 0."""
    def is_tree(heads):
        for start in range(1, n + 1):
            node, seen = start, set()
            while node != 0:
                if node in seen:
                    return False
                seen.add(node)
                node = heads[node]
        return True

    def projective(heads):
        arcs = [(min(h, d), max(h, d)) for d, h in heads.items()]
        for i, (lo1, hi1) in enumerate(arcs):
            for lo2, hi2 in arcs[i + 1:]:
                if lo1 < lo2 < hi1 < hi2 or lo2 < lo1 < hi2 < hi1:
                    return False
        return True

    for combo in product(*[[h for h in range(n + 1) if h != d] for d in range(1, n + 1)]):
        heads = {d: h for d, h in enumerate(combo, start=1)}
        if is_tree(heads) and projective(heads):
            yield heads


class TestOracle:
    def test_arc_cost_rule_matches_the_per_transition_formulas(self):
        # costs read the stack, the buffer and the gold heads only, so one configuration
        # per (stack, buffer) reachable in each projective tree of 1-4 tokens covers them all
        for config, costs, gold_heads, _ in oracle_cases():
            assert list(costs.items()) == list(reference_costs(config, gold_heads).items())
            assert all(type(cost) is int for cost in costs.values())

    def test_brute_force_soundness_up_to_length_4(self):
        """Every run of zero-cost transitions must rebuild the gold arcs exactly."""
        trees = 0
        for n in range(1, 5):
            for heads in enumerate_projective_trees(n):
                trees += 1
                gold_heads = [None] + [heads[d] for d in range(1, n + 1)]

                def explore(config):
                    if config.is_terminal():
                        assert config.heads == heads
                        return
                    costs = T.transition_costs(config, gold_heads)
                    zero = [k for k in config.legal_kinds() if costs[k] == 0]
                    assert zero, "dynamic oracle left no zero-cost move"
                    for kind in zero:
                        branch = copy.deepcopy(config)
                        branch.apply(kind, 0)
                        explore(branch)

                explore(T.ParserConfiguration(n))
        # brute-force enumeration sizes: 1 + 3 + 12 + 55 trees for n = 1..4
        assert trees == 71

    def test_static_oracle_follows_gold_path(self):
        # every projective tree of 1-6 tokens, several root attachments included:
        # each step of the static walk takes the move the attach-eagerly rule takes
        scorer, _ = scorer_fixture(n_labels=3)
        total = 0
        for n in range(1, 7):
            for heads in enumerate_projective_trees(n):
                gold_heads = [None] + [heads[d] for d in range(1, n + 1)]
                gold_labels = [None] + [d % 3 for d in range(1, n + 1)]
                config = T.ParserConfiguration(n)
                steps = 0
                while not config.is_terminal():
                    costs = T.transition_costs(config, gold_heads)
                    correct = scorer.correct_mask(config, costs, gold_heads, gold_labels)
                    move = scorer.transition_of(best_index(np.flatnonzero(correct), scorer.rank))
                    assert move == reference_static_oracle(config, costs, gold_heads,
                                                           gold_labels)
                    config.apply(*move)
                    steps += 1
                assert steps == 2 * n
                assert config.heads == heads
                assert all(config.labels[d] == gold_labels[d] for d in heads)
                total += steps
        # 1 + 3 + 12 + 55 + 273 + 1428 trees
        assert total == 20392

    def test_costs_count_lost_arcs(self):
        # gold: 1 <- 2 -> 3, root -> 2; configuration: stack [root, 1], buffer [2, 3]
        gold_heads = [None, 2, 0, 2]
        config = T.ParserConfiguration(3)
        config.apply(T.SHIFT)
        costs = T.transition_costs(config, gold_heads)
        # shifting 2 buries 1 (loses 2 -> 1) and walls 2 off from root (loses 0 -> 2)
        assert costs[T.SHIFT] == 2
        # left-arc makes the gold arc 2 -> 1
        assert costs[T.LEFT_ARC] == 0
        # right-arc attaches 1 to root, losing its gold head 2 in the buffer
        assert costs[T.RIGHT_ARC] == 1


def scorer_fixture(n_labels=2, dim=4, hidden=3, seed=0):
    store = ParameterStore(seed=seed)
    scorer = TransitionScorer(store, dim, n_labels, hidden)
    return scorer, store


class TestScorer:
    def test_zero_parameters_score_zero(self):
        scorer, store = scorer_fixture()
        for _, p in store.parameters():
            p.value.fill(0.0)
        table = scorer.feature_table(constant([np.ones(4), np.full(4, -2.0)]))
        config = T.ParserConfiguration(2)
        hidden, scores = scorer.scores(table, feature_rows(config))
        assert np.array_equal(hidden, np.zeros(3))
        assert np.array_equal(scores, np.zeros(scorer.n_outputs))

    def test_scores_finite_and_deterministic(self):
        scorer, _ = scorer_fixture(n_labels=3)
        rng = np.random.default_rng(2)
        table = scorer.feature_table(constant(rng.normal(size=(3, 4))))
        config = T.ParserConfiguration(3)
        config.apply(T.SHIFT)
        first = scorer.scores(table, feature_rows(config))[1]
        second = scorer.scores(table, feature_rows(config))[1]
        assert np.all(np.isfinite(first))
        assert np.array_equal(first, second)

    def test_scores_match_straight_line_oracle(self):
        scorer, _ = scorer_fixture(n_labels=2)
        rng = np.random.default_rng(4)
        encoded = rng.normal(size=(3, 4))
        table = scorer.feature_table(constant(encoded))
        config = T.ParserConfiguration(3)
        config.apply(T.SHIFT)
        config.apply(T.SHIFT)
        # stack [root, 1, 2], buffer [3]: stack[-3] is the root, so the placeholder
        x = np.concatenate([encoded[1], encoded[0], scorer.placeholder.value, encoded[2]])
        hidden = np.tanh(scorer.hidden_weight.value @ x + scorer.hidden_bias.value)
        got_hidden, got_scores = scorer.scores(table, feature_rows(config))
        assert np.allclose(got_hidden, hidden)
        assert np.allclose(got_scores, scorer.out_weight.value @ hidden + scorer.out_bias.value)

    def test_feature_rows_use_row_zero_for_root_and_absent_slots(self):
        config = T.ParserConfiguration(2)
        assert feature_rows(config) == [0, 0, 0, 1]
        config.apply(T.SHIFT)
        config.apply(T.SHIFT)
        assert feature_rows(config) == [2, 1, 0, 0]

    def test_transition_indexing_round_trips(self):
        scorer, _ = scorer_fixture(n_labels=3)
        for index in range(scorer.n_outputs):
            kind, label = scorer.transition_of(index)
            assert reference_transition_index(scorer.n_labels, kind, label) == index
            block = scorer.block(kind)
            assert block.start <= index < block.stop

    def test_legal_indices_match_legal_kinds(self):
        scorer, _ = scorer_fixture(n_labels=2)
        config = T.ParserConfiguration(2)
        config.apply(T.SHIFT)
        indices = scorer.legal_indices(config)
        kinds = {scorer.transition_of(int(i))[0] for i in indices}
        assert kinds == set(config.legal_kinds())

    @settings(max_examples=60, deadline=None)
    @given(dims=st.tuples(st.integers(1, 6), st.integers(1, 5), st.integers(1, 3)),
           tokens=st.integers(1, 6), dtype=st.sampled_from([np.float64, np.float32]),
           seed=st.integers(0, 2**16), data=st.data())
    def test_precomputed_scores_match_straight_line_oracle(self, dims, tokens, dtype, seed,
                                                           data):
        dim, hidden_dim, n_labels = dims
        rows = data.draw(st.lists(st.integers(0, tokens), min_size=4, max_size=4), label="rows")
        store = ParameterStore(seed=seed, dtype=dtype)
        scorer = TransitionScorer(store, dim, n_labels, hidden_dim)
        rng = np.random.default_rng(seed)
        for param in (scorer.placeholder, scorer.hidden_bias, scorer.out_bias):
            param.value[:] = rng.normal(size=param.value.shape)
        encoded = rng.normal(size=(tokens, dim)).astype(dtype)
        got_hidden, got_scores = scorer.scores(scorer.feature_table(constant(encoded, dtype)),
                                               rows)
        # row 0 is the placeholder, row i token i
        stacked = np.concatenate([scorer.placeholder.value[None], encoded]).astype(np.float64)
        weight, bias = (p.value.astype(np.float64) for p in (scorer.hidden_weight,
                                                              scorer.hidden_bias))
        hidden = np.tanh(weight @ stacked[rows].reshape(-1) + bias)
        scores = scorer.out_weight.value.astype(np.float64) @ hidden + scorer.out_bias.value
        assert got_hidden.dtype == got_scores.dtype == dtype
        if dtype == np.float64:
            assert np.max(np.abs(got_hidden - hidden)) <= 1e-12
            assert np.max(np.abs(got_scores - scores)) <= 1e-12
        else:
            np.testing.assert_allclose(got_hidden, hidden, rtol=1e-5, atol=1e-6)
            np.testing.assert_allclose(got_scores, scores, rtol=1e-5, atol=1e-6)


# The per-index transition choice that legal_indices, correct_mask and best_index
# replaced, kept as their reference.

def reference_transition_index(n_labels, kind, label):
    if kind == T.SHIFT:
        return 0
    if kind == T.LEFT_ARC:
        return 1 + label
    return 1 + n_labels + label


def reference_costs(config, gold_heads):
    """Per-transition cost formulas, one block per kind: the reference for the arc-cost rule."""
    costs = {}
    stack, buffer = config.stack, config.buffer
    if buffer:
        front = buffer[0]
        cost = sum(1 for item in stack[:-1] if gold_heads[front] == item)
        cost += sum(1 for item in stack if item != 0 and gold_heads[item] == front)
        costs[T.SHIFT] = cost
        if stack[-1] != 0:
            top = stack[-1]
            cost = 1 if gold_heads[top] == stack[-2] else 0
            if gold_heads[top] in list(buffer)[1:]:
                cost += 1
            cost += sum(1 for item in buffer if gold_heads[item] == top)
            costs[T.LEFT_ARC] = cost
    if len(stack) >= 2:
        top = stack[-1]
        cost = sum(1 for item in buffer if gold_heads[item] == top)
        if gold_heads[top] in buffer:
            cost += 1
        costs[T.RIGHT_ARC] = cost
    return costs


def reference_static_oracle(config, costs, gold_heads, gold_labels):
    """Zero-cost (kind, label) by rule: a gold arc, left before right, else shift.

    The reference for the static oracle's fixed rank over ``correct_mask``.
    """
    for kind in (T.LEFT_ARC, T.RIGHT_ARC):
        if costs.get(kind) == 0:
            head, dependent = T.formed_arc(config, kind)
            if gold_heads[dependent] == head:
                return kind, gold_labels[dependent]
    if costs.get(T.SHIFT) == 0:
        return T.SHIFT, None
    raise RuntimeError("no zero-cost transition; gold heads are not a projective tree")


def reference_legal_moves(n_labels, config):
    """(index, kind, label) of every legal labeled transition, by index."""
    moves = []
    for kind in config.legal_kinds():
        labels = [None] if kind == T.SHIFT else range(n_labels)
        moves.extend((reference_transition_index(n_labels, kind, lab), kind, lab)
                     for lab in labels)
    return sorted(moves)


def reference_is_correct(config, costs, kind, label, gold_heads, gold_labels):
    if costs.get(kind) != 0:
        return False
    if kind == T.SHIFT:
        return True
    head, dependent = T.formed_arc(config, kind)
    if gold_heads[dependent] == head:
        return label == gold_labels[dependent]
    return True


def reference_best_correct_and_wrong(n_labels, config, costs, values, gold_heads, gold_labels):
    """Indices of the highest-scoring correct and wrong legal transitions, -1 if none."""
    best = {True: (-1, -np.inf), False: (-1, -np.inf)}
    for index, kind, label in reference_legal_moves(n_labels, config):
        correct = reference_is_correct(config, costs, kind, label, gold_heads, gold_labels)
        if values[index] > best[correct][1]:
            best[correct] = (index, values[index])
    return best[True][0], best[False][0]


def reachable_configurations(n):
    """One configuration per (stack, buffer) reachable from the start by legal moves."""
    seen, pending = set(), [T.ParserConfiguration(n)]
    while pending:
        config = pending.pop()
        key = (tuple(config.stack), tuple(config.buffer))
        if key in seen:
            continue
        seen.add(key)
        yield config
        for kind in config.legal_kinds():
            branch = copy.deepcopy(config)
            branch.apply(kind, 0)
            pending.append(branch)


def oracle_cases(n_labels=3):
    """(config, costs, gold heads, gold labels) over the 71 projective trees with n <= 4."""
    for n in range(1, 5):
        for heads in enumerate_projective_trees(n):
            gold_heads = [None] + [heads[d] for d in range(1, n + 1)]
            gold_labels = [None] + [d % n_labels for d in range(1, n + 1)]
            for config in reachable_configurations(n):
                yield config, T.transition_costs(config, gold_heads), gold_heads, gold_labels


class TestTransitionChoice:
    def test_masks_match_per_index_reference(self):
        scorer, _ = scorer_fixture(n_labels=3)
        cases = 0
        for config, costs, gold_heads, gold_labels in oracle_cases():
            moves = reference_legal_moves(3, config)
            legal = scorer.legal_indices(config)
            assert legal.tolist() == [index for index, _, _ in moves]
            correct = scorer.correct_mask(config, costs, gold_heads, gold_labels)
            expected = [index for index, kind, label in moves
                        if reference_is_correct(config, costs, kind, label,
                                                gold_heads, gold_labels)]
            assert np.flatnonzero(correct).tolist() == expected
            cases += 1
        assert cases > 500

    def test_argmax_choice_matches_loop_with_ties(self):
        scorer, _ = scorer_fixture(n_labels=3)
        rng = np.random.default_rng(5)
        without_wrong = 0
        for config, costs, gold_heads, gold_labels in oracle_cases():
            if config.is_terminal():
                continue
            for _ in range(3):
                values = rng.integers(0, 3, size=scorer.n_outputs).astype(float)
                legal = scorer.legal_indices(config)
                correct = np.flatnonzero(scorer.correct_mask(config, costs, gold_heads,
                                                             gold_labels))
                chosen = (best_index(correct, values),
                          best_index(np.setdiff1d(legal, correct), values))
                assert chosen == reference_best_correct_and_wrong(
                    3, config, costs, values, gold_heads, gold_labels)
                without_wrong += chosen[1] < 0
                masked = np.full_like(values, -np.inf)
                masked[legal] = values[legal]
                assert best_index(legal, values) == int(np.argmax(masked))
        assert without_wrong

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(st.sampled_from([-np.inf, np.inf, np.nan, -1.0, 0.0, 0.0, 2.5]),
                           min_size=1, max_size=12),
           dtype=st.sampled_from([np.float64, np.float32]), data=st.data())
    def test_best_index_returns_the_lowest_best_member(self, values, dtype, data):
        values = np.array(values, dtype=dtype)
        members = sorted(data.draw(st.sets(st.integers(0, len(values) - 1)), label="members"))
        got = best_index(np.array(members, dtype=np.intp), values)
        if not members:
            assert got == -1
            return
        assert got in members
        # the first NaN among the members wins; otherwise the lowest member holding the maximum
        nans = [i for i in members if np.isnan(values[i])]
        top = max(values[i] for i in members)
        assert got == (nans[0] if nans else next(i for i in members if values[i] == top))


def reference_training_pass(encoder, scorer, sentence, label_vocab):
    """The per-transition graph that hinge_loss replaced, on the best-correct path.

    Each transition builds concat -> affine_tanh -> affine over the feature
    vectors, each margin violation pick/pick/sub, and add_n sums them; no
    word dropout and no exploration, as sentence_training_pass at epoch 0.
    """
    gold_heads = sentence.head_array()
    gold_labels = [None] + [label_vocab.id_of(t.label) for t in sentence.tokens]
    encoded = encoder.encode(sentence.forms)
    vectors = [row(encoded, i) for i in range(len(sentence))]
    config = T.ParserConfiguration(len(sentence))
    terms = []
    while not config.is_terminal():
        costs = T.transition_costs(config, gold_heads)
        slots = [config.stack[-depth] if len(config.stack) >= depth else 0 for depth in (1, 2, 3)]
        slots.append(config.buffer[0] if config.buffer else 0)
        features = concat([vectors[i - 1] if i else scorer.placeholder for i in slots])
        hidden = affine_tanh([(scorer.hidden_weight, features)], scorer.hidden_bias)
        scores = affine([(scorer.out_weight, hidden)], scorer.out_bias)
        correct = np.flatnonzero(scorer.correct_mask(config, costs, gold_heads, gold_labels))
        best_correct = best_index(correct, scores.value)
        best_wrong = best_index(np.setdiff1d(scorer.legal_indices(config), correct), scores.value)
        if best_wrong >= 0 and MARGIN + scores.value[best_wrong] - scores.value[best_correct] > 0:
            terms.append(sub(pick(scores, best_wrong), pick(scores, best_correct)))
        config.apply(*scorer.transition_of(best_correct))
    return add_n(terms) if terms else None


def toy_treebank_model(dtype=np.float64, seed=4):
    sentences = read_conllu(TOY_TREEBANK)
    jamo_v, char_v, word_v = build_vocabularies(sentences)
    label_v = build_label_vocabulary(sentences)
    store = ParameterStore(seed=seed, dtype=dtype)
    encoder = SentenceEncoder(store, UnitConfig(8, 8, 8, 16), jamo_v, char_v, word_v)
    scorer = TransitionScorer(store, 16, len(label_v), hidden_dim=8)
    return sentences, encoder, scorer, label_v


class TestHingeLoss:
    def test_matches_per_transition_graph(self):
        sentences, encoder, scorer, label_v = toy_treebank_model()
        store = encoder.store
        for sentence in sentences:
            store.zero_gradients()
            loss, hinge_total = sentence_training_pass(
                encoder, scorer, sentence, label_v, TrainSettings(), rng=None, epoch=0)
            assert len(loss.parents) == 6  # the encoder node and the five scorer parameters
            backward(loss)
            fused = {name: p.grad.copy() for name, p in store.parameters()}
            store.zero_gradients()
            reference = reference_training_pass(encoder, scorer, sentence, label_v)
            backward(reference)
            assert loss.value == pytest.approx(reference.value, rel=1e-10, abs=0)
            violations = len(reference.parents)
            assert hinge_total == pytest.approx(reference.value + MARGIN * violations, rel=1e-10)
            for name, p in store.parameters():
                scale = np.max(np.abs(p.grad))
                assert np.max(np.abs(fused[name] - p.grad)) <= 1e-10 * scale, name
            assert all(np.any(fused[name] != 0.0) for name in
                       ("scorer/placeholder", "scorer/W1", "scorer/b1", "scorer/W2", "scorer/b2",
                        "enc/l2_fwd/W", "word/emb"))

    def test_float32_store_keeps_float32_gradients(self):
        sentences, encoder, scorer, label_v = toy_treebank_model(dtype=np.float32)
        loss, _ = sentence_training_pass(encoder, scorer, sentences[0], label_v,
                                         TrainSettings(), rng=None, epoch=0)
        assert loss.value.dtype == np.float32
        backward(loss)
        assert loss.parents[0].grad.dtype == np.float32
        for name, p in encoder.store.parameters():
            assert p.grad.dtype == np.float32, name

    def test_exploring_without_an_rng_is_refused_before_encoding(self, monkeypatch):
        sentences, encoder, scorer, label_v = toy_treebank_model()
        settings = TrainSettings(explore_from_epoch=5)
        monkeypatch.setattr(encoder, "encode", lambda *args: pytest.fail("encoded"))
        for sentence in sentences:
            with pytest.raises(ValueError, match="needs an rng"):
                sentence_training_pass(encoder, scorer, sentence, label_v, settings, None, 5)
        monkeypatch.undo()
        static = TrainSettings(oracle="static", explore_from_epoch=5)
        sentence_training_pass(encoder, scorer, sentences[0], label_v, static, None, 5)
        sentence_training_pass(encoder, scorer, sentences[0], label_v, settings, None, 4)

    def test_dropped_loss_leaves_no_reference_cycles(self):
        sentences, encoder, scorer, label_v = toy_treebank_model()
        gc.collect()
        gc.disable()
        try:
            loss, _ = sentence_training_pass(encoder, scorer, sentences[0], label_v,
                                             TrainSettings(), rng=None, epoch=0)
            backward(loss)
            del loss
            assert gc.collect() == 0
        finally:
            gc.enable()


def toy_model(words=None, seed=0, n_labels=2, dim=4):
    words = words or ["산을", "갔다", "나는"]
    tb = [ConlluSentence([Token(w, 0, "root")]) for w in words]
    jamo_v, char_v, word_v = build_vocabularies(tb)
    label_v = Vocabulary("label", ["L%d" % i for i in range(n_labels)])
    store = ParameterStore(seed=seed)
    config = UnitConfig(dim_jamo=dim, dim_char=0, dim_word=dim, dim_encoder=dim)
    encoder = SentenceEncoder(store, config, jamo_v, char_v, word_v)
    scorer = TransitionScorer(store, dim, n_labels, hidden_dim=dim)
    return encoder, scorer, label_v


def assert_well_formed_tree(forms, parsed):
    assert len(parsed) == len(forms)
    heads = [h for h, _ in parsed]
    n = len(heads)
    for pos, head in enumerate(heads, start=1):
        assert 0 <= head <= n and head != pos
    for start in range(1, n + 1):
        node, seen = start, set()
        while node != 0:
            assert node not in seen, "cycle through %d" % node
            seen.add(node)
            node = heads[node - 1]
    tokens = [Token(f, h, "x") for f, h in zip(forms, heads)]
    from jamoparse.data import is_projective
    assert is_projective(ConlluSentence(tokens))


class TestGreedyParse:
    def test_one_word_sentence_attaches_to_root(self):
        encoder, scorer, _ = toy_model()
        parsed = greedy_parse(encoder, scorer, ["갔다"])
        assert parsed[0][0] == 0

    def test_random_models_emit_well_formed_trees(self):
        rng = np.random.default_rng(3)
        for seed in range(3):
            encoder, scorer, _ = toy_model(seed=seed)
            for _ in range(20):
                n = int(rng.integers(1, 12))
                forms = ["갔다", "산을", "나는", "physics"] * 3
                sentence = [forms[int(rng.integers(len(forms)))] for _ in range(n)]
                parsed = greedy_parse(encoder, scorer, sentence)
                assert_well_formed_tree(sentence, parsed)

    def test_ties_break_toward_lowest_index(self):
        encoder, scorer, _ = toy_model()
        store_params = dict(encoder.store.parameters())
        for p in store_params.values():
            p.value.fill(0.0)  # all scores 0 -> shift wins until it cannot
        parsed = greedy_parse(encoder, scorer, ["나는", "갔다"])
        # with all-zero scores: shift, shift, then right-arcs with label 0
        assert [h for h, _ in parsed] == [0, 1]
        assert [lab for _, lab in parsed] == [0, 0]


MEMO_POOL = ["나는", "산을", "갔다", "학교에", "physics", "모르는말", "가", "다녀왔습니다", "x1"]


def memo_model(seed=5):
    """A fresh TrainedModel over the toy treebank's vocabularies (MEMO_POOL holds new forms too)."""
    sentences = read_conllu(TOY_TREEBANK)
    jamo_v, char_v, word_v = build_vocabularies(sentences)
    return sentences, TrainedModel(UnitConfig(6, 4, 4, 8), jamo_v, char_v, word_v,
                                   build_label_vocabulary(sentences),
                                   ParameterStore(seed=seed), hidden_dim=6)


def clone(model):
    """A fresh model, empty memo included, holding ``model``'s current weights."""
    fresh = TrainedModel(model.config, model.jamo_vocab, model.char_vocab, model.word_vocab,
                         model.label_vocab, ParameterStore(seed=99), model.hidden_dim)
    fresh.store.load_state_dict(model.store.state_dict())
    return fresh


class TestWordVectorMemo:
    @settings(max_examples=30, deadline=None)
    @given(batch=st.lists(st.lists(st.sampled_from(MEMO_POOL), min_size=1, max_size=8),
                          min_size=1, max_size=6), seed=st.integers(0, 2**16), data=st.data())
    def test_memo_parse_matches_memo_free_parse(self, batch, seed, data):
        _, model = memo_model(seed=seed)
        order = data.draw(st.permutations(range(len(batch))), label="order")
        for forms in (batch[i] for i in order):
            assert model.parse(forms) == [
                (head, model.label_vocab.token_of(label))
                for head, label in greedy_parse(model.encoder, model.scorer, forms)]
            memo_rows = np.stack([model._memo[form] for form in forms])
            own_rows = model.encoder.word_repr(forms).value
            assert np.max(np.abs(memo_rows - own_rows)) <= 1e-12

    def test_known_forms_are_not_composed_again(self, monkeypatch):
        _, model = memo_model()
        composed = []
        word_repr = model.encoder.word_repr
        monkeypatch.setattr(model.encoder, "word_repr",
                            lambda words: composed.append(list(words)) or word_repr(words))
        model.parse(["나는", "산을", "나는", "갔다"])
        model.parse(["갔다", "physics", "나는"])
        model.parse(["산을", "나는"])
        assert composed == [["나는", "산을", "갔다"], ["physics"]]

    @pytest.mark.parametrize("change", ["adam", "sgd", "load_state_dict"])
    def test_parse_after_a_parameter_change_matches_a_fresh_model(self, change):
        sentences, model = memo_model()
        forms = [s.forms for s in sentences[:6]]
        before = [model.parse(f) for f in forms]
        if change == "load_state_dict":
            _, other = memo_model(seed=11)
            model.store.load_state_dict(other.store.state_dict())
        else:
            optimizer = OPTIMIZERS[change](0.5)
            for sentence in sentences[:6]:
                loss, _ = sentence_training_pass(model.encoder, model.scorer, sentence,
                                                 model.label_vocab, TrainSettings(), None, 0)
                if loss is not None:
                    backward(loss)
                    optimizer.step(model.store)
        fresh = clone(model)
        after = [model.parse(f) for f in forms]
        assert after == [fresh.parse(f) for f in forms]
        assert after != before
        assert model._memo.keys() == fresh._memo.keys()
        for form, row in fresh._memo.items():
            assert np.array_equal(model._memo[form], row), form

    @pytest.mark.parametrize("bad", [("jamo/head", np.zeros((1, 1))), ("unknown", np.zeros(1))],
                             ids=["shape", "name"])
    def test_refused_load_state_dict_writes_nothing(self, bad):
        sentences, model = memo_model()
        forms = [s.forms for s in sentences[:6]]
        for f in forms:
            model.parse(f)  # the memo now holds rows composed with these weights
        before = model.store.state_dict()
        _, other = memo_model(seed=11)
        state = {"jamo/emb": other.store["jamo/emb"].value, bad[0]: bad[1]}
        with pytest.raises((ShapeMismatchError, KeyError)):
            model.store.load_state_dict(state)
        for name, value in before.items():
            assert np.array_equal(model.store[name].value, value), name
        fresh = clone(model)
        assert [model.parse(f) for f in forms] == [fresh.parse(f) for f in forms]

    def test_memo_never_holds_more_than_its_bound(self, monkeypatch):
        monkeypatch.setattr(encoder_module, "MEMO_FORMS", 4)
        _, model = memo_model()
        rng = np.random.default_rng(0)
        for _ in range(30):
            forms = [MEMO_POOL[i] for i in rng.integers(len(MEMO_POOL), size=rng.integers(1, 9))]
            assert model.parse(forms) == clone(model).parse(forms)
            assert len(model._memo) <= 4
        model.parse(MEMO_POOL)  # more distinct forms than the bound in one sentence
        assert len(model._memo) == 4

    def test_training_pass_neither_reads_nor_fills_the_memo(self):
        sentences, model = memo_model()
        sentence = sentences[0]
        _, clean = sentence_training_pass(model.encoder, model.scorer, sentence,
                                          model.label_vocab, TrainSettings(), None, 0)
        model.parse(sentence.forms)
        for row in model._memo.values():
            row[...] = 0.5  # a pass that read the memo would see these rows
        memo = dict(model._memo)
        loss, _ = sentence_training_pass(model.encoder, model.scorer, sentences[1],
                                         model.label_vocab, TrainSettings(), None, 0)
        _, again = sentence_training_pass(model.encoder, model.scorer, sentence,
                                          model.label_vocab, TrainSettings(), None, 0)
        assert again == clean
        assert model._memo.keys() == memo.keys()
        assert all(model._memo[form] is row for form, row in memo.items())
        backward(loss)
        assert np.any(model.store["char/fwd/W"].grad != 0.0)  # the graph reaches the char tier


TOY_SETTINGS = TrainSettings(epochs=30, seed=42, learning_rate=0.01, hidden_dim=32)
TOY_CONFIG = UnitConfig(dim_jamo=16, dim_char=16, dim_word=16, dim_encoder=32)


@pytest.fixture(scope="module")
def overfit_result(toy_treebank_path_module):
    sentences = read_conllu(toy_treebank_path_module)
    return sentences, train(sentences, sentences, TOY_CONFIG, TOY_SETTINGS)


@pytest.fixture(scope="module")
def toy_treebank_path_module():
    from conftest import TOY_TREEBANK
    return TOY_TREEBANK


class TestTraining:
    def test_non_projective_input_rejected(self):
        bad = ConlluSentence([Token("a", 3, "d"), Token("b", 4, "d"),
                              Token("c", 0, "root"), Token("d", 3, "d")])
        with pytest.raises(NonProjectiveError):
            train([bad], None, TOY_CONFIG, TrainSettings(epochs=1))

    def test_malformed_tree_rejected_before_training(self):
        good = ConlluSentence([Token("a", 0, "root"), Token("b", 1, "d")])
        cyclic = ConlluSentence([Token("a", 2, "d"), Token("b", 1, "d"), Token("c", 0, "root")])
        with pytest.raises(MalformedTreeError, match="sentence 2 is not a tree: cycle"):
            train([good, cyclic], None, TOY_CONFIG, TrainSettings(epochs=1))
        out_of_range = ConlluSentence([Token("a", 9, "d"), Token("b", 0, "root")])
        with pytest.raises(MalformedTreeError, match="sentence 1 .*head out of range"):
            train([out_of_range], None, TOY_CONFIG, TrainSettings(epochs=1))

    def test_unlabeled_token_rejected_before_training(self):
        good = ConlluSentence([Token("a", 0, "root"), Token("b", 1, "d")])
        unlabeled = ConlluSentence([Token("a", 0, "root"), Token("b", 1, None)])
        with pytest.raises(MalformedTreeError, match="sentence 2 is not a tree: missing label"):
            train([good, unlabeled], None, TOY_CONFIG, TrainSettings(epochs=1))

    def test_empty_form_rejected_before_training(self):
        good = ConlluSentence([Token("a", 0, "root"), Token("b", 1, "d")])
        formless = ConlluSentence([Token("a", 0, "root"), Token("", 1, "d")])
        with pytest.raises(MalformedTreeError, match="sentence 2 is not a tree: empty form"):
            train([good, formless], None, TOY_CONFIG, TrainSettings(epochs=1))

    def test_dev_sentence_with_empty_form_rejected_before_training(self):
        good = ConlluSentence([Token("a", 0, "root"), Token("b", 1, "d")])
        formless = ConlluSentence([Token("a", 0, "root"), Token("", 1, "d")])
        with pytest.raises(EmptyFormError, match="dev sentence 2 has an empty form"):
            train([good], [good, formless], TOY_CONFIG, TrainSettings(epochs=1),
                  log=pytest.fail)

    def test_embeddings_without_word_tier_rejected_before_any_parameter(self, monkeypatch):
        def no_store(*args, **kwargs):
            pytest.fail("parameter store built before the inputs were checked")

        monkeypatch.setattr("jamoparse.parser.ParameterStore", no_store)
        good = ConlluSentence([Token("a", 0, "root"), Token("b", 1, "d")])
        config = UnitConfig(dim_jamo=4, dim_char=0, dim_word=0, dim_encoder=8)
        with pytest.raises(ValueError, match="pre-trained embeddings need dim_word > 0"):
            train([good], None, config, TrainSettings(epochs=1),
                  embedding_vectors={"a": np.ones(4)})

    def test_embedding_of_wrong_length_rejected_before_any_parameter(self, monkeypatch):
        def no_store(*args, **kwargs):
            pytest.fail("parameter store built before the inputs were checked")

        monkeypatch.setattr("jamoparse.parser.ParameterStore", no_store)
        good = ConlluSentence([Token("a", 0, "root"), Token("b", 1, "d")])
        config = UnitConfig(dim_jamo=4, dim_char=0, dim_word=4, dim_encoder=8)
        for short in (np.ones(3), np.ones((1, 4)), np.float64(0.5)):
            with pytest.raises(ValueError, match="vector for 'b' has shape"):
                train([good], None, config, TrainSettings(epochs=1),
                      embedding_vectors={"a": np.ones(4), "b": short})

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_embedding_rejected_before_the_first_epoch(self, monkeypatch, value):
        def no_epoch(*args, **kwargs):
            pytest.fail("training started before the embeddings were checked")

        monkeypatch.setattr("jamoparse.parser.sentence_training_pass", no_epoch)
        good = ConlluSentence([Token("a", 0, "root"), Token("b", 1, "d")])
        config = UnitConfig(dim_jamo=4, dim_char=0, dim_word=4, dim_encoder=8)
        vectors = {"a": np.ones(4), "new": np.array([0.0, value, 0.0, 0.0])}
        with pytest.raises(ValueError, match="vector for 'new' is not finite"):
            train([good], None, config, TrainSettings(epochs=1), embedding_vectors=vectors)

    def test_history_reports_gradient_norms(self, toy_treebank_path_module):
        sentences = read_conllu(toy_treebank_path_module)
        settings = TrainSettings(epochs=2, seed=9, learning_rate=0.01, hidden_dim=8)
        config = UnitConfig(dim_jamo=8, dim_char=0, dim_word=8, dim_encoder=16)
        first = train(sentences, None, config, settings)
        for entry in first.history:
            assert 0 < entry["updates"] <= len(sentences)
            assert 0.0 < entry["grad_norm_mean"] <= entry["grad_norm_max"]
            assert 0.0 <= entry["clip_rate"] <= 1.0
        assert train(sentences, None, config, settings).history == first.history

    @pytest.mark.parametrize("field,value", [
        ("epochs", -1), ("seed", -1), ("hidden_dim", 0), ("learning_rate", 0.0),
        ("learning_rate", float("nan")), ("learning_rate", float("inf")),
        ("optimizer", "adagrad"), ("oracle", "statc"),
        # the wrong type is refused here, not deep inside train()
        ("epochs", 1.0), ("seed", 1.5), ("hidden_dim", 4.0), ("explore_from_epoch", 2.0),
        ("epochs", True), ("seed", "1"), ("float32", "no"), ("float32", 1),
    ])
    def test_settings_out_of_range_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainSettings(**{field: value})

    def test_numpy_integer_settings_accepted(self):
        settings = TrainSettings(epochs=np.int64(1), seed=np.int32(3), hidden_dim=np.int16(4),
                                 explore_from_epoch=np.uint8(1))
        assert settings.epochs == 1 and not settings.float32

    def test_float32_training_and_parsing_stay_float32(self, monkeypatch, toy_treebank_path_module):
        # every node value, every delta before _accumulate's cast, and Adam's moments
        from jamoparse import autograd, nn, parser as parser_module
        values, deltas, optimizers = [], [], []
        node_init, accumulate = autograd.Node.__init__, autograd._accumulate

        def recording_init(node, value, *args, **kwargs):
            values.append(np.asarray(value).dtype)
            node_init(node, value, *args, **kwargs)

        def recording_accumulate(node, delta):
            deltas.append(np.asarray(delta).dtype)
            accumulate(node, delta)

        def recording_adam(learning_rate):
            optimizers.append(nn.Adam(learning_rate))
            return optimizers[-1]

        monkeypatch.setattr(autograd.Node, "__init__", recording_init)
        for module in (autograd, nn, encoder_module, parser_module):
            monkeypatch.setattr(module, "_accumulate", recording_accumulate)
        monkeypatch.setitem(parser_module.OPTIMIZERS, "adam", recording_adam)
        sentences = read_conllu(toy_treebank_path_module)
        settings = TrainSettings(epochs=2, seed=5, learning_rate=0.01, hidden_dim=16,
                                 explore_from_epoch=1, float32=True)
        result = train(sentences, sentences[:4], TOY_CONFIG, settings)
        assert len(result.history) == 2 and "las" in result.history[0]  # it also parsed
        assert values and set(values) == {np.dtype(np.float32)}
        assert deltas and set(deltas) == {np.dtype(np.float32)}
        (adam,) = optimizers
        moments = [*adam._arena[1:], *adam._m.values(), *adam._v.values()]
        assert adam._m and {moment.dtype for moment in moments} == {np.dtype(np.float32)}

    def test_empty_treebank_rejected(self):
        with pytest.raises(ValueError):
            train([], None, TOY_CONFIG, TrainSettings(epochs=1))

    def test_overfits_toy_treebank(self, overfit_result):
        sentences, result = overfit_result
        model = TrainedModel.from_training(result)
        predicted = [model.parse_sentence(s.forms) for s in sentences]
        assert evaluate(sentences, predicted) == (100.0, 100.0)

    def test_margin_satisfied_everywhere_means_zero_hinge(self, overfit_result):
        sentences, result = overfit_result
        model = TrainedModel.from_training(result)
        # the overfit model ranks correct transitions on top everywhere; scaling
        # the linear output layer stretches every gap past the margin of 1
        model.store["scorer/W2"].value *= 200.0
        model.store["scorer/b2"].value *= 200.0
        try:
            total = sum(sentence_loss(model.encoder, model.scorer, s, result.label_vocab,
                                      result.settings) for s in sentences)
        finally:
            model.store["scorer/W2"].value /= 200.0
            model.store["scorer/b2"].value /= 200.0
        assert total == 0.0

    def test_each_update_clips_steps_and_zeroes_once(self, toy_treebank_path_module,
                                                      monkeypatch):
        # the traced benchmark times these three entry points separately
        from jamoparse import nn, parser
        calls = {"clip": 0, "step": 0, "zero": 0}

        def counted(key, function):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return function(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(parser, "clip_gradients", counted("clip", parser.clip_gradients))
        monkeypatch.setattr(nn.Adam, "step", counted("step", nn.Adam.step))
        monkeypatch.setattr(nn.ParameterStore, "zero_gradients",
                            counted("zero", nn.ParameterStore.zero_gradients))
        sentences = read_conllu(toy_treebank_path_module)
        settings = TrainSettings(epochs=1, seed=9, hidden_dim=8)
        config = UnitConfig(dim_jamo=8, dim_char=0, dim_word=8, dim_encoder=16)
        updates = train(sentences, None, config, settings).history[0]["updates"]
        assert updates > 0
        assert calls == {"clip": updates, "step": updates, "zero": updates}

    def test_same_seed_reproduces_history_and_parameters(self, toy_treebank_path_module):
        sentences = read_conllu(toy_treebank_path_module)
        settings = TrainSettings(epochs=3, seed=7, learning_rate=0.01, hidden_dim=16)
        config = UnitConfig(dim_jamo=8, dim_char=8, dim_word=8, dim_encoder=16)
        first = train(sentences, sentences, config, settings)
        second = train(sentences, sentences, config, settings)
        assert first.history == second.history
        for (name, a), (_, b) in zip(first.store.parameters(), second.store.parameters()):
            assert np.array_equal(a.value, b.value), name

    def test_static_oracle_mode_also_learns(self, toy_treebank_path_module):
        sentences = read_conllu(toy_treebank_path_module)
        settings = TrainSettings(epochs=10, seed=1, learning_rate=0.01, hidden_dim=16,
                                 oracle="static")
        config = UnitConfig(dim_jamo=8, dim_char=0, dim_word=8, dim_encoder=16)
        result = train(sentences, sentences, config, settings)
        assert result.history[-1]["las"] > result.history[0]["las"]

    def test_float32_training_mode(self, toy_treebank_path_module, tmp_path):
        sentences = read_conllu(toy_treebank_path_module)
        settings = TrainSettings(epochs=1, seed=2, hidden_dim=8, float32=True)
        config = UnitConfig(dim_jamo=8, dim_char=0, dim_word=8, dim_encoder=16)
        result = train(sentences, None, config, settings)
        assert all(p.value.dtype == np.float32 for _, p in result.store.parameters())
        model = TrainedModel.from_training(result)
        heads = [h for h, _ in model.parse(sentences[0].forms)]
        assert len(heads) == len(sentences[0])
        path, again = tmp_path / "m32.model", tmp_path / "again.model"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.store.dtype == np.float32
        assert all(p.value.dtype == np.float32 for _, p in loaded.store.parameters())
        assert [loaded.parse(s.forms) for s in sentences] == [model.parse(s.forms)
                                                               for s in sentences]
        save_model(loaded, again)
        assert again.read_bytes() == path.read_bytes()

    def test_dev_selection_keeps_best_snapshot(self, toy_treebank_path_module):
        sentences = read_conllu(toy_treebank_path_module)
        settings = TrainSettings(epochs=4, seed=3, learning_rate=0.01, hidden_dim=16)
        config = UnitConfig(dim_jamo=8, dim_char=0, dim_word=8, dim_encoder=16)
        result = train(sentences, sentences, config, settings)
        best = max(h["las"] for h in result.history)
        model = TrainedModel.from_training(result)
        predicted = [model.parse_sentence(s.forms) for s in sentences]
        _, las = evaluate(sentences, predicted)
        assert las == pytest.approx(best)


class TestModelIO:
    def test_round_trip_preserves_everything(self, overfit_result, tmp_path):
        sentences, result = overfit_result
        model = TrainedModel.from_training(result)
        path = tmp_path / "model.bin"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.config == model.config
        assert loaded.word_vocab.tokens == model.word_vocab.tokens
        assert loaded.label_vocab.tokens == model.label_vocab.tokens
        for (name, a), (_, b) in zip(model.store.parameters(), loaded.store.parameters()):
            assert np.array_equal(a.value, b.value), name
        forms = sentences[0].forms
        assert loaded.parse(forms) == model.parse(forms)

    def test_a_model_scoring_every_arc_minus_inf_still_parses_legal_trees(self, overfit_result,
                                                                          tmp_path):
        # where shift is illegal every legal output then scores -inf, as the illegal ones do
        sentences, result = overfit_result
        path = tmp_path / "model.bin"
        save_model(TrainedModel.from_training(result), path)
        model = load_model(path)
        model.store["scorer/b2"].value[1:] = -np.inf
        model.store.version += 1
        for sentence in sentences:
            assert_well_formed_tree(sentence.forms, model.parse(sentence.forms))

    def test_save_load_save_is_byte_identical(self, overfit_result, tmp_path):
        _, result = overfit_result
        model = TrainedModel.from_training(result)
        first = tmp_path / "a.bin"
        second = tmp_path / "b.bin"
        save_model(model, first)
        save_model(load_model(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_loaded_parameters_are_writeable_separate_copies(self, overfit_result, tmp_path):
        _, result = overfit_result
        path = tmp_path / "model.bin"
        save_model(TrainedModel.from_training(result), path)
        params = [p for _, p in load_model(path).store.parameters()]
        for i, param in enumerate(params):
            assert param.value.flags.writeable and param.value.flags.owndata, param.name
            assert param.grad is None, param.name
            assert not any(np.shares_memory(param.value, other.value) for other in params[:i])

    def test_save_and_load_hold_no_second_copy_of_the_parameters(self, tmp_path):
        # 16 MB of word vectors go between the arrays and the file, not through a buffer
        good = ConlluSentence([Token("a", 0, "root"), Token("b", 1, "d")])
        vectors = {"w%d" % i: np.zeros(400) for i in range(5000)}
        config = UnitConfig(dim_jamo=4, dim_char=0, dim_word=400, dim_encoder=8)
        result = train([good], None, config, TrainSettings(epochs=0, hidden_dim=4),
                       embedding_vectors=vectors)
        path = tmp_path / "model.bin"
        tracemalloc.start()
        try:
            save_model(TrainedModel.from_training(result), path)
            _, save_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            model = load_model(path)
            kept, load_peak = tracemalloc.get_traced_memory()  # kept: the values
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert model.store.count() * 8 > 0.95 * size
        assert save_peak < 0.25 * size
        assert load_peak - kept < 0.25 * size

    def test_loaded_model_parses_without_allocating_gradients(self, tmp_path):
        good = ConlluSentence([Token("a", 0, "root"), Token("b", 1, "d")])
        vectors = {"w%d" % i: np.zeros(400) for i in range(5000)}
        config = UnitConfig(dim_jamo=4, dim_char=0, dim_word=400, dim_encoder=8)
        result = train([good], None, config, TrainSettings(epochs=0, hidden_dim=4),
                       embedding_vectors=vectors)
        path = tmp_path / "model.bin"
        save_model(TrainedModel.from_training(result), path)
        del result, vectors
        tracemalloc.start()
        try:
            model = load_model(path)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept < 1.1 * path.stat().st_size  # the values alone, no gradient beside them
        assert model.parse(["w7", "b", "모르는말"])
        for name, param in model.store.parameters():
            assert param.grad is None, name

    def test_loaded_tables_are_row_tracked_outside_the_arena(self, overfit_result, tmp_path):
        _, result = overfit_result
        path = tmp_path / "model.bin"
        save_model(TrainedModel.from_training(result), path)
        store = load_model(path).store
        assert [name for name, _ in store.tables()] == ["jamo/emb", "char/emb", "word/emb"]
        _, _, segments = store.dense()
        assert not [name for name, _ in segments if name.endswith("/emb")]

    def test_failed_save_keeps_the_old_file_and_leaves_no_partial_one(self, overfit_result,
                                                                        tmp_path, monkeypatch):
        _, result = overfit_result
        model = TrainedModel.from_training(result)
        path = tmp_path / "model.bin"
        save_model(model, path)
        old = path.read_bytes()
        params = list(model.store.parameters())
        calls = []

        def failing_parameters():  # the header reads the list whole, the body fails midway
            calls.append(None)
            for i, item in enumerate(params):
                if len(calls) > 1 and i == 3:
                    raise OSError("disk full")
                yield item

        monkeypatch.setattr(model.store, "parameters", failing_parameters)
        with pytest.raises(OSError, match="disk full"):
            save_model(model, path)
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["model.bin"]
        monkeypatch.undo()
        load_model(path)

    def test_save_through_a_symlink_replaces_its_target(self, overfit_result, tmp_path):
        _, result = overfit_result
        model = TrainedModel.from_training(result)
        target, link = tmp_path / "target.bin", tmp_path / "link.bin"
        target.write_bytes(b"old")
        link.symlink_to(target)
        save_model(model, link)
        assert link.is_symlink()
        names = [[name for name, _ in m.store.parameters()] for m in (load_model(target), model)]
        assert names[0] == names[1]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.bin", "target.bin"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_save_to_a_pipe_writes_into_it(self, overfit_result, tmp_path):
        _, result = overfit_result
        model = TrainedModel.from_training(result)
        path, pipe = tmp_path / "model.bin", tmp_path / "pipe"
        save_model(model, path)
        os.mkfifo(pipe)
        received = []
        reader = threading.Thread(target=lambda: received.append(pipe.read_bytes()), daemon=True)
        reader.start()
        save_model(model, pipe)
        reader.join(timeout=30)  # a replaced pipe would leave the reader waiting
        assert received == [path.read_bytes()]
        assert stat.S_ISFIFO(pipe.stat().st_mode)  # written into, not replaced
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.bin", "pipe"]

    def test_truncated_file_is_corrupt(self, overfit_result, tmp_path):
        _, result = overfit_result
        path = tmp_path / "model.bin"
        save_model(TrainedModel.from_training(result), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(CorruptModelError):
            load_model(path)

    def test_flipped_byte_is_corrupt(self, overfit_result, tmp_path):
        _, result = overfit_result
        path = tmp_path / "model.bin"
        save_model(TrainedModel.from_training(result), path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptModelError):
            load_model(path)

    def test_version_bump_is_rejected(self, overfit_result, tmp_path, monkeypatch):
        _, result = overfit_result
        path = tmp_path / "model.bin"
        monkeypatch.setattr("jamoparse.model_io.FORMAT_VERSION", 2)
        save_model(TrainedModel.from_training(result), path)
        monkeypatch.undo()
        with pytest.raises(ModelVersionError):
            load_model(path)

    def test_non_model_file_is_corrupt(self, tmp_path):
        path = tmp_path / "not-a-model"
        path.write_bytes(b"definitely not a model file, padded to length" * 4)
        with pytest.raises(CorruptModelError):
            load_model(path)
