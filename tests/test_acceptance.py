# -*- coding: utf-8 -*-
"""Acceptance criteria, one test per criterion with its stated tolerance.

Each test prints `ACCEPTANCE PASS|FAIL: <criterion>` (visible with -s or -rA).
The two treebank-dependent criteria are optional and skip unless
KOREAN_TREEBANK_DIR points at the Korean universal treebank v2.0 split
(and RUN_FULL_TRAINING=1 for the multi-hour training one).
"""
import copy
import glob
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from jamoparse import hangul
from jamoparse import transition as T
from jamoparse.autograd import concat, gather
from jamoparse.cli import decompose_lines
from jamoparse.data import (ConlluSentence, Token, build_vocabularies, corpus_stats, evaluate,
                            is_projective, read_conllu)
from jamoparse.encoder import SentenceEncoder, UnitConfig
from jamoparse.model_io import TrainedModel
from jamoparse.nn import LSTMCell, ParameterStore, bilstm
from jamoparse.parser import (TrainSettings, TransitionScorer, feature_rows, greedy_parse,
                              train)
from jamoparse.vocab import Vocabulary

from conftest import TOY_TREEBANK, assert_gradients_match
from graph_ops import (add, add_n, affine, affine_tanh, matvec, mul, pick, row, scale, sigmoid,
                       stack, sub, tanh, vslice, vsum)
from test_parser import enumerate_projective_trees


@contextmanager
def criterion(name):
    try:
        yield
    except Exception:
        print("ACCEPTANCE FAIL: %s" % name)
        raise
    print("ACCEPTANCE PASS: %s" % name)


def test_decomposition_exhaustive_round_trip():
    with criterion("exhaustive round-trip over all 11,172 syllables in < 1 s"):
        start = time.perf_counter()
        failures = 0
        for code in range(hangul.SYLLABLE_FIRST, hangul.SYLLABLE_LAST + 1):
            char = chr(code)
            if hangul.compose(hangul.decompose(char)) != char:
                failures += 1
        elapsed = time.perf_counter() - start
        assert failures == 0
        assert hangul.SYLLABLE_LAST - hangul.SYLLABLE_FIRST + 1 == 11172
        assert elapsed < 1.0, "round trip took %.2fs" % elapsed


def test_figure_sentence_fidelity():
    with criterion("decompose 산을 갔다 matches the reference decomposition"):
        triples = [u for u in hangul.decompose_text("산을 갔다")
                   if isinstance(u, hangul.JamoTriple)]
        assert triples == [
            hangul.JamoTriple("ㅅ", "ㅏ", "ㄴ"),
            hangul.JamoTriple("ㅇ", "ㅡ", "ㄹ"),
            hangul.JamoTriple("ㄱ", "ㅏ", "ㅆ"),
            hangul.JamoTriple("ㄷ", "ㅏ", hangul.EMPTY),
        ]
        assert decompose_lines("산을 갔다") == [
            "산\tㅅ\tㅏ\tㄴ",
            "을\tㅇ\tㅡ\tㄹ",
            " \tATOMIC",
            "갔\tㄱ\tㅏ\tㅆ",
            "다\tㄷ\tㅏ\t∅",
        ]


def test_alphabet_cardinalities():
    with criterion("19 heads, 21 vowels, 27 tails, 51 canonical letters"):
        assert len(hangul.HEAD_LETTERS) == 19
        assert len(hangul.VOWEL_LETTERS) == 21
        assert len(hangul.TAIL_LETTERS) == 27
        assert len(set(hangul.HEAD_LETTERS)) == 19
        assert len(set(hangul.VOWEL_LETTERS)) == 21
        assert len(set(hangul.TAIL_LETTERS)) == 27
        assert len(hangul.ALPHABET) == 51
        assert hangul.EMPTY not in hangul.ALPHABET


def _per_operation_gradient_suite():
    rng = np.random.default_rng(0)
    from jamoparse.autograd import Parameter

    def P(name, values):
        return Parameter(name, np.asarray(values, dtype=np.float64))

    a = P("a", rng.normal(size=5))
    b = P("b", rng.normal(size=5))
    w = P("w", rng.normal(size=(4, 5)))
    e = P("e", rng.normal(size=(3, 5)))
    bias = P("bias", rng.normal(size=4))
    cases = [
        (lambda: vsum(tanh(add(a, b))), [a, b]),
        (lambda: vsum(tanh(sub(a, b))), [a, b]),
        (lambda: vsum(tanh(mul(a, b))), [a, b]),
        (lambda: vsum(scale(tanh(a), 2.5)), [a]),
        (lambda: vsum(tanh(a)), [a]),
        (lambda: vsum(sigmoid(a)), [a]),
        (lambda: vsum(tanh(matvec(w, a))), [w, a]),
        (lambda: vsum(tanh(concat([a, b]))), [a, b]),
        (lambda: vsum(tanh(vslice(a, 1, 4))), [a]),
        (lambda: vsum(tanh(row(e, 2))), [e]),
        (lambda: tanh(pick(a, 3)), [a]),
        (lambda: tanh(vsum(a)), [a]),
        (lambda: vsum(add_n([tanh(a), mul(a, b)])), [a, b]),
        (lambda: vsum(tanh(affine([(w, a), (w, b)], bias))), [w, a, b, bias]),
        (lambda: vsum(affine_tanh([(w, a)], bias)), [w, a, bias]),
        (lambda: vsum(tanh(concat([e, gather(e, [2, 0, 2])]))), [e]),
    ]
    for build, params in cases:
        assert_gradients_match(build, params, rel_tol=1e-4, step=1e-5)
    # bilstm over two steps
    store = ParameterStore(seed=1)
    cell = LSTMCell(store, "cell", 3, 2)
    back = LSTMCell(store, "back", 3, 2)
    x1 = P("x1", rng.normal(size=3))
    x2 = P("x2", rng.normal(size=3))

    def lstm_build():
        return vsum(bilstm(cell, back, stack([x1, x2])))

    assert_gradients_match(lstm_build, [cell.weights, cell.bias, back.weights, back.bias,
                                        x1, x2], rel_tol=1e-4, step=1e-5)
    # and over a packed batch of two sequences, three steps and one
    x3 = P("x3", rng.normal(size=3))

    def packed_build():
        return vsum(tanh(bilstm(cell, back, stack([x1, x2, x3, x1]), [3, 1])))

    assert_gradients_match(packed_build, [cell.weights, cell.bias, back.weights, back.bias,
                                          x1, x2, x3], rel_tol=1e-4, step=1e-5)


def _full_stack_gradient_check():
    treebank = [
        ConlluSentence([Token("산을", 2, "obj"), Token("갔다", 0, "root")]),
        ConlluSentence([Token("물", 0, "root")]),
    ]
    jamo_v, char_v, word_v = build_vocabularies(treebank)
    label_v = Vocabulary.build("label", {"obj": 1, "root": 2})
    store = ParameterStore(seed=2, dtype=np.float64)
    config = UnitConfig(dim_jamo=3, dim_char=2, dim_word=3, dim_encoder=4)
    encoder = SentenceEncoder(store, config, jamo_v, char_v, word_v)
    scorer = TransitionScorer(store, config.dim_encoder, len(label_v), hidden_dim=3)
    words = ["산을", "갔다"]
    # the gold path shift, left-arc obj, shift, right-arc root, each against a
    # fixed wrong output, so no perturbation changes which scores the loss reads
    path = [0, 1 + label_v.id_of("obj"), 0, 1 + len(label_v) + label_v.id_of("root")]

    def build():
        encoded = encoder.encode(words)
        table = scorer.feature_table(encoded)
        cfg = T.ParserConfiguration(len(words))
        steps = []
        for correct in path:
            rows = feature_rows(cfg)
            hidden, scores = scorer.scores(table, rows)
            steps.append((rows, hidden, scores, (correct + 1) % scorer.n_outputs, correct))
            cfg.apply(*scorer.transition_of(correct))
        return scorer.hinge_loss(encoded, table, steps)

    params = [p for _, p in store.parameters()]
    assert_gradients_match(build, params, rel_tol=1e-4, step=1e-5)


def test_gradient_suite():
    with criterion("analytic gradients match central finite differences (1e-4, < 30 s)"):
        start = time.perf_counter()
        _per_operation_gradient_suite()
        _full_stack_gradient_check()
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, "gradient suite took %.1fs" % elapsed


def test_oracle_soundness_brute_force():
    with criterion("oracle reconstructs every projective tree over lengths <= 4"):
        checked = 0
        for n in range(1, 5):
            for heads in enumerate_projective_trees(n):
                checked += 1
                gold_heads = [None] + [heads[d] for d in range(1, n + 1)]

                def explore(config):
                    if config.is_terminal():
                        assert config.heads == heads
                        return
                    costs = T.transition_costs(config, gold_heads)
                    zero = [k for k in config.legal_kinds() if costs[k] == 0]
                    assert zero
                    for kind in zero:
                        branch = copy.deepcopy(config)
                        branch.apply(kind, 0)
                        explore(branch)

                explore(T.ParserConfiguration(n))
        assert checked == 71


def test_overfitting_sanity():
    with criterion("30 epochs on the bundled toy treebank reach 100 UAS/LAS, "
                   "< 2 min, seed-deterministic"):
        sentences = read_conllu(TOY_TREEBANK)
        assert len(sentences) == 10
        config = UnitConfig(dim_jamo=16, dim_char=16, dim_word=16, dim_encoder=32)
        settings = TrainSettings(epochs=30, seed=42, learning_rate=0.01, hidden_dim=32)
        start = time.perf_counter()
        result = train(sentences, sentences, config, settings)
        elapsed = time.perf_counter() - start
        model = TrainedModel.from_training(result)
        predicted = [model.parse_sentence(s.forms) for s in sentences]
        uas, las = evaluate(sentences, predicted)
        assert (uas, las) == (100.0, 100.0)
        assert elapsed < 120.0, "training took %.1fs" % elapsed
        rerun = train(sentences, sentences, config, settings)
        assert rerun.history == result.history
        for (name, p1), (_, p2) in zip(result.store.parameters(),
                                       rerun.store.parameters()):
            assert np.array_equal(p1.value, p2.value), name


def _random_word(rng):
    chars = []
    for _ in range(int(rng.integers(1, 4))):
        if rng.random() < 0.1:
            chars.append(chr(int(rng.integers(0x21, 0x7F))))
        else:
            chars.append(chr(int(rng.integers(hangul.SYLLABLE_FIRST,
                                              hangul.SYLLABLE_LAST + 1))))
    return "".join(chars)


def test_parse_well_formedness_fuzz():
    with criterion("1,000 fuzzed parses are single-headed acyclic projective "
                   "trees in exactly 2n transitions"):
        rng = np.random.default_rng(123)
        seed_corpus = [ConlluSentence([Token(_random_word(rng), 0, "root")])
                       for _ in range(40)]
        jamo_v, char_v, word_v = build_vocabularies(seed_corpus)
        label_v = Vocabulary.build("label", {"a": 1, "b": 1, "c": 1})
        config = UnitConfig(dim_jamo=8, dim_char=0, dim_word=8, dim_encoder=16)
        n_models = 5
        per_model = 200
        for model_seed in range(n_models):
            store = ParameterStore(seed=1000 + model_seed)
            encoder = SentenceEncoder(store, config, jamo_v, char_v, word_v)
            scorer = TransitionScorer(store, config.dim_encoder, len(label_v), hidden_dim=8)
            for _ in range(per_model):
                n = int(rng.integers(1, 41))
                forms = [_random_word(rng) for _ in range(n)]
                # greedy_parse itself enforces the 2n transition count
                parsed = greedy_parse(encoder, scorer, forms)
                heads = [h for h, _ in parsed]
                assert len(heads) == n
                for pos, head in enumerate(heads, start=1):
                    assert 0 <= head <= n and head != pos
                for start_tok in range(1, n + 1):
                    node, seen = start_tok, set()
                    while node != 0:
                        assert node not in seen, "cycle"
                        seen.add(node)
                        node = heads[node - 1]
                tokens = [Token(f, h, "x") for f, h in zip(forms, heads)]
                assert is_projective(ConlluSentence(tokens))


def _treebank_file(directory, split):
    matches = sorted(glob.glob(os.path.join(directory, "*%s*.conll*" % split)))
    if not matches:
        pytest.skip("no *%s*.conll* file under %s" % (split, directory))
    return matches[0]


TREEBANK_DIR = os.environ.get("KOREAN_TREEBANK_DIR")


@pytest.mark.skipif(not TREEBANK_DIR, reason="optional: set KOREAN_TREEBANK_DIR to "
                    "the Korean universal treebank v2.0 split")
def test_optional_stats_reproduction():
    with criterion("train-split statistics match the reference counts exactly"):
        sentences = read_conllu(_treebank_file(TREEBANK_DIR, "train"))
        stats = corpus_stats(sentences)
        assert stats.n_projective == 5425
        assert stats.n_nonprojective == 12
        assert stats.word_types == 31060
        assert stats.char_types == 1772
        assert stats.jamo_types == 500
        assert stats.jamo_types_korean == 48


@pytest.mark.skipif(not (TREEBANK_DIR and os.environ.get("RUN_FULL_TRAINING") == "1"),
                    reason="optional: multi-hour full training; set KOREAN_TREEBANK_DIR "
                    "and RUN_FULL_TRAINING=1")
def test_optional_jamo_only_full_training():
    with criterion("jamo-only 200-dim model reaches test LAS >= 88 after 30 epochs"):
        train_sents = read_conllu(_treebank_file(TREEBANK_DIR, "train"))
        dev_sents = read_conllu(_treebank_file(TREEBANK_DIR, "dev"))
        test_sents = read_conllu(_treebank_file(TREEBANK_DIR, "test"))
        projective = [s for s in train_sents if is_projective(s)]
        config = UnitConfig(dim_jamo=200, dim_char=0, dim_word=0, dim_encoder=250 * 2)
        settings = TrainSettings(epochs=30, seed=42)
        result = train(projective, dev_sents, config, settings, log=print)
        model = TrainedModel.from_training(result)
        predicted = [model.parse_sentence(s.forms) for s in test_sents]
        _, las = evaluate(test_sents, predicted)
        print("test las=%.2f" % las)
        assert las >= 88.0
