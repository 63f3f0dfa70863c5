# -*- coding: utf-8 -*-
import gc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from jamoparse import hangul
from jamoparse.data import ConlluSentence, Token, build_vocabularies
from jamoparse.encoder import SentenceEncoder, UnitConfig
from jamoparse.nn import ParameterStore, bilstm
from jamoparse.autograd import backward, concat
from jamoparse.vocab import UNK

from conftest import assert_gradients_match, gradient
from graph_ops import affine_tanh, constant, mul, pick, row, stack, vsum


def treebank_of(words):
    return [ConlluSentence([Token(w, 0, "root")]) for w in words]


def make_encoder(config, words, seed=0):
    jamo_v, char_v, word_v = build_vocabularies(treebank_of(words))
    store = ParameterStore(seed=seed)
    return SentenceEncoder(store, config, jamo_v, char_v, word_v), store


CORPUS = ["산을", "갔다", "먹었다", "나는", "물", "ab"]


class TestUnitConfig:
    def test_rejects_all_zero_tiers(self):
        with pytest.raises(ValueError):
            UnitConfig(dim_jamo=0, dim_char=0, dim_word=0, dim_encoder=4)

    def test_rejects_odd_encoder_dim(self):
        with pytest.raises(ValueError):
            UnitConfig(dim_encoder=5)
        with pytest.raises(ValueError):
            UnitConfig(dim_encoder=0)

    @pytest.mark.parametrize("field,value", [
        ("dim_encoder", 8.0), ("dim_jamo", 4.5), ("dim_word", True), ("dim_char", "4"),
        ("dim_jamo", None),
    ])
    def test_rejects_a_dimension_that_is_not_an_int(self, field, value):
        with pytest.raises(ValueError, match=field + " must be an int"):
            UnitConfig(**{field: value})

    def test_numpy_integer_dimensions_accepted(self):
        config = UnitConfig(dim_jamo=np.int64(4), dim_char=np.int32(0), dim_word=np.int8(2),
                            dim_encoder=np.int64(8))
        assert config.composed_dim == 4 and config.word_input_dim == 6

    def test_composed_dim_tracks_enabled_tiers(self):
        assert UnitConfig(dim_jamo=3, dim_char=2).composed_dim == 3
        assert UnitConfig(dim_jamo=0, dim_char=2).composed_dim == 2
        cfg = UnitConfig(dim_jamo=0, dim_char=0, dim_word=4)
        assert not cfg.uses_chars
        assert cfg.word_input_dim == 4


class TestCharRepr:
    def test_zero_parameters_give_zero_vector(self):
        enc, store = make_encoder(UnitConfig(4, 4, 4, 4), CORPUS)
        for _, p in store.parameters():
            p.value.fill(0.0)
        for char in ("산", "다", "a", "?"):
            assert np.array_equal(enc.char_repr([char]).value[0], np.zeros(4))

    def test_empty_tail_slot_uses_empty_letter_embedding(self):
        enc, _ = make_encoder(UnitConfig(4, 0, 0, 4), CORPUS)
        open_syllable = enc.char_repr(["다"]).value[0].copy()  # tail is ∅
        closed_syllable = enc.char_repr(["갈"]).value[0].copy()
        enc.jamo_emb.value[enc.jamo_vocab.id_of(hangul.EMPTY)] += 0.5
        assert not np.array_equal(enc.char_repr(["다"]).value[0], open_syllable)
        assert np.array_equal(enc.char_repr(["갈"]).value[0], closed_syllable)

    def test_preactivation_algebra_oracle(self):
        # independent straight-line pre-activation oracle over stored weights
        enc, _ = make_encoder(UnitConfig(5, 0, 0, 4), CORPUS)
        emb = enc.jamo_emb.value

        def oracle_pre(char):
            t = hangul.decompose(char)
            return (enc.head_weight.value @ emb[enc.jamo_vocab.id_of(t.head)]
                    + enc.vowel_weight.value @ emb[enc.jamo_vocab.id_of(t.vowel)]
                    + enc.tail_weight.value @ emb[enc.jamo_vocab.id_of(t.tail)]
                    + enc.jamo_bias.value)

        for char in ("산", "갔", "다"):
            assert np.allclose(enc.char_repr([char]).value[0], np.tanh(oracle_pre(char)))
        # 간 and 갈 share head and vowel; the difference is the tail term alone
        diff = oracle_pre("간") - oracle_pre("갈")
        tail_n = emb[enc.jamo_vocab.id_of("ㄴ")]
        tail_l = emb[enc.jamo_vocab.id_of("ㄹ")]
        assert np.allclose(diff, enc.tail_weight.value @ (tail_n - tail_l))

    def test_atomic_character_goes_through_head_matrix_only(self):
        enc, _ = make_encoder(UnitConfig(4, 0, 0, 4), CORPUS)
        emb = enc.jamo_emb.value
        expected = np.tanh(enc.head_weight.value @ emb[enc.jamo_vocab.id_of("a")]
                           + enc.jamo_bias.value)
        assert np.allclose(enc.char_repr(["a"]).value[0], expected)
        unseen = np.tanh(enc.head_weight.value @ emb[enc.jamo_vocab.unk_id]
                         + enc.jamo_bias.value)
        assert np.allclose(enc.char_repr(["☃"]).value[0], unseen)

    def test_disabled_jamo_tier_raises(self):
        enc, _ = make_encoder(UnitConfig(0, 4, 0, 4), CORPUS)
        with pytest.raises(ValueError):
            enc.char_repr(["산"])


class TestWordRepr:
    def test_shape_is_composed_dim(self):
        enc, _ = make_encoder(UnitConfig(3, 2, 0, 4), CORPUS)
        assert enc.word_repr(["갔다"]).value[0].shape == (3,)
        enc, _ = make_encoder(UnitConfig(0, 3, 0, 4), CORPUS)
        assert enc.word_repr(["갔다"]).value[0].shape == (3,)

    def test_single_character_word_boundary(self):
        enc, _ = make_encoder(UnitConfig(3, 3, 0, 4), CORPUS)
        out = enc.word_repr(["물"]).value[0]
        assert out.shape == (3,)
        assert np.all(np.isfinite(out))

    def test_empty_word_rejected(self):
        enc, _ = make_encoder(UnitConfig(3, 3, 0, 4), CORPUS)
        with pytest.raises(ValueError):
            enc.word_repr([""])

    def test_no_subword_tiers_gives_empty_vector(self):
        enc, _ = make_encoder(UnitConfig(0, 0, 4, 4), CORPUS)
        assert enc.word_repr(["갔다"]).value[0].shape == (0,)

    def test_matches_manual_bilstm_oracle(self):
        # independent numpy evaluation of the forward/backward char LSTMs
        enc, _ = make_encoder(UnitConfig(3, 2, 0, 4), CORPUS)
        word = "갔다"

        def char_input(char):
            t = hangul.decompose(char)
            emb = enc.jamo_emb.value
            h_c = np.tanh(enc.head_weight.value @ emb[enc.jamo_vocab.id_of(t.head)]
                          + enc.vowel_weight.value @ emb[enc.jamo_vocab.id_of(t.vowel)]
                          + enc.tail_weight.value @ emb[enc.jamo_vocab.id_of(t.tail)]
                          + enc.jamo_bias.value)
            return np.concatenate([h_c, enc.char_emb.value[enc.char_vocab.id_of(char)]])

        def sigmoid(z):
            return 1.0 / (1.0 + np.exp(-z))

        def run(cell, inputs):
            h = np.zeros(cell.hidden_dim)
            c = np.zeros(cell.hidden_dim)
            for x in inputs:
                gates = cell.weights.value @ np.concatenate([x, h]) + cell.bias.value
                n = cell.hidden_dim
                i, f = sigmoid(gates[:n]), sigmoid(gates[n:2 * n])
                g, o = np.tanh(gates[2 * n:3 * n]), sigmoid(gates[3 * n:])
                c = f * c + i * g
                h = o * np.tanh(c)
            return h

        inputs = [char_input(c) for c in word]
        forward_last = run(enc.char_fwd, inputs)
        backward_first = run(enc.char_bwd, inputs[::-1])
        expected = np.tanh(enc.char_out.value @ np.concatenate([forward_last, backward_first])
                           + enc.char_out_bias.value)
        assert np.allclose(enc.word_repr([word]).value[0], expected)

    def test_character_order_matters(self):
        enc, _ = make_encoder(UnitConfig(3, 2, 0, 4), CORPUS)
        assert not np.allclose(enc.word_repr(["갔다"]).value[0],
                               enc.word_repr(["다갔"]).value[0])
        assert np.array_equal(enc.word_repr(["갔다"]).value[0],
                              enc.word_repr(["갔다"]).value[0])


class TestSentenceEncode:
    def test_one_vector_per_word(self):
        enc, _ = make_encoder(UnitConfig(3, 2, 3, 6), CORPUS)
        assert enc.encode(["나는", "산을", "갔다"]).value.shape == (3, 6)
        assert enc.encode(["갔다"]).value.shape == (1, 6)

    def test_empty_sentence_rejected(self):
        enc, _ = make_encoder(UnitConfig(3, 2, 3, 6), CORPUS)
        with pytest.raises(ValueError):
            enc.encode([])

    def test_oov_words_map_to_unk_at_word_tier(self):
        enc, _ = make_encoder(UnitConfig(0, 0, 4, 4), CORPUS)
        a = enc.encode(["강아지"]).value
        b = enc.encode([UNK]).value
        assert np.allclose(a[0], b[0])

    def test_oov_spelling_sensitivity_without_word_tier(self):
        # jamo-only: two OOV words differing in one letter get different vectors
        enc, _ = make_encoder(UnitConfig(4, 0, 0, 4), CORPUS)
        assert "간" not in enc.word_vocab
        assert "갈" not in enc.word_vocab
        z_n = enc.encode(["나는", "간"]).value
        z_l = enc.encode(["나는", "갈"]).value
        z_n2 = enc.encode(["나는", "간"]).value
        assert not np.allclose(z_n[1], z_l[1])
        assert np.array_equal(z_n[1], z_n2[1])  # control

    def test_matches_manual_two_layer_bilstm_oracle(self):
        # independent numpy evaluation of both sentence layers over [word_repr; word emb]
        enc, _ = make_encoder(UnitConfig(3, 2, 4, 6), CORPUS)
        words = ["나는", "산을", "갔다", "ab", "물"]

        def sigmoid(z):
            return 1.0 / (1.0 + np.exp(-z))

        def run(cell, inputs):
            h = np.zeros(cell.hidden_dim)
            c = np.zeros(cell.hidden_dim)
            states = []
            for x in inputs:
                gates = cell.weights.value @ np.concatenate([x, h]) + cell.bias.value
                n = cell.hidden_dim
                i, f = sigmoid(gates[:n]), sigmoid(gates[n:2 * n])
                g, o = np.tanh(gates[2 * n:3 * n]), sigmoid(gates[3 * n:])
                c = f * c + i * g
                h = o * np.tanh(c)
                states.append(h)
            return states

        layer = [np.concatenate([enc.word_repr([w]).value[0],
                                 enc.word_emb.value[enc.word_vocab.id_of(w)]]) for w in words]
        for fwd, bwd in ((enc.layer1_fwd, enc.layer1_bwd), (enc.layer2_fwd, enc.layer2_bwd)):
            forward = run(fwd, layer)
            backward = run(bwd, layer[::-1])[::-1]  # state i has read words i..n-1
            layer = [np.concatenate([f, b]) for f, b in zip(forward, backward)]
        encoded = enc.encode(words).value
        assert len(encoded) == len(words)
        for position, (got, expected) in enumerate(zip(encoded, layer)):
            assert np.allclose(got, expected), position

    def test_word_dropout_replaces_rare_words(self):
        enc, _ = make_encoder(UnitConfig(0, 0, 4, 4), CORPUS)

        class AlwaysDrop:
            def random(self):
                return 0.0

        class NeverDrop:
            def random(self):
                return 1.0

        dropped = enc.encode(["갔다"], rng=AlwaysDrop())
        unk = enc.encode([UNK])
        kept = enc.encode(["갔다"], rng=NeverDrop())
        plain = enc.encode(["갔다"])
        assert np.allclose(dropped.value, unk.value)
        assert np.allclose(kept.value, plain.value)


class TestAblation:
    def test_word_tier_zero_removes_word_table(self):
        _, with_words = make_encoder(UnitConfig(3, 2, 3, 4), CORPUS)
        _, without = make_encoder(UnitConfig(3, 2, 0, 4), CORPUS)
        assert "word/emb" in with_words
        assert "word/emb" not in without
        assert without.count() < with_words.count()

    def test_jamo_tier_zero_removes_jamo_parameters(self):
        _, store = make_encoder(UnitConfig(0, 3, 3, 4), CORPUS)
        assert "jamo/emb" not in store
        assert "jamo/head" not in store

    def test_char_tier_zero_removes_char_table(self):
        _, store = make_encoder(UnitConfig(3, 0, 3, 4), CORPUS)
        assert "char/emb" not in store
        assert "char/fwd/W" in store  # composition LSTM still runs on jamo input


def test_long_sentence_stays_finite_through_backward():
    enc, store = make_encoder(UnitConfig(4, 4, 4, 8), CORPUS, seed=1)
    words = (CORPUS * 7)[:40]
    total = vsum(enc.encode(words))
    assert np.all(np.isfinite(total.value))
    backward(total)
    for _, p in store.parameters():
        assert np.all(np.isfinite(p.grad)), p.name


def test_full_encoder_gradients_two_word_sentence():
    enc, store = make_encoder(UnitConfig(2, 2, 2, 4), ["산을", "갔다"], seed=3)
    words = ["산을", "갔다"]

    def build():
        # sum over every output row so all parameters participate
        return vsum(enc.encode(words))

    params = [p for _, p in store.parameters()]
    assert_gradients_match(build, params)


def test_float32_store_keeps_encodings_and_gradients_float32():
    jamo_v, char_v, word_v = build_vocabularies(treebank_of(CORPUS))
    store = ParameterStore(seed=2, dtype=np.float32)
    enc = SentenceEncoder(store, UnitConfig(3, 2, 4, 6), jamo_v, char_v, word_v)
    # encode returns the second layer's BiLSTM node
    sentence_states = enc.encode(["나는", "산을", "갔다", "ab"])
    assert sentence_states.value.shape == (4, 6)
    assert sentence_states.value.dtype == np.float32
    backward(vsum(sentence_states))
    for _, p in store.parameters():
        assert p.grad.dtype == np.float32, p.name
        assert np.any(p.grad != 0.0), p.name


# The per-word char tier the batched one replaced: one char BiLSTM per word,
# one affine_tanh over three row nodes per character.

def reference_char_repr(enc, char):
    triple = hangul.decompose(char)
    letters = [char] if triple is None else [triple.head, triple.vowel, triple.tail]
    weights = (enc.head_weight, enc.vowel_weight, enc.tail_weight)
    return affine_tanh([(w, row(enc.jamo_emb, enc.jamo_vocab.id_of(letter)))
                        for w, letter in zip(weights, letters)], enc.jamo_bias)


def reference_char_input(enc, char):
    parts = []
    if enc.config.dim_jamo > 0:
        parts.append(reference_char_repr(enc, char))
    if enc.config.dim_char > 0:
        parts.append(row(enc.char_emb, enc.char_vocab.id_of(char)))
    return parts[0] if len(parts) == 1 else concat(parts)


def reference_word_repr(enc, word):
    states = bilstm(enc.char_fwd, enc.char_bwd,
                    stack([reference_char_input(enc, c) for c in word]))
    n = enc.config.composed_dim
    ends = concat([pick(states, (-1, slice(None, n))), pick(states, (0, slice(n, None)))])
    return affine_tanh([(enc.char_out, ends)], enc.char_out_bias)


TIER_MIXES = [UnitConfig(3, 2, 0, 4), UnitConfig(0, 3, 0, 4), UnitConfig(3, 0, 2, 4)]
#: In-vocabulary syllables, unseen syllables, Latin (atomic, seen and unseen) and a symbol.
ALPHABET = "산을갔다먹었나는물" + "갈간쀍힣" + "abz" + "☃"
WORDS = st.text(st.sampled_from(ALPHABET), min_size=1, max_size=6)


@st.composite
def sentences(draw):
    """One to eight words, some of them repeats of earlier ones."""
    words = []
    for _ in range(draw(st.integers(1, 8))):
        if words and draw(st.booleans()):
            words.append(draw(st.sampled_from(words)))
        else:
            words.append(draw(WORDS))
    return words


def gradients_of(store, build):
    store.zero_gradients()
    backward(build())
    grads = {name: gradient(p).copy() for name, p in store.parameters()}
    store.zero_gradients()
    return grads


@pytest.mark.parametrize("config", TIER_MIXES, ids=str)
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(words=sentences(), seed=st.integers(0, 2**16))
def test_batched_word_repr_matches_per_word_graph(config, words, seed):
    enc, store = make_encoder(config, CORPUS, seed=seed)
    for _, p in store.parameters():  # nonzero biases exercise every gate
        if p.value.ndim == 1:
            p.value[:] = np.random.default_rng(seed).normal(size=p.value.shape)
    upstream = constant(np.random.default_rng(seed + 1).normal(
        size=(len(words), config.composed_dim)))
    batched = enc.word_repr(words)
    reference = stack([reference_word_repr(enc, word) for word in words])
    assert batched.value.shape == (len(words), config.composed_dim)
    assert np.max(np.abs(batched.value - reference.value)) <= 1e-12
    got = gradients_of(store, lambda: vsum(mul(enc.word_repr(words), upstream)))
    want = gradients_of(store, lambda: vsum(mul(
        stack([reference_word_repr(enc, word) for word in words]), upstream)))
    for name, grad in want.items():
        np.testing.assert_allclose(got[name], grad, rtol=1e-10, atol=1e-15, err_msg=name)


def test_char_repr_is_one_row_per_character_in_order():
    enc, _ = make_encoder(UnitConfig(4, 0, 0, 4), CORPUS)
    chars = "산a☃갈산"
    batched = enc.char_repr(chars).value
    assert batched.shape == (5, 4)
    for i, char in enumerate(chars):
        assert np.max(np.abs(batched[i] - reference_char_repr(enc, char).value)) <= 1e-12


def test_jamo_ids_are_decomposed_once_per_encoder(monkeypatch):
    calls = []
    original = hangul.decompose

    def counting(char):
        calls.append(char)
        return original(char)

    enc, _ = make_encoder(UnitConfig(3, 0, 2, 4), CORPUS)
    again, _ = make_encoder(UnitConfig(3, 0, 2, 4), CORPUS)
    monkeypatch.setattr(hangul, "decompose", counting)
    enc.encode(["산을", "산", "ab"])
    enc.encode(["을산", "b"])
    assert sorted(calls) == sorted("산을ab")
    again.encode(["산"])
    assert calls[-1] == "산"  # the memo belongs to one encoder


def test_encode_runs_each_tier_once_per_sentence(monkeypatch):
    enc, _ = make_encoder(UnitConfig(3, 2, 2, 4), CORPUS)
    calls = []

    def counted(name, original):
        def wrapper(self, items):
            calls.append(name)
            return original(self, items)
        return wrapper

    for name in ("word_repr", "char_repr"):
        monkeypatch.setattr(SentenceEncoder, name, counted(name, getattr(SentenceEncoder, name)))
    enc.encode(["나는", "산을", "갔다", "ab", "물"])
    assert calls == ["word_repr", "char_repr"]


def test_batched_tiers_keep_float32():
    jamo_v, char_v, word_v = build_vocabularies(treebank_of(CORPUS))
    store = ParameterStore(seed=4, dtype=np.float32)
    enc = SentenceEncoder(store, UnitConfig(3, 2, 0, 4), jamo_v, char_v, word_v)
    chars = enc.char_repr("산a☃")
    words = enc.word_repr(["나는", "a", "먹었다", "나는"])
    assert chars.value.dtype == np.float32
    assert words.value.dtype == np.float32
    backward(vsum(words))
    for name, p in store.parameters():
        assert gradient(p).dtype == np.float32, name
        assert np.any(gradient(p) != 0.0) == name.startswith(("jamo/", "char/")), name


def test_dropped_encoder_graph_leaves_no_reference_cycles():
    enc, store = make_encoder(UnitConfig(3, 2, 2, 4), CORPUS)
    gc.collect()
    gc.disable()
    try:
        encoded = enc.encode(["나는", "산을", "☃", "갔다", "나는"])
        backward(vsum(encoded))
        del encoded
        assert gc.collect() == 0
    finally:
        gc.enable()
