"""Row-sparse zero/clip/step against the full-sweep optimizer they replace.

The reference functions below are the dense implementations: every
gradient slot is read, scaled and cleared on every update, and Adam masks
each tensor with ``grad != 0``. The clip norm sums a row-tracked table's
rows that hold any nonzero gradient, in increasing order, and every other
parameter's full array. The sparse path must match them bit for bit on
values, moments, step counters and returned norms.
"""
import math

import numpy as np
import pytest

from jamoparse.autograd import backward
from jamoparse.data import build_label_vocabulary, build_vocabularies, read_conllu
from jamoparse.encoder import SentenceEncoder, UnitConfig
from jamoparse.nn import Adam, ParameterStore, Sgd, clip_gradients
from jamoparse.parser import TrainSettings, TransitionScorer, sentence_training_pass

from graph_ops import add_n, constant, mul, row, vsum


def reference_zero(store):
    for _, param in store.parameters():
        param.grad.fill(0.0)
        if param.rows is not None:
            param.rows.clear()


def reference_square_sum(param):
    grad = param.grad
    if param.rows is not None:  # a table: scan for the rows with any gradient
        grad = grad[np.any(grad != 0, axis=1)]
    return float(np.sum(grad * grad))


def reference_clip(store, max_norm):
    total = 0.0
    for _, param in store.parameters():
        total += reference_square_sum(param)
    norm = math.sqrt(total)
    if norm > max_norm and norm > 0.0:
        factor = max_norm / norm
        for _, param in store.parameters():
            param.grad *= factor
    return norm


class ReferenceSgd:
    def __init__(self, learning_rate):
        self.learning_rate = learning_rate

    def step(self, store):
        for _, param in store.parameters():
            param.value -= self.learning_rate * param.grad
        reference_zero(store)


class ReferenceAdam:
    def __init__(self, learning_rate=1e-3, beta1=0.9, beta2=0.999, epsilon=1e-8):
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self._m, self._v, self._t = {}, {}, {}

    def step(self, store):
        for name, param in store.parameters():
            grad = param.grad
            mask = grad != 0
            if not mask.any():
                continue
            if name not in self._m:
                self._m[name] = np.zeros_like(param.value)
                self._v[name] = np.zeros_like(param.value)
                self._t[name] = 0
            self._t[name] += 1
            t = self._t[name]
            m, v = self._m[name], self._v[name]
            g = grad[mask]
            m[mask] = self.beta1 * m[mask] + (1.0 - self.beta1) * g
            v[mask] = self.beta2 * v[mask] + (1.0 - self.beta2) * g * g
            m_hat = m[mask] / (1.0 - self.beta1 ** t)
            v_hat = v[mask] / (1.0 - self.beta2 ** t)
            param.value[mask] -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)
        reference_zero(store)


TABLE_ROWS, TABLE_DIM = 300, 7


def make_store(dtype):
    store = ParameterStore(seed=3, dtype=dtype)
    store.embedding("emb", TABLE_ROWS, TABLE_DIM)
    store.embedding("emb_unused", 40, 5)  # row-tracked, never looked up
    store.matrix("w", 6, 9)
    store.matrix("w_zero_rows", 8, 5)
    store.vector("b", 6)
    store.matrix("dead", 4, 4)  # dense, never receives gradient
    return store


def random_update(rng, dtype):
    """Lookups with their upstream gradients, plus dense gradients, for one update."""
    rows = rng.choice(TABLE_ROWS, size=int(rng.integers(1, 12)), replace=False)
    lookups = [(int(r), rng.standard_normal(TABLE_DIM).astype(dtype)) for r in rows]
    twice = int(rows[0])  # hit twice in one sentence
    lookups.append((twice, rng.standard_normal(TABLE_DIM).astype(dtype)))
    if len(rows) > 1:
        lookups[1][1][2] = 0.0  # an exact zero inside a row looked up once
    w_zero_rows = rng.standard_normal((8, 5)).astype(dtype)
    w_zero_rows[rng.random(8) < 0.5] = 0.0  # whole rows without gradient
    dense = {"w": rng.standard_normal((6, 9)).astype(dtype) * rng.choice([0.01, 1.0, 30.0]),
             "w_zero_rows": w_zero_rows,
             "b": rng.standard_normal(6).astype(dtype)}
    return lookups, dense


def feed(store, lookups, dense):
    """Table gradients through autograd.row, dense ones written directly."""
    table = store["emb"]
    terms = [vsum(mul(row(table, index), constant(upstream, dtype=store.dtype)))
             for index, upstream in lookups]
    backward(add_n(terms))
    for name, grad in dense.items():
        store[name].grad += grad


def assert_same_state(store, ref_store, opt, ref_opt):
    for (name, param), (_, ref_param) in zip(store.parameters(), ref_store.parameters()):
        assert np.array_equal(param.value, ref_param.value), name
        assert np.array_equal(param.grad, ref_param.grad), name
        assert not np.any(param.grad), name
    assert opt._t == ref_opt._t
    assert sorted(opt._m) == sorted(ref_opt._m)
    for name in ref_opt._m:
        assert np.array_equal(opt._m[name], ref_opt._m[name]), name
        assert np.array_equal(opt._v[name], ref_opt._v[name]), name


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_adam_and_clip_match_full_sweep(dtype):
    rng = np.random.default_rng(11)
    store, ref_store = make_store(dtype), make_store(dtype)
    opt, ref_opt = Adam(learning_rate=0.01), ReferenceAdam(learning_rate=0.01)
    fired = 0
    for step in range(12):
        lookups, dense = random_update(rng, dtype)
        if step == 5:
            dense = {}  # an update where only the table has gradient
        feed(store, lookups, dense)
        feed(ref_store, lookups, dense)
        max_norm = [0.5, 5.0, 1e6][step % 3]
        norm = clip_gradients(store, max_norm)
        assert norm == reference_clip(ref_store, max_norm)
        fired += norm > max_norm
        opt.step(store)
        ref_opt.step(ref_store)
        assert_same_state(store, ref_store, opt, ref_opt)
    assert fired >= 4
    assert "dead" not in opt._m and "emb_unused" not in opt._m
    assert opt._t["emb"] == 12 and opt._t["w"] == 11


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_sgd_matches_full_sweep(dtype):
    rng = np.random.default_rng(12)
    store, ref_store = make_store(dtype), make_store(dtype)
    for _ in range(4):
        lookups, dense = random_update(rng, dtype)
        feed(store, lookups, dense)
        feed(ref_store, lookups, dense)
        Sgd(0.1).step(store)
        ReferenceSgd(0.1).step(ref_store)
        for (name, param), (_, ref_param) in zip(store.parameters(), ref_store.parameters()):
            assert np.array_equal(param.value, ref_param.value), name
            assert not np.any(param.grad), name


@pytest.mark.parametrize("dtype, rel_tol", [(np.float64, 1e-12), (np.float32, 1e-6)])
def test_clip_norm_of_a_table_sums_its_touched_rows(dtype, rel_tol):
    # the touched rows alone are summed, so the norm may differ from a sum over
    # the full array in the last bits, never by more than rounding
    rng = np.random.default_rng(13)
    for trial in range(60):
        rows, dim = int(rng.integers(1, 4000)), int(rng.choice([1, 3, 7, 50, 100]))
        store = ParameterStore(seed=trial, dtype=dtype)
        table = store.embedding("emb", rows, dim)
        hits = rng.integers(0, rows, size=int(rng.integers(1, 30)))
        backward(add_n([vsum(mul(row(table, int(i)), constant(rng.standard_normal(dim),
                                                              dtype=dtype)))
                        for i in hits]))
        norm = clip_gradients(store, 1e9)
        assert norm == math.sqrt(reference_square_sum(table))
        full = math.sqrt(float(np.sum(table.grad * table.grad)))
        assert abs(norm - full) <= rel_tol * full


def test_zero_gradients_clears_touched_rows():
    store = make_store(np.float64)
    lookups, dense = random_update(np.random.default_rng(14), np.float64)
    feed(store, lookups, dense)
    assert store["emb"].rows == {index for index, _ in lookups}
    store.zero_gradients()
    for name, param in store.parameters():
        assert not np.any(param.grad), name
    assert store["emb"].rows == set()


def test_negative_row_index_is_tracked_once():
    store = ParameterStore(seed=0)
    table = store.embedding("emb", 5, 2)
    backward(add_n([vsum(row(table, -1)), vsum(row(table, 4))]))
    assert table.rows == {4}
    assert np.array_equal(table.grad[4], [2.0, 2.0])


def test_only_new_embedding_tables_are_row_tracked():
    store = ParameterStore(seed=0)
    assert store.embedding("emb", 3, 2).rows == set()
    assert store.matrix("w", 3, 2).rows is None
    assert store.vector("b", 3).rows is None
    loaded = store.add_raw("loaded/emb", np.ones((3, 2)))
    assert loaded.rows is None
    assert store.embedding("loaded/emb", 3, 2) is loaded  # bound, stays dense


def test_backward_rows_cover_every_nonzero_embedding_row(toy_treebank_path):
    sentences = read_conllu(toy_treebank_path)
    config = UnitConfig(dim_jamo=6, dim_char=5, dim_word=4, dim_encoder=8)
    jamo_vocab, char_vocab, word_vocab, _ = build_vocabularies(sentences)
    label_vocab = build_label_vocabulary(sentences)
    store = ParameterStore(seed=4)
    encoder = SentenceEncoder(store, config, jamo_vocab, char_vocab, word_vocab)
    scorer = TransitionScorer(store, config.dim_encoder, len(label_vocab), 6)
    tables = ["jamo/emb", "char/emb", "word/emb"]
    assert all(store[name].rows is not None for name in tables)
    settings = TrainSettings(epochs=1)
    optimizer = Adam()
    updates = 0
    for sentence in sentences[:4]:
        loss, _ = sentence_training_pass(encoder, scorer, sentence, label_vocab, settings,
                                         store.rng, epoch=1)
        if loss is None:
            continue
        backward(loss)
        for name in tables:
            table = store[name]
            nonzero = set(np.flatnonzero(np.any(table.grad != 0, axis=1)).tolist())
            assert nonzero and nonzero <= table.rows, name
        clip_gradients(store, 5.0)
        optimizer.step(store)
        updates += 1
        for name, param in store.parameters():
            assert not np.any(param.grad), name
            assert not param.rows, name
    assert updates
