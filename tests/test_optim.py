"""Arena and row-sparse zero/clip/step against the full-sweep optimizer they replace.

The reference functions below are the dense implementations: every
gradient slot is read, scaled and cleared on every update, and Adam masks
each tensor with ``grad != 0``. The clip norm sums the dense gradients in
the arena's layout (creation order, each parameter starting on an
``ALIGN``-byte boundary, ``CHUNK``-element pieces in order), then a
row-tracked table's rows that hold any nonzero gradient, in increasing
order. Adam takes the reordered step of Kingma & Ba 2015 (section 2). The
sparse path must match them bit for bit on values, moments, step counters
and returned norms; ``LegacyAdam``, the step before it was reordered, must
agree with it to rounding.
"""
import math

import numpy as np
import pytest

from jamoparse.autograd import backward
from jamoparse.data import build_label_vocabulary, build_vocabularies, read_conllu
from jamoparse.encoder import SentenceEncoder, UnitConfig
from jamoparse.nn import ALIGN, CHUNK, Adam, ParameterStore, Sgd, clip_gradients
from jamoparse.parser import TrainSettings, TransitionScorer, sentence_training_pass

from conftest import clear_gradient, gradient
from graph_ops import add_n, constant, mul, row, vsum


def reference_zero(store):
    for _, param in store.parameters():
        clear_gradient(param)
        if param.rows is not None:
            param.rows.clear()


def reference_square_sum(param):
    grad = gradient(param)
    if param.rows is not None:  # a table: scan for the rows with any gradient
        grad = grad[np.any(grad != 0, axis=1)]
    return float(np.sum(grad * grad))


def reference_dense_grads(store):
    """Every dense gradient, in creation order, each starting on an ALIGN-byte boundary."""
    pieces, end = [], 0
    for _, param in store.parameters():
        if param.rows is None:
            grad = gradient(param)
            pad = -end % (ALIGN // grad.itemsize)
            pieces += [np.zeros(pad, dtype=grad.dtype), grad.ravel()]
            end += pad + grad.size
    return np.concatenate(pieces)


def reference_clip(store, max_norm):
    dense = reference_dense_grads(store)
    total = 0.0
    for start in range(0, dense.size, CHUNK):
        total += float(np.sum(dense[start:start + CHUNK] ** 2))
    for _, param in store.parameters():
        if param.rows is not None:
            total += reference_square_sum(param)
    norm = math.sqrt(total)
    if norm > max_norm and norm > 0.0:
        factor = max_norm / norm
        for _, param in store.parameters():
            gradient(param)[...] *= factor
    return norm


class ReferenceSgd:
    def __init__(self, learning_rate):
        self.learning_rate = learning_rate

    def step(self, store):
        for _, param in store.parameters():
            param.value -= self.learning_rate * gradient(param)
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
            grad = gradient(param)
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
            self._descend(param.value, m, v, mask, t)
        reference_zero(store)

    def _descend(self, value, m, v, mask, t):
        correction = math.sqrt(1.0 - self.beta2 ** t)
        alpha_t = self.learning_rate * correction / (1.0 - self.beta1 ** t)
        value[mask] -= alpha_t * m[mask] / (np.sqrt(v[mask]) + self.epsilon * correction)


class LegacyAdam(ReferenceAdam):
    """The bias-corrected step as written before it was reordered."""

    def _descend(self, value, m, v, mask, t):
        m_hat = m[mask] / (1.0 - self.beta1 ** t)
        v_hat = v[mask] / (1.0 - self.beta2 ** t)
        value[mask] -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)


TABLE_ROWS, TABLE_DIM = 300, 7


def make_store(dtype):
    store = ParameterStore(seed=3, dtype=dtype)
    store.embedding("emb", TABLE_ROWS, TABLE_DIM)
    store.embedding("emb_unused", 40, 5)  # row-tracked, never looked up
    store.matrix("w", 6, 9)
    store.matrix("w_zero_rows", 8, 5)
    store.vector("b", 6)
    store.matrix("big", 130, 140)  # more than one CHUNK-element piece
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
    big = rng.standard_normal((130, 140)).astype(dtype)
    big[rng.random(130) < 0.3] = 0.0  # zero rows in both pieces
    dense = {"w": rng.standard_normal((6, 9)).astype(dtype) * rng.choice([0.01, 1.0, 30.0]),
             "w_zero_rows": w_zero_rows,
             "b": rng.standard_normal(6).astype(dtype),
             "big": big}
    return lookups, dense


def feed(store, lookups, dense):
    """Table gradients through autograd.row, dense ones written directly."""
    table = store["emb"]
    terms = [vsum(mul(row(table, index), constant(upstream, dtype=store.dtype)))
             for index, upstream in lookups]
    backward(add_n(terms))
    for name, grad in dense.items():
        param = store[name]
        param.grad = gradient(param)  # the same array, if it exists
        param.grad += grad


def assert_same_state(store, ref_store, opt, ref_opt):
    for (name, param), (_, ref_param) in zip(store.parameters(), ref_store.parameters()):
        assert np.array_equal(param.value, ref_param.value), name
        assert np.array_equal(gradient(param), gradient(ref_param)), name
        assert not np.any(param.grad), name
    assert opt._t == ref_opt._t
    assert set(opt._m) <= {name for name, _ in store.tables()}  # dense moments: the arenas
    _, m, v = opt._arena
    moments = {name: (m[part], v[part]) for name, part in store.dense()[2]}
    moments.update((name, (opt._m[name].ravel(), opt._v[name].ravel())) for name in opt._m)
    assert set(ref_opt._m) <= set(moments)
    for name, (m_got, v_got) in moments.items():  # a dense parameter's are zero before its step
        zero = np.zeros(m_got.shape, m_got.dtype)
        assert np.array_equal(m_got, ref_opt._m.get(name, zero).ravel()), name
        assert np.array_equal(v_got, ref_opt._v.get(name, zero).ravel()), name


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
        if step == 7:
            dense["big"][:118] = 0.0  # the first piece holds no gradient
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
    assert "dead" not in opt._t and "emb_unused" not in opt._m
    assert opt._t["emb"] == 12 and opt._t["w"] == 11 and opt._t["big"] == 11


def test_reordered_adam_agrees_with_the_legacy_step():
    # the same 12 updates through both arithmetics differ by rounding only
    rng = np.random.default_rng(11)
    store, legacy_store = make_store(np.float64), make_store(np.float64)
    opt, legacy = Adam(learning_rate=0.01), LegacyAdam(learning_rate=0.01)
    for step in range(12):
        lookups, dense = random_update(rng, np.float64)
        feed(store, lookups, dense)
        feed(legacy_store, lookups, dense)
        max_norm = [0.5, 5.0, 1e6][step % 3]
        clip_gradients(store, max_norm)
        reference_clip(legacy_store, max_norm)
        opt.step(store)
        legacy.step(legacy_store)
    moved = 0
    for (name, param), (_, old) in zip(store.parameters(), legacy_store.parameters()):
        assert np.all(np.abs(param.value - old.value) <= 1e-12 * np.abs(old.value)), name
        moved += np.count_nonzero(param.value != old.value)
    assert moved  # the two arithmetics are not the same


def test_dense_parameters_are_views_of_one_arena():
    store = make_store(np.float64)
    before = store.state_dict()
    values, grads, segments = store.dense()
    assert store.dense()[0] is values  # packed once
    assert [name for name, _ in segments] == [name for name, p in store.parameters()
                                              if p.rows is None]
    for name, part in segments:
        param = store[name]
        assert np.shares_memory(param.value, values[part]), name
        assert np.shares_memory(param.grad, grads[part]), name
        assert param.value.ctypes.data % ALIGN == 0 and param.grad.ctypes.data % ALIGN == 0
        assert np.array_equal(param.value, before[name]), name
    for name, table in store.tables():
        assert not np.shares_memory(table.value, values), name
    store["w"].grad += 1.0
    assert np.sum(grads) == store["w"].grad.size
    store.zero_gradients()
    assert not np.any(store["w"].grad)


def test_load_state_dict_writes_through_the_arena():
    store = make_store(np.float32)
    values, _, segments = store.dense()
    state = {name: np.full(p.value.shape, k, dtype=np.float32)
             for k, (name, p) in enumerate(store.parameters(), start=1)}
    store.load_state_dict(state)
    for name, part in segments:
        assert np.array_equal(values[part], state[name].ravel()), name


@pytest.mark.parametrize("write", ["sgd", "adam", "load_state_dict"])
def test_every_write_to_the_values_advances_the_version(write):
    store = make_store(np.float64)
    before = store.version
    if write == "load_state_dict":
        store.load_state_dict(store.state_dict())
    else:
        (Sgd if write == "sgd" else Adam)(0.1).step(store)  # even one with no gradient
    assert store.version == before + 1
    store.zero_gradients()
    clip_gradients(store, 1.0)
    assert store.version == before + 1  # gradient work leaves the values alone


def test_dense_parameter_added_after_packing_raises():
    store = make_store(np.float64)
    store.dense()
    for add in (lambda: store.matrix("late", 2, 2), lambda: store.vector("late", 2)):
        with pytest.raises(RuntimeError):
            add()
    assert "late" not in store
    assert store.embedding("late/emb", 3, 2).rows == set()  # tables stay outside the arena


def test_dense_parameters_of_mixed_dtypes_do_not_pack():
    # the store holds one dtype, so an arena of two cannot arise
    store = ParameterStore(seed=0, saved={"w": np.ones((2, 3)),
                                          "w32": np.ones((2, 3), dtype=np.float32)})
    store.matrix("w", 2, 3)
    with pytest.raises(ValueError):
        store.matrix("w32", 2, 3)
    assert "w32" not in store
    assert store.dense()[0].dtype == np.float64


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


def test_update_of_a_store_whose_tables_were_never_gathered():
    store = make_store(np.float64)
    before = store.state_dict()
    store.zero_gradients()
    assert clip_gradients(store, 1.0) == 0.0
    Sgd(0.1).step(store)
    Adam(0.1).step(store)
    for name, param in store.parameters():
        assert np.array_equal(param.value, before[name]), name
    for name, table in store.tables():
        assert table.grad is None, name


def test_negative_row_index_is_tracked_once():
    store = ParameterStore(seed=0)
    table = store.embedding("emb", 5, 2)
    backward(add_n([vsum(row(table, -1)), vsum(row(table, 4))]))
    assert table.rows == {4}
    assert np.array_equal(table.grad[4], [2.0, 2.0])


def test_only_embedding_tables_are_row_tracked():
    store = ParameterStore(seed=0)
    assert store.embedding("emb", 3, 2).rows == set()
    assert store.matrix("w", 3, 2).rows is None
    assert store.vector("b", 3).rows is None
    saved = np.ones((3, 2))
    loaded = ParameterStore(seed=0, saved={"emb": saved}).embedding("emb", 3, 2)
    assert loaded.rows == set() and loaded.value is saved


def test_backward_rows_cover_every_nonzero_embedding_row(toy_treebank_path):
    sentences = read_conllu(toy_treebank_path)
    config = UnitConfig(dim_jamo=6, dim_char=5, dim_word=4, dim_encoder=8)
    jamo_vocab, char_vocab, word_vocab = build_vocabularies(sentences)
    label_vocab = build_label_vocabulary(sentences)
    store = ParameterStore(seed=4)
    encoder = SentenceEncoder(store, config, jamo_vocab, char_vocab, word_vocab)
    scorer = TransitionScorer(store, config.dim_encoder, len(label_vocab), 6)
    tables = ["jamo/emb", "char/emb", "word/emb"]
    assert all(store[name].rows is not None for name in tables)
    settings = TrainSettings(epochs=1)
    optimizer = Adam(settings.learning_rate)
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
