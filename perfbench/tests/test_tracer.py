"""Wrappers sit at the call sites, record spans, and report absent layers as absent."""
import pytest

from jamoparse import autograd, data, model_io, parser
from jamoparse.encoder import UnitConfig
from jamoparse.parser import TrainSettings

from perfbench import gen, tracer, workloads

SMALL = UnitConfig(dim_jamo=4, dim_char=4, dim_word=4, dim_encoder=8)


def tiny_run(tr, tmp_path):
    """Train one epoch and parse, the way a train rep does, under ``tr``."""
    corpus = gen.Generator(2).corpus(
        gen.CorpusSpec(sentences=4, min_len=3, max_len=6, mean_len=4.0, types=20))
    path = tmp_path / "tb.conllu"
    gen.write_conllu(corpus, path)
    with tr.span("phase.train"):
        result = parser.train(data.read_conllu(path), None, SMALL,
                              TrainSettings(epochs=1, hidden_dim=4, explore_from_epoch=1))
    model = model_io.TrainedModel.from_training(result)
    with tr.span("phase.parse"):
        predicted = [model.parse_sentence(s.forms) for s in corpus.sentences]
    return corpus.tokens, predicted


def test_every_entry_point_is_found_and_called(tmp_path):
    tr = tracer.Tracer()
    tr.install()
    try:
        assert parser.backward is not autograd.backward.__wrapped__
        assert autograd.backward is parser.backward  # patched at every site
        tokens, _ = tiny_run(tr, tmp_path)
        model_io.save_model(model_io.load_model(_saved(tmp_path)), tmp_path / "again.bin")
    finally:
        tr.uninstall()
    assert not hasattr(parser.backward, "__wrapped__")
    assert tr.missing == []
    called = {span[0] for span in tr.spans}
    assert set(tracer.REQUIRED_ALWAYS + tracer.REQUIRED_TRAIN) - called == \
        {"data.read_embeddings", "data.write_conllu"}
    stats = tracer.summarize(tr.spans)
    # spans nest: encode is inside training passes, steps inside encode
    assert stats[("train", "parser.training_pass")][0] == 4
    assert stats[("parse", "parser.greedy_parse")][0] == 4
    assert stats[("train", "nn.adam_step")][0] == tr.counters["passes_with_loss"]
    assert all(entry[2] <= entry[1] + 1e-12 for entry in stats.values())
    metrics = tracer.layer_metrics(stats, "train", {"train": tokens, "parse": tokens}, 0,
                                   tr.counters, set(tracer.ENTRY_POINTS))
    assert metrics["parser.scores_calls_per_tok"] == pytest.approx(2.0)
    assert metrics["transition.costs_calls_per_tok"] > 0
    assert metrics["autograd.graph_nodes_per_tok"] > 0


def _saved(tmp_path):
    corpus = gen.Generator(4).corpus(
        gen.CorpusSpec(sentences=2, min_len=3, max_len=4, mean_len=3.5, types=10))
    result = parser.train(workloads.to_conllu_sentences(corpus), None, SMALL,
                          TrainSettings(epochs=0, hidden_dim=4))
    path = tmp_path / "m.bin"
    model_io.save_model(model_io.TrainedModel.from_training(result), path)
    return path


def test_missing_or_uncalled_entry_point_is_absent_not_zero(tmp_path, monkeypatch):
    monkeypatch.setitem(tracer.ENTRY_POINTS, "nn.lstm_step", "jamoparse.nn.LSTMCell.gone")
    tr = tracer.Tracer()
    tr.install()
    try:
        tokens, _ = tiny_run(tr, tmp_path)
    finally:
        tr.uninstall()
    assert tr.missing == ["nn.lstm_step"]
    available, problems = tr.coverage(train=True)
    assert "nn.lstm_step" not in available
    assert any("nn.lstm_step is missing" in p for p in problems)
    assert any("data.read_embeddings was never called" in p for p in problems)
    metrics = tracer.layer_metrics(tracer.summarize(tr.spans), "train",
                                   {"train": tokens, "parse": tokens}, 0, tr.counters, available)
    assert "nn.lstm_step_ms_per_tok" not in metrics
    assert "data.read_embeddings_s" not in metrics
    assert metrics["encoder.encode_ms_per_tok"] > 0
    # a parse workload does not require training entry points; unreached reads 0
    parse_only = tracer.Tracer()
    available, problems = parse_only.coverage(train=False)
    assert "nn.adam_step" in available
    assert all("adam" not in p for p in problems)
