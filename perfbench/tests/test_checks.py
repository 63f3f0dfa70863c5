"""Corrupted outputs are counted as failed, clean ones are not."""
import copy

import numpy as np
import pytest

from jamoparse import data, model_io, parser
from jamoparse.encoder import UnitConfig
from jamoparse.parser import TrainSettings

from perfbench import checks, gen, workloads


@pytest.fixture(scope="module")
def tiny():
    corpus = gen.Generator(1).corpus(
        gen.CorpusSpec(sentences=6, min_len=3, max_len=8, mean_len=5.0, types=30))
    result = parser.train(workloads.to_conllu_sentences(corpus), None,
                          UnitConfig(dim_jamo=4, dim_char=4, dim_word=4, dim_encoder=8),
                          TrainSettings(epochs=0, hidden_dim=4))
    model = model_io.TrainedModel.from_training(result)
    pairs = [(s.forms, model.parse_sentence(s.forms)) for s in corpus.sentences]
    return model, pairs


def check(model, pairs, out):
    rep = workloads.Rep(traced=False)
    data.write_conllu([p for _, p in pairs if p is not None], out)
    workloads.check_parse(model, pairs, out, rep)
    return rep


def test_clean_parse_passes(tiny, tmp_path):
    model, pairs = tiny
    rep = check(model, pairs, tmp_path / "out.conllu")
    assert (rep.attempted, rep.failed, rep.problems) == (len(pairs), 0, [])
    assert len(rep.digests["parse_output_sha256"]) == 64


def _cycle(tokens):
    tokens[0].head, tokens[1].head = 2, 1


def _self_loop(tokens):
    tokens[0].head = 1


def _out_of_range(tokens):
    tokens[0].head = len(tokens) + 1


def _missing_head(tokens):
    tokens[0].head = None


def _unknown_label(tokens):
    tokens[0].label = "not-a-label"


def _dropped_token(tokens):
    del tokens[-1]


def _changed_form(tokens):
    tokens[0].form += "x"


@pytest.mark.parametrize("corrupt", [_cycle, _self_loop, _out_of_range, _missing_head,
                                     _unknown_label, _dropped_token, _changed_form])
def test_corrupted_parse_counts_as_failed(tiny, tmp_path, corrupt):
    model, pairs = tiny
    pairs = copy.deepcopy(pairs)
    corrupt(pairs[2][1].tokens)
    rep = check(model, pairs, tmp_path / "out.conllu")
    assert rep.attempted == len(pairs)
    assert rep.failed == 1 and len(rep.problems) == 1


def test_written_file_that_reads_back_differently_counts_as_failed(tiny, tmp_path):
    model, pairs = tiny
    out = tmp_path / "out.conllu"
    data.write_conllu([p for _, p in pairs], out)
    lines = out.read_text(encoding="utf-8").split("\n")
    cols = lines[0].split("\t")
    cols[7] = "tampered"
    lines[0] = "\t".join(cols)
    out.write_text("\n".join(lines), encoding="utf-8")
    rep = workloads.Rep(traced=False)
    workloads.check_parse(model, pairs, out, rep)
    assert rep.failed == 1


def test_sentence_that_raised_counts_as_failed(tiny, tmp_path):
    model, pairs = tiny
    pairs = list(pairs)
    pairs[0] = (pairs[0][0], None)
    rep = check(model, pairs, tmp_path / "out.conllu")
    assert rep.failed == 1


def test_training_check_rejects_non_finite_values():
    good = [("w", np.ones(3))]
    assert checks.training_problem([1.0], good) is None
    assert checks.training_problem([float("nan")], good)
    assert checks.training_problem([1.0], [("w", np.array([1.0, np.inf]))])
    assert checks.params_digest(good) == checks.params_digest([("w", np.ones(3))])
    assert checks.params_digest(good) != checks.params_digest([("w", np.zeros(3))])
