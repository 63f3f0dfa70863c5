# -*- coding: utf-8 -*-
import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from jamoparse import model_io
from jamoparse.cli import decompose_lines, main
from jamoparse.data import read_conllu
from jamoparse.model_io import CorruptModelError, load_model

from model_files import rewrite_header, rewrite_model, split_model


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


FIGURE_SENTENCE = "산을 갔다"
FIGURE_LINES = [
    "산\tㅅ\tㅏ\tㄴ",
    "을\tㅇ\tㅡ\tㄹ",
    " \tATOMIC",
    "갔\tㄱ\tㅏ\tㅆ",
    "다\tㄷ\tㅏ\t∅",
]


class TestDecompose:
    def test_figure_sentence(self, capsys):
        code, out, _ = run_cli(capsys, "decompose", FIGURE_SENTENCE)
        assert code == 0
        assert out.splitlines() == FIGURE_LINES

    def test_from_file_to_file(self, tmp_path, capsys):
        src = tmp_path / "in.txt"
        dst = tmp_path / "out.txt"
        src.write_text("a산\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "decompose", "--input", str(src),
                               "--output", str(dst))
        assert code == 0
        assert out == ""
        assert dst.read_text(encoding="utf-8") == "a\tATOMIC\n산\tㅅ\tㅏ\tㄴ\n"

    def test_input_file_byte_order_mark_is_dropped(self, tmp_path, capsys):
        src = tmp_path / "in.txt"
        src.write_text("\ufeff산\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "decompose", "--input", str(src))
        assert code == 0
        assert out == "산\tㅅ\tㅏ\tㄴ\n"

    def test_no_text_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "decompose")
        assert code == 2
        assert "provide TEXT" in err

    def test_decompose_lines_helper(self):
        assert decompose_lines("") == []
        assert decompose_lines("?") == ["?\tATOMIC"]
        assert decompose_lines("\x00\x7f\x85") == ["U+0000\tATOMIC", "U+007F\tATOMIC",
                                                   "U+0085\tATOMIC"]

    def test_newline_inside_input_file_keeps_one_record_per_line(self, tmp_path, capsys):
        src = tmp_path / "in.txt"
        src.write_text("가나\n다\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "decompose", "--input", str(src))
        assert code == 0
        assert out.splitlines() == ["가\tㄱ\tㅏ\t∅", "나\tㄴ\tㅏ\t∅", "U+000A\tATOMIC",
                                    "다\tㄷ\tㅏ\t∅"]

    def test_tab_in_text_keeps_the_field_count(self, capsys):
        code, out, _ = run_cli(capsys, "decompose", "가\t나")
        assert code == 0
        assert out.splitlines() == ["가\tㄱ\tㅏ\t∅", "U+0009\tATOMIC", "나\tㄴ\tㅏ\t∅"]


class TestEvalCommand:
    def test_identical_files_score_100(self, tmp_path, capsys, toy_treebank_path):
        code, out, _ = run_cli(capsys, "eval", "--gold", toy_treebank_path,
                               "--pred", toy_treebank_path)
        assert code == 0
        assert out.strip() == "uas=100.00 las=100.00"

    def test_missing_file_fails_cleanly(self, capsys, toy_treebank_path):
        code, _, err = run_cli(capsys, "eval", "--gold", toy_treebank_path,
                               "--pred", "/does/not/exist.conllu")
        assert code == 1
        assert "error:" in err


class TestStats:
    def test_toy_counts(self, capsys, toy_treebank_path):
        code, out, _ = run_cli(capsys, "stats", toy_treebank_path)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "trees=10 projective=10 nonprojective=0"
        sentences = read_conllu(toy_treebank_path)
        n_words = len({t.form for s in sentences for t in s.tokens})
        assert lines[1] == "word_types=%d" % n_words
        assert lines == ["trees=10 projective=10 nonprojective=0", "word_types=30",
                         "char_types=49 char_types_korean=49", "jamo_types=30 jamo_types_korean=30"]

    def test_report_file(self, tmp_path, capsys, toy_treebank_path):
        report = tmp_path / "report.txt"
        code, _, _ = run_cli(capsys, "stats", toy_treebank_path, "--report", str(report))
        assert code == 0
        text = report.read_text(encoding="utf-8")
        assert "# Ko" in text and "jamo" in text
        assert text.splitlines() == [
            "trees      total     10   projective     10   non-projective 0",
            "",
            "           #        # Ko",
            "word        30          --",
            "char        49          49",
            "jamo        30          30",
        ]


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli-train")
    model_path = tmp / "toy.model"
    from conftest import TOY_TREEBANK
    code = main(["train", "--train", TOY_TREEBANK, "--dev", TOY_TREEBANK,
                 "--model", str(model_path),
                 "--dim-jamo", "16", "--dim-char", "16", "--dim-word", "16",
                 "--dim-encoder", "32", "--hidden-dim", "32",
                 "--learning-rate", "0.01", "--epochs", "12", "--seed", "42"])
    assert code == 0
    return model_path


class TestTrainParseEval:
    def test_model_file_written(self, trained):
        assert trained.exists() and trained.stat().st_size > 0

    def test_epoch_lines_machine_parseable(self, tmp_path, capsys, toy_treebank_path):
        model_path = tmp_path / "m.model"
        args = ["train", "--train", toy_treebank_path, "--dev", toy_treebank_path,
                "--model", str(model_path), "--dim-jamo", "8", "--dim-char", "0",
                "--dim-word", "8", "--dim-encoder", "16", "--hidden-dim", "8",
                "--epochs", "2", "--seed", "5"]
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith("epoch=")]
        assert len(lines) == 2
        for i, line in enumerate(lines, start=1):
            fields = dict(part.split("=") for part in line.split())
            assert fields["epoch"] == str(i)
            assert 0.0 <= float(fields["uas"]) <= 100.0
            assert 0.0 <= float(fields["las"]) <= 100.0
        # identical seed, identical log
        model_path.unlink()
        code, out2, _ = run_cli(capsys, *args)
        assert code == 0
        assert out2 == out

    def test_parse_then_eval_pipeline(self, trained, tmp_path, capsys, toy_treebank_path):
        predicted = tmp_path / "pred.conllu"
        code, _, _ = run_cli(capsys, "parse", "--model", str(trained),
                             "--input", toy_treebank_path, "--output", str(predicted))
        assert code == 0
        parsed = read_conllu(predicted)
        assert len(parsed) == 10
        assert all(t.head is not None for s in parsed for t in s.tokens)
        code, out, _ = run_cli(capsys, "eval", "--gold", toy_treebank_path,
                               "--pred", str(predicted))
        assert code == 0
        assert out.startswith("uas=")

    def test_eval_scores_unparsed_tokens_as_wrong(self, trained, tmp_path, capsys,
                                                 toy_treebank_path):
        lines = Path(toy_treebank_path).read_text(encoding="utf-8").splitlines(keepends=True)
        first_token = next(i for i, line in enumerate(lines) if line[:1].isdigit())
        fields = lines[first_token].split("\t")
        fields[1] = ""
        lines[first_token] = "\t".join(fields)
        gold_path, predicted = tmp_path / "gold.conllu", tmp_path / "pred.conllu"
        gold_path.write_text("".join(lines), encoding="utf-8")
        code, _, err = run_cli(capsys, "parse", "--model", str(trained),
                               "--input", str(gold_path), "--output", str(predicted))
        assert code == 1
        assert "error: sentence 1: empty form" in err
        code, out, err = run_cli(capsys, "eval", "--gold", str(gold_path),
                                 "--pred", str(predicted))
        assert code == 0, err
        gold = read_conllu(gold_path)
        parsed = read_conllu(predicted, allow_missing_heads=True)
        assert all(t.head is None for t in parsed[0].tokens)
        pairs = [(g, p) for gs, ps in zip(gold, parsed) for g, p in zip(gs.tokens, ps.tokens)]
        heads = sum(p.head is not None and g.head == p.head for g, p in pairs)
        labeled = sum(p.head is not None and (g.head, g.label) == (p.head, p.label)
                      for g, p in pairs)
        assert out.strip() == "uas=%.2f las=%.2f" % (100.0 * heads / len(pairs),
                                                     100.0 * labeled / len(pairs))

    @pytest.mark.parametrize("flag,value,message", [
        ("--hidden-dim", "0", "hidden_dim must be positive"),
        ("--learning-rate", "nan", "learning_rate must be a finite positive number"),
        ("--learning-rate", "inf", "learning_rate must be a finite positive number"),
        ("--learning-rate", "0", "learning_rate must be a finite positive number"),
        ("--learning-rate", "-0.1", "learning_rate must be a finite positive number"),
        ("--epochs", "-2", "epochs must be >= 0"),
        ("--seed", "-1", "seed must be >= 0"),
    ])
    def test_bad_train_setting_exits_1_without_a_model(self, tmp_path, capsys,
                                                       toy_treebank_path, flag, value, message):
        model_path = tmp_path / "m.model"
        code, _, err = run_cli(capsys, "train", "--train", toy_treebank_path,
                               "--model", str(model_path), "--dim-jamo", "4", "--dim-char", "0",
                               "--dim-word", "4", "--dim-encoder", "8", "--hidden-dim", "4",
                               "--epochs", "1", flag, value)
        assert code == 1
        assert "error: %s" % message in err
        assert not model_path.exists()

    def test_dev_sentence_with_empty_form_exits_1_before_any_epoch(self, tmp_path, capsys,
                                                                   toy_treebank_path):
        lines = Path(toy_treebank_path).read_text(encoding="utf-8").splitlines(keepends=True)
        first_token = next(i for i, line in enumerate(lines) if line[:1].isdigit())
        fields = lines[first_token].split("\t")
        fields[1] = ""
        lines[first_token] = "\t".join(fields)
        dev_path, model_path = tmp_path / "dev.conllu", tmp_path / "m.model"
        dev_path.write_text("".join(lines), encoding="utf-8")
        code, out, err = run_cli(capsys, "train", "--train", toy_treebank_path,
                                 "--dev", str(dev_path), "--model", str(model_path),
                                 "--dim-jamo", "4", "--dim-char", "0", "--dim-word", "4",
                                 "--dim-encoder", "8", "--hidden-dim", "4", "--epochs", "1")
        assert code == 1
        assert "error: dev sentence 1 has an empty form" in err
        assert "epoch=" not in out
        assert not model_path.exists()

    def test_parse_accepts_unannotated_input(self, trained, tmp_path, capsys):
        bare = tmp_path / "bare.conllu"
        bare.write_text(
            "1\t나는\t_\t_\t_\t_\t_\t_\t_\t_\n"
            "2\t갔다\t_\t_\t_\t_\t_\t_\t_\t_\n\n", encoding="utf-8")
        out_path = tmp_path / "out.conllu"
        code, _, _ = run_cli(capsys, "parse", "--model", str(trained),
                             "--input", str(bare), "--output", str(out_path))
        assert code == 0
        sent = read_conllu(out_path)[0]
        assert [t.form for t in sent.tokens] == ["나는", "갔다"]
        assert all(t.head is not None for t in sent.tokens)

    def test_missing_train_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["train", "--model", "/tmp/x.model"])
        assert excinfo.value.code == 2

    def test_training_with_embeddings(self, tmp_path, capsys, toy_treebank_path):
        vec = tmp_path / "vec.txt"
        vec.write_text("갔다 " + " ".join(["0.25"] * 8) + "\n"
                       "새단어 " + " ".join(["0.5"] * 8) + "\n", encoding="utf-8")
        model_path = tmp_path / "m.model"
        code, _, _ = run_cli(capsys, "train", "--train", toy_treebank_path,
                             "--model", str(model_path), "--dim-jamo", "8",
                             "--dim-char", "0", "--dim-word", "8",
                             "--dim-encoder", "16", "--hidden-dim", "8",
                             "--epochs", "1", "--embeddings", str(vec))
        assert code == 0
        from jamoparse.model_io import load_model
        model = load_model(model_path)
        assert "새단어" in model.word_vocab  # vocabulary expanded from the file
        import numpy as np
        row = model.store["word/emb"].value[model.word_vocab.id_of("새단어")]
        assert np.allclose(row, 0.5)

    def test_embedding_dimension_mismatch_fails(self, tmp_path, capsys, toy_treebank_path):
        vec = tmp_path / "vec.txt"
        vec.write_text("갔다 0.1 0.2\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "train", "--train", toy_treebank_path,
                               "--model", str(tmp_path / "m.model"),
                               "--dim-word", "8", "--epochs", "1",
                               "--embeddings", str(vec))
        assert code == 1
        assert "dimension" in err

    def test_embeddings_without_word_tier_refused_before_reading_the_file(
            self, tmp_path, capsys, toy_treebank_path):
        code, _, err = run_cli(capsys, "train", "--train", toy_treebank_path,
                               "--model", str(tmp_path / "m.model"),
                               "--dim-word", "0", "--epochs", "1",
                               "--embeddings", str(tmp_path / "missing.txt"))
        assert code == 1
        assert err == "error: pre-trained embeddings need dim_word > 0\n"
        assert not (tmp_path / "m.model").exists()


def conllu_rows(*rows):
    return "".join("%d\t%s\t_\t_\t_\t_\t%d\t%s\t_\t_\n" % (i, form, head, label)
                   for i, (form, head, label) in enumerate(rows, start=1)) + "\n"


CYCLE = conllu_rows(("나는", 2, "nsubj"), ("갔다", 1, "dep"), ("집에", 0, "root"))
HEAD_OUT_OF_RANGE = conllu_rows(("나는", 9, "nsubj"), ("갔다", 0, "root"))
GOOD = conllu_rows(("나는", 2, "nsubj"), ("갔다", 0, "root"))
MISSING_LABEL = conllu_rows(("나는", 2, "_"), ("갔다", 0, "root"))
NON_PROJECTIVE = conllu_rows(("나는", 3, "nsubj"), ("산을", 4, "obj"), ("갔다", 0, "root"),
                             ("집에", 3, "obl"))
EMPTY_FORM = conllu_rows(("", 2, "nsubj"), ("갔다", 0, "root"))
ROOTLESS_CYCLE = conllu_rows(("나", 2, "nsubj"), ("가", 1, "dep"))
TWO_ROOTS_NON_PROJECTIVE = conllu_rows(("나는", 3, "nsubj"), ("산을", 0, "root"),
                                       ("갔다", 0, "root"), ("집에", 2, "obl"))
TINY_DIMS = ("--dim-jamo", "4", "--dim-char", "0", "--dim-word", "4", "--dim-encoder", "8",
             "--hidden-dim", "4")


def run_cli_process(*argv):
    """``python -m jamoparse.cli`` in a child process, with this checkout's sources."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-m", "jamoparse.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


class TestMalformedTrainingTrees:
    @pytest.mark.parametrize("text,reason", [(CYCLE, "cycle"),
                                             (HEAD_OUT_OF_RANGE, "head out of range"),
                                             (MISSING_LABEL, "missing label"),
                                             (EMPTY_FORM, "empty form")])
    def test_bad_file_exits_1_without_traceback(self, tmp_path, text, reason):
        path = tmp_path / "bad.conllu"
        path.write_text(text, encoding="utf-8")
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run(
            [sys.executable, "-m", "jamoparse.cli", "train", "--train", str(path),
             "--model", str(tmp_path / "m.model"), "--epochs", "1"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "skipping 1 malformed training sentence(s): %s" % reason in proc.stderr
        assert "non-projective" not in proc.stderr
        assert not (tmp_path / "m.model").exists()

    def test_bad_sentences_are_skipped_with_counts(self, tmp_path, capsys):
        path = tmp_path / "mixed.conllu"
        path.write_text(GOOD + CYCLE + HEAD_OUT_OF_RANGE + CYCLE, encoding="utf-8")
        code, out, err = run_cli(capsys, "train", "--train", str(path),
                                 "--model", str(tmp_path / "m.model"),
                                 "--dim-jamo", "4", "--dim-char", "0", "--dim-word", "4",
                                 "--dim-encoder", "8", "--hidden-dim", "4", "--epochs", "1")
        assert code == 0
        assert "skipping 2 malformed training sentence(s): cycle" in err
        assert "skipping 1 malformed training sentence(s): head out of range" in err
        assert out.startswith("epoch=1 loss=")

    def test_unlabeled_sentence_is_skipped(self, tmp_path, capsys):
        path = tmp_path / "two.conllu"
        path.write_text(GOOD + MISSING_LABEL, encoding="utf-8")
        code, out, err = run_cli(capsys, "train", "--train", str(path),
                                 "--model", str(tmp_path / "m.model"),
                                 "--dim-jamo", "4", "--dim-char", "0", "--dim-word", "4",
                                 "--dim-encoder", "8", "--hidden-dim", "4", "--epochs", "1")
        assert code == 0
        assert "skipping 1 malformed training sentence(s): missing label" in err
        assert out.startswith("epoch=1 loss=")
        assert (tmp_path / "m.model").exists()


    @pytest.mark.parametrize("text,report", [
        (CYCLE, "malformed training sentence(s): cycle"),
        (HEAD_OUT_OF_RANGE, "malformed training sentence(s): head out of range"),
        (MISSING_LABEL, "malformed training sentence(s): missing label"),
        (EMPTY_FORM, "malformed training sentence(s): empty form"),
        (ROOTLESS_CYCLE, "malformed training sentence(s): cycle"),
        (TWO_ROOTS_NON_PROJECTIVE, "non-projective training sentence(s)")],
        ids=["cycle", "head-out-of-range", "missing-label", "empty-form", "rootless-cycle",
             "two-roots-non-projective"])
    def test_skipped_sentence_is_reported_once(self, tmp_path, capsys, text, report):
        path = tmp_path / "three.conllu"
        path.write_text(GOOD + text + GOOD, encoding="utf-8")
        code, out, err = run_cli(capsys, "train", "--train", str(path),
                                 "--model", str(tmp_path / "m.model"), *TINY_DIMS,
                                 "--epochs", "1")
        assert code == 0
        # the skip count is the one report: no root-count warning for a skipped sentence
        assert err == "skipping 1 %s\n" % report, err
        assert (tmp_path / "m.model").exists()

    def test_every_sentence_skipped_exits_1_without_a_model(self, tmp_path, capsys):
        path = tmp_path / "unusable.conllu"
        path.write_text(CYCLE + NON_PROJECTIVE + MISSING_LABEL, encoding="utf-8")
        code, out, err = run_cli(capsys, "train", "--train", str(path),
                                 "--model", str(tmp_path / "m.model"), *TINY_DIMS,
                                 "--epochs", "1")
        assert code == 1
        assert "skipping 1 non-projective training sentence(s)" in err
        assert "skipping 1 malformed training sentence(s): cycle" in err
        assert "skipping 1 malformed training sentence(s): missing label" in err
        assert err.endswith("error: empty training treebank\n")
        assert out == ""
        assert not (tmp_path / "m.model").exists()

    def test_root_count_warning_is_kept(self, tmp_path, capsys):
        path = tmp_path / "two_roots.conllu"
        path.write_text(GOOD + conllu_rows(("나는", 0, "root"), ("갔다", 0, "root")),
                        encoding="utf-8")
        code, _, err = run_cli(capsys, "train", "--train", str(path),
                               "--model", str(tmp_path / "m.model"), *TINY_DIMS,
                               "--epochs", "1")
        assert code == 0
        assert err.count("sentence 2: 2 tokens attached to root") == 1, err


def without_labels(header, arrays):
    """No label, and a scorer with shift as its one output."""
    header["vocabularies"]["label"].update(tokens=[], counts={})
    names = [entry["name"] for entry in header["parameters"]]
    for name in ("scorer/W2", "scorer/b2"):
        arrays[names.index(name)] = arrays[names.index(name)][:1]
    return arrays


def second_parameter_float32(header, arrays):
    return [array.astype(np.float32) if i == 1 else array for i, array in enumerate(arrays)]


def set_field(*keys_and_value):
    *keys, value = keys_and_value

    def edit(header):
        target = header
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
    return edit


@pytest.fixture(scope="module")
def tiny_model(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("tiny")
    treebank = tmp / "train.conllu"
    treebank.write_text(GOOD + GOOD, encoding="utf-8")
    model = tmp / "m.model"
    assert main(["train", "--train", str(treebank), "--model", str(model), *TINY_DIMS,
                 "--epochs", "1"]) == 0
    return model


class TestModelHeaderTypes:
    @pytest.mark.parametrize("edit,field", [
        (set_field("seed", "abc"), "seed"),
        (set_field("seed", -1), "seed"),
        (set_field("config", [1]), "config"),
        (set_field("config", "dim_word", 2.5), "config"),
        (set_field("hidden_dim", "x"), "hidden_dim"),
        (set_field("hidden_dim", 0), "hidden_dim"),
        (set_field("vocabularies", [1]), "vocabularies"),
        (set_field("vocabularies", "word", "tokens", [1, 2]), "vocabularies.word.tokens"),
        (set_field("vocabularies", "label", "counts", {"root": "many"}),
         "vocabularies.label.counts"),
        (set_field("parameters", 0, "name", 5), "parameters[0].name"),
        (set_field("parameters", 0, "shape", [-1]), "parameters[0].shape"),
        # 0 bytes pass the truncation check, but numpy cannot make this array
        (set_field("parameters", 0, "shape", [0, 2 ** 70]), "parameters[0].shape"),
        (set_field("parameters", 1, "shape", "4"), "parameters[1].shape"),
        (set_field("parameters", 0, "dtype", "int8"), "parameters[0].dtype"),
        (set_field("parameters", 1, "dtype", "float32"), "parameters[1].dtype"),
        (set_field("parameters", []), "parameters"),
        (set_field("vocabularies", "label", "tokens", []), "vocabularies.label.tokens"),
        # same size, but "<unk>" / "∅" renamed: specials open each vocabulary
        (set_field("vocabularies", "word", "tokens", 0, "모르는말"), "vocabularies.word.tokens"),
        (set_field("vocabularies", "jamo", "tokens", 1, "<tail>"), "vocabularies.jamo.tokens"),
        (lambda header: header.pop("seed"), "seed"),
        # a repeated entry: the vocabulary or the store would refuse it as a plain ValueError
        (set_field("vocabularies", "word", "tokens", -1, "갔다"), "vocabularies.word.tokens"),
        (set_field("vocabularies", "label", "tokens", -1, "nsubj"),
         "vocabularies.label.tokens"),
        (set_field("parameters", 1, "name", "jamo/emb"), "parameters[1].name"),
    ])
    def test_bad_header_type_exits_1_without_traceback(self, tmp_path, tiny_model, edit, field):
        model = tmp_path / "edited.model"
        model.write_bytes(tiny_model.read_bytes())
        rewrite_header(model, edit)
        with pytest.raises(CorruptModelError, match=re.escape("header field %r" % field)):
            load_model(model)
        text = tmp_path / "in.conllu"
        text.write_text(GOOD, encoding="utf-8")
        proc = run_cli_process("parse", "--model", str(model), "--input", str(text),
                               "--output", str(tmp_path / "out.conllu"))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "header field %r" % field in proc.stderr

    @pytest.mark.parametrize("edit,field", [
        (without_labels, "vocabularies.label.tokens"),
        (second_parameter_float32, "parameters[1].dtype"),
    ], ids=["no-labels", "mixed-dtype"])
    def test_consistent_bad_model_exits_1_without_traceback(self, tmp_path, tiny_model, edit,
                                                            field):
        # the arrays, manifest and digest agree; the header content alone is refused
        model = tmp_path / "edited.model"
        model.write_bytes(tiny_model.read_bytes())
        rewrite_model(model, edit)
        text = tmp_path / "in.conllu"
        text.write_text(GOOD, encoding="utf-8")
        proc = run_cli_process("parse", "--model", str(model), "--input", str(text),
                               "--output", str(tmp_path / "out.conllu"))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "header field %r" % field in proc.stderr
        assert not (tmp_path / "out.conllu").exists()

    @pytest.mark.parametrize("edit,named", [
        (set_field("config", "dim_encoder", 7), "header field 'config'"),
        (lambda header: header["config"].update(dim_jamo=0, dim_char=0, dim_word=0),
         "header field 'config'"),
        (set_field("config", "dim_word", 5), "parameter 'word/emb'"),
        (set_field("hidden_dim", 5), "parameter 'scorer/W1'"),
        (lambda header: header["vocabularies"]["word"]["tokens"].pop(), "parameter 'word/emb'"),
    ], ids=["odd-encoder", "no-word-tier", "dim-word", "hidden-dim", "word-vocabulary-short"])
    def test_header_the_model_refuses_is_corrupt(self, tmp_path, tiny_model, capsys, edit,
                                                  named):
        # every field has its type, but the model cannot have this content
        model = tmp_path / "edited.model"
        model.write_bytes(tiny_model.read_bytes())
        rewrite_header(model, edit)
        with pytest.raises(CorruptModelError, match=named):
            load_model(model)
        text = tmp_path / "in.conllu"
        text.write_text(GOOD, encoding="utf-8")
        code, _, err = run_cli(capsys, "parse", "--model", str(model), "--input", str(text),
                               "--output", str(tmp_path / "out.conllu"))
        assert code == 1
        assert named in err
        assert not (tmp_path / "out.conllu").exists()

    @pytest.mark.parametrize("name,hidden_dim", [("scorer/b2", None), ("scorer/W1", 2 ** 40)],
                             ids=["last", "before-a-256-TiB-draw"])
    def test_renamed_parameter_is_not_replaced_by_a_fresh_one(self, tmp_path, tiny_model,
                                                              name, hidden_dim):
        def edit(header):
            [entry] = [e for e in header["parameters"] if e["name"] == name]
            entry["name"] = "renamed"
            header["hidden_dim"] = hidden_dim or header["hidden_dim"]

        model = tmp_path / "renamed.model"
        model.write_bytes(tiny_model.read_bytes())
        rewrite_header(model, edit)
        with pytest.raises(CorruptModelError, match="lacks parameter\\(s\\) %s$" % name):
            load_model(model)
        text = tmp_path / "in.conllu"
        text.write_text(GOOD, encoding="utf-8")
        proc = run_cli_process("parse", "--model", str(model), "--input", str(text),
                               "--output", str(tmp_path / "out.conllu"))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "lacks parameter(s) %s" % name in proc.stderr
        assert not (tmp_path / "out.conllu").exists()

    def test_parameter_the_model_does_not_create_is_corrupt(self, tmp_path, tiny_model):
        def extra(header, arrays):
            header["parameters"].append({"name": "stray"})
            return arrays + [np.ones(3, dtype=arrays[0].dtype)]

        model = tmp_path / "stray.model"
        model.write_bytes(tiny_model.read_bytes())
        rewrite_model(model, extra)
        with pytest.raises(CorruptModelError, match="no use for: stray$"):
            load_model(model)
        text = tmp_path / "in.conllu"
        text.write_text(GOOD, encoding="utf-8")
        proc = run_cli_process("parse", "--model", str(model), "--input", str(text),
                               "--output", str(tmp_path / "out.conllu"))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "no use for: stray" in proc.stderr

    def test_manifest_in_another_order_loads_in_creation_order(self, tmp_path, tiny_model):
        def reverse(header, arrays):
            header["parameters"].reverse()
            return arrays[::-1]

        model = tmp_path / "reversed.model"
        model.write_bytes(tiny_model.read_bytes())
        rewrite_model(model, reverse)
        loaded, original = load_model(model), load_model(tiny_model)
        names = [[name for name, _ in m.store.parameters()] for m in (loaded, original)]
        assert names[0] == names[1]
        for name, param in original.store.parameters():
            assert np.array_equal(loaded.store[name].value, param.value), name

    def test_untouched_header_round_trip_still_parses(self, tmp_path, tiny_model):
        model = tmp_path / "same.model"
        model.write_bytes(tiny_model.read_bytes())
        rewrite_header(model, lambda header: None)
        text = tmp_path / "in.conllu"
        text.write_text(GOOD, encoding="utf-8")
        assert main(["parse", "--model", str(model), "--input", str(text),
                     "--output", str(tmp_path / "out.conllu")]) == 0


    def test_header_nested_past_the_recursion_limit_is_unreadable(self, tmp_path, tiny_model):
        model = tmp_path / "deep.model"
        magic, _, arrays = split_model(tiny_model)
        header = b"[" * 200_000 + b"]" * 200_000
        body = magic + b"%d\n" % len(header) + header + arrays
        model.write_bytes(body + hashlib.sha256(body).digest())
        with pytest.raises(CorruptModelError, match="unreadable header"):
            load_model(model)
        text = tmp_path / "in.conllu"
        text.write_text(GOOD, encoding="utf-8")
        proc = run_cli_process("parse", "--model", str(model), "--input", str(text),
                               "--output", str(tmp_path / "out.conllu"))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "unreadable header" in proc.stderr

    def test_shape_whose_element_count_overflows_int64_is_truncated(self, tmp_path,
                                                                     tiny_model):
        model = tmp_path / "huge.model"
        model.write_bytes(tiny_model.read_bytes())
        rewrite_header(model, set_field("parameters", 0, "shape", [2 ** 32, 2 ** 32]))
        with pytest.raises(CorruptModelError, match="parameter 'jamo/emb' is truncated"):
            load_model(model)
        text = tmp_path / "in.conllu"
        text.write_text(GOOD, encoding="utf-8")
        proc = run_cli_process("parse", "--model", str(model), "--input", str(text),
                               "--output", str(tmp_path / "out.conllu"))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "parameter 'jamo/emb' is truncated" in proc.stderr


def replace_line(index, line):
    """Damage that puts ``line`` in place of the model file's line ``index`` (0 or 1)."""
    def damage(blob):
        lines = blob.split(b"\n", 2)
        lines[index] = line
        return b"\n".join(lines)
    return damage


def with_fresh_digest(damage):
    """``damage`` applied to the bytes under the digest, then a digest that matches them."""
    def damage_body(blob):
        body = damage(blob[:-32])
        return body + hashlib.sha256(body).digest()
    return damage_body


class TestModelFileStructure:
    @pytest.mark.parametrize("damage,message", [
        (lambda blob: blob[:32], "too short"),
        (lambda blob: blob[:blob.index(b"\n")] + bytes(32), "missing magic line"),
        (replace_line(0, b"jamoparse-modem 1"), "not a parser model file"),
        (replace_line(0, b"jamoparse-model one"), "unreadable format version"),
        # the fresh digest of these 20 bytes holds no newline for the length line to end at
        (with_fresh_digest(lambda body: body[:body.index(b"\n") + 1] + b"12"),
         "missing header length"),
        (with_fresh_digest(replace_line(1, b"twelve")), "unreadable header length"),
        (with_fresh_digest(lambda body: body.replace(b'{"config"', b'["config"', 1)),
         "unreadable header"),
        (lambda blob: blob[:-33], "parameter 'scorer/b2' is truncated"),
        (lambda blob: blob[:-32] + b"\0" + blob[-32:], "trailing bytes"),
        (lambda blob: blob[:-33] + bytes([blob[-33] ^ 0xFF]) + blob[-32:],
         "checksum mismatch"),
    ], ids=["too-short", "no-magic-line", "magic", "version", "no-header-length",
            "header-length", "header", "truncated", "trailing-bytes", "checksum"])
    def test_each_structural_check_names_its_fault(self, tmp_path, tiny_model, damage,
                                                   message):
        model = tmp_path / "damaged.model"
        model.write_bytes(damage(tiny_model.read_bytes()))
        with pytest.raises(CorruptModelError, match=message):
            load_model(model)

    def test_load_reads_each_byte_of_the_file_once(self, tiny_model, monkeypatch):
        counts = []

        class CountingReader:
            def __init__(self, handle):
                self.handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.handle.close()

            def __getattr__(self, name):
                method = getattr(self.handle, name)
                if name not in ("read", "readline", "readinto"):
                    return method

                def counted(*args):
                    got = method(*args)
                    counts.append(got if isinstance(got, int) else len(got))
                    return got
                return counted

        monkeypatch.setattr(model_io, "open", lambda *args: CountingReader(open(*args)),
                            raising=False)
        load_model(tiny_model)
        assert sum(counts) == tiny_model.stat().st_size


def test_parse_writes_empty_form_sentence_unparsed(tmp_path, tiny_model):
    text = tmp_path / "in.conllu"
    text.write_text(EMPTY_FORM + GOOD, encoding="utf-8")
    out = tmp_path / "out.conllu"
    proc = run_cli_process("parse", "--model", str(tiny_model), "--input", str(text),
                           "--output", str(out))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "error: sentence 1: empty form" in proc.stderr
    first, second = read_conllu(out, allow_missing_heads=True)
    assert [(t.form, t.head, t.label) for t in first.tokens] == [
        ("", None, None), ("갔다", None, None)]
    assert [t.form for t in second.tokens] == ["나는", "갔다"]
    assert all(isinstance(t.head, int) for t in second.tokens)


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_embedding_exits_1_without_traceback(tmp_path, toy_treebank_path, value):
    vec = tmp_path / "vec.txt"
    vec.write_text("갔다 0.1 0.2 0.3 0.4\n나는 0.1 %s 0.3 0.4\n" % value, encoding="utf-8")
    proc = run_cli_process("train", "--train", toy_treebank_path,
                           "--model", str(tmp_path / "m.model"), "--dim-jamo", "4",
                           "--dim-char", "0", "--dim-word", "4", "--dim-encoder", "8",
                           "--hidden-dim", "4", "--epochs", "2", "--embeddings", str(vec))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "error: line 2: non-finite value" in proc.stderr
    assert not (tmp_path / "m.model").exists()
