# -*- coding: utf-8 -*-
import os
import subprocess
import sys

import pytest

from jamoparse.cli import decompose_lines, main
from jamoparse.data import read_conllu


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

    def test_no_text_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "decompose")
        assert code == 2
        assert "provide TEXT" in err

    def test_decompose_lines_helper(self):
        assert decompose_lines("") == []
        assert decompose_lines("?") == ["?\tATOMIC"]


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

    def test_report_file(self, tmp_path, capsys, toy_treebank_path):
        report = tmp_path / "report.txt"
        code, _, _ = run_cli(capsys, "stats", toy_treebank_path, "--report", str(report))
        assert code == 0
        text = report.read_text(encoding="utf-8")
        assert "# Ko" in text and "jamo" in text


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


def conllu_rows(*rows):
    return "".join("%d\t%s\t_\t_\t_\t_\t%d\t%s\t_\t_\n" % (i, form, head, label)
                   for i, (form, head, label) in enumerate(rows, start=1)) + "\n"


CYCLE = conllu_rows(("나는", 2, "nsubj"), ("갔다", 1, "dep"), ("집에", 0, "root"))
HEAD_OUT_OF_RANGE = conllu_rows(("나는", 9, "nsubj"), ("갔다", 0, "root"))
GOOD = conllu_rows(("나는", 2, "nsubj"), ("갔다", 0, "root"))
MISSING_LABEL = conllu_rows(("나는", 2, "_"), ("갔다", 0, "root"))


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
                                             (MISSING_LABEL, "missing label")])
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
