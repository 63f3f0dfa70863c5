# -*- coding: utf-8 -*-
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
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


    @pytest.mark.parametrize("text,reason", [(CYCLE, "cycle"),
                                             (HEAD_OUT_OF_RANGE, "head out of range"),
                                             (MISSING_LABEL, "missing label"),
                                             (EMPTY_FORM, "empty form")],
                             ids=["cycle", "head-out-of-range", "missing-label", "empty-form"])
    def test_skipped_sentence_is_reported_once(self, tmp_path, capsys, text, reason):
        path = tmp_path / "three.conllu"
        path.write_text(GOOD + text + GOOD, encoding="utf-8")
        code, out, err = run_cli(capsys, "train", "--train", str(path),
                                 "--model", str(tmp_path / "m.model"), *TINY_DIMS,
                                 "--epochs", "1")
        assert code == 0
        assert err.count(reason) == 1, err
        assert "skipping 1 malformed training sentence(s): %s" % reason in err
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


def split_model(path):
    """A model file's magic line, JSON header and parameter bytes; the digest is dropped."""
    blob = path.read_bytes()
    magic_end = blob.index(b"\n") + 1
    length_end = blob.index(b"\n", magic_end) + 1
    header_end = length_end + int(blob[magic_end:length_end])
    return blob[:magic_end], json.loads(blob[length_end:header_end]), blob[header_end:-32]


def join_model(path, magic, header, arrays):
    """Write a model file from its parts, with a matching digest."""
    new_header = json.dumps(header).encode("utf-8")
    body = magic + b"%d\n" % len(new_header) + new_header + arrays
    path.write_bytes(body + hashlib.sha256(body).digest())


def rewrite_header(path, edit):
    """Apply ``edit`` to a model file's JSON header and write a matching digest."""
    magic, header, arrays = split_model(path)
    edit(header)
    join_model(path, magic, header, arrays)


def rewrite_model(path, edit):
    """Apply ``edit(header, arrays)`` to a model file; write its arrays, manifest and digest.

    ``edit`` returns the new arrays in manifest order; each entry's shape and
    dtype are set from its array, so the file stays self-consistent.
    """
    magic, header, raw = split_model(path)
    arrays, cursor = [], 0
    for entry in header["parameters"]:
        array = np.frombuffer(raw, entry["dtype"], int(np.prod(entry["shape"])), cursor)
        arrays.append(array.reshape(entry["shape"]))
        cursor += array.nbytes
    arrays = edit(header, arrays)
    for entry, array in zip(header["parameters"], arrays):
        entry["shape"], entry["dtype"] = list(array.shape), str(array.dtype)
    join_model(path, magic, header, b"".join(array.tobytes() for array in arrays))


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

    def test_renamed_parameter_is_not_replaced_by_a_fresh_one(self, tmp_path, tiny_model):
        model = tmp_path / "renamed.model"
        model.write_bytes(tiny_model.read_bytes())
        rewrite_header(model, set_field("parameters", -1, "name", "renamed"))
        text = tmp_path / "in.conllu"
        text.write_text(GOOD, encoding="utf-8")
        proc = run_cli_process("parse", "--model", str(model), "--input", str(text),
                               "--output", str(tmp_path / "out.conllu"))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "lacks parameter(s) scorer/b2" in proc.stderr
        assert not (tmp_path / "out.conllu").exists()

    def test_untouched_header_round_trip_still_parses(self, tmp_path, tiny_model):
        model = tmp_path / "same.model"
        model.write_bytes(tiny_model.read_bytes())
        rewrite_header(model, lambda header: None)
        text = tmp_path / "in.conllu"
        text.write_text(GOOD, encoding="utf-8")
        assert main(["parse", "--model", str(model), "--input", str(text),
                     "--output", str(tmp_path / "out.conllu")]) == 0


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
