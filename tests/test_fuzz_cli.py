# -*- coding: utf-8 -*-
"""Fuzzing of ``cli.main`` with mutated treebank, embedding and model files.

Whatever the input, every subcommand must end with exit code 0, 1 or 2
(argparse's ``SystemExit`` included); any other exception fails the test.
Dimensions are tiny and training runs one epoch, so an example takes a
fraction of a second. A model file is mutated either as bytes, which
breaks its digest, or through its header with the arrays and the digest
rewritten to agree, which reaches every check after the digest.
"""
import io
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import TOY_TREEBANK
from jamoparse.cli import main
from jamoparse.model_io import CorruptModelError, load_model
from model_files import rewrite_header, rewrite_model

TOY_LINES = Path(TOY_TREEBANK).read_text(encoding="utf-8").splitlines()
TINY = ["--dim-jamo", "2", "--dim-char", "2", "--dim-word", "2", "--dim-encoder", "2",
        "--hidden-dim", "2", "--epochs", "1"]
FUZZ = settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])

FORM, HEAD, LABEL = 1, 6, 7
FIELD_TEXT = st.text(st.characters(exclude_categories=("Cs",)), max_size=4)
FIELD_VALUES = {
    FORM: st.one_of(st.just(""), FIELD_TEXT),
    HEAD: st.one_of(st.integers(-3, 40).map(str), st.sampled_from(["_", "x", "1.5", ""]),
                    FIELD_TEXT),
    LABEL: st.one_of(st.just("_"), FIELD_TEXT),
}


def run_main(*argv) -> int:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    return code


@st.composite
def mutated_treebank(draw) -> str:
    """The toy treebank with one to four edits: a field, a dropped, blank or cut line."""
    lines = list(TOY_LINES)
    for _ in range(draw(st.integers(1, 4))):
        tokens = [i for i, line in enumerate(lines) if line.count("\t") == 9]
        kind = draw(st.sampled_from(["field", "field", "drop", "blank", "columns"]))
        if kind == "field" and tokens:
            i = draw(st.sampled_from(tokens))
            column = draw(st.sampled_from(sorted(FIELD_VALUES)))
            fields = lines[i].split("\t")
            fields[column] = draw(FIELD_VALUES[column])
            lines[i] = "\t".join(fields)
        elif kind == "columns" and tokens:
            i = draw(st.sampled_from(tokens))
            lines[i] = "\t".join(lines[i].split("\t")[:draw(st.integers(0, 9))])
        elif lines:
            i = draw(st.integers(0, len(lines) - 1))
            if kind == "blank":
                lines.insert(i, "")
            else:
                del lines[i]
    return "\n".join(lines) + "\n"


EMBEDDING_ROWS = [["갔다", "0.25", "-0.5"], ["나는", "0.125", "0.75"], ["새단어", "1.0", "0.0"]]
EMBEDDING_VALUES = st.one_of(st.sampled_from(["nan", "inf", "-inf", "NaN", "x", "1e400"]),
                             st.floats().map(repr), FIELD_TEXT)


@st.composite
def mutated_embeddings(draw) -> str:
    """Two-dimensional vectors with bad values, ragged rows or nothing at all."""
    rows = [list(r) for r in EMBEDDING_ROWS]
    for _ in range(draw(st.integers(1, 3))):
        r = rows[draw(st.integers(0, len(rows) - 1))]
        kind = draw(st.sampled_from(["value", "value", "drop", "extra", "empty"]))
        if kind == "value" and len(r) > 1:
            r[draw(st.integers(1, len(r) - 1))] = draw(EMBEDDING_VALUES)
        elif kind == "drop" and r:
            del r[draw(st.integers(0, len(r) - 1))]
        elif kind == "extra":
            r.append(draw(EMBEDDING_VALUES))
        elif kind == "empty":
            rows = []
            break
    return "".join(" ".join(r) + "\n" for r in rows)


@pytest.fixture(scope="module")
def model_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz-model") / "toy.model"
    assert run_main("train", "--train", TOY_TREEBANK, "--model", str(path), *TINY) == 0
    return path.read_bytes()


def mutate_model(blob: bytes, data) -> bytes:
    kind = data.draw(st.sampled_from(["truncate", "flip", "magic", "version"]))
    if kind == "truncate":
        return blob[:data.draw(st.integers(0, len(blob) - 1))]
    if kind == "flip":
        i = data.draw(st.integers(0, len(blob) - 1))
        return blob[:i] + bytes([blob[i] ^ data.draw(st.integers(1, 255))]) + blob[i + 1:]
    magic, rest = blob.split(b"\n", 1)
    name, version = magic.split(b" ")
    if kind == "magic":
        name = data.draw(st.binary(max_size=20))
    else:
        version = data.draw(st.one_of(st.integers(-2, 10).map(str), FIELD_TEXT)).encode("utf-8")
    return name + b" " + version + b"\n" + rest


#: Sizes a rewritten header may claim: none, tiny, and past int32, int64 and a float.
HEADER_SIZES = st.sampled_from([0, 1, 2, 2 ** 31, 2 ** 63 - 1, 2 ** 70, 10 ** 400])


def mutate_header(path, data) -> None:
    """Rename, drop or duplicate manifest entries, then set sizes the header claims.

    Up to two manifest edits, then up to two size edits: the manifest edits
    split the arrays by the shapes the header gives, so those come first.
    """
    def edit_manifest(header, arrays):
        entries = header["parameters"]
        for _ in range(data.draw(st.integers(0, 2))):
            kind = data.draw(st.sampled_from(["rename", "drop", "duplicate"]))
            i = data.draw(st.integers(0, len(entries) - 1))
            if kind == "drop":
                del entries[i], arrays[i]
                continue
            name = data.draw(st.sampled_from([entry["name"] for entry in entries] + ["extra"]))
            if kind == "rename":
                entries[i]["name"] = name
            else:
                j = data.draw(st.integers(0, len(entries)))
                entries.insert(j, dict(entries[i], name=name))
                arrays.insert(j, arrays[i])
        return arrays

    def edit_sizes(header):
        for _ in range(data.draw(st.integers(0, 2))):
            kind = data.draw(st.sampled_from(["shape", "hidden_dim", "config"]))
            size = data.draw(HEADER_SIZES)
            if kind == "hidden_dim":
                header["hidden_dim"] = size
            elif kind == "config":
                header["config"][data.draw(st.sampled_from(sorted(header["config"])))] = size
            else:
                shape = data.draw(st.sampled_from(header["parameters"]))["shape"]
                shape[data.draw(st.integers(0, len(shape) - 1))] = size

    rewrite_model(path, edit_manifest)
    rewrite_header(path, edit_sizes)


@FUZZ
@given(text=mutated_treebank())
def test_mutated_treebank_through_every_subcommand(text):
    with tempfile.TemporaryDirectory() as tmp:
        bad = os.path.join(tmp, "bad.conllu")
        model = os.path.join(tmp, "m.model")
        with open(bad, "w", encoding="utf-8") as handle:
            handle.write(text)
        run_main("stats", bad)
        run_main("eval", "--gold", bad, "--pred", TOY_TREEBANK)
        run_main("eval", "--gold", TOY_TREEBANK, "--pred", bad)
        if run_main("train", "--train", bad, "--dev", bad, "--model", model, *TINY) == 0:
            run_main("parse", "--model", model, "--input", bad,
                     "--output", os.path.join(tmp, "out.conllu"))


@FUZZ
@given(text=mutated_treebank())
def test_mutated_input_to_parse(model_bytes, text):
    with tempfile.TemporaryDirectory() as tmp:
        bad = os.path.join(tmp, "bad.conllu")
        model = os.path.join(tmp, "m.model")
        with open(bad, "w", encoding="utf-8") as handle:
            handle.write(text)
        with open(model, "wb") as handle:
            handle.write(model_bytes)
        run_main("parse", "--model", model, "--input", bad,
                 "--output", os.path.join(tmp, "out.conllu"))


@FUZZ
@given(text=mutated_embeddings())
def test_mutated_embeddings_through_train(text):
    with tempfile.TemporaryDirectory() as tmp:
        vectors = os.path.join(tmp, "vec.txt")
        with open(vectors, "w", encoding="utf-8") as handle:
            handle.write(text)
        run_main("train", "--train", TOY_TREEBANK, "--model", os.path.join(tmp, "m.model"),
                 "--embeddings", vectors, *TINY)


@settings(FUZZ, max_examples=40)
@given(data=st.data())
def test_mutated_model_through_parse(model_bytes, data):
    with tempfile.TemporaryDirectory() as tmp:
        model = os.path.join(tmp, "m.model")
        with open(model, "wb") as handle:
            handle.write(mutate_model(model_bytes, data))
        run_main("parse", "--model", model, "--input", TOY_TREEBANK,
                 "--output", os.path.join(tmp, "out.conllu"))


@settings(FUZZ, max_examples=40)
@given(data=st.data())
def test_self_consistent_model_header_through_parse(model_bytes, data):
    with tempfile.TemporaryDirectory() as tmp:
        model = Path(tmp) / "m.model"
        model.write_bytes(model_bytes)
        mutate_header(model, data)
        try:  # the CLI exits 1 on any ValueError; the library must raise its typed one
            load_model(model)
        except CorruptModelError:
            pass
        run_main("parse", "--model", str(model), "--input", TOY_TREEBANK,
                 "--output", os.path.join(tmp, "out.conllu"))
