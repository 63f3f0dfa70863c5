"""Versioned, checksummed model files.

Layout (all byte offsets after the two header lines):

    line 1: magic  ``jamoparse-model <version>``
    line 2: decimal byte length of the JSON header
    JSON header: unit config, scorer hidden size, seed, vocabularies,
        and a parameter manifest of (name, shape, dtype) in storage order
    raw little-endian parameter arrays, concatenated in manifest order
    trailing 32-byte SHA-256 digest of everything before it

Serialisation is deterministic, so load followed by save reproduces the
file byte for byte.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .data import ConlluSentence
from .encoder import SentenceEncoder, UnitConfig
from .nn import ParameterStore
from .parser import TrainResult, TransitionScorer, greedy_parse, parse_to_sentence
from .vocab import Vocabulary

FORMAT_VERSION = 1
_MAGIC = "jamoparse-model"
_DIGEST_BYTES = 32


class CorruptModelError(ValueError):
    """Truncated, tampered, or otherwise unreadable model file."""


class ModelVersionError(ValueError):
    """Model file written by an incompatible format version."""


@dataclass(eq=False)
class TrainedModel:
    """Frozen bundle of configuration, vocabularies, and parameters."""

    config: UnitConfig
    jamo_vocab: Vocabulary
    char_vocab: Vocabulary
    word_vocab: Vocabulary
    label_vocab: Vocabulary
    store: ParameterStore
    hidden_dim: int

    @classmethod
    def from_training(cls, result: TrainResult) -> "TrainedModel":
        return cls(result.config, result.jamo_vocab, result.char_vocab,
                   result.word_vocab, result.label_vocab, result.store,
                   result.settings.hidden_dim)

    @cached_property
    def encoder(self) -> SentenceEncoder:
        return SentenceEncoder(self.store, self.config, self.jamo_vocab,
                               self.char_vocab, self.word_vocab)

    @cached_property
    def scorer(self) -> TransitionScorer:
        return TransitionScorer(self.store, self.config.dim_encoder,
                                len(self.label_vocab), self.hidden_dim)

    def parse(self, forms: list[str]) -> list[tuple[int, str]]:
        """Heads and label strings for one tokenized sentence."""
        return [(head, self.label_vocab.token_of(label))
                for head, label in greedy_parse(self.encoder, self.scorer, forms)]

    def parse_sentence(self, forms: list[str]) -> ConlluSentence:
        return parse_to_sentence(self.encoder, self.scorer, self.label_vocab, forms)


def _header_payload(model: TrainedModel) -> dict:
    manifest = [{"name": name, "shape": list(param.value.shape),
                 "dtype": str(param.value.dtype)}
                for name, param in model.store.parameters()]
    return {
        "config": model.config.to_dict(),
        "hidden_dim": model.hidden_dim,
        "seed": model.store.seed,
        "vocabularies": {
            "jamo": model.jamo_vocab.to_dict(),
            "char": model.char_vocab.to_dict(),
            "word": model.word_vocab.to_dict(),
            "label": model.label_vocab.to_dict(),
        },
        "parameters": manifest,
    }


def save_model(model: TrainedModel, path) -> None:
    header = json.dumps(_header_payload(model), ensure_ascii=False, sort_keys=True,
                        separators=(",", ":")).encode("utf-8")
    chunks = [("%s %d\n" % (_MAGIC, FORMAT_VERSION)).encode("utf-8"),
              ("%d\n" % len(header)).encode("utf-8"), header]
    for _, param in model.store.parameters():
        chunks.append(np.ascontiguousarray(param.value).tobytes())
    body = b"".join(chunks)
    with open(path, "wb") as handle:
        handle.write(body)
        handle.write(hashlib.sha256(body).digest())


def _is_int(value, minimum: int) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= minimum


def _check_header(header) -> None:
    """Raise CorruptModelError, naming the field, unless every header field has its type.

    The checksum only proves the file is as written; this keeps a header
    that was rewritten with a fresh digest from reaching the model code as
    a TypeError.
    """
    def require(ok: bool, field: str, expected: str) -> None:
        if not ok:
            raise CorruptModelError("header field %r must be %s" % (field, expected))

    require(isinstance(header, dict), "header", "an object")
    for field in ("config", "hidden_dim", "seed", "vocabularies", "parameters"):
        require(field in header, field, "present")
    config = header["config"]
    require(isinstance(config, dict) and sorted(config) == sorted(UnitConfig().to_dict())
            and all(_is_int(v, 0) for v in config.values()),
            "config", "four non-negative ints")
    require(_is_int(header["hidden_dim"], 1), "hidden_dim", "a positive int")
    require(_is_int(header["seed"], 0), "seed", "a non-negative int")
    vocabularies = header["vocabularies"]
    require(isinstance(vocabularies, dict)
            and sorted(vocabularies) == ["char", "jamo", "label", "word"],
            "vocabularies", "an object with jamo, char, word and label entries")
    for kind, payload in vocabularies.items():
        field = "vocabularies.%s" % kind
        require(isinstance(payload, dict) and payload.get("kind") == kind, field,
                "an object of kind %r" % kind)
        tokens, counts = payload.get("tokens"), payload.get("counts", {})
        require(isinstance(tokens, list) and all(isinstance(t, str) for t in tokens),
                field + ".tokens", "a list of strings")
        require(isinstance(counts, dict) and all(_is_int(c, 0) for c in counts.values()),
                field + ".counts", "an object of non-negative ints")
    manifest = header["parameters"]
    require(isinstance(manifest, list), "parameters", "a list")
    for i, entry in enumerate(manifest):
        field = "parameters[%d]" % i
        require(isinstance(entry, dict), field, "an object")
        require(isinstance(entry.get("name"), str), field + ".name", "a string")
        shape = entry.get("shape")
        require(isinstance(shape, list) and all(_is_int(d, 0) for d in shape),
                field + ".shape", "a list of non-negative ints")
        require(entry.get("dtype") in ("float32", "float64"), field + ".dtype",
                "float32 or float64")


def load_model(path) -> TrainedModel:
    with open(path, "rb") as handle:
        blob = handle.read()
    if len(blob) <= _DIGEST_BYTES:
        raise CorruptModelError("file too short to be a model")
    newline = blob.find(b"\n")
    if newline < 0:
        raise CorruptModelError("missing magic line")
    magic_parts = blob[:newline].decode("utf-8", errors="replace").split()
    if len(magic_parts) != 2 or magic_parts[0] != _MAGIC:
        raise CorruptModelError("not a parser model file")
    try:
        version = int(magic_parts[1])
    except ValueError:
        raise CorruptModelError("unreadable format version") from None
    if version != FORMAT_VERSION:
        raise ModelVersionError(
            "model format version %d, this build reads %d" % (version, FORMAT_VERSION))
    body = memoryview(blob)[:-_DIGEST_BYTES]  # a view: the parameters are copied once, below
    if hashlib.sha256(body).digest() != blob[-_DIGEST_BYTES:]:
        raise CorruptModelError("checksum mismatch (truncated or corrupted file)")

    cursor = newline + 1
    newline = blob.find(b"\n", cursor)
    if newline < 0:
        raise CorruptModelError("missing header length")
    try:
        header_len = int(blob[cursor:newline])
    except ValueError:
        raise CorruptModelError("unreadable header length") from None
    cursor = newline + 1
    try:
        header = json.loads(blob[cursor:cursor + header_len].decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        raise CorruptModelError("unreadable header") from None
    cursor += header_len
    _check_header(header)

    config = UnitConfig.from_dict(header["config"])
    vocabs = {kind: Vocabulary.from_dict(payload)
              for kind, payload in header["vocabularies"].items()}
    store = ParameterStore(seed=header["seed"])
    for entry in header["parameters"]:
        shape = tuple(entry["shape"])
        dtype = np.dtype(entry["dtype"])
        count = int(np.prod(shape, dtype=np.int64))
        if cursor + count * dtype.itemsize > len(body):
            raise CorruptModelError("parameter %r is truncated" % entry["name"])
        # a read-only view of the file; add_raw makes the one writeable copy
        store.add_raw(entry["name"], np.frombuffer(body, dtype=dtype, count=count,
                                                   offset=cursor).reshape(shape))
        cursor += count * dtype.itemsize
    if cursor != len(body):
        raise CorruptModelError("trailing bytes after parameters")
    store.dtype = np.dtype(header["parameters"][0]["dtype"]) if header["parameters"] else store.dtype
    model = TrainedModel(config, vocabs["jamo"], vocabs["char"], vocabs["word"],
                         vocabs["label"], store, header["hidden_dim"])
    # binding the encoder and scorer re-checks every shape against the vocabularies
    _ = model.encoder
    _ = model.scorer
    # and would create, with a fresh initialisation, any parameter the file lacks
    created = store.names()[len(header["parameters"]):]
    if created:
        raise CorruptModelError("model file lacks parameter(s) %s" % ", ".join(created))
    return model
