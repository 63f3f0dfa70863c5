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
import os

import numpy as np

from .encoder import UnitConfig
from .nn import ParameterStore
from .parser import TrainedModel
from .vocab import _SPECIALS, Vocabulary

FORMAT_VERSION = 1
_MAGIC = "jamoparse-model"
_DIGEST_BYTES = 32


class CorruptModelError(ValueError):
    """Truncated, tampered, or otherwise unreadable model file."""


class ModelVersionError(ValueError):
    """Model file written by an incompatible format version."""


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
    """Write ``model`` to ``path``; each parameter goes from its array to the file uncopied."""
    header = json.dumps(_header_payload(model), ensure_ascii=False, sort_keys=True,
                        separators=(",", ":")).encode("utf-8")
    head = ("%s %d\n%d\n" % (_MAGIC, FORMAT_VERSION, len(header))).encode("utf-8") + header
    digest = hashlib.sha256(head)
    with open(path, "wb") as handle:
        handle.write(head)
        for _, param in model.store.parameters():
            value = np.ascontiguousarray(param.value)
            digest.update(value)
            handle.write(value)
        handle.write(digest.digest())


def _is_int(value, minimum: int) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= minimum


def _bad_field(field: str, expected: str) -> CorruptModelError:
    return CorruptModelError("header field %r must be %s" % (field, expected))


def _check_header(header) -> None:
    """Raise CorruptModelError, naming the field, unless every header field has its type.

    The checksum only proves the file is as written; this keeps a header
    that was rewritten with a fresh digest from reaching the model code as
    a TypeError or a plain ValueError. A vocabulary's one fault left, a
    repeated token, is found when :func:`load_model` builds it.
    """
    def require(ok: bool, field: str, expected: str) -> None:
        if not ok:
            raise _bad_field(field, expected)

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
        specials = list(_SPECIALS[kind])  # in Vocabulary.build's layout: specials first
        require(tokens[:len(specials)] == specials, field + ".tokens",
                "a list starting with %s" % specials)
        require(isinstance(counts, dict) and all(_is_int(c, 0) for c in counts.values()),
                field + ".counts", "an object of non-negative ints")
    require(bool(vocabularies["label"]["tokens"]), "vocabularies.label.tokens", "non-empty")
    manifest = header["parameters"]
    require(isinstance(manifest, list) and bool(manifest), "parameters", "a non-empty list")
    dtypes = ("float32", "float64")  # then the first entry's: a store holds one dtype
    names = set()
    for i, entry in enumerate(manifest):
        field = "parameters[%d]" % i
        require(isinstance(entry, dict), field, "an object")
        name = entry.get("name")
        require(isinstance(name, str) and name not in names, field + ".name",
                "a string no earlier entry names")
        names.add(name)
        shape = entry.get("shape")
        require(isinstance(shape, list) and all(_is_int(d, 0) for d in shape),
                field + ".shape", "a list of non-negative ints")
        require(entry.get("dtype") in dtypes, field + ".dtype", " or ".join(dtypes))
        dtypes = (entry["dtype"],)


def _digest(handle, size: int) -> bytes:
    """SHA-256 of the next ``size`` bytes of ``handle``, read through one reused buffer."""
    digest = hashlib.sha256()
    chunk = memoryview(bytearray(1 << 20))
    while size and (got := handle.readinto(chunk[:min(size, len(chunk))])):
        digest.update(chunk[:got])
        size -= got
    return digest.digest()


def load_model(path) -> TrainedModel:
    """The model in the file at ``path``; CorruptModelError or ModelVersionError if unreadable.

    The digest is verified before the header is parsed. Each parameter is
    then read from the file straight into its own array, so a load holds
    one copy of the model, never the whole file besides it.
    """
    with open(path, "rb") as handle:
        size = os.fstat(handle.fileno()).st_size - _DIGEST_BYTES  # bytes under the digest
        if size <= 0:
            raise CorruptModelError("file too short to be a model")
        line = handle.readline()
        if not line.endswith(b"\n"):
            raise CorruptModelError("missing magic line")
        magic_parts = line.decode("utf-8", errors="replace").split()
        if len(magic_parts) != 2 or magic_parts[0] != _MAGIC:
            raise CorruptModelError("not a parser model file")
        try:
            version = int(magic_parts[1])
        except ValueError:
            raise CorruptModelError("unreadable format version") from None
        if version != FORMAT_VERSION:
            raise ModelVersionError(
                "model format version %d, this build reads %d" % (version, FORMAT_VERSION))
        handle.seek(0)
        if _digest(handle, size) != handle.read():
            raise CorruptModelError("checksum mismatch (truncated or corrupted file)")

        handle.seek(len(line))
        line = handle.readline()
        if not line.endswith(b"\n"):
            raise CorruptModelError("missing header length")
        try:
            header_len = int(line)
        except ValueError:
            raise CorruptModelError("unreadable header length") from None
        try:
            header = json.loads(handle.read(max(header_len, 0)).decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            raise CorruptModelError("unreadable header") from None
        _check_header(header)

        store = ParameterStore(seed=header["seed"], dtype=header["parameters"][0]["dtype"])
        for entry in header["parameters"]:
            shape = tuple(entry["shape"])
            nbytes = int(np.prod(shape, dtype=np.int64)) * store.dtype.itemsize
            if handle.tell() + nbytes > size:
                raise CorruptModelError("parameter %r is truncated" % entry["name"])
            value = np.empty(shape, dtype=store.dtype)  # the one dtype _check_header allows
            handle.readinto(value.reshape(-1).view(np.uint8))
            store.add_raw(entry["name"], value)
        if handle.tell() != size:
            raise CorruptModelError("trailing bytes after parameters")

    config = UnitConfig.from_dict(header["config"])
    vocabs = {}
    for kind, payload in header["vocabularies"].items():
        try:
            vocabs[kind] = Vocabulary.from_dict(payload)
        except ValueError:  # the vocabulary refuses a repeated token
            raise _bad_field("vocabularies.%s.tokens" % kind,
                             "a list of distinct strings") from None
    # binding the encoder and scorer re-checks every shape against the vocabularies,
    # and would create, with a fresh initialisation, any parameter the file lacks
    model = TrainedModel(config, vocabs["jamo"], vocabs["char"], vocabs["word"],
                         vocabs["label"], store, header["hidden_dim"])
    created = store.names()[len(header["parameters"]):]
    if created:
        raise CorruptModelError("model file lacks parameter(s) %s" % ", ".join(created))
    return model
