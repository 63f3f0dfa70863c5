"""Model-file surgery shared by the tests: split a file into its parts, edit, rejoin.

Every writer here gives the file a matching digest, so an edited file
reaches the checks that come after the checksum.
"""
import hashlib
import json

import numpy as np


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
