"""The layout of every file and document the program writes.

Binary files (EDDS datasets, EDCK checkpoints, EDCF captures) are the
magic (4 bytes), a version byte, a little-endian u32 header length, the
UTF-8 JSON header with sorted keys, the payload, and, except in EDCF, a
SHA-256 of all those bytes. The payload is a whole number of items of
one NumPy type; each format's header decoder names the type and the
item count, and ``read`` checks the payload against them once for
every format. ``field``, ``count`` and ``list_field`` are the one way
a decoder reads a typed header value.

Text tables are a header line, then one line of separated values per
row, each float written ``.17g`` so that ``float`` reads it back
exactly. JSON documents are indented by 2 with sorted keys, and hold
each non-finite float as the string ``float`` reads back.

Every file, binary or text, is written by ``_land``: to a temporary
name beside its target, renamed into place once complete. Inside a
``staged`` block the renames wait for the block to succeed.
"""

from __future__ import annotations

import contextlib
import errno
import hashlib
import itertools
import json
import math
import numbers
import os
import struct
import uuid
from pathlib import Path

import numpy as np

from .errors import ChecksumError, FileFormatError, UnsupportedVersionError

_PREFIX = struct.Struct("<4sBI")     # magic, version, header length
_DIGEST_SIZE = 32


def write(path, magic: bytes, version: int, header: dict, chunks,
          checksum: bool = True) -> None:
    """Write a container file whose payload is ``chunks`` in order.

    Each chunk (bytes or a C-contiguous array) goes straight to the file
    while a running SHA-256 hashes it, so no image of the whole file is
    built; each is written before the next is taken from ``chunks``,
    and ``_land`` lands the file.
    """
    blob = json.dumps(header, sort_keys=True).encode()

    def body(f):
        digest = hashlib.sha256()
        for chunk in itertools.chain(
                [_PREFIX.pack(magic, version, len(blob)), blob], chunks):
            if checksum:
                digest.update(chunk)
            f.write(chunk)
        if checksum:
            f.write(digest.digest())

    _land(path, body)


def write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, landed by ``_land``."""
    _land(path, lambda f: f.write(text.encode()))


_pending = None     # the open ``staged`` block's (temporary, target) pairs


@contextlib.contextmanager
def staged():
    """Land the files written in the block only if the block succeeds.

    Inside the block each file waits under its temporary name. When
    the block ends without an exception they are renamed into place in
    the order they were written; on an exception, Ctrl-C included,
    every temporary file is deleted and no target changes.
    """
    global _pending
    _pending = pending = []
    try:
        yield
        while pending:
            temp, path = pending[0]
            with _naming(path):
                os.replace(temp, path)
            del pending[0]
    finally:
        _pending = None
        for temp, _ in pending:
            temp.unlink(missing_ok=True)


def _land(path, write) -> None:
    """Write a file through ``write(f)`` and land it at ``path``.

    The bytes go to a temporary file beside ``path`` that replaces it
    only once complete (outside ``staged``, at once), so a writer that
    fails part way leaves the old file, or none, and never a truncated
    one. A ``path`` that is a directory is refused before any byte is
    written, and an OSError names ``path``, never the temporary file.
    """
    target = Path(path)
    if target.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR),
                                os.fspath(path))
    temp = target.with_name(f".{target.name}.{uuid.uuid4().hex}.tmp")
    try:
        with _naming(path):
            with open(temp, "xb") as f:
                write(f)
            if _pending is None:
                os.replace(temp, path)
            else:
                _pending.append((temp, path))
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


@contextlib.contextmanager
def _naming(path):
    """An OSError of the block that names a file names ``path`` instead."""
    try:
        yield
    except OSError as exc:
        if exc.filename is None:
            raise
        raise type(exc)(exc.errno, exc.strerror, os.fspath(path)) from None


def read(path, magic: bytes, decoders: dict, checksum: bool = True):
    """The header decoded for its version, and the payload as an array.

    ``decoders`` maps each readable version to its header decoder,
    which returns ``(decoded, item, count)``: the decoded header, the
    NumPy type of one payload item and the number of items the header
    implies. The result is ``(decoded, payload)``, the payload a
    read-only one-dimensional array of ``count`` items over the bytes
    read from ``path``.

    Raises ``UnsupportedVersionError`` on a version it does not map,
    ``ChecksumError`` on a digest that does not match, and
    ``FileFormatError`` on any other defect: a file too short for the
    prefix and digest, another magic, a header running past the payload,
    header bytes that are not UTF-8 JSON or nest too deeply, a value
    that is not an object, any KeyError, TypeError or ValueError
    (InputError included) that the decoder raises on a missing or
    mistyped key, and a payload that is not ``count`` items long.
    """
    raw = memoryview(Path(path).read_bytes())
    trailer = _DIGEST_SIZE if checksum else 0
    if len(raw) < _PREFIX.size + trailer:
        raise FileFormatError(f"{path}: truncated {magic.decode()} file")
    file_magic, file_version, header_len = _PREFIX.unpack_from(raw)
    if file_magic != magic:
        raise FileFormatError(f"{path}: bad magic {file_magic!r}")
    if file_version not in decoders:
        raise UnsupportedVersionError(
            f"{path}: version {file_version}, expected {list(decoders)}")
    body = raw[:len(raw) - trailer]
    if checksum and hashlib.sha256(body).digest() != raw[len(body):]:
        raise ChecksumError(f"{path}: checksum mismatch")
    header_end = _PREFIX.size + header_len
    if header_end > len(body):
        raise FileFormatError(
            f"{path}: header of {header_len} bytes runs past the payload")
    try:
        header = json.loads(str(body[_PREFIX.size:header_end], "utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise FileFormatError(f"{path}: unreadable header: {exc}") from exc
    try:
        if type(header) is not dict:
            raise TypeError("header must be a JSON object")
        decoded, item, items = decoders[file_version](header)
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(
            f"{path}: malformed header: {type(exc).__name__}: {exc}") from exc
    item, payload = np.dtype(item), body[header_end:]
    if len(payload) != items * item.itemsize:
        raise FileFormatError(
            f"{path}: payload of {len(payload)} bytes, the header implies "
            f"{items} items of {item.itemsize} bytes")
    return decoded, np.frombuffer(payload, item, items)


def field(header: dict, key: str, *types):
    """``header[key]``; TypeError unless its type is one of ``types``."""
    return _typed(key, header[key], types)


def count(header: dict, key: str) -> int:
    """``header[key]``, an int; TypeError or ValueError unless >= 0."""
    value = field(header, key, int)
    if value < 0:
        raise ValueError(f"{key} must not be negative, got {value}")
    return value


def list_field(header: dict, key: str, *types) -> list:
    """``header[key]``, a list; TypeError unless every value's type is
    one of ``types``."""
    return [_typed(f"{key} values", value, types)
            for value in field(header, key, list)]


def _typed(key, value, types):
    if type(value) not in types:
        names = " or ".join(t.__name__ for t in types)
        raise TypeError(f"{key} must be {names}, got {value!r}")
    return value


def write_table(path, columns, rows, sep: str = " ",
                comment: str = "# ") -> None:
    """Write ``rows`` as a text table under a header of ``columns``.

    The header is ``comment`` then the column names joined by ``sep``;
    each row is its values joined by ``sep``, integers and strings as
    ``str`` writes them and every other number ``.17g``.
    """
    lines = [comment + sep.join(columns)]
    lines += [sep.join(_table_value(value) for value in row) for row in rows]
    write_text(path, "\n".join(lines) + "\n")


def _table_value(value) -> str:
    if isinstance(value, (str, numbers.Integral)):
        return str(value)
    return f"{value:.17g}"


def json_text(document) -> str:
    """``document`` as strict JSON text ending in one newline.

    Objects are indented by 2 with sorted keys; a float that is not
    finite becomes the string ``float`` reads back (``"inf"``,
    ``"-inf"``, ``"nan"``).
    """
    return json.dumps(_finite(document), indent=2, sort_keys=True,
                      allow_nan=False) + "\n"


def write_json(path, document) -> None:
    """Write ``document`` to ``path`` as ``json_text`` gives it."""
    write_text(path, json_text(document))


def _finite(value):
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    if isinstance(value, dict):
        return {key: _finite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(item) for item in value]
    return value
