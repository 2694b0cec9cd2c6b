"""The framing shared by EDDS datasets, EDCK checkpoints and EDCF captures.

Each file is the magic (4 bytes), a version byte, a little-endian u32
header length, the UTF-8 JSON header with sorted keys, the payload laid
out by the format, and, except in EDCF, a SHA-256 of all those bytes.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import struct
import uuid
from pathlib import Path

from .errors import ChecksumError, FileFormatError, UnsupportedVersionError

_PREFIX = struct.Struct("<4sBI")     # magic, version, header length
_DIGEST_SIZE = 32


def write(path, magic: bytes, version: int, header: dict, chunks,
          checksum: bool = True) -> None:
    """Write a container file whose payload is ``chunks`` in order.

    Each chunk (bytes or a C-contiguous array) goes straight to the file
    while a running SHA-256 hashes it, so no image of the whole file is
    built; each is written before the next is taken from ``chunks``.
    The bytes go to a temporary file beside ``path`` that replaces it
    only once complete, so a writer that fails part way leaves the old
    file, or none, and never a truncated one.
    """
    path = Path(path)
    blob = json.dumps(header, sort_keys=True).encode()
    digest = hashlib.sha256()
    temp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(temp, "xb") as f:
            for chunk in itertools.chain(
                    [_PREFIX.pack(magic, version, len(blob)), blob], chunks):
                if checksum:
                    digest.update(chunk)
                f.write(chunk)
            if checksum:
                f.write(digest.digest())
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def read(path, magic: bytes, version: int, decode, checksum: bool = True):
    """``decode`` applied to the header, and the payload as a memoryview.

    Raises ``UnsupportedVersionError`` on another version,
    ``ChecksumError`` on a digest that does not match, and
    ``FileFormatError`` on any other defect: a file too short for the
    prefix and digest, another magic, a header running past the payload,
    header bytes that are not UTF-8 JSON or nest too deeply, a value
    that is not an object, and any KeyError, TypeError or ValueError
    (InputError included) that ``decode`` raises on a missing or
    mistyped key. The payload length is left to the caller.
    """
    raw = memoryview(Path(path).read_bytes())
    trailer = _DIGEST_SIZE if checksum else 0
    if len(raw) < _PREFIX.size + trailer:
        raise FileFormatError(f"{path}: truncated {magic.decode()} file")
    file_magic, file_version, header_len = _PREFIX.unpack_from(raw)
    if file_magic != magic:
        raise FileFormatError(f"{path}: bad magic {file_magic!r}")
    if file_version != version:
        raise UnsupportedVersionError(
            f"{path}: version {file_version}, expected {version}")
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
        return decode(header), body[header_end:]
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(
            f"{path}: malformed header: {type(exc).__name__}: {exc}") from exc
