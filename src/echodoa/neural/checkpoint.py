"""Versioned binary container for trained network weights.

Layout: magic ``EDCK``, one version byte, a little-endian u32 length
followed by a JSON header (architecture, normalization rule, training
metadata, parameter manifest), the weight arrays as little-endian
64-bit floats in declaration order, and a trailing SHA-256 of
everything before it.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from pathlib import Path
from types import MappingProxyType

import numpy as np

from ..errors import (
    ChecksumError,
    FileFormatError,
    ShapeMismatchError,
    UnsupportedVersionError,
)
from .network import NetworkSpec

MAGIC = b"EDCK"
VERSION = 1

# Per-record input scaling applied before the forward pass.
NORMALIZATION_RMS_WINDOW = "rms_window_v1"


@dataclass(frozen=True)
class Checkpoint:
    """Network weights plus everything needed to reproduce inference.

    ``params`` is a read-only mapping of read-only float64 copies of the
    given arrays, so the caller's arrays stay theirs and writable.
    ``params32`` holds their float32 cast, derived once here and used by
    every inference call; since nothing can write the float64 weights,
    it cannot go stale.
    """

    spec: NetworkSpec
    params: Mapping                   # name -> read-only float64 ndarray
    normalization: str = NORMALIZATION_RMS_WINDOW
    metadata: dict = field(default_factory=dict)
    params32: Mapping = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        expected = self.spec.param_shapes()
        if set(self.params) != set(expected):
            raise ShapeMismatchError("checkpoint parameter names do not "
                                     "match the network spec")
        for name, shape in expected.items():
            if self.params[name].shape != shape:
                raise ShapeMismatchError(
                    f"{name} has shape {self.params[name].shape}, "
                    f"expected {shape}")
        params = {name: _read_only(np.array(self.params[name],
                                            dtype=np.float64))
                  for name in expected}
        params32 = {name: _read_only(p.astype(np.float32))
                    for name, p in params.items()}
        object.__setattr__(self, "params", MappingProxyType(params))
        object.__setattr__(self, "params32", MappingProxyType(params32))

    def __reduce__(self):
        # pickle the float64 weights only; unpickling re-derives the rest
        return (Checkpoint, (self.spec, dict(self.params),
                             self.normalization, self.metadata))


def _read_only(array):
    array.setflags(write=False)
    return array


def save_checkpoint(checkpoint: Checkpoint, path) -> None:
    spec = checkpoint.spec
    header = {
        "spec": {
            "input_rows": spec.input_rows,
            "input_time": spec.input_time,
            "conv_stages": spec.conv_stages,
            "feature_maps": spec.feature_maps,
            "kernel_rows": spec.kernel_rows,
            "kernel_time": spec.kernel_time,
            "dense_widths": list(spec.dense_widths),
        },
        "normalization": checkpoint.normalization,
        "metadata": checkpoint.metadata,
        "params": [{"name": n, "shape": list(s)}
                   for n, s in spec.param_shapes().items()],
    }
    blob = json.dumps(header, sort_keys=True).encode()
    out = bytearray()
    out += MAGIC
    out += struct.pack("<B", VERSION)
    out += struct.pack("<I", len(blob))
    out += blob
    for name in spec.param_shapes():
        out += np.ascontiguousarray(checkpoint.params[name],
                                    dtype="<f8").tobytes()
    out += hashlib.sha256(out).digest()
    Path(path).write_bytes(bytes(out))


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint written by ``save_checkpoint``.

    A defect in the framing, the checksum, the header or the payload
    raises ``FileFormatError`` (or a subclass of it).
    """
    raw = Path(path).read_bytes()
    if len(raw) < len(MAGIC) + 1 + 4 + 32:
        raise FileFormatError(f"{path}: truncated checkpoint")
    if raw[:4] != MAGIC:
        raise FileFormatError(f"{path}: bad magic {raw[:4]!r}")
    if raw[4] != VERSION:
        raise UnsupportedVersionError(
            f"{path}: version {raw[4]}, expected {VERSION}")
    digest = raw[-32:]
    body = raw[:-32]
    if hashlib.sha256(body).digest() != digest:
        raise ChecksumError(f"{path}: checksum mismatch")
    (header_len,) = struct.unpack_from("<I", raw, 5)
    header_end = 9 + header_len
    try:
        header = json.loads(raw[9:header_end].decode())
        spec, normalization, metadata = _decode_header(header)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FileFormatError(f"{path}: unreadable header: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(
            f"{path}: malformed header: {type(exc).__name__}: {exc}") from exc

    params = {}
    offset = header_end
    for name, shape in spec.param_shapes().items():
        count = math.prod(shape)
        end = offset + count * 8
        if end > len(body):
            raise FileFormatError(f"{path}: weight payload truncated")
        params[name] = np.frombuffer(
            body, dtype="<f8", count=count, offset=offset).reshape(shape)
        offset = end
    if offset != len(body):
        raise FileFormatError(f"{path}: trailing bytes after weights")
    return Checkpoint(spec=spec, params=params, normalization=normalization,
                      metadata=metadata)


def _decode_header(header):
    """Spec, normalization and metadata of a parsed header.

    Raises KeyError, TypeError or ValueError (the spec's own InputError
    included) on anything that ``save_checkpoint`` would not write.
    """
    names = [f.name for f in fields(NetworkSpec)]
    spec_dict = header["spec"]
    if not isinstance(spec_dict, dict) or sorted(spec_dict) != sorted(names):
        raise ValueError(f"spec must have exactly the keys {names}")
    widths = spec_dict["dense_widths"]
    sizes = [spec_dict[n] for n in names if n != "dense_widths"]
    if not isinstance(widths, list) or any(
            type(v) is not int for v in sizes + widths):
        raise TypeError("spec values must be integers")
    spec = NetworkSpec(**{**spec_dict, "dense_widths": tuple(widths)})
    manifest = [(entry["name"], entry["shape"]) for entry in header["params"]]
    if manifest != [(n, list(s)) for n, s in spec.param_shapes().items()]:
        raise ValueError("parameter manifest does not match the spec")
    normalization, metadata = header["normalization"], header["metadata"]
    if not isinstance(normalization, str) or not isinstance(metadata, dict):
        raise TypeError("normalization must be a string and metadata an "
                        "object")
    return spec, normalization, metadata


def export_weights_text(checkpoint: Checkpoint, path) -> None:
    """Debug dump: one line per tensor name/shape, then its values."""
    lines = []
    for name in checkpoint.spec.param_shapes():
        arr = checkpoint.params[name]
        lines.append(f"# {name} shape={list(arr.shape)}")
        lines.extend(f"{v:.17g}" for v in arr.ravel())
    Path(path).write_text("\n".join(lines) + "\n")
