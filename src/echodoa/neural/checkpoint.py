"""Versioned binary file format for trained network weights.

An ``EDCK`` file is a container (framing and SHA-256 trailer in
``container.py``) whose JSON header holds the architecture, the
normalization rule, training metadata and the parameter manifest, and
whose payload is the weight arrays as little-endian 64-bit floats in
declaration order. The header carries all seven spec keys and the
normalization rule by name, though only three spec keys vary; a file
whose fixed keys or rule differ from the network's does not load.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import asdict, dataclass, field, fields
from types import MappingProxyType
from typing import ClassVar

import numpy as np

from .. import container
from ..errors import FileFormatError, ShapeMismatchError
from .network import NetworkSpec

MAGIC = b"EDCK"
VERSION = 1

# spec keys every header carries at the one value the network has
_FIXED_SPEC_KEYS = ("input_rows", "conv_stages", "kernel_rows", "kernel_time")


@dataclass(frozen=True)
class Checkpoint:
    """Network weights plus everything needed to reproduce inference.

    ``params`` is a read-only mapping of read-only float64 copies of the
    given arrays, so the caller's arrays stay theirs and writable.
    ``params32`` holds their float32 cast, derived once here and used by
    every inference call; since nothing can write the float64 weights,
    it cannot go stale.
    """

    # the per-record input scaling of ``baseband_to_input``
    normalization: ClassVar[str] = "rms_window_v1"

    spec: NetworkSpec
    params: Mapping                   # name -> read-only float64 ndarray
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
        return (Checkpoint, (self.spec, dict(self.params), self.metadata))


def _read_only(array):
    array.setflags(write=False)
    return array


def save_checkpoint(checkpoint: Checkpoint, path) -> None:
    spec = checkpoint.spec
    header = {
        "spec": {**{k: getattr(spec, k) for k in _FIXED_SPEC_KEYS},
                 **asdict(spec)},
        "normalization": checkpoint.normalization,
        "metadata": checkpoint.metadata,
        "params": [{"name": n, "shape": list(s)}
                   for n, s in spec.param_shapes().items()],
    }
    container.write(path, MAGIC, VERSION, header,
                    (np.ascontiguousarray(checkpoint.params[name], dtype="<f8")
                     for name in spec.param_shapes()))


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint written by ``save_checkpoint``.

    A defect in the framing, the checksum, the header or the payload
    raises ``FileFormatError`` (or a subclass of it).
    """
    (spec, metadata, layout), payload = container.read(
        path, MAGIC, VERSION, _checkpoint_header)
    if len(payload) != layout.itemsize:
        raise FileFormatError(f"{path}: {len(payload)} bytes of weights, "
                              f"the spec needs {layout.itemsize}")
    weights = np.frombuffer(payload, dtype=layout)[0]
    return Checkpoint(spec=spec,
                      params={name: weights[name] for name in layout.names},
                      metadata=metadata)


def _checkpoint_header(header):
    """Spec, metadata and payload layout of a header.

    Raises KeyError, TypeError or ValueError (the spec's own InputError
    included) on anything that ``save_checkpoint`` would not write: a
    fixed spec key or a normalization rule other than the network's
    included.
    """
    varying = [f.name for f in fields(NetworkSpec)]
    names = [*_FIXED_SPEC_KEYS, *varying]
    spec_dict = header["spec"]
    if not isinstance(spec_dict, dict) or sorted(spec_dict) != sorted(names):
        raise ValueError(f"spec must have exactly the keys {names}")
    widths = spec_dict["dense_widths"]
    sizes = [spec_dict[n] for n in names if n != "dense_widths"]
    if not isinstance(widths, list) or any(
            type(v) is not int for v in sizes + widths):
        raise TypeError("spec values must be integers")
    for key in _FIXED_SPEC_KEYS:
        if spec_dict[key] != getattr(NetworkSpec, key):
            raise ValueError(f"spec {key} must be {getattr(NetworkSpec, key)}, "
                             f"got {spec_dict[key]}")
    spec = NetworkSpec(**{**{n: spec_dict[n] for n in varying},
                          "dense_widths": tuple(widths)})
    manifest = [(entry["name"], entry["shape"]) for entry in header["params"]]
    if manifest != [(n, list(s)) for n, s in spec.param_shapes().items()]:
        raise ValueError("parameter manifest does not match the spec")
    if header["normalization"] != Checkpoint.normalization:
        raise ValueError(f"normalization must be {Checkpoint.normalization!r}")
    metadata = header["metadata"]
    if not isinstance(metadata, dict):
        raise TypeError("metadata must be an object")
    # the payload: every parameter as float64, in declaration order; a
    # spec too large for a NumPy dtype raises ValueError here
    layout = np.dtype([(name, "<f8", shape)
                       for name, shape in spec.param_shapes().items()])
    return spec, metadata, layout
