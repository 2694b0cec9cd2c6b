"""Versioned binary file format for trained network weights.

An ``EDCK`` file is a container (framing and SHA-256 trailer in
``container.py``) whose JSON header holds the architecture, the
normalization rule, training metadata and the parameter manifest, and
whose payload is the weight arrays in declaration order: little-endian
32-bit floats in version 2, the version ``save_checkpoint`` writes, and
64-bit floats in version 1, which ``load_checkpoint`` still reads and
casts to float32. The header carries all seven spec keys and the
normalization rule by name, though only three spec keys vary; a file
whose fixed keys or rule differ from the network's does not load.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property, partial
from types import MappingProxyType
from typing import ClassVar

import numpy as np

from .. import container
from ..errors import FileFormatError, InputError
from .network import NetworkSpec, _blocked_taps, _check_params

MAGIC = b"EDCK"
VERSION = 2
# the payload's weight type in each version that loads; a checkpoint
# holds its weights in the type of the version it writes
_WEIGHT_TYPES = {1: "<f8", 2: "<f4"}

# spec keys every header carries at the one value the network has
_FIXED_SPEC_KEYS = ("input_rows", "conv_stages", "kernel_rows", "kernel_time")


@dataclass(frozen=True, init=False)
class Checkpoint:
    """Network weights plus everything needed to reproduce inference.

    The weights are float32, the type ``train`` produces and inference
    runs in. ``params32`` is a read-only mapping of read-only float32
    copies of the given arrays, cast once here, so the caller's arrays
    stay theirs and writable; it is the one weight store, and what
    files and pickles carry. Unpickling takes over the arrays it reads
    without a second copy. ``params`` is its exact float64 upcast,
    read-only and derived on each read. ``tap_spectra`` holds the
    blocked inference form's tap spectra of ``params32``, derived on
    first use; since nothing can write the weights, it cannot go stale.
    A weight that is not finite, once cast, raises ``InputError``.
    """

    # the per-record input scaling of ``baseband_to_input``
    normalization: ClassVar[str] = "rms_window_v1"

    spec: NetworkSpec
    params32: Mapping = field(repr=False)   # name -> read-only float32
    metadata: dict

    def __init__(self, spec: NetworkSpec, params: Mapping,
                 metadata: dict | None = None):
        _check_params(spec, params)
        # a float64 weight beyond float32's range casts to inf, which
        # _hold refuses
        with np.errstate(over="ignore"):
            params32 = {name: np.array(params[name],
                                       dtype=_WEIGHT_TYPES[VERSION])
                        for name in spec.param_shapes()}
        self._hold(spec, params32, metadata)

    def _hold(self, spec, params32, metadata):
        """Take over ``params32``, float32 arrays no caller holds.

        A weight that is not finite raises ``InputError`` naming its
        parameter.
        """
        if (name := _non_finite(params32)) is not None:
            raise InputError(f"{name}: a weight is not finite")
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "params32", MappingProxyType(
            {name: _read_only(params32[name])
             for name in spec.param_shapes()}))
        object.__setattr__(self, "metadata", dict(metadata or {}))

    @property
    def params(self) -> Mapping:
        """The float64 upcast of ``params32``, built anew on each read."""
        return MappingProxyType({name: _read_only(p.astype(np.float64))
                                 for name, p in self.params32.items()})

    @cached_property
    def tap_spectra(self):
        """``_blocked_taps`` of ``params32``: read-only, derived once."""
        return _blocked_taps(self.spec, self.params32)

    def __reduce__(self):
        # pickle the float32 weights only; unpickling re-derives the rest
        return (_unpickle, (self.spec, dict(self.params32), self.metadata))


def _unpickle(spec, params32, metadata):
    """The ``Checkpoint`` a pickle carried, holding its arrays uncopied.

    The unpickler made the arrays and nothing else can reach them, so
    they are checked (names, shapes and the float32 type) and taken
    over read-only, where the constructor would copy them again.
    """
    _check_params(spec, params32)
    for name, p in params32.items():
        if not isinstance(p, np.ndarray) or p.dtype != _WEIGHT_TYPES[VERSION]:
            raise TypeError(f"{name} must be a {_WEIGHT_TYPES[VERSION]} array")
    checkpoint = Checkpoint.__new__(Checkpoint)
    checkpoint._hold(spec, params32, metadata)
    return checkpoint


def _read_only(array):
    array.setflags(write=False)
    return array


def _non_finite(params):
    """Name of the first parameter with a weight that is not finite.

    Its least and greatest weights tell, since both propagate NaN, and
    reading them makes no temporary the size of the weights.
    """
    return next((name for name, p in params.items()
                 if not np.isfinite([p.min(), p.max()]).all()), None)


def save_checkpoint(checkpoint: Checkpoint, path) -> None:
    """Write ``checkpoint`` as an EDCK file of the current version.

    Its weights are finite, since a ``Checkpoint`` holds no other.
    """
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
                    checkpoint.params32.values())


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint of either version, its weights cast to float32.

    A defect in the framing, the checksum, the header or the payload,
    or a weight that is not finite once cast, raises ``FileFormatError``
    (or a subclass of it).
    """
    (spec, metadata), weights = container.read(
        path, MAGIC, {version: partial(_checkpoint_header, weight_type=kind)
                      for version, kind in _WEIGHT_TYPES.items()})
    try:
        return Checkpoint(spec=spec, params={name: weights[0][name]
                                             for name in weights.dtype.names},
                          metadata=metadata)
    except InputError as exc:       # a weight that is not finite
        raise FileFormatError(f"{path}: {exc}") from None


def _checkpoint_header(header, weight_type):
    """Spec and metadata of a header; the payload layout, one item.

    Raises KeyError, TypeError or ValueError (the spec's own InputError
    included) on anything that ``save_checkpoint`` would not write: a
    fixed spec key or a normalization rule other than the network's
    included.
    """
    spec_dict = container.field(header, "spec", dict)
    names = [*_FIXED_SPEC_KEYS, *(f.name for f in fields(NetworkSpec))]
    if sorted(spec_dict) != sorted(names):
        raise ValueError(f"spec must have exactly the keys {names}")
    sizes = {key: container.count(spec_dict, key)
             for key in names if key != "dense_widths"}
    for key in _FIXED_SPEC_KEYS:
        if sizes.pop(key) != getattr(NetworkSpec, key):
            raise ValueError(f"spec {key} must be {getattr(NetworkSpec, key)}, "
                             f"got {spec_dict[key]}")
    spec = NetworkSpec(**sizes, dense_widths=tuple(
        container.list_field(spec_dict, "dense_widths", int)))
    manifest = [(entry["name"], entry["shape"]) for entry in header["params"]]
    if manifest != [(n, list(s)) for n, s in spec.param_shapes().items()]:
        raise ValueError("parameter manifest does not match the spec")
    if header["normalization"] != Checkpoint.normalization:
        raise ValueError(f"normalization must be {Checkpoint.normalization!r}")
    # the payload: every parameter as ``weight_type``, in declaration
    # order; a spec too large for a NumPy dtype raises ValueError here
    layout = np.dtype([(name, weight_type, shape)
                       for name, shape in spec.param_shapes().items()])
    return (spec, container.field(header, "metadata", dict)), layout, 1
