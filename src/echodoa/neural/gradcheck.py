"""Finite-difference verification of the backward pass."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import InputError
from .network import NetworkSpec, backward, init_params

# Small architecture keeping a finite-difference sweep under a second
# per probe batch while still exercising every layer type.
REDUCED_SPEC = NetworkSpec(input_time=64, feature_maps=4,
                           dense_widths=(8, 4))

# probe records: more than one, so batch reductions are checked too
_BATCH = 3


@dataclass(frozen=True)
class GradCheckReport:
    max_rel_error: float
    passed: bool
    sampled: int        # parameters probed with finite differences
    checked: int        # probes above the comparison magnitude floor
    eps: float
    tolerance: float


def grad_check(spec: NetworkSpec | None = None, seed: int = 0,
               eps: float = 1e-5, tolerance: float = 1e-4,
               samples: int = 200) -> GradCheckReport:
    """Compare analytic gradients against central differences.

    Probes at least ``samples`` parameters spread over every tensor (so
    each layer is covered), in double precision. Gradients below 1e-8
    in both forms are skipped, as the relative error is meaningless
    there. A ``tolerance`` that is not positive and finite, or
    ``samples`` below 1, raises InputError.
    """
    if not 1e-6 <= eps <= 1e-4:
        raise InputError("eps must lie in [1e-6, 1e-4]")
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise InputError("tolerance must be positive and finite")
    if samples < 1:
        raise InputError(f"samples must be at least 1, got {samples}")
    if spec is None:
        spec = REDUCED_SPEC
    rng = np.random.default_rng(seed)
    params = init_params(spec, seed, dtype=np.float64)
    x = rng.normal(0.0, 1.0, (_BATCH, spec.input_rows, spec.input_time))
    labels = rng.uniform(-0.9, 0.9, _BATCH)

    _, grads = backward(spec, params, x, labels)

    total = sum(p.size for p in params.values())
    max_rel = 0.0
    sampled = 0
    checked = 0
    for name, p in params.items():
        count = max(3, math.ceil(samples * p.size / total))
        count = min(count, p.size)
        flat_idx = rng.choice(p.size, size=count, replace=False)
        flat = p.ravel()
        analytic_flat = grads[name].ravel()
        for idx in flat_idx:
            original = flat[idx]
            flat[idx] = original + eps
            loss_plus, _ = backward(spec, params, x, labels)
            flat[idx] = original - eps
            loss_minus, _ = backward(spec, params, x, labels)
            flat[idx] = original
            sampled += 1
            fd = (loss_plus - loss_minus) / (2.0 * eps)
            an = float(analytic_flat[idx])
            denom = max(abs(fd), abs(an))
            if denom <= 1e-8:
                continue
            max_rel = max(max_rel, abs(fd - an) / denom)
            checked += 1
    return GradCheckReport(max_rel_error=max_rel,
                           passed=max_rel < tolerance,
                           sampled=sampled, checked=checked,
                           eps=eps, tolerance=tolerance)
