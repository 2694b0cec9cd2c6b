"""Bias-corrected ADAM parameter updates."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import InputError, ShapeMismatchError


@dataclass(frozen=True)
class AdamHyper:
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        for name in ("learning_rate", "eps"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise InputError(f"{name} must be positive and finite")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise InputError("betas must lie in [0, 1)")


class AdamState:
    """First/second moment accumulators plus the step counter."""

    def __init__(self, params: dict):
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.step = 0


def adam_step(params: dict, grads: dict, hyper: AdamHyper,
              state: AdamState) -> None:
    """One in-place update of every parameter.

    Standard bias-corrected rule: moments are exponential averages of
    the gradient and its square; the step counter increments once per
    call.
    """
    if set(grads) != set(params):
        raise ShapeMismatchError("gradient keys do not match parameters")
    state.step += 1
    t = state.step
    lr, b1, b2, eps = (hyper.learning_rate, hyper.beta1, hyper.beta2,
                       hyper.eps)
    corr1 = 1.0 - b1 ** t
    corr2 = 1.0 - b2 ** t
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ShapeMismatchError(
                f"gradient for {name} has shape {g.shape}, expected {p.shape}")
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * np.square(g)
        p -= lr * (m / corr1) / (np.sqrt(v / corr2) + eps)
