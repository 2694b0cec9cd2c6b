"""Bias-corrected ADAM parameter updates."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import InputError, ShapeMismatchError


# Moment decay rates and denominator floor of Kingma & Ba, "Adam" (2015).
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass(frozen=True)
class AdamHyper:
    learning_rate: float = 1e-3

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise InputError("learning_rate must be positive and finite")


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
    call. Every gradient's key and shape is checked before anything is
    touched, so a mismatch raises ``ShapeMismatchError`` and leaves the
    parameters, the moments and the step counter as they were.
    """
    if set(grads) != set(params):
        raise ShapeMismatchError("gradient keys do not match parameters")
    for name, p in params.items():
        shape = grads[name].shape
        if shape != p.shape:
            raise ShapeMismatchError(
                f"gradient for {name} has shape {shape}, expected {p.shape}")
    state.step += 1
    t = state.step
    corr1 = 1.0 - BETA1 ** t
    corr2 = 1.0 - BETA2 ** t
    for name, p in params.items():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * np.square(g)
        p -= hyper.learning_rate * (m / corr1) / (np.sqrt(v / corr2) + EPS)
