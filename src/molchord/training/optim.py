"""Gradient clipping and Adam, each over the one buffer behind the gradients
(``genmodel.Grads``) and the matching tail of the parameters."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..genmodel import Grads, ModelParams

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


def global_norm(grads: dict[str, np.ndarray]) -> float:
    """One dot product per field, summed in sorted name order."""
    total = 0.0
    for name in sorted(grads):
        g = grads[name]
        total += float(np.dot(g.ravel(), g.ravel()))
    return float(np.sqrt(total))


def clip_gradients(grads: Grads, max_norm: float | None) -> float:
    """Scale gradients in place to the given global norm; returns the pre-clip norm."""
    norm = global_norm(grads)
    if max_norm is not None and norm > max_norm > 0:
        grads.flat *= max_norm / norm
    return norm


@dataclass
class AdamState:
    t: int = 0
    m: np.ndarray | None = None  # moments, laid out like the gradients
    v: np.ndarray | None = None


def adam_step(params: ModelParams, grads: Grads, state: AdamState, lr: float) -> None:
    """m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g, p -= lr m^ / (sqrt(v^) + eps),
    in place on two scratch buffers, each product and quotient with the same
    operands as written here, so every value rounds as that formula does."""
    g = grads.flat
    if state.m is None:
        state.m, state.v = np.zeros_like(g), np.zeros_like(g)
    state.t += 1
    m, v = state.m, state.v
    scratch = np.multiply(g, 1.0 - BETA1)
    m *= BETA1
    m += scratch
    np.multiply(g, 1.0 - BETA2, out=scratch)
    scratch *= g
    v *= BETA2
    v += scratch
    np.divide(v, 1.0 - BETA2**state.t, out=scratch)
    np.sqrt(scratch, out=scratch)
    scratch += EPS
    step = np.divide(m, 1.0 - BETA1**state.t)
    step *= lr
    step /= scratch
    np.subtract(params.trainable, step, out=params.trainable)
