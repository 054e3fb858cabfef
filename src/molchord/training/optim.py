"""Gradient clipping and parameter updates, applied in sorted field order."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..genmodel import ModelParams


def global_norm(grads: dict[str, np.ndarray]) -> float:
    total = 0.0
    for name in sorted(grads):
        g = grads[name]
        total += float(np.dot(g.ravel(), g.ravel()))
    return float(np.sqrt(total))


def clip_gradients(grads: dict[str, np.ndarray], max_norm: float | None) -> float:
    """Scale gradients in place to the given global norm; returns the pre-clip norm."""
    norm = global_norm(grads)
    if max_norm is not None and norm > max_norm > 0:
        scale = max_norm / norm
        for name in sorted(grads):
            grads[name] *= scale
    return norm


@dataclass
class AdamState:
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(params: ModelParams, grads: dict[str, np.ndarray], state: AdamState, lr: float) -> None:
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    correction1 = 1.0 - b1**state.t
    correction2 = 1.0 - b2**state.t
    for name in sorted(grads):
        g = grads[name]
        if name not in state.m:
            state.m[name] = np.zeros_like(g)
            state.v[name] = np.zeros_like(g)
        state.m[name] = b1 * state.m[name] + (1.0 - b1) * g
        state.v[name] = b2 * state.v[name] + (1.0 - b2) * g * g
        m_hat = state.m[name] / correction1
        v_hat = state.v[name] / correction2
        getattr(params, name)[...] -= lr * m_hat / (np.sqrt(v_hat) + state.eps)
