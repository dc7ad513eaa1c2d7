"""Bias-corrected Adam, shared by embedding optimization and model training."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .errors import ContractError


@dataclass
class AdamState:
    """Moment estimates for one parameter vector; moments start at zero."""

    beta1: ClassVar[float] = 0.9
    beta2: ClassVar[float] = 0.999
    eps_hat: ClassVar[float] = 1e-8

    dim: int
    lr: float
    step_count: int = field(default=0, init=False)
    first_moment: np.ndarray = field(init=False)
    second_moment: np.ndarray = field(init=False)

    def __post_init__(self):
        self.first_moment = np.zeros(self.dim, dtype=np.float64)
        self.second_moment = np.zeros(self.dim, dtype=np.float64)


def adam_step(state: AdamState, params: np.ndarray, grads: np.ndarray) -> np.ndarray:
    """One in-place-free Adam update; returns the new parameter vector.

        m <- b1*m + (1-b1)*g        mhat = m / (1 - b1^k)
        v <- b2*v + (1-b2)*g^2      vhat = v / (1 - b2^k)
        p <- p - lr * mhat / (sqrt(vhat) + eps)
    """
    params = np.asarray(params, dtype=np.float64)
    grads = np.asarray(grads, dtype=np.float64)
    if params.shape != grads.shape or params.size != state.dim:
        raise ContractError(
            f"params/grads length mismatch: {params.shape} vs {grads.shape} (state dim {state.dim})"
        )
    state.step_count += 1
    k = state.step_count
    state.first_moment = state.beta1 * state.first_moment + (1.0 - state.beta1) * grads
    state.second_moment = state.beta2 * state.second_moment + (1.0 - state.beta2) * grads * grads
    m_hat = state.first_moment / (1.0 - state.beta1 ** k)
    v_hat = state.second_moment / (1.0 - state.beta2 ** k)
    return params - state.lr * m_hat / (np.sqrt(v_hat) + state.eps_hat)
