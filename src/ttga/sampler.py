"""Deterministic DDIM steps and inversion at arbitrary step intervals.

In the rescaled parameterization (xbar_t = x_t / sqrt(abar_t),
gamma_t = sqrt((1-abar_t)/abar_t)) a deterministic denoising move from step
t to any earlier step u is the straight-line update

    xbar_u = xbar_t + (gamma_u - gamma_t) * eps(x_t, t).

Inversion runs the same line upward, approximating the (unknown) noise at
the target step by the noise predicted at the current one:

    xbar_t = xbar_u + (gamma_t - gamma_u) * eps(x_u, u),   u < t,

which is first-order accurate in the interval and is what bounds the
round-trip reconstruction error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .denoiser import ConditionEmbedding, Denoiser
from .errors import ContractError
from .schedule import NoiseSchedule, ensure_finite, from_xbar, to_xbar


@dataclass(frozen=True)
class InversionTrajectory:
    """Latents recorded while walking an inversion ladder 0 -> tau."""

    steps: tuple
    latents: tuple

    def __post_init__(self):
        if len(self.steps) != len(self.latents):
            raise ContractError("steps and latents length mismatch")
        if list(self.steps) != sorted(set(self.steps)):
            raise ContractError("visited steps must be strictly increasing")
        if self.steps[0] != 0:
            raise ContractError("trajectory must start at step 0")

    @property
    def tau(self) -> int:
        return self.steps[-1]

    @property
    def x0(self) -> np.ndarray:
        return self.latents[0]

    @property
    def x_tau(self) -> np.ndarray:
        return self.latents[-1]

    def at(self, step: int) -> np.ndarray:
        try:
            return self.latents[self.steps.index(step)]
        except ValueError:
            raise KeyError(f"step {step} not on the ladder {self.steps}") from None


def inversion_ladder(tau: int, interval: int) -> list[int]:
    """Visited steps 0, interval, 2*interval, ..., tau (short last rung allowed)."""
    if interval <= 0:
        raise ContractError(f"interval must be positive, got {interval}")
    steps = list(range(0, tau, interval))
    steps.append(tau)
    return steps


def ddim_step(
    model: Denoiser,
    x_t: np.ndarray,
    t: int,
    t_next: int,
    e: ConditionEmbedding,
    schedule: NoiseSchedule,
) -> np.ndarray:
    """Deterministic jump t -> t_next (t_next < t), returned un-barred."""
    schedule.check_step(t, low=1)
    schedule.check_step(t_next)
    if t_next >= t:
        raise ContractError(f"ddim_step requires t_next < t, got {t_next} >= {t}")
    eps = model.predict(x_t, t, e)
    xbar = to_xbar(x_t, t, schedule)
    xbar_next = xbar + (schedule.gammas[t_next] - schedule.gammas[t]) * eps
    return ensure_finite(from_xbar(xbar_next, t_next, schedule), f"ddim_step to t={t_next}")


def ddim_sample(
    model: Denoiser,
    x_start: np.ndarray,
    steps_desc: list[int],
    e: ConditionEmbedding,
    schedule: NoiseSchedule,
) -> np.ndarray:
    """Chain ddim_step down a descending ladder; steps_desc[0] holds x_start's step."""
    x = x_start
    for t, t_next in zip(steps_desc[:-1], steps_desc[1:]):
        x = ddim_step(model, x, t, t_next, e, schedule)
    return x


def ddim_invert(
    model: Denoiser,
    x0: np.ndarray,
    tau: int,
    interval: int,
    e: ConditionEmbedding,
    schedule: NoiseSchedule,
) -> InversionTrajectory:
    """Walk x0 up the ladder to tau, recording every visited latent.

    Each rung u -> t applies xbar_t = xbar_u + (gamma_t - gamma_u) * eps(x_u, u);
    no guidance mixing is applied during inversion.
    """
    schedule.check_step(tau, low=1)
    steps = inversion_ladder(tau, interval)
    x = np.asarray(x0, dtype=np.float64).copy()
    latents = [x]
    xbar = to_xbar(x, 0, schedule)
    for u, t in zip(steps[:-1], steps[1:]):
        eps = model.predict(latents[-1], u, e)
        xbar = xbar + (schedule.gammas[t] - schedule.gammas[u]) * eps
        x_t = from_xbar(xbar, t, schedule)
        ensure_finite(x_t, f"ddim_invert at t={t}")
        latents.append(x_t)
    return InversionTrajectory(steps=tuple(steps), latents=tuple(latents))
