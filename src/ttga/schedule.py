"""Noise schedules and latent-grid helpers.

A latent grid is a plain float64 ndarray; images and latents share the same
representation. The schedule precomputes, in double precision,

    alpha_bar[t] = prod_{i<=t} alpha_i          (alpha_bar[0] = 1 exactly)
    gamma[t]     = sqrt((1 - alpha_bar[t]) / alpha_bar[t])   (gamma[0] = 0 exactly)

together with the rescaled-latent convention

    xbar_t = x_t / sqrt(alpha_bar[t])

under which a deterministic denoising step between arbitrary timesteps is a
straight-line update along the predicted noise (see sampler module).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalAbort


@dataclass(frozen=True)
class NoiseSchedule:
    """Precomputed diffusion schedule tables.

    ``alphas`` has length T and is 1-indexed conceptually (``alphas[t-1]`` is
    alpha_t); ``alpha_bars`` and ``gammas`` have length T+1 with index 0
    holding the exact endpoint values 1 and 0.
    """

    total_steps: int
    alphas: np.ndarray
    alpha_bars: np.ndarray
    gammas: np.ndarray

    def __post_init__(self):
        for arr in (self.alphas, self.alpha_bars, self.gammas):
            arr.setflags(write=False)

    def check_step(self, t: int, low: int = 0) -> None:
        if not low <= t <= self.total_steps:
            raise IndexError(
                f"step index {t} outside [{low}, {self.total_steps}]"
            )


def build_schedule(
    total_steps: int = 1000,
    beta_start: float = 1e-4,
    beta_end: float = 0.02,
) -> NoiseSchedule:
    """Linear-beta schedule: beta_t linearly spaced, alpha_t = 1 - beta_t.

    Endpoint values alpha_bar[0] = 1 and gamma[0] = 0 are stored exactly
    rather than evaluated through the formulas, so downstream code can rely
    on them bit-for-bit.
    """
    if total_steps < 1:
        raise ConfigError(f"total_steps must be >= 1, got {total_steps}")
    if not 0.0 < beta_start <= beta_end:
        raise ConfigError(
            f"beta_start must satisfy 0 < beta_start <= beta_end, got beta_start={beta_start}"
        )
    if beta_end >= 1.0:
        raise ConfigError(f"beta_end must be < 1, got beta_end={beta_end}")

    betas = np.linspace(beta_start, beta_end, total_steps, dtype=np.float64)
    alphas = 1.0 - betas
    alpha_bars = np.empty(total_steps + 1, dtype=np.float64)
    alpha_bars[0] = 1.0
    alpha_bars[1:] = np.cumprod(alphas)
    gammas = np.empty(total_steps + 1, dtype=np.float64)
    gammas[0] = 0.0
    with np.errstate(divide="ignore", over="ignore"):
        gammas[1:] = np.sqrt((1.0 - alpha_bars[1:]) / alpha_bars[1:])
    if not np.isfinite(gammas[-1]):
        raise ConfigError(f"beta_end={beta_end} over {total_steps} steps drives alpha_bar to 0")
    return NoiseSchedule(total_steps, alphas, alpha_bars, gammas)


def to_xbar(x: np.ndarray, t: int, schedule: NoiseSchedule,
            out: np.ndarray | None = None) -> np.ndarray:
    """xbar_t = x_t / sqrt(alpha_bar[t]), written to ``out`` if given."""
    schedule.check_step(t)
    return np.divide(x, np.sqrt(schedule.alpha_bars[t]), out=out)


def from_xbar(xbar: np.ndarray, t: int, schedule: NoiseSchedule,
              out: np.ndarray | None = None) -> np.ndarray:
    """x_t = xbar_t * sqrt(alpha_bar[t]), written to ``out`` if given;
    inverse of to_xbar."""
    schedule.check_step(t)
    return np.multiply(xbar, np.sqrt(schedule.alpha_bars[t]), out=out)


def ensure_finite(x: np.ndarray, context: str) -> np.ndarray:
    """Raise NumericalAbort if the grid holds NaN/Inf; returns x unchanged."""
    if not np.all(np.isfinite(x)):
        raise NumericalAbort(f"non-finite latent values in {context}")
    return x
