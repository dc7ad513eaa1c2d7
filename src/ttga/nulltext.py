"""One-step null-text optimization.

Given an inverted latent x_tau, a single deterministic jump back to step 0

    xbar_0 = xbar_tau + (gamma_0 - gamma_tau) * eps_dot,
    eps_dot = cfg_single(eps(x_tau, tau, null), eps(x_tau, tau, c), omega)

reconstructs an image. Optimizing only the null embedding to minimize the
mean squared reconstruction error against the original image yields a
per-image identity code: guided denoising that substitutes this embedding
for the raw null reproduces the source content without touching any model
weights or the semantic condition. The jump steps on ``model.schedule``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .denoiser import ConditionEmbedding, Denoiser, ROLE_OPTIMIZED_NULL
from .errors import ConfigError, DegenerateGuidanceError
from .guidance import cfg_single
from .optim import AdamState, adam_step
from .sampler import InversionTrajectory, move
from .schedule import to_xbar


@dataclass(frozen=True)
class NullOptConfig:
    lr: float = 0.1
    max_steps: int = 500
    early_stop: float = 5e-4

    def __post_init__(self):
        if not 0.0 < self.lr < np.inf:
            raise ConfigError(f"nulltext_lr must be finite and > 0, got {self.lr}")
        if self.max_steps < 0:
            raise ConfigError(f"nulltext_max_steps must be >= 0, got {self.max_steps}")
        if not 0.0 <= self.early_stop < np.inf:
            raise ConfigError(f"nulltext_early_stop must be finite and >= 0, got {self.early_stop}")


@dataclass(frozen=True)
class OptimizedNull:
    """The best null embedding found, with ``identity_noise``: the guided
    noise at (x_tau, tau) that it reconstructs the image with, and ``trace``:
    the loss at each iteration from 0."""

    embedding: ConditionEmbedding
    tau: int
    final_loss: float
    iterations_used: int
    identity_noise: np.ndarray
    trace: tuple

    def __post_init__(self):
        if self.final_loss < 0.0:
            raise ValueError("final_loss must be >= 0")


def one_step_reconstruct(
    model: Denoiser,
    x_tau: np.ndarray,
    tau: int,
    c: ConditionEmbedding,
    null_e: ConditionEmbedding,
    omega: float,
) -> np.ndarray:
    """Single guided jump tau -> 0; the result is already un-barred since
    alpha_bar[0] = 1."""
    eps_dot = cfg_single(
        model.predict(x_tau, tau, null_e),
        model.predict(x_tau, tau, c),
        omega,
    )
    return move(to_xbar(x_tau, tau, model.schedule), tau, 0, eps_dot, model.schedule)


def reconstruction_loss(recon: np.ndarray, x0: np.ndarray) -> float:
    """Mean (not summed) squared error over grid elements, so thresholds are
    resolution-independent; ``np.mean``'s reduction without its overhead."""
    d = x0 - recon
    return float(np.add.reduce(d * d, axis=None) / d.size)


def optimize_null_text(
    model: Denoiser,
    traj: InversionTrajectory,
    c: ConditionEmbedding,
    omega: float,
    opt_config: NullOptConfig,
) -> OptimizedNull:
    """Adam on the null embedding against the one-step reconstruction MSE.

    Starts from the canonical null (zero vector), stops early once the loss
    reaches ``early_stop`` or overflows to inf, where it has no gradient to
    step along, and reports the best embedding seen. With omega = 1 the
    guided noise is independent of the null embedding, so the problem is
    degenerate and rejected up front.
    """
    if omega == 1.0:
        raise DegenerateGuidanceError(
            "omega=1 makes the one-step reconstruction independent of the null embedding"
        )
    schedule = model.schedule
    tau = traj.tau
    x_tau = traj.x_tau
    x0 = traj.x0
    n = x0.size
    gamma_tau = schedule.gammas[tau]
    eps_c = model.predict(x_tau, tau, c)
    xbar_tau = to_xbar(x_tau, tau, schedule)

    values = np.zeros(model.embedding_dim)
    state = AdamState(dim=values.size, lr=opt_config.lr)
    trace = []
    while True:
        # the prediction keeps its graph: its gradient needs no second forward pass
        e = ConditionEmbedding(values, role=ROLE_OPTIMIZED_NULL)
        eps_e, vjp = model.predict_vjp(x_tau, tau, e, "embedding")
        eps_dot = cfg_single(eps_e, eps_c, omega)
        recon = move(xbar_tau, tau, 0, eps_dot, schedule)
        loss = reconstruction_loss(recon, x0)
        if not trace or loss < best_loss:
            best_e, best_eps, best_loss = e, eps_dot, loss
        trace.append(loss)
        if not (opt_config.early_stop < loss < np.inf and len(trace) <= opt_config.max_steps):
            break
        # dL/de via the chain recon -> eps_dot -> eps(x_tau, tau, e)
        upstream = (2.0 / n) * (recon - x0) * (-gamma_tau) * (1.0 - omega)
        values = adam_step(state, values, vjp(upstream))

    return OptimizedNull(embedding=best_e, tau=tau, final_loss=best_loss,
                         iterations_used=len(trace) - 1, identity_noise=best_eps,
                         trace=tuple(trace))
