"""Dual-path masked denoising loop, augmentation-set generation, and the
test-time ensemble with entropy uncertainty.

One augmentation runs the loop t = tau .. 1 over rescaled latents. Each
iteration produces two candidates for xbar_{t-1}:

* identity path (spade): a jump from the fixed inverted latent x_tau along
  the guided noise at (x_tau, tau) that null-text optimization computed for
  its best embedding -- the jump depends on t only through gamma_{t-1};
* augmentation path (club): a one-step move from the current blended latent
  using the three-component guidance (unconditional / semantic / optimized
  null), with the identity scale lambda_r drawn once per augmentation.

A binary mask pair then selects, per pixel, which path's value survives:

    xbar_{t-1} = spade_mask * spade_value + club_mask * club_value.

Both paths and the inversion take their coefficients from ``model.schedule``.

The N augmentations of a set share one loop: their latents are one
(N, *grid) stack, each step makes one identity-path jump and one denoiser
call over the three guidance conditions, where equal embeddings share one
forward, and each item draws its lambda_r
and masks from its own random stream, so an item's output does not depend
on N. A step that redraws relevance masks predicts the semantic condition
on its own, keeping the graph for the relevance's input gradient, and the
other two conditions in one call.

The loop allocates one workspace per set and runs every step in it: the
stacks x_t, the club value and the blended latent, and a (3, N, *grid)
buffer that receives the three predictions, which the guidance then
overwrites in place; ``augmentation_path_step`` takes the club value and
that buffer as arguments and allocates neither. The blend is a branch-free
select on the values' int64 bit patterns, ``club ^ ((club ^ spade) &
words)``, where the words are all ones on spade pixels and are built once
per mask draw; it copies bits as ``np.where`` does, but does not stall on
random masks. Every step computes the same values with the same operations
as the allocating functions, bit for bit.

When the masks are held for the whole loop, the model is ``pixelwise`` and
no steps are recorded, the loop runs on the club pixels only. A blend
overwrites every spade pixel with the identity-path value, and a pixelwise
prediction at a pixel reads that pixel alone, so a club value computed at a
spade pixel is never read. The (item, pixel) pairs some item routes to the
club path form one (L, 1) column; each step runs the same functions over it
with ``model.at_pixels``, a copy of the full model that holds its schedule
and predicts its bits at those pixels, and one lambda_r per pair. No blend
runs, and the column is scattered over the identity-path value at t = 0,
computed once before the loop. The finite check reads the column and the
spade pixels some item keeps, exactly the full loop's blended latent, so
it aborts at the same step. Where the t = 0 value is finite at the kept
pixels, so is every step's, which the loop then neither computes nor
checks: each element of fl(a + fl(d * b)), d = gamma_{t_out} - gamma_tau,
lies between a and its t = 0 value, since gamma does not fall as t rises in
any schedule ``build_schedule`` makes and rounding is monotone, and a NaN
or an infinity in a or b shows at t = 0 too. Otherwise every step computes
and checks it as the full loop does.

The ensemble averages an (N, H, W, K) stack of member probability grids
and reads per-pixel uncertainty from the Shannon entropy of the averaged
distribution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .denoiser import ConditionEmbedding, Denoiser
from .errors import ConfigError, ContractError, NumericalAbort
# cfg_single stays a module attribute: perfbench's tracer wraps it here by name
from .guidance import (GuidanceConfig, IdentityCoefficient, cfg_multi,  # noqa: F401
                       cfg_single, identity_coefficient)
from .masks import MaskPair, MaskPolicy, make_mask, saliency_relevance
from .nulltext import NullOptConfig, OptimizedNull, optimize_null_text
from .rng import SeededRng
from .sampler import InversionTrajectory, ddim_invert, move
from .schedule import from_xbar, to_xbar

INVERT_WITH_SEMANTIC = "semantic"
INVERT_WITH_NULL = "null"

# relevance provider: (grid or (N, *grid) stack, t, pred) -> one (H, W) map
# for all items, or an (N, H, W) stack of maps; pred is
# model.predict_vjp(x, t, c) when the loop has computed it, else None
RelevanceFn = Callable[[np.ndarray, int, tuple | None], np.ndarray]


@dataclass(frozen=True)
class TtgaConfig:
    tau: int = 300
    inversion_interval: int = 10
    n_augment: int = 10
    guidance: GuidanceConfig = field(default_factory=GuidanceConfig)
    lambda_r_low: float = 0.5
    lambda_r_high: float = 1.5
    mask_policy: MaskPolicy = field(default_factory=MaskPolicy)
    null_opt: NullOptConfig = field(default_factory=NullOptConfig)
    club_stride: int = 1
    invert_with: str = INVERT_WITH_SEMANTIC

    def __post_init__(self):
        if self.tau < 1:
            raise ConfigError(f"tau must be >= 1, got {self.tau}")
        if self.inversion_interval < 1:
            raise ConfigError(f"inversion_interval must be >= 1, got {self.inversion_interval}")
        if self.guidance.omega == 1.0:
            raise ConfigError("omega must not be 1, where null-text optimization is degenerate")
        if self.n_augment < 1:
            raise ConfigError(f"n_augment must be >= 1, got {self.n_augment}")
        if not (np.isfinite(self.lambda_r_high) and 0.0 <= self.lambda_r_low):
            raise ConfigError(
                f"lambda_r range [{self.lambda_r_low}, {self.lambda_r_high}] must be "
                "finite and >= 0"
            )
        if self.lambda_r_low > self.lambda_r_high:
            raise ConfigError(
                f"lambda_r_low {self.lambda_r_low} > lambda_r_high {self.lambda_r_high}"
            )
        if self.club_stride < 1:
            raise ConfigError(f"club_stride must be >= 1, got {self.club_stride}")
        if self.invert_with not in (INVERT_WITH_SEMANTIC, INVERT_WITH_NULL):
            raise ConfigError(f"invert_with must be semantic|null, got {self.invert_with!r}")


@dataclass(frozen=True)
class AugmentationItem:
    lambda_r: float
    mask_stream: int


@dataclass(frozen=True)
class AugmentationSet:
    """N augmentations of one image and the null-text result they share."""

    augmented: np.ndarray          # (N, H, W)
    per_item: tuple
    null_opt: OptimizedNull

    def __post_init__(self):
        if len(self.augmented) != len(self.per_item):
            raise ContractError("augmented must stack one grid per item")


@dataclass(frozen=True)
class EnsembleResult:
    mean_probability: np.ndarray   # (H, W, K)
    entropy_map: np.ndarray        # (H, W), bits
    member_probabilities: np.ndarray  # (N, H, W, K)


def augmentation_path_step(
    model: Denoiser,
    x_t: np.ndarray,
    t: int,
    null_opt: OptimizedNull,
    c: ConditionEmbedding,
    g: GuidanceConfig,
    t_out: int,
    coefficient: IdentityCoefficient,
    pred_buffer: np.ndarray,
    out: np.ndarray,
    eps_sem: np.ndarray | None = None,
) -> np.ndarray:
    """Rescaled augmentation-path value at step t_out, written to ``out``;
    three predictions from one denoiser call feed the multi-condition
    guidance. ``x_t`` may be a stack of latents. ``coefficient`` is
    ``identity_coefficient(g, x_t.shape, lambda_r)``, with one lambda_r per
    item or none. ``pred_buffer``, a (3, *x_t.shape) scratch array, holds
    the predictions and the guidance. ``eps_sem``, when given, is
    ``model.predict(x_t, t, c)`` and is left unchanged.
    """
    if t < 1:
        raise ContractError(f"augmentation path needs t >= 1, got {t}")
    null, identity = model.null_embedding(), null_opt.embedding
    if eps_sem is None:
        model.predict_each(x_t, t, [null, c, identity], out=pred_buffer)
    else:
        model.predict_each(x_t, t, [null, identity], out=pred_buffer[::2])
        pred_buffer[1] = eps_sem
    mixed = cfg_multi(*pred_buffer, g, in_place=True, coefficient=coefficient)
    schedule = model.schedule
    mixed *= schedule.gammas[t_out] - schedule.gammas[t]
    xbar = to_xbar(x_t, t, schedule, out=out)
    xbar += mixed
    return xbar


def select_words(spade: np.ndarray) -> np.ndarray:
    """The int64 words of a 0/1 spade mask: all bits set where the spade
    path is selected, none elsewhere."""
    return -np.asarray(spade, dtype=np.int64)


def blend(spade_value: np.ndarray, club_value: np.ndarray, words: np.ndarray,
          out: np.ndarray) -> np.ndarray:
    """Per-pixel selection into ``out`` of ``spade_value`` where the spade
    mask is 1 and ``club_value`` elsewhere, copying each value's bits (signed
    zeros, NaN payloads). ``words`` is the ``select_words`` of the spade
    masks, one (H, W) layer per item of a stacked ``club_value``; ``out``
    must not overlap ``club_value``.

    The select is branch-free, ``club ^ ((club ^ spade) & words)`` on the
    values' int64 bit patterns: ``np.where`` over random masks is bound by
    branch misprediction."""
    if np.may_share_memory(out, club_value):
        raise ContractError("blend output must not overlap the club value")
    club = club_value.view(np.int64)
    spade = spade_value.view(np.int64)
    bits = np.bitwise_xor(club, spade, out=out.view(np.int64))
    bits &= words
    bits ^= club
    return out


def _invert(model: Denoiser, x0: np.ndarray, c: ConditionEmbedding,
            cfg: TtgaConfig) -> InversionTrajectory:
    e_inv = c if cfg.invert_with == INVERT_WITH_SEMANTIC else model.null_embedding()
    return ddim_invert(model, x0, cfg.tau, cfg.inversion_interval, e_inv)


def _generate(
    model: Denoiser,
    trajectory: InversionTrajectory,
    null_opt: OptimizedNull,
    c: ConditionEmbedding,
    cfg: TtgaConfig,
    rngs: Sequence[SeededRng],
    relevance_fn: RelevanceFn | None,
    record_steps: list | None = None,
) -> tuple[np.ndarray, list[float]]:
    """The masked dual-path loop over one item per stream in ``rngs``;
    returns the (N, *grid) stack of augmented images and the lambda_r each
    item drew.

    Item i draws lambda_r first, then its masks (once, or at every step),
    all from ``rngs[i]`` and in the same order whatever N is.
    """
    schedule = model.schedule
    if trajectory.tau != cfg.tau or null_opt.tau != cfg.tau:
        raise ContractError(f"trajectory tau {trajectory.tau} and null-text tau "
                            f"{null_opt.tau} must equal config tau {cfg.tau}")
    tau = cfg.tau
    x_tau = trajectory.x_tau
    n = len(rngs)

    lambdas = [float(rng.uniform(cfg.lambda_r_low, cfg.lambda_r_high)) for rng in rngs]
    lambda_r = np.array(lambdas)

    if relevance_fn is None:
        relevance_fn = lambda x, t, pred: saliency_relevance(model, x, t, c, pred)

    policy = cfg.mask_policy
    mask_shape = x_tau.shape[:2]
    # steps that redraw relevance masks share the semantic forward with them
    share_semantic = policy.resample_per_step and policy.needs_relevance

    def draw_masks(x: np.ndarray, t: int,
                   pred: tuple | None) -> tuple[list[MaskPair], np.ndarray]:
        relevance = relevance_fn(x, t, pred) if policy.needs_relevance else None
        if relevance is not None and not np.isfinite(relevance).all():
            raise NumericalAbort(f"non-finite relevance map at step {t}")
        if relevance is None or np.ndim(relevance) == 2:
            relevance = [relevance] * n
        masks = [make_mask(policy, mask_shape, rng, r) for rng, r in zip(rngs, relevance)]
        return masks, select_words(np.stack([m.spade for m in masks]))

    if not policy.resample_per_step:
        masks, words = draw_masks(x_tau, tau, None)

    xbar_tau = to_xbar(x_tau, tau, schedule)
    step_model, step_lambda_r = model, lambda_r
    if not policy.resample_per_step and model.pixelwise and record_steps is None:
        # the (item, pixel) pairs on the augmentation path, as one column
        item, pix = np.nonzero(words.reshape(n, -1) == 0)
        step_model = model.at_pixels(pix, (model.null_embedding(), c, null_opt.embedding))
        step_lambda_r = lambda_r[item]
        kept = words.any(axis=0)
        # the column holds no spade pixel, so the club value is the latent
        xbar = club_bar = xbar_tau.reshape(-1)[pix].reshape(step_model.shape)
        blended = None
        spade_bar = move(xbar_tau, tau, 0, null_opt.identity_noise, schedule)
        spade_fixed = np.isfinite(spade_bar[kept]).all()
    else:
        xbar = np.broadcast_to(xbar_tau, (n,) + xbar_tau.shape)
        club_bar, blended, spade_fixed = np.empty(xbar.shape), np.empty(xbar.shape), False
    # every step runs in this workspace; records take copies
    x_t = np.empty(xbar.shape)
    pred_buffer = np.empty((3,) + xbar.shape)
    coefficient = identity_coefficient(cfg.guidance, xbar.shape, step_lambda_r)

    t = tau
    while t > 0:
        t_out = max(t - cfg.club_stride, 0)
        if not spade_fixed:
            spade_bar = move(xbar_tau, tau, t_out, null_opt.identity_noise, schedule)
        from_xbar(xbar, t, schedule, out=x_t)
        pred = model.predict_vjp(x_t, t, c) if share_semantic else None
        augmentation_path_step(
            step_model, x_t, t, null_opt, c, cfg.guidance, t_out, coefficient, pred_buffer,
            club_bar, eps_sem=None if pred is None else pred[0],
        )
        if policy.resample_per_step:
            masks, words = draw_masks(x_t, t, pred)
        if blended is None:
            # the blended latent is the column and the kept spade pixels
            finite = np.isfinite(club_bar).all() and (
                spade_fixed or np.isfinite(spade_bar[kept]).all())
        else:
            xbar = blend(spade_bar, club_bar, words, out=blended)
            finite = np.isfinite(xbar).all()
        if not finite:
            raise NumericalAbort(f"non-finite blended latent at step {t_out}")
        if record_steps is not None:
            record_steps.append(
                {"t": t, "t_out": t_out, "spade": spade_bar, "club": club_bar.copy(),
                 "masks": masks, "blended": xbar.copy()}
            )
        t = t_out

    if blended is None:
        # the column over the identity-path value at t = 0
        xbar = np.broadcast_to(spade_bar, (n,) + spade_bar.shape).copy()
        xbar.reshape(n, -1)[item, pix] = club_bar[:, 0]
    return from_xbar(xbar, 0, schedule), lambdas


def generate_one(
    model: Denoiser,
    x0: np.ndarray,
    null_opt: OptimizedNull,
    c: ConditionEmbedding,
    cfg: TtgaConfig,
    rng: SeededRng,
    trajectory: InversionTrajectory | None = None,
    relevance_fn: RelevanceFn | None = None,
    record_steps: list | None = None,
) -> np.ndarray:
    """One masked dual-path generation pass; returns the augmented image.

    The one-item case of ``generate_set``'s loop: draws lambda_r once, then
    (unless resampling per step) one mask pair held across the loop. Each
    entry of ``record_steps`` holds the step's shared spade value and the
    one-item stacks of club values, masks and blended latents.
    """
    if trajectory is None:
        trajectory = _invert(model, x0, c, cfg)
    out, _ = _generate(model, trajectory, null_opt, c, cfg, [rng], relevance_fn, record_steps)
    return out[0]


def generate_set(
    model: Denoiser,
    x0: np.ndarray,
    c: ConditionEmbedding,
    cfg: TtgaConfig,
    rng: SeededRng,
    relevance_fn: RelevanceFn | None = None,
) -> AugmentationSet:
    """One inversion plus one null-text optimization shared across N
    generations that run as one batched loop, item i on stream
    ``rng.derive(i)``. numpy does not report overflow here; the set's own
    checks do: a non-finite latent or relevance map raises
    ``NumericalAbort``, and an overflowing null-text loss is inf."""
    with np.errstate(over="ignore", invalid="ignore"):
        trajectory = _invert(model, x0, c, cfg)
        null_opt = optimize_null_text(model, trajectory, c, cfg.guidance.omega, cfg.null_opt)
        streams = [rng.derive(i) for i in range(cfg.n_augment)]
        augmented, lambdas = _generate(model, trajectory, null_opt, c, cfg, streams, relevance_fn)
    per_item = tuple(AugmentationItem(lambda_r=lam, mask_stream=stream.stream_id)
                     for stream, lam in zip(streams, lambdas))
    return AugmentationSet(augmented=augmented, per_item=per_item, null_opt=null_opt)


def entropy_bits(prob: np.ndarray) -> np.ndarray:
    """Shannon entropy over the last axis, in bits; 0 log 0 := 0."""
    p = np.asarray(prob, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0.0, p * np.log2(p), 0.0)
    return -terms.sum(axis=-1)


def ensemble(members: np.ndarray) -> EnsembleResult:
    """Average an (N, H, W, K) stack of member probability grids and compute
    the per-pixel entropy of the averaged distribution."""
    members = np.asarray(members, dtype=np.float64)
    if members.ndim != 4 or len(members) < 1:
        raise ContractError(f"members must be an (N >= 1, H, W, K) stack, got {members.shape}")
    if members.min() < -1e-12 or np.abs(members.sum(axis=-1) - 1.0).max() > 1e-6:
        raise ContractError("member rows must be probability vectors")
    mean = members.mean(axis=0)
    return EnsembleResult(
        mean_probability=mean,
        entropy_map=entropy_bits(mean),
        member_probabilities=members,
    )


def error_estimate_map(result: EnsembleResult) -> np.ndarray:
    """Entropy normalized by log2(K) into [0, 1]; the pixel-wise error score."""
    k = result.mean_probability.shape[-1]
    if k < 2:
        raise ContractError("error estimation needs at least two classes")
    return result.entropy_map / np.log2(k)
