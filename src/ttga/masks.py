"""Spatial mask pairs routing pixels between the identity-preserving path
(spade) and the augmentation-enhancing path (club).

Every pair is an exact binary partition: spade + club = 1 elementwise.
Three generation schemes:

* bernoulli -- spade[i] = 1 with probability p_m, independently;
* attention -- spade = pixels whose relevance clears a per-image threshold
  (identity-critical regions are preserved);
* hybrid    -- spade = M_B * M_P + (1 - M_B) * (1 - M_P), i.e. the
  attention assignment with a Bernoulli-selected subset of pixels flipped
  (equivalently: spade = NOT(M_B XOR M_P)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import ConfigError, ContractError
from .rng import SeededRng

SCHEME_BERNOULLI = "bernoulli"
SCHEME_ATTENTION = "attention"
SCHEME_HYBRID = "hybrid"
SCHEMES = (SCHEME_BERNOULLI, SCHEME_ATTENTION, SCHEME_HYBRID)


@dataclass(frozen=True)
class MaskPair:
    spade: np.ndarray
    club: np.ndarray

    def __post_init__(self):
        if self.spade.shape != self.club.shape:
            raise ContractError("spade/club shape mismatch")
        both = np.stack([self.spade, self.club])
        if not np.isin(both, (0, 1)).all():
            raise ContractError("masks must be binary")
        if not np.array_equal(self.spade + self.club, np.ones_like(self.spade)):
            raise ContractError("spade + club must equal 1 everywhere")
        self.spade.setflags(write=False)
        self.club.setflags(write=False)

    @staticmethod
    def from_spade(spade: np.ndarray) -> "MaskPair":
        spade = np.asarray(spade, dtype=np.uint8)
        return MaskPair(spade, (1 - spade).astype(np.uint8))


@dataclass(frozen=True)
class MaskPolicy:
    scheme: str = SCHEME_HYBRID
    p_m: float = 0.75
    relevance_quantile: float = 0.5
    resample_per_step: bool = False

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ConfigError(f"mask_scheme must be {'|'.join(SCHEMES)}, got {self.scheme!r}")
        if not 0.0 <= self.p_m <= 1.0:
            raise ConfigError(f"p_m must be in [0,1], got {self.p_m}")
        if not 0.0 < self.relevance_quantile < 1.0:
            raise ConfigError(
                f"relevance_quantile must be in (0,1), got {self.relevance_quantile}"
            )

    @property
    def needs_relevance(self) -> bool:
        return self.scheme in (SCHEME_ATTENTION, SCHEME_HYBRID)


def bernoulli_mask(shape, p_m: float, rng: SeededRng) -> MaskPair:
    if not 0.0 <= p_m <= 1.0:
        raise ContractError(f"p_m must be in [0,1], got {p_m}")
    spade = (rng.random(shape) < p_m).astype(np.uint8)
    return MaskPair.from_spade(spade)


def attention_mask(relevance: np.ndarray, quantile: float) -> MaskPair:
    """Threshold the relevance map at the per-image range quantile
    ``min + quantile * (max - min)``; pixels at or above it take the
    identity-preserving path. A constant map therefore yields all-spade.
    """
    relevance = np.asarray(relevance, dtype=np.float64)
    if relevance.ndim != 2:
        raise ContractError(f"relevance must be single-channel 2-D, got shape {relevance.shape}")
    if not np.all(np.isfinite(relevance)):
        raise ContractError("relevance map must be finite")
    if not 0.0 < quantile < 1.0:
        raise ContractError(f"quantile must be in (0,1), got {quantile}")
    lo, hi = float(relevance.min()), float(relevance.max())
    threshold = lo + quantile * (hi - lo)
    spade = (relevance >= threshold).astype(np.uint8)
    return MaskPair.from_spade(spade)


def hybrid_mask(mb: MaskPair, mp: MaskPair) -> MaskPair:
    if mb.spade.shape != mp.spade.shape:
        raise ContractError("hybrid inputs must share a shape")
    spade = (mb.spade == mp.spade).astype(np.uint8)
    return MaskPair.from_spade(spade)


def make_mask(
    policy: MaskPolicy,
    shape,
    rng: SeededRng,
    relevance: np.ndarray | None = None,
) -> MaskPair:
    """Generate one pair under the policy; attention/hybrid need a relevance map."""
    if policy.scheme == SCHEME_BERNOULLI:
        return bernoulli_mask(shape, policy.p_m, rng)
    if relevance is None:
        raise ContractError(f"scheme {policy.scheme!r} requires a relevance map")
    mp = attention_mask(relevance, policy.relevance_quantile)
    if policy.scheme == SCHEME_ATTENTION:
        return mp
    mb = bernoulli_mask(shape, policy.p_m, rng)
    return hybrid_mask(mb, mp)


def saliency_relevance(model, x: np.ndarray, t: int, e, pred=None) -> np.ndarray:
    """Input-gradient saliency |d ||eps||^2 / dx|, box-smoothed 3x3.

    Default relevance provider for models without an internal attention map.
    High values mark pixels whose content most strongly drives the noise
    prediction, i.e. where the latent deviates from what the model expects.
    An (N, H, W) stack gives one map per item. ``pred``, when given, is
    ``model.predict_vjp(x, t, e)``, which is then not computed again.
    """
    eps, vjp = model.predict_vjp(x, t, e) if pred is None else pred
    sal = np.abs(vjp(2.0 * eps))
    return ndimage.uniform_filter(sal, size=(1, 3, 3) if sal.ndim == 3 else 3, mode="nearest")


def consistency_relevance(model, x: np.ndarray, t: int, e, pred=None) -> np.ndarray:
    """Negated saliency: high where the latent agrees with the model's
    learned content under the given condition.

    Mirrors condition-attention maps, which peak on the regions the
    condition accounts for; content the model cannot explain (clutter,
    occluders) scores low and is routed to the augmentation path.
    """
    return -saliency_relevance(model, x, t, e, pred)
