"""Spatial mask pairs routing pixels between the identity-preserving path
(spade) and the augmentation-enhancing path (club).

A pair is held as its spade mask and the club mask is its complement, so
every pair is an exact binary partition, spade + club = 1 elementwise, by
construction. Three generation schemes:

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
    """An exact 0/1 partition of the grid, held as its spade mask: a
    read-only uint8 copy, so the array a caller passes stays its own and
    writeable. The club mask is its complement."""
    spade: np.ndarray

    def __post_init__(self):
        spade = np.asarray(self.spade)
        if not ((spade == 0) | (spade == 1)).all():
            raise ContractError("masks must be binary")
        spade = spade.astype(np.uint8)
        spade.setflags(write=False)
        object.__setattr__(self, "spade", spade)

    @property
    def club(self) -> np.ndarray:
        club = 1 - self.spade
        club.setflags(write=False)
        return club


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


def _bernoulli_spade(shape, p_m: float, rng: SeededRng) -> np.ndarray:
    if not 0.0 <= p_m <= 1.0:
        raise ContractError(f"p_m must be in [0,1], got {p_m}")
    return rng.random(shape) < p_m


def _attention_spade(relevance: np.ndarray, quantile: float) -> np.ndarray:
    relevance = np.asarray(relevance, dtype=np.float64)
    if relevance.ndim != 2:
        raise ContractError(f"relevance must be single-channel 2-D, got shape {relevance.shape}")
    if not np.all(np.isfinite(relevance)):
        raise ContractError("relevance map must be finite")
    if not 0.0 < quantile < 1.0:
        raise ContractError(f"quantile must be in (0,1), got {quantile}")
    lo, hi = float(relevance.min()), float(relevance.max())
    return relevance >= lo + quantile * (hi - lo)


def bernoulli_mask(shape, p_m: float, rng: SeededRng) -> MaskPair:
    return MaskPair(_bernoulli_spade(shape, p_m, rng))


def attention_mask(relevance: np.ndarray, quantile: float) -> MaskPair:
    """Threshold the relevance map at the per-image range quantile
    ``min + quantile * (max - min)``; pixels at or above it take the
    identity-preserving path. A constant map therefore yields all-spade.
    """
    return MaskPair(_attention_spade(relevance, quantile))


def _hybrid_spade(bernoulli: np.ndarray, attention: np.ndarray) -> np.ndarray:
    if bernoulli.shape != attention.shape:
        raise ContractError("hybrid inputs must share a shape")
    return bernoulli == attention


def hybrid_mask(mb: MaskPair, mp: MaskPair) -> MaskPair:
    return MaskPair(_hybrid_spade(mb.spade, mp.spade))


def make_mask(
    policy: MaskPolicy,
    shape,
    rng: SeededRng,
    relevance: np.ndarray | None = None,
) -> MaskPair:
    """The one pair a draw under the policy builds; attention/hybrid need a relevance map."""
    if policy.scheme == SCHEME_BERNOULLI:
        return bernoulli_mask(shape, policy.p_m, rng)
    if relevance is None:
        raise ContractError(f"scheme {policy.scheme!r} requires a relevance map")
    spade = _attention_spade(relevance, policy.relevance_quantile)
    if policy.scheme == SCHEME_HYBRID:
        spade = _hybrid_spade(_bernoulli_spade(shape, policy.p_m, rng), spade)
    return MaskPair(spade)


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
