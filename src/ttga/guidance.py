"""Classifier-free guidance combinators.

Single-condition form:

    cfg_single = eps_null + omega * (eps_cond - eps_null)

Multi-condition form used by the augmentation path, mixing unconditional,
semantic, and identity (optimized-null) noise predictions:

    cfg_multi = eps_null
              + lambda_c * (eps_sem - eps_null)
              + lambda_r * (1 - omega) * (eps_idnull - eps_sem)

The identity term arises from substituting the joint semantic+identity
prediction by cfg_single evaluated with the optimized null embedding:
plugging eps_joint = eps_idnull + omega*(eps_sem - eps_idnull) into the
generic three-term mix collapses its last term to
lambda_r*(1-omega)*(eps_idnull - eps_sem). With lambda_c = 1 the raw
unconditional term has exactly zero coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError


@dataclass(frozen=True)
class GuidanceConfig:
    """Guidance scales for one run; omega is shared with null-text optimization."""

    omega: float = 2.0
    lambda_c: float = 1.0
    lambda_r: float = 1.0

    def __post_init__(self):
        for name in ("omega", "lambda_c", "lambda_r"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0.0:
                raise ConfigError(f"{name} must be finite and >= 0, got {v}")


def _check_shapes(*grids: np.ndarray) -> None:
    shapes = {g.shape for g in grids}
    if len(shapes) != 1:
        raise ContractError(f"guidance inputs must share a shape, got {sorted(shapes)}")


def cfg_single(eps_null: np.ndarray, eps_cond: np.ndarray, omega: float) -> np.ndarray:
    """eps_null + omega * (eps_cond - eps_null).

    The interpolation endpoints omega = 0 and omega = 1 return the
    corresponding input exactly (bit-level), not through the arithmetic.
    """
    _check_shapes(eps_null, eps_cond)
    if omega == 0.0:
        return eps_null.copy()
    if omega == 1.0:
        return eps_cond.copy()
    return eps_null + omega * (eps_cond - eps_null)


def cfg_three_term(
    eps_null: np.ndarray,
    eps_sem: np.ndarray,
    eps_joint: np.ndarray,
    lambda_c: float,
    lambda_r: float,
) -> np.ndarray:
    """Generic mix of unconditional, semantic, and joint predictions."""
    _check_shapes(eps_null, eps_sem, eps_joint)
    return (
        eps_null
        + lambda_c * (eps_sem - eps_null)
        + lambda_r * (eps_joint - eps_sem)
    )


@dataclass(frozen=True)
class IdentityCoefficient:
    """The identity term's coefficient ``lambda_r * (1 - omega)`` for
    predictions of one shape: ``coeff`` (a float, or one value per item
    shaped to broadcast over the stack), ``live`` (where it is nonzero) and
    ``every`` (whether it is nonzero for every item). A loop builds it once
    and passes it to each ``cfg_multi`` call."""

    shape: tuple
    coeff: float | np.ndarray
    live: np.ndarray
    every: bool


def identity_coefficient(g: GuidanceConfig, shape: tuple,
                         lambda_r: np.ndarray | None = None) -> IdentityCoefficient:
    """``cfg_multi``'s identity coefficient for predictions of ``shape``;
    ``lambda_r``, when given, holds one identity scale per item (leading
    axis) in place of ``g.lambda_r``."""
    shape = tuple(shape)
    if lambda_r is None:
        identity_coeff = coeff = g.lambda_r * (1.0 - g.omega)
    else:
        identity_coeff = np.asarray(lambda_r, dtype=np.float64) * (1.0 - g.omega)
        if identity_coeff.shape != shape[:1]:
            raise ContractError(
                f"need one lambda_r per item: {identity_coeff.shape} vs {shape[:1]}"
            )
        coeff = identity_coeff.reshape(identity_coeff.shape + (1,) * (len(shape) - 1))
    live = np.asarray(identity_coeff != 0.0)
    return IdentityCoefficient(shape, coeff, live, bool(live.all()))


def cfg_multi(
    eps_null: np.ndarray,
    eps_sem: np.ndarray,
    eps_idnull: np.ndarray,
    g: GuidanceConfig,
    in_place: bool = False,
    coefficient: IdentityCoefficient | None = None,
) -> np.ndarray:
    """Three-component guidance with the identity condition carried by the
    optimized null embedding's prediction ``eps_idnull``.

    ``coefficient``, when given, is ``identity_coefficient(g, eps_null.shape,
    lambda_r)`` computed beforehand, with one identity scale per item of
    stacked predictions; without it every item takes ``g.lambda_r``.

    Terms with an exactly zero coefficient are skipped, per item, so
    degenerate scale settings reduce to the remaining inputs bit-for-bit.

    ``in_place`` writes the result into ``eps_null`` and uses ``eps_sem`` and
    ``eps_idnull`` as scratch, with the same arithmetic and so the same bits.
    """
    _check_shapes(eps_null, eps_sem, eps_idnull)
    if coefficient is None:
        coefficient = identity_coefficient(g, eps_null.shape)
    elif coefficient.shape != eps_null.shape:
        raise ContractError(
            f"identity coefficient for shape {coefficient.shape}, predictions {eps_null.shape}")
    coeff, live, every = coefficient.coeff, coefficient.live, coefficient.every
    # the identity difference first, while eps_sem is intact
    if every:
        d_id = np.subtract(eps_idnull, eps_sem, out=eps_idnull if in_place else None)
        d_id *= coeff
    elif live.any():
        d_id = coeff[live] * (eps_idnull[live] - eps_sem[live])
    else:
        d_id = None
    out = eps_null if in_place else eps_null.copy()
    if g.lambda_c != 0.0:
        d_sem = np.subtract(eps_sem, eps_null, out=eps_sem if in_place else None)
        d_sem *= g.lambda_c
        out += d_sem
    if every:
        out += d_id
    elif d_id is not None:
        out[live] += d_id
    return out
