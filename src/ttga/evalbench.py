"""Synthetic segmentation benchmark: disk-on-background scenes with an
occluder bar crossing the disk boundary, toy segmenters, and the geometric
test-time-augmentation baseline.

The three difficulty axes (occlusion, blur, noise) control how confusable a
scene is: the occluder's intensity approaches the disk's as occlusion rises,
blur smears the boundary, and noise perturbs every pixel. The ground-truth
mask is always the exact analytic disk rasterization, recorded before any
degradation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

# conv2d and adam_step stay module attributes: perfbench's tracer wraps them here by name
from .autodiff import Tensor, conv2d, logistic  # noqa: F401
from . import checkpoint
from .denoiser import ConvStack, fit
from .engine import EnsembleResult, ensemble
from .errors import ConfigError, ContractError, CorruptFileError
from .optim import adam_step  # noqa: F401
from .rng import SeededRng


@dataclass(frozen=True)
class Difficulty:
    occlusion: float = 0.0
    blur: float = 0.0
    noise: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.occlusion <= 1.0:
            raise ConfigError(f"occlusion must be in [0,1], got {self.occlusion}")
        # a Gaussian width in pixels, whose kernel spans 8 sigma; a wider one only flattens a scene
        if not 0.0 <= self.blur <= 100.0:
            raise ConfigError(f"blur must be in [0,100], got {self.blur}")
        if not 0.0 <= self.noise < np.inf:
            raise ConfigError(f"noise must be finite and >= 0, got {self.noise}")


@dataclass(frozen=True)
class ToyScene:
    image: np.ndarray
    gt_mask: np.ndarray
    params: dict


def sample_scene_params(rng: SeededRng, difficulty: Difficulty, size: int = 32) -> dict:
    """Scene geometry and rendering parameters, fully determined by the rng."""
    cy = size / 2 + float(rng.uniform(-size / 8, size / 8))
    cx = size / 2 + float(rng.uniform(-size / 8, size / 8))
    radius = float(rng.uniform(0.18 * size, 0.30 * size))
    bg = float(rng.uniform(0.15, 0.25))
    fg = float(rng.uniform(0.70, 0.85))
    params = {
        "size": size,
        "cy": cy, "cx": cx, "radius": radius,
        "bg_value": bg, "fg_value": fg,
        "blur": difficulty.blur,
        "noise": difficulty.noise,
        "noise_seed_hi": int(rng.integers(0, 2 ** 31)),
        "occluder": None,
    }
    if difficulty.occlusion > 0.0:
        edge_angle = float(rng.uniform(0.0, 2 * np.pi))
        params["occluder"] = {
            # the bar passes through a point on the disk boundary, so it
            # always straddles foreground and background
            "py": cy + radius * np.sin(edge_angle),
            "px": cx + radius * np.cos(edge_angle),
            "angle": float(rng.uniform(0.0, np.pi)),
            "width": float(rng.uniform(2.0, 3.5)),
            "value": bg + (fg - bg) * (0.35 + 0.65 * difficulty.occlusion),
        }
    return params


def render_scene(params: dict) -> ToyScene:
    size = params["size"]
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    gt = (
        (yy - params["cy"]) ** 2 + (xx - params["cx"]) ** 2
        <= params["radius"] ** 2
    ).astype(np.uint8)
    image = np.full((size, size), params["bg_value"], dtype=np.float64)
    image[gt == 1] = params["fg_value"]
    occ = params.get("occluder")
    if occ is not None:
        dy, dx = np.sin(occ["angle"]), np.cos(occ["angle"])
        dist = np.abs((yy - occ["py"]) * dx - (xx - occ["px"]) * dy)
        image[dist <= occ["width"] / 2.0] = occ["value"]
    if params["blur"] > 0.0:
        image = ndimage.gaussian_filter(image, sigma=params["blur"])
    if params["noise"] > 0.0:
        noise_rng = SeededRng(params["noise_seed_hi"], 0xD01E)
        image = image + params["noise"] * noise_rng.normal(image.shape)
    image = np.clip(image, 0.0, 1.0)
    return ToyScene(image=image, gt_mask=gt, params=params)


def make_dataset(n: int, difficulty: Difficulty, rng: SeededRng, size: int = 32) -> list[ToyScene]:
    if n < 1:
        raise ConfigError(f"dataset size must be >= 1, got {n}")
    return [render_scene(sample_scene_params(rng.derive(i), difficulty, size)) for i in range(n)]


# ---- segmenters ----


class Segmenter:
    kind: str

    def segment(self, image: np.ndarray) -> np.ndarray:
        """Background and foreground probabilities: (H, W, 2) for an (H, W) image;
        for an (N, H, W) stack, the stack of the one-image calls, bit for bit."""
        raise NotImplementedError


class ThresholdSegmenter(Segmenter):
    kind = "threshold"

    def __init__(self, threshold: float = 0.5, sharpness: float = 25.0):
        self.threshold = float(threshold)
        self.sharpness = float(sharpness)

    def segment(self, image: np.ndarray) -> np.ndarray:
        if image.ndim not in (2, 3):
            raise ContractError(f"expected an (H, W) image or (N, H, W) stack, got {image.shape}")
        p_fg = logistic(self.sharpness * (image - self.threshold))
        return np.stack([1.0 - p_fg, p_fg], axis=-1)


class ConvSegmenter(ConvStack, Segmenter):
    """Three 3x3 tanh convolutions ending in a sigmoid foreground probability."""

    kind = "trained_net"

    def __init__(self, hidden: int = 16, rng: SeededRng | None = None):
        self.hidden = int(hidden)
        super().__init__([(1, hidden), (hidden, hidden), (hidden, 1)], rng)

    def forward(self, x: Tensor) -> Tensor:
        return super().forward(x).sigmoid()

    def segment(self, image: np.ndarray) -> np.ndarray:
        xb, stacked = self._prepare(image)
        p_fg = self._restore(self.forward(Tensor(xb)).data, stacked)
        return np.stack([1.0 - p_fg, p_fg], axis=-1)


@dataclass(frozen=True)
class SegTrainConfig:
    epochs: int
    batch_size: int = 16
    lr: float = 3e-3
    hidden: int = 16

    def __post_init__(self):
        for key, value in (("seg_epochs", self.epochs), ("seg_hidden", self.hidden),
                           ("segmenter batch_size", self.batch_size)):
            if value < 1:
                raise ConfigError(f"{key} must be >= 1, got {value}")
        if not 0.0 < self.lr < np.inf:
            raise ConfigError(f"seg_lr must be finite and > 0, got {self.lr}")


def train_toy_segmenter(
    scenes: list[ToyScene],
    rng: SeededRng,
    config: SegTrainConfig,
) -> tuple[ConvSegmenter, list[float]]:
    """Mean-squared-probability training against the analytic disk masks."""
    if not scenes:
        raise ConfigError("scenes must be nonempty (field: scenes)")
    model = ConvSegmenter(hidden=config.hidden, rng=rng.derive(0x5E6))

    def batch(idx: np.ndarray) -> tuple[Tensor, np.ndarray]:
        xb = Tensor(np.stack([scenes[i].image for i in idx])[:, :, :, None])
        return xb, np.stack([scenes[i].gt_mask for i in idx]).astype(np.float64)[:, :, :, None]

    losses = fit(model, len(scenes), batch, config.epochs, config.batch_size, config.lr, rng)
    return model, losses


# ---- segmenter checkpoints (same container as denoiser checkpoints) ----


def save_segmenter(path, model: Segmenter) -> None:
    if model.kind == "threshold":
        params = np.array([model.threshold, model.sharpness])
        aux = 0
    else:
        params = model.flat_parameters()
        aux = model.hidden
    checkpoint.write(path, model.kind, (0, 0, 0, 1, aux), params)


def load_segmenter(path) -> Segmenter:
    kind, fields, params = checkpoint.read(path, (ThresholdSegmenter.kind, ConvSegmenter.kind))
    aux = fields[4]
    if fields[:4] != (0, 0, 0, 1) or (kind == ThresholdSegmenter.kind and aux != 0):
        raise CorruptFileError(f"{path}: header fields {fields} are not those of a segmenter")
    if kind == ThresholdSegmenter.kind and params.size == 2:
        return ThresholdSegmenter(threshold=params[0], sharpness=params[1])
    if kind == ConvSegmenter.kind and aux >= 1:
        model = ConvSegmenter(hidden=aux)
        if params.size == model.flat_parameters().size:
            model.set_flat_parameters(np.array(params))
            return model
    raise CorruptFileError(
        f"{path}: {params.size} parameters do not fit a {kind} segmenter of hidden width {aux}")


# ---- geometric test-time augmentation baseline ----

# (flip axis or None, quarter turns): identity, the two flips, the three
# rotations, then each flip followed by one turn
_SPATIAL_OPS = [(None, 0), (1, 0), (0, 0), (None, 1), (None, 2), (None, 3), (1, 1), (0, 1)]


def _spatial(a: np.ndarray, flip: int | None, turns: int) -> np.ndarray:
    return np.rot90(a if flip is None else np.flip(a, axis=flip), turns, axes=(0, 1))


def _spatial_inverse(a: np.ndarray, flip: int | None, turns: int) -> np.ndarray:
    a = np.rot90(a, -turns, axes=(0, 1))
    return a if flip is None else np.flip(a, axis=flip)


def tta_baseline(
    seg: Segmenter,
    image: np.ndarray,
    n_views: int,
    rng: SeededRng,
    jitter_sigma: float = 0.02,
    *,
    first_view: np.ndarray,
) -> EnsembleResult:
    """Flips/rotations of a square image plus small intensity jitter; the
    views are segmented as one stack, their predictions are mapped back
    through the inverse spatial transform and ensembled the same way as
    generative augmentations. The first view is the untouched image, and
    ``first_view`` is its prediction ``seg.segment(image)``, which every
    caller has already computed."""
    if n_views < 1:
        raise ConfigError(f"n_views must be >= 1, got {n_views}")
    ops = [_SPATIAL_OPS[i % len(_SPATIAL_OPS)] for i in range(1, n_views)]
    views = np.empty((len(ops),) + image.shape)
    for view, op in zip(views, ops):
        view[...] = _spatial(image, *op)
        if jitter_sigma > 0.0:
            np.clip(view + jitter_sigma * float(rng.normal()), 0.0, 1.0, out=view)
    members = np.empty((n_views,) + first_view.shape)
    members[0] = first_view
    for member, prob, op in zip(members[1:], seg.segment(views), ops):
        member[...] = _spatial_inverse(prob, *op)
    return ensemble(members)
