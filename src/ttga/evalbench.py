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
from .autodiff import Tensor, conv2d  # noqa: F401
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
        for name in ("blur", "noise"):
            if not 0.0 <= getattr(self, name) < np.inf:
                raise ConfigError(f"{name} must be finite and >= 0, got {getattr(self, name)}")


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
        """Per-pixel class probabilities, shape (H, W, 2): background, foreground."""
        raise NotImplementedError


class ThresholdSegmenter(Segmenter):
    kind = "threshold"

    def __init__(self, threshold: float = 0.5, sharpness: float = 25.0):
        self.threshold = float(threshold)
        self.sharpness = float(sharpness)

    def segment(self, image: np.ndarray) -> np.ndarray:
        if image.ndim != 2:
            raise ContractError(f"expected a 2-D image, got shape {image.shape}")
        p_fg = 1.0 / (1.0 + np.exp(-self.sharpness * (image - self.threshold)))
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
        if image.ndim != 2:
            raise ContractError(f"expected a 2-D image, got shape {image.shape}")
        x = Tensor(image[None, :, :, None])
        p_fg = self.forward(x).data[0, :, :, 0]
        return np.stack([1.0 - p_fg, p_fg], axis=-1)


@dataclass(frozen=True)
class SegTrainConfig:
    epochs: int = 60
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
    config: SegTrainConfig | None = None,
) -> tuple[ConvSegmenter, list[float]]:
    """Mean-squared-probability training against the analytic disk masks."""
    if not scenes:
        raise ConfigError("scenes must be nonempty (field: scenes)")
    config = config or SegTrainConfig()
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
    kind, (_dim, _h, _w, _c, aux), params = checkpoint.read(
        path, (ThresholdSegmenter.kind, ConvSegmenter.kind))
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

_SPATIAL_OPS = [
    ("identity", lambda a: a, lambda a: a),
    ("fliplr", lambda a: np.flip(a, axis=1), lambda a: np.flip(a, axis=1)),
    ("flipud", lambda a: np.flip(a, axis=0), lambda a: np.flip(a, axis=0)),
    ("rot90", lambda a: np.rot90(a, 1, axes=(0, 1)), lambda a: np.rot90(a, -1, axes=(0, 1))),
    ("rot180", lambda a: np.rot90(a, 2, axes=(0, 1)), lambda a: np.rot90(a, -2, axes=(0, 1))),
    ("rot270", lambda a: np.rot90(a, 3, axes=(0, 1)), lambda a: np.rot90(a, -3, axes=(0, 1))),
    ("fliplr_rot90", lambda a: np.rot90(np.flip(a, axis=1), 1, axes=(0, 1)),
     lambda a: np.flip(np.rot90(a, -1, axes=(0, 1)), axis=1)),
    ("flipud_rot90", lambda a: np.rot90(np.flip(a, axis=0), 1, axes=(0, 1)),
     lambda a: np.flip(np.rot90(a, -1, axes=(0, 1)), axis=0)),
]


def tta_baseline(
    seg: Segmenter,
    image: np.ndarray,
    n_views: int,
    rng: SeededRng,
    jitter_sigma: float = 0.02,
) -> EnsembleResult:
    """Flips/rotations plus small intensity jitter; predictions are mapped
    back through the inverse spatial transform and ensembled the same way as
    generative augmentations. The first view is the untouched image."""
    if n_views < 1:
        raise ConfigError(f"n_views must be >= 1, got {n_views}")
    members = []
    for i in range(n_views):
        _, fwd, inv = _SPATIAL_OPS[i % len(_SPATIAL_OPS)]
        view = fwd(image)
        if i > 0 and jitter_sigma > 0.0:
            view = np.clip(view + jitter_sigma * float(rng.normal()), 0.0, 1.0)
        prob = seg.segment(np.ascontiguousarray(view))
        members.append(np.ascontiguousarray(inv(prob)))
    return ensemble(members)
