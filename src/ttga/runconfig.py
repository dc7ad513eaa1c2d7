"""Run configuration: built-in defaults, overridden by a flat key=value file,
overridden by command-line flags. The resolved configuration is written
beside every run's outputs.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError


@dataclass
class RunConfig:
    # run identity and outputs
    seed: int = 0
    out: str = "runs/out"
    dump_images: bool = False
    methods: str = "baseline,tta,ttga"

    # synthetic dataset
    size: int = 32
    n_train: int = 400
    n_test: int = 200
    train_occlusion: float = 0.0
    train_blur: float = 0.3
    train_noise: float = 0.02
    test_occlusion: float = 0.8
    test_blur: float = 0.6
    test_noise: float = 0.04

    # diffusion schedule
    total_steps: int = 1000
    beta_start: float = 1e-4
    beta_end: float = 0.02

    # generative model
    denoiser: str = "analytic"          # analytic | trainable
    data_std: float = 3.0
    embedding_dim: int = 256
    denoiser_hidden: int = 48
    denoiser_epochs: int = 8
    denoiser_batch: int = 16
    denoiser_lr: float = 1e-3
    drop_p: float = 0.1

    # augmentation engine
    tau: int = 300
    inversion_interval: int = 10
    n_augment: int = 10
    omega: float = 2.0
    lambda_c: float = 1.0
    lambda_r_low: float = 0.5
    lambda_r_high: float = 1.5
    mask_scheme: str = "hybrid"
    p_m: float = 0.75
    relevance_quantile: float = 0.3
    resample_masks_per_step: bool = False
    relevance_provider: str = "consistency"  # consistency | segmenter | saliency
    invert_with: str = "semantic"
    club_stride: int = 1

    # null-text optimization
    nulltext_lr: float = 0.1
    nulltext_max_steps: int = 500
    nulltext_early_stop: float = 5e-4
    nulltext_trace: bool = False

    # toy segmenter
    segmenter: str = "trained"          # threshold | trained
    seg_hidden: int = 16
    seg_epochs: int = 40
    seg_lr: float = 3e-3

    # geometric TTA baseline
    tta_views: int = 10
    tta_jitter: float = 0.02

    # artifact paths for commands run against existing outputs
    data_dir: str = ""
    denoiser_checkpoint: str = ""
    segmenter_checkpoint: str = ""
    semantic_embedding: str = ""

    def method_list(self) -> list[str]:
        return [m.strip() for m in self.methods.split(",") if m.strip()]


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}


def _coerce(name: str, raw: str):
    f = _FIELDS.get(name)
    if f is None:
        raise ConfigError(f"unknown config field: {name}")
    if f.type in ("bool", bool):
        low = raw.strip().lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"field {name} expects a boolean, got {raw!r}")
    if f.type in ("int", int):
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"field {name} expects an integer, got {raw!r}") from None
    if f.type in ("float", float):
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"field {name} expects a number, got {raw!r}") from None
    return raw.strip()


def load_config_file(path) -> dict:
    """Parse a flat ``key = value`` file; '#' starts a comment."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(str(path))
    values = {}
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        values[key] = _coerce(key, raw)
    return values


def resolve_config(
    file_path: str | None = None,
    overrides: dict | None = None,
) -> RunConfig:
    """defaults < config file < explicit overrides."""
    values: dict = {}
    if file_path:
        values.update(load_config_file(file_path))
    for key, val in (overrides or {}).items():
        if val is None:
            continue
        if key not in _FIELDS:
            raise ConfigError(f"unknown config field: {key}")
        values[key] = val
    cfg = RunConfig(**values)
    validate_config(cfg)
    return cfg


def validate_config(cfg: RunConfig) -> None:
    if cfg.denoiser not in ("analytic", "trainable"):
        raise ConfigError(f"denoiser must be analytic|trainable, got {cfg.denoiser!r}")
    if cfg.segmenter not in ("threshold", "trained"):
        raise ConfigError(f"segmenter must be threshold|trained, got {cfg.segmenter!r}")
    if cfg.mask_scheme not in ("bernoulli", "attention", "hybrid"):
        raise ConfigError(f"mask_scheme must be bernoulli|attention|hybrid, got {cfg.mask_scheme!r}")
    if cfg.relevance_provider not in ("consistency", "segmenter", "saliency"):
        raise ConfigError(
            "relevance_provider must be consistency|segmenter|saliency, "
            f"got {cfg.relevance_provider!r}"
        )
    if not 1 <= cfg.tau <= cfg.total_steps:
        raise ConfigError(f"tau must be in [1, total_steps], got {cfg.tau}")
    for m in cfg.method_list():
        if m not in ("baseline", "tta", "ttga"):
            raise ConfigError(f"unknown method {m!r} in methods")


def write_resolved_config(cfg: RunConfig, path) -> None:
    lines = []
    for name in sorted(_FIELDS):
        val = getattr(cfg, name)
        if isinstance(val, bool):
            val = "true" if val else "false"
        lines.append(f"{name} = {val}")
    Path(path).write_text("\n".join(lines) + "\n")
