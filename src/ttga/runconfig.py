"""Run configuration: built-in defaults, overridden by a flat key=value file,
overridden by command-line flags. The resolved configuration is written
beside every run's outputs.

A ``RunConfig`` checks every value when it is made, so a bad value is
rejected before any command reads data or trains.
"""

from __future__ import annotations

import dataclasses
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

from .denoiser import AnalyticGaussianDenoiser, DenoiserTrainConfig
from .engine import TtgaConfig
from .errors import ConfigError
from .evalbench import Difficulty, SegTrainConfig
from .guidance import GuidanceConfig
from .masks import MaskPolicy
from .nulltext import NullOptConfig
from .schedule import NoiseSchedule, build_schedule

CHOICES = {
    "denoiser": ("analytic", "trainable"),
    "segmenter": ("threshold", "trained"),
    "relevance_provider": ("consistency", "segmenter", "saliency"),
}
METHODS = ("baseline", "tta", "ttga")
_COMMENT = re.compile(r"(?:^|\s)#")


@dataclass(frozen=True)
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

    # typed configs built once from the fields above; their range errors name those fields
    schedule: NoiseSchedule = field(init=False, repr=False, compare=False)
    ttga: TtgaConfig = field(init=False, repr=False, compare=False)
    denoiser_train: DenoiserTrainConfig = field(init=False, repr=False, compare=False)
    seg_train: SegTrainConfig = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name, allowed in CHOICES.items():
            if getattr(self, name) not in allowed:
                raise ConfigError(f"{name} must be {'|'.join(allowed)}, got {getattr(self, name)!r}")
        for f in dataclasses.fields(self):  # each string reloads from a config file as itself
            v = getattr(self, f.name, None)
            if isinstance(v, str) and (v != v.strip() or v.splitlines()[1:] or _COMMENT.search(v)):
                raise ConfigError(f"{f.name} must have no line break, no leading or trailing "
                                  f"whitespace and no '#' after whitespace, got {v!r}")
        methods = self.method_list()
        if not methods:
            raise ConfigError("methods must name at least one method")
        for m in methods:
            if m not in METHODS:
                raise ConfigError(f"unknown method {m!r} in methods")
        if len(set(methods)) < len(methods):
            raise ConfigError(f"methods names a method twice: {self.methods!r}")
        for name in ("size", "n_train", "n_test", "embedding_dim", "denoiser_hidden",
                     "tta_views"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not AnalyticGaussianDenoiser.data_std_ok(self.data_std):
            raise ConfigError(
                f"data_std must be > 0, its square finite and not lost next to 1, "
                f"got {self.data_std}")
        if not 0.0 <= self.tta_jitter < math.inf:
            raise ConfigError(f"tta_jitter must be finite and >= 0, got {self.tta_jitter}")
        for split in ("train", "test"):
            try:
                Difficulty(*(getattr(self, f"{split}_{k}") for k in ("occlusion", "blur", "noise")))
            except ConfigError as exc:
                raise ConfigError(f"{split}_{exc}") from None
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must fit in 64 bits, got {self.seed}")
        schedule = build_schedule(self.total_steps, self.beta_start, self.beta_end)
        if self.tau > self.total_steps:
            raise ConfigError(f"tau must be <= total_steps ({self.total_steps}), got {self.tau}")
        ttga = TtgaConfig(
            tau=self.tau,
            inversion_interval=self.inversion_interval,
            n_augment=self.n_augment,
            guidance=GuidanceConfig(self.omega, self.lambda_c, 1.0),
            lambda_r_low=self.lambda_r_low,
            lambda_r_high=self.lambda_r_high,
            mask_policy=MaskPolicy(
                scheme=self.mask_scheme, p_m=self.p_m,
                relevance_quantile=self.relevance_quantile,
                resample_per_step=self.resample_masks_per_step,
            ),
            null_opt=NullOptConfig(
                lr=self.nulltext_lr, max_steps=self.nulltext_max_steps,
                early_stop=self.nulltext_early_stop,
            ),
            club_stride=self.club_stride,
            invert_with=self.invert_with,
        )
        denoiser_train = DenoiserTrainConfig(
            epochs=self.denoiser_epochs, batch_size=self.denoiser_batch,
            drop_p=self.drop_p, lr=self.denoiser_lr,
        )
        seg_train = SegTrainConfig(epochs=self.seg_epochs, lr=self.seg_lr, hidden=self.seg_hidden)
        for name, value in (("schedule", schedule), ("ttga", ttga),
                            ("denoiser_train", denoiser_train), ("seg_train", seg_train)):
            object.__setattr__(self, name, value)

    def method_list(self) -> list[str]:
        return [m.strip() for m in self.methods.split(",") if m.strip()]


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig) if f.init}


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
    """Parse a flat ``key = value`` UTF-8 file; a '#' at the start of a line
    or after whitespace starts a comment."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (IsADirectoryError, NotADirectoryError, UnicodeDecodeError) as exc:
        raise ConfigError(f"--config {path} is not a UTF-8 text file: {exc}") from None
    values = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = _COMMENT.split(line, maxsplit=1)[0].strip()
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
    return RunConfig(**values)


def write_resolved_config(cfg: RunConfig, path) -> None:
    lines = []
    for name in sorted(_FIELDS):
        val = getattr(cfg, name)
        if isinstance(val, bool):
            val = "true" if val else "false"
        lines.append(f"{name} = {val}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
