"""Experiment orchestration behind the CLI: dataset/material preparation,
method evaluation, and CSV/PGM artifact emission.

Every random quantity is drawn from a stream derived from (config seed,
purpose, image id), so a run's outputs are byte-identical for identical
(config, seed). Timestamps appear only in the sidecar ``run.log``.
"""

from __future__ import annotations

import csv
import datetime
import io
import json
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import gridio
from .denoiser import (
    AnalyticGaussianDenoiser,
    ConditionEmbedding,
    ConvDenoiser,
    Denoiser,
    load_checkpoint,
    save_checkpoint,
    train_toy_denoiser,
)
from .engine import AugmentationSet, EnsembleResult, ensemble, error_estimate_map, generate_set
from .errors import ConfigError, CorruptFileError
from .evalbench import (
    Difficulty,
    Segmenter,
    ThresholdSegmenter,
    ToyScene,
    load_segmenter,
    make_dataset,
    render_scene,
    sample_scene_params,
    save_segmenter,
    train_toy_segmenter,
    tta_baseline,
)
from .masks import consistency_relevance
from .metrics import binarize, dice, error_ground_truth, hd95, nsd, roc_auc
from .nulltext import OptimizedNull
from .rng import SeededRng
from .runconfig import RunConfig
from .schedule import NoiseSchedule

STREAM_TRAIN_DATA = 0x11
STREAM_TEST_DATA = 0x12
STREAM_DENOISER = 0x21
STREAM_SEGMENTER = 0x22
STREAM_SEMANTIC = 0x23
STREAM_EVAL = 0x31
SUBSTREAM_TTGA = 1
SUBSTREAM_TTA = 2

SEG_METRICS = ("dsc", "auc", "hd95", "nsd")
ERR_METRICS = ("dsc", "auc", "nsd")

PER_IMAGE_HEADER = [
    "image_id", "method", "occluded",
    "dsc", "auc", "hd95", "nsd",
    "err_dsc", "err_auc", "err_nsd", "flags",
]
AUGMENT_HEADER = ["image_id", "aug_index", "lambda_r", "mask_stream", "reconstruction_loss"]
MANIFEST_HEADER = ["scene_id", "split", "occluded", "params", "image_path", "gt_path"]
AGGREGATE_HEADER = [
    "method", "task",
    "dsc_mean", "dsc_std", "auc_mean", "auc_std",
    "hd95_mean", "hd95_std", "nsd_mean", "nsd_std", "n",
]


class SchemaMismatch(RuntimeError):
    """An aggregate CSV being merged does not follow the aggregate schema."""


def fmt(value: float | None) -> str:
    """Fixed 6-decimal formatting; empty cell for missing values."""
    if value is None or (isinstance(value, float) and not np.isfinite(value)):
        return ""
    return f"{value:.6f}"


def write_csv(path: Path, header: list[str], rows) -> None:
    """The one CSV writer: UTF-8, ``\r\n`` line ends, the header then the rows."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


def _mean_std(values) -> list[str]:
    """The mean and sample-stddev cells of some finite values: empty cells
    for none, and stddev 0 for one."""
    vals = np.asarray(values, dtype=np.float64)
    if vals.size == 0:
        return ["", ""]
    return [fmt(float(vals.mean())), fmt(float(vals.std(ddof=1)) if vals.size > 1 else 0.0)]


@dataclass(frozen=True)
class RunLog:
    """Sidecar log; the only artifact allowed to carry timestamps. A log
    with no path writes nothing."""

    path: Path | None

    def write(self, message: str) -> None:
        if self.path is not None:
            stamp = datetime.datetime.now().isoformat(timespec="seconds")
            with open(self.path, "a", encoding="utf-8") as f:
                f.write(f"{stamp} {message}\n")


# ---- dataset materialization ----


def build_test_set(cfg: RunConfig) -> list[ToyScene]:
    """Half-occluded, half-unoccluded test scenes (even ids carry the
    occluder) so occlusion-conditional analyses have both subsets."""
    rng = SeededRng(cfg.seed, STREAM_TEST_DATA)
    looks = [Difficulty(occlusion, cfg.test_blur, cfg.test_noise)
             for occlusion in (cfg.test_occlusion, 0.0)]
    return [render_scene(sample_scene_params(rng.derive(i), looks[i % 2], cfg.size))
            for i in range(cfg.n_test)]


def build_train_set(cfg: RunConfig) -> list[ToyScene]:
    rng = SeededRng(cfg.seed, STREAM_TRAIN_DATA)
    diff = Difficulty(cfg.train_occlusion, cfg.train_blur, cfg.train_noise)
    return make_dataset(cfg.n_train, diff, rng, cfg.size)


def write_dataset(scenes: list[ToyScene], out_dir: Path, split: str,
                  dump_images: bool) -> list[list]:
    """Write the split's grids; return their ``MANIFEST_HEADER`` rows."""
    split_dir = out_dir / split
    split_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for i, scene in enumerate(scenes):
        image_path = split_dir / f"scene_{i:04d}.f64"
        gt_path = split_dir / f"gt_{i:04d}.f64"
        gridio.save_grid(image_path, scene.image)
        gridio.save_grid(gt_path, scene.gt_mask.astype(np.float64))
        if dump_images:
            gridio.save_pgm(split_dir / f"scene_{i:04d}.pgm", scene.image)
            gridio.save_pgm(split_dir / f"gt_{i:04d}.pgm", scene.gt_mask.astype(np.float64))
        rows.append([i, split, int(scene.params.get("occluder") is not None),
                     json.dumps(scene.params, sort_keys=True), str(image_path), str(gt_path)])
    return rows


# the scene parameters that scene_embedding reads
SCENE_KEYS = ("size", "cy", "cx", "radius", "fg_value", "bg_value")


def _is_number(value) -> bool:
    """A JSON number that is a finite float64: not a bool, NaN or infinity."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= np.finfo(np.float64).max)


def load_dataset(data_dir: Path, split: str, size: int) -> list[ToyScene]:
    """The split's scenes in a make-data directory. Each manifest row's files
    are read from ``data_dir/<split>/``, wherever make-data wrote them from.
    CorruptFileError names a manifest that is not UTF-8 or whose line 1 is
    not ``MANIFEST_HEADER``, or the first line that lacks a value or whose
    params are not a JSON object with a number for every key
    ``scene_embedding`` reads; ConfigError names the first grid that is not
    ``size`` x ``size``, or a split with no scenes."""
    manifest = data_dir / "manifest.csv"
    scenes = []
    try:
        with open(manifest, newline="", encoding="utf-8") as f:
            text = f.read()
    except UnicodeDecodeError as exc:
        raise CorruptFileError(f"{manifest}: not UTF-8 text at byte {exc.start}") from None
    reader = csv.DictReader(io.StringIO(text, newline=""))
    if reader.fieldnames != MANIFEST_HEADER:
        raise CorruptFileError(f"{manifest}: line 1: header is not {','.join(MANIFEST_HEADER)}")
    for row in reader:
        where = f"{manifest}: line {reader.line_num}"
        missing = [key for key in ("split", "params", "image_path", "gt_path")
                   if row.get(key) is None]
        if missing:
            raise CorruptFileError(f"{where}: no {', '.join(missing)} value")
        if row["split"] != split:
            continue
        try:
            params = json.loads(row["params"])
        except json.JSONDecodeError:
            params = None
        if not isinstance(params, dict):
            raise CorruptFileError(f"{where}: params is not a JSON object")
        bad = [key for key in SCENE_KEYS if not _is_number(params.get(key))]
        if bad or params["size"] <= 0:
            raise CorruptFileError(f"{where}: params {', '.join(bad) or 'size'} must be "
                                   "finite numbers, with size > 0")
        paths = [data_dir / split / Path(row[key]).name for key in ("image_path", "gt_path")]
        image, gt = [gridio.load_grid(path) for path in paths]
        for path, grid in zip(paths, (image, gt)):
            if grid.shape != (size, size):
                raise ConfigError(f"{path} has shape {grid.shape}, not size {size}")
        scenes.append(ToyScene(image=image, gt_mask=gt.astype(np.uint8), params=params))
    if not scenes:
        raise ConfigError(f"data_dir: {manifest} lists no {split} scenes")
    return scenes


# ---- model materialization ----


def semantic_anchor(cfg: RunConfig) -> ConditionEmbedding:
    rng = SeededRng(cfg.seed, STREAM_SEMANTIC)
    return ConditionEmbedding(rng.normal(cfg.embedding_dim))


def scene_embedding(scene: ToyScene, dim: int) -> ConditionEmbedding:
    """Compact geometry descriptor used to condition the trainable denoiser."""
    p = scene.params
    size = p["size"]
    base = np.array([
        1.0,
        p["cy"] / size, p["cx"] / size,
        p["radius"] / size,
        p["fg_value"], p["bg_value"],
    ])
    values = np.zeros(dim)
    values[: min(dim, base.size)] = base[:dim]
    return ConditionEmbedding(values)


def build_denoiser(cfg: RunConfig, schedule: NoiseSchedule, train_scenes: list[ToyScene],
                   log: RunLog) -> Denoiser:
    rng = SeededRng(cfg.seed, STREAM_DENOISER)
    if cfg.denoiser == "analytic":
        mu = np.mean([s.image for s in train_scenes], axis=0)
        return AnalyticGaussianDenoiser(
            schedule, (cfg.size, cfg.size), cfg.embedding_dim, mu=mu, rng=rng,
            data_std=cfg.data_std,
        )
    dataset = [(s.image, scene_embedding(s, cfg.embedding_dim)) for s in train_scenes]
    model = ConvDenoiser(
        schedule, channels=1, embedding_dim=cfg.embedding_dim,
        hidden=cfg.denoiser_hidden, rng=rng.derive(1),
    )
    model, stats = train_toy_denoiser(dataset, schedule, rng.derive(2), cfg.denoiser_train,
                                      model=model)
    losses = stats.epoch_losses
    if losses:
        log.write(f"denoiser trained: loss {losses[0]:.4f} -> {losses[-1]:.4f}")
    return model


def build_segmenter(cfg: RunConfig, train_scenes: list[ToyScene], log: RunLog) -> Segmenter:
    if cfg.segmenter == "threshold":
        return ThresholdSegmenter()
    rng = SeededRng(cfg.seed, STREAM_SEGMENTER)
    model, losses = train_toy_segmenter(train_scenes, rng, cfg.seg_train)
    log.write(f"segmenter trained: loss {losses[0]:.4f} -> {losses[-1]:.4f}")
    return model


def _relevance_fn(cfg: RunConfig, scene: ToyScene, denoiser: Denoiser,
                  semantic: ConditionEmbedding, segmenter: Segmenter | None,
                  base_prob: np.ndarray | None = None):
    """Relevance provider for attention/hybrid masks, per configuration:
    model-consistency (default) or the segmenter's foreground probability on
    the original image; None for raw denoiser saliency, which the engine
    supplies, and for masks that read no relevance. ``base_prob``, when
    given, is ``segmenter.segment(scene.image)``."""
    if not cfg.ttga.mask_policy.needs_relevance or cfg.relevance_provider == "saliency":
        return None
    if cfg.relevance_provider == "segmenter":
        if base_prob is None:
            base_prob = segmenter.segment(scene.image)
        relevance = base_prob[:, :, 1]
        return lambda x, t, pred: relevance
    return lambda x, t, pred: consistency_relevance(denoiser, x, t, semantic, pred)


def ttga_set(image_id: int, scene: ToyScene, cfg: RunConfig, denoiser: Denoiser,
             semantic: ConditionEmbedding, segmenter: Segmenter | None,
             base_prob: np.ndarray | None = None) -> AugmentationSet:
    """Image ``image_id``'s TTGA set, on its own stream with the configured
    relevance. ``base_prob``, when given, is ``segmenter.segment(scene.image)``."""
    rng = SeededRng(cfg.seed, STREAM_EVAL).derive(image_id).derive(SUBSTREAM_TTGA)
    return generate_set(denoiser, scene.image, semantic, cfg.ttga, rng,
                        relevance_fn=_relevance_fn(cfg, scene, denoiser, semantic, segmenter,
                                                   base_prob))


def augment_metadata(image_id: int, aset: AugmentationSet) -> list[dict]:
    return [{"image_id": image_id, "aug_index": j, "lambda_r": item.lambda_r,
             "mask_stream": item.mask_stream, "reconstruction_loss": aset.null_opt.final_loss}
            for j, item in enumerate(aset.per_item)]


def nulltext_summary(null_opts: list[OptimizedNull], null: ConditionEmbedding) -> str:
    """The run.log line on null-text: iterations, and images left at the raw null."""
    its = [o.iterations_used for o in null_opts]
    raw = sum(o.embedding.values.tobytes() == null.values.tobytes() for o in null_opts)
    return (f"null-text iterations min/median/max {min(its)}/{np.median(its):g}/{max(its)}; "
            f"optimized null equals the raw null on {raw} of {len(its)} images")


def flag_counts(rows: list[dict], methods: list[str]) -> list[str]:
    """The run.log lines on metric flags: one per method and flag raised, with
    its image count; ``per_image.csv``'s flags column names the images."""
    lines = []
    for method in methods:
        flags = [r["flags"] for r in rows if r["method"] == method]
        counts = Counter(f for joined in flags for f in joined.split(";") if f)
        lines += [f"{flag}: {hits} of {len(flags)} images, method {method} "
                  "(excluded from aggregates)" for flag, hits in sorted(counts.items())]
    return lines


def write_augment_metadata(path: Path, rows: list[dict]) -> None:
    write_csv(path, AUGMENT_HEADER, ([m["image_id"], m["aug_index"], fmt(m["lambda_r"]),
                                      m["mask_stream"], fmt(m["reconstruction_loss"])]
                                     for m in rows))


# ---- per-image evaluation ----


@dataclass
class ImageResult:
    image_id: int
    rows: list[dict]
    aug_metadata: list[dict] = field(default_factory=list)
    null_opt: OptimizedNull | None = None
    dumps: dict = field(default_factory=dict)


def _metric_block(mean_prob: np.ndarray, err_score: np.ndarray, gt: np.ndarray,
                  err_gt: np.ndarray) -> dict:
    fg = mean_prob[:, :, 1]
    pred, err_pred = binarize(fg), binarize(err_score)
    return {
        "dsc": dice(pred, gt),
        "auc": roc_auc(fg, gt),
        "hd95": hd95(pred, gt),
        "nsd": nsd(pred, gt),
        "err_dsc": dice(err_pred, err_gt),
        "err_auc": roc_auc(err_score, err_gt),
        "err_nsd": nsd(err_pred, err_gt),
    }


def evaluate_image(
    image_id: int,
    scene: ToyScene,
    cfg: RunConfig,
    denoiser: Denoiser,
    semantic: ConditionEmbedding,
    segmenter: Segmenter,
) -> ImageResult:
    gt = scene.gt_mask
    occluded = int(scene.params.get("occluder") is not None)
    base_prob = segmenter.segment(scene.image)
    err_gt = error_ground_truth(base_prob[:, :, 1], gt)
    result = ImageResult(image_id=image_id, rows=[])

    per_method: dict[str, EnsembleResult] = {}
    methods = cfg.method_list()

    if "baseline" in methods:
        per_method["baseline"] = ensemble(base_prob[None])

    if "tta" in methods:
        rng = SeededRng(cfg.seed, STREAM_EVAL).derive(image_id).derive(SUBSTREAM_TTA)
        per_method["tta"] = tta_baseline(segmenter, scene.image, cfg.tta_views, rng,
                                         cfg.tta_jitter, first_view=base_prob)

    if "ttga" in methods:
        aset = ttga_set(image_id, scene, cfg, denoiser, semantic, segmenter,
                        base_prob=base_prob)
        er = per_method["ttga"] = ensemble(segmenter.segment(aset.augmented))
        result.aug_metadata = augment_metadata(image_id, aset)
        result.null_opt = aset.null_opt
        if cfg.dump_images:
            result.dumps["augmented"] = aset.augmented
            result.dumps["ttga_entropy"] = er.entropy_map

    for method in methods:
        er = per_method[method]
        row = _metric_block(er.mean_probability, error_estimate_map(er), gt, err_gt)
        flags = [f"{key}_degenerate" for key in ("auc", "err_auc") if not np.isfinite(row[key])]
        row.update({"image_id": image_id, "method": method, "occluded": occluded,
                    "flags": ";".join(flags)})
        result.rows.append(row)
    return result


def _aggregate(rows: list[dict], methods: list[str]) -> list[list[str]]:
    out = []
    for method in methods:
        mrows = [r for r in rows if r["method"] == method]
        for task, keys in (("segmentation", SEG_METRICS), ("error_estimation", ERR_METRICS)):
            record = [method, task]
            n_used = 0
            for metric in ("dsc", "auc", "hd95", "nsd"):
                col = "err_" + metric if task == "error_estimation" else metric
                vals = np.array([r[col] for r in mrows if metric in keys], dtype=np.float64)
                vals = vals[np.isfinite(vals)]
                n_used = max(n_used, vals.size)
                record.extend(_mean_std(vals))
            record.append(str(n_used))
            out.append(record)
    return out


def run_evaluation(
    cfg: RunConfig,
    scenes: list[ToyScene],
    denoiser: Denoiser,
    semantic: ConditionEmbedding,
    segmenter: Segmenter,
    out_dir: Path,
    log: RunLog,
) -> list[dict]:
    """Evaluate all configured methods over the scenes, in image-id order;
    write per-image and aggregate CSVs."""
    eval_dir = out_dir / "eval"
    eval_dir.mkdir(parents=True, exist_ok=True)
    results = [evaluate_image(i, scene, cfg, denoiser, semantic, segmenter)
               for i, scene in enumerate(scenes)]

    rows = [row for res in results for row in res.rows]
    metrics = PER_IMAGE_HEADER[3:10]
    write_csv(eval_dir / "per_image.csv", PER_IMAGE_HEADER,
              ([fmt(row[key]) if key in metrics else row[key] for key in PER_IMAGE_HEADER]
               for row in rows))
    write_csv(eval_dir / "aggregate.csv", AGGREGATE_HEADER, _aggregate(rows, cfg.method_list()))

    metadata = [m for res in results for m in res.aug_metadata]
    if metadata:
        write_augment_metadata(eval_dir / "augment_metadata.csv", metadata)

    if cfg.dump_images:
        dump_dir = eval_dir / "dump"
        dump_dir.mkdir(exist_ok=True)
        for res in results:
            for j, aug in enumerate(res.dumps.get("augmented", ())):
                gridio.save_pgm(dump_dir / f"aug_{res.image_id:04d}_{j:02d}.pgm", aug)
            if "ttga_entropy" in res.dumps:
                gridio.save_pgm(dump_dir / f"entropy_{res.image_id:04d}.pgm",
                                res.dumps["ttga_entropy"])

    for line in flag_counts(rows, cfg.method_list()):
        log.write(line)
    log.write(f"evaluated {len(scenes)} images, methods={cfg.methods}")
    if "ttga" in cfg.method_list():
        log.write(nulltext_summary([res.null_opt for res in results], denoiser.null_embedding()))
    return rows


# ---- commands ----
# Each command takes the resolved config and the run log; the CLI creates the
# output directory and writes resolved-config.txt around it.


def cmd_make_data(cfg: RunConfig, log: RunLog) -> Path:
    data_dir = Path(cfg.out) / "data"
    data_dir.mkdir(parents=True, exist_ok=True)
    rows = write_dataset(build_train_set(cfg), data_dir, "train", cfg.dump_images)
    rows += write_dataset(build_test_set(cfg), data_dir, "test", cfg.dump_images)
    write_csv(data_dir / "manifest.csv", MANIFEST_HEADER, rows)
    log.write(f"wrote dataset: {cfg.n_train} train / {cfg.n_test} test")
    return data_dir


def _scenes(cfg: RunConfig, split: str) -> list[ToyScene]:
    if cfg.data_dir:
        return load_dataset(Path(cfg.data_dir), split, cfg.size)
    return build_train_set(cfg) if split == "train" else build_test_set(cfg)


def _models_dir(cfg: RunConfig) -> Path:
    models_dir = Path(cfg.out) / "models"
    models_dir.mkdir(parents=True, exist_ok=True)
    return models_dir


def cmd_train_denoiser(cfg: RunConfig, log: RunLog) -> Path:
    scenes = _scenes(cfg, "train")
    ckpt = _models_dir(cfg) / "denoiser.ckpt"
    save_checkpoint(ckpt, build_denoiser(cfg, cfg.schedule, scenes, log))
    gridio.save_grid(ckpt.with_name("semantic.f64"), semantic_anchor(cfg).values.reshape(1, -1))
    log.write(f"saved denoiser checkpoint: {ckpt}")
    return ckpt


def cmd_train_segmenter(cfg: RunConfig, log: RunLog) -> Path:
    scenes = _scenes(cfg, "train")
    ckpt = _models_dir(cfg) / "segmenter.ckpt"
    save_segmenter(ckpt, build_segmenter(cfg, scenes, log))
    log.write(f"saved segmenter checkpoint: {ckpt}")
    return ckpt


def _load_models(cfg: RunConfig, log: RunLog, augment: bool = False):
    """Load the model files the config names and check that they agree, then
    build the models the command reads that it names no file for (else None):
    ``evaluate`` reads the denoiser only for ``ttga``, and ``augment`` reads
    the segmenter only when its masks read the segmenter relevance."""
    denoiser = semantic = segmenter = None
    if cfg.denoiser_checkpoint:
        denoiser = load_checkpoint(cfg.denoiser_checkpoint, cfg.schedule)
    if cfg.semantic_embedding:
        semantic = ConditionEmbedding(gridio.load_grid(cfg.semantic_embedding).ravel())
    if cfg.segmenter_checkpoint:
        segmenter = load_segmenter(cfg.segmenter_checkpoint)
    dim = cfg.embedding_dim if denoiser is None else denoiser.embedding_dim
    if semantic is not None and semantic.dim != dim:
        raise ConfigError(f"{cfg.semantic_embedding} holds {semantic.dim} values, "
                          f"but the denoiser's embedding dim is {dim}")
    if semantic is None and dim != cfg.embedding_dim:
        raise ConfigError(f"{cfg.denoiser_checkpoint} has embedding dim {dim}, "
                          f"not embedding_dim {cfg.embedding_dim}")
    if isinstance(denoiser, AnalyticGaussianDenoiser) and denoiser.shape != (cfg.size,) * 2:
        raise ConfigError(f"{cfg.denoiser_checkpoint} has grid {denoiser.shape}, "
                          f"not size {cfg.size}")
    reads_denoiser = augment or "ttga" in cfg.method_list()
    reads_segmenter = not augment or (cfg.relevance_provider == "segmenter"
                                      and cfg.ttga.mask_policy.needs_relevance)
    make_denoiser = denoiser is None and reads_denoiser
    make_segmenter = segmenter is None and reads_segmenter
    needs_train = make_denoiser or (make_segmenter and cfg.segmenter == "trained")
    train_scenes = _scenes(cfg, "train") if needs_train else []
    if make_denoiser:
        denoiser = build_denoiser(cfg, cfg.schedule, train_scenes, log)
    if make_segmenter:
        segmenter = build_segmenter(cfg, train_scenes, log)
    return denoiser, semantic if semantic is not None else semantic_anchor(cfg), segmenter


def cmd_augment(cfg: RunConfig, log: RunLog, count: int = 4) -> Path:
    """Augment the first ``count`` test scenes; with ``nulltext_trace``, also
    write each scene's null-text loss per iteration."""
    if count < 1:
        raise ConfigError(f"count must be at least 1, got {count} (flag: --count)")
    scenes = _scenes(cfg, "test")[:count]
    models = _load_models(cfg, log, augment=True)
    aug_dir = Path(cfg.out) / "augment"
    aug_dir.mkdir(exist_ok=True)
    metadata, null_opts = [], []
    for i, scene in enumerate(scenes):
        aset = ttga_set(i, scene, cfg, *models)
        null_opts.append(aset.null_opt)
        if cfg.nulltext_trace:
            write_csv(aug_dir / f"nulltext_trace_{i:04d}.csv", ["iteration", "loss"],
                      ([it, f"{loss:.12e}"] for it, loss in enumerate(aset.null_opt.trace)))
        gridio.save_grid(aug_dir / f"original_{i:04d}.f64", scene.image)
        for j, aug in enumerate(aset.augmented):
            gridio.save_grid(aug_dir / f"aug_{i:04d}_{j:02d}.f64", aug)
            if cfg.dump_images:
                gridio.save_pgm(aug_dir / f"aug_{i:04d}_{j:02d}.pgm", aug)
        metadata += augment_metadata(i, aset)
    write_augment_metadata(aug_dir / "metadata.csv", metadata)
    log.write(f"augmented {len(scenes)} images x {cfg.n_augment}")
    log.write(nulltext_summary(null_opts, models[0].null_embedding()))
    return aug_dir


def cmd_evaluate(cfg: RunConfig, log: RunLog) -> Path:
    scenes = _scenes(cfg, "test")
    run_evaluation(cfg, scenes, *_load_models(cfg, log), Path(cfg.out), log)
    return Path(cfg.out) / "eval" / "aggregate.csv"


def cmd_full_pipeline(cfg: RunConfig, log: RunLog) -> Path:
    """make-data, train-denoiser, train-segmenter and evaluate in turn, each
    step reading the files that the steps before it wrote."""
    cfg = replace(cfg, data_dir=str(cmd_make_data(cfg, log)))
    denoiser_ckpt = cmd_train_denoiser(cfg, log)
    segmenter_ckpt = cmd_train_segmenter(cfg, log)
    cfg = replace(cfg, denoiser_checkpoint=str(denoiser_ckpt),
                  segmenter_checkpoint=str(segmenter_ckpt),
                  semantic_embedding=str(denoiser_ckpt.with_name("semantic.f64")))
    aggregate = cmd_evaluate(cfg, log)
    log.write("full pipeline complete")
    return aggregate


# ---- cross-run report ----


def _read_aggregate(run_dir: Path) -> list[list[str]]:
    """The rows of a run's aggregate table. A table without the aggregate
    header, with a row of the wrong length or with a value cell that is not
    a number raises SchemaMismatch naming the file."""
    path = run_dir / "eval" / "aggregate.csv"
    try:
        with open(path, newline="", encoding="utf-8") as f:
            table = list(csv.reader(f))
    except UnicodeDecodeError as exc:
        raise SchemaMismatch(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    if not table or table[0] != AGGREGATE_HEADER:
        raise SchemaMismatch(f"{path}: header {table[0] if table else []} != {AGGREGATE_HEADER}")
    for lineno, row in enumerate(table[1:], 2):
        if len(row) != len(AGGREGATE_HEADER):
            raise SchemaMismatch(
                f"{path}: line {lineno} has {len(row)} cells, expected {len(AGGREGATE_HEADER)}")
        for cell in filter(None, row[2:]):
            try:
                float(cell)
            except ValueError:
                raise SchemaMismatch(f"{path}: line {lineno}: {cell!r} is not a number") from None
    return table[1:]


def compare_report(run_dirs: list[str], out_path: str, plot: bool = False) -> Path:
    """Merge aggregate tables keyed by (method, task, metric); one value
    column per run plus mean and sample stddev across runs. Every run must
    hold the same (method, task) rows."""
    if not run_dirs:
        raise ConfigError("compare_report needs at least one run directory")
    out_path = Path(out_path)
    if out_path.is_dir():
        raise ConfigError(f"--out {out_path} is a directory, not a CSV file path")
    labels, tables = [], []
    for d in run_dirs:
        run_dir = Path(d)
        rows = _read_aggregate(run_dir)
        labels.append(run_dir.name)
        tables.append({(r[0], r[1]): r for r in rows})
        if tables[-1].keys() != tables[0].keys():
            raise SchemaMismatch(
                f"{run_dir}: (method, task) rows {sorted(tables[-1])} differ from "
                f"{run_dirs[0]}'s {sorted(tables[0])}")

    metric_cols = [(2, "dsc"), (4, "auc"), (6, "hd95"), (8, "nsd")]
    merged_rows = []
    for key in tables[0]:
        for col, metric in metric_cols:
            values = [table[key][col] for table in tables]
            if all(v == "" for v in values):
                continue
            floats = [float(v) for v in values if v != ""]
            merged_rows.append([key[0], key[1], metric, *values, *_mean_std(floats)])

    try:
        out_path.parent.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise ConfigError(f"--out {out_path} lies under a file") from None
    write_csv(out_path, ["method", "task", "metric", *labels, "mean", "std"], merged_rows)

    if plot:
        _write_plots(out_path.parent, labels, merged_rows)
    return out_path


def _write_plots(out_dir: Path, labels: list[str], merged_rows: list[list[str]]) -> None:
    """Flat SVG polyline charts, one file per (task, metric)."""
    groups: dict[tuple[str, str], dict[str, list[float]]] = {}
    for row in merged_rows:
        method, task, metric = row[0], row[1], row[2]
        values = [float(v) if v != "" else float("nan") for v in row[3:3 + len(labels)]]
        groups.setdefault((task, metric), {})[method] = values

    colors = {"baseline": "#888888", "tta": "#1f77b4", "ttga": "#d62728"}
    width, height, margin = 480, 300, 50
    for (task, metric), series in sorted(groups.items()):
        all_vals = [v for vs in series.values() for v in vs if np.isfinite(v)]
        if not all_vals:
            continue
        lo, hi = min(all_vals), max(all_vals)
        span = (hi - lo) or 1.0
        lo -= 0.05 * span
        hi += 0.05 * span
        n = len(labels)
        def sx(i):
            return margin + (width - 2 * margin) * (i / max(n - 1, 1))
        def sy(v):
            return height - margin - (height - 2 * margin) * ((v - lo) / (hi - lo))
        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
            f'<text x="{width/2}" y="20" text-anchor="middle" font-size="13">'
            f"{task} / {metric}</text>",
            f'<line x1="{margin}" y1="{height-margin}" x2="{width-margin}" '
            f'y2="{height-margin}" stroke="black"/>',
            f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height-margin}" '
            f'stroke="black"/>',
            f'<text x="{margin-8}" y="{sy(hi-0.05*span)+4}" text-anchor="end" '
            f'font-size="10">{hi - 0.05 * span:.1f}</text>',
            f'<text x="{margin-8}" y="{sy(lo+0.05*span)+4}" text-anchor="end" '
            f'font-size="10">{lo + 0.05 * span:.1f}</text>',
        ]
        for i, label in enumerate(labels):
            parts.append(
                f'<text x="{sx(i)}" y="{height-margin+16}" text-anchor="middle" '
                f'font-size="10">{label}</text>'
            )
        for mi, (method, values) in enumerate(sorted(series.items())):
            color = colors.get(method, "#2ca02c")
            points = " ".join(
                f"{sx(i):.1f},{sy(v):.1f}" for i, v in enumerate(values) if np.isfinite(v)
            )
            parts.append(
                f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                f'points="{points}"/>'
            )
            parts.append(
                f'<text x="{width-margin+4}" y="{margin + 14 * mi}" font-size="10" '
                f'fill="{color}">{method}</text>'
            )
        parts.append("</svg>")
        (out_dir / f"plot_{task}_{metric}.svg").write_text("\n".join(parts), encoding="utf-8")
