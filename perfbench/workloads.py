"""The benchmark's workloads: inputs made from the seed, set-up, rounds and
checks, all through the public functions of the ttga modules.

Every workload is a closed loop with one client: one image, one training run
or one evaluation pass at a time, ``workers = 1``. A run sets up several
times (``setup_s`` is their median), then repeats whole rounds of the same
operations for about the measuring time. Operation times are scaled to a
reference speed of the host (see ``HostReference``).

* eval-analytic -- the default TTGA configuration on the analytic Gaussian
  denoiser; a round times every method on every test image through
  ``pipeline.evaluate_image``, then runs one ``pipeline.run_evaluation`` pass.
* eval-conv -- the same rounds on a small trained ``ConvDenoiser`` with masks
  redrawn at every step.
* train -- a round trains the toy segmenter and the toy conv denoiser from
  scratch, round-trips both checkpoints and evaluates the reloaded models on
  held-out scenes, at a small TTGA size.
"""

from __future__ import annotations

import math
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import numpy as np
from scipy import ndimage

from ttga import denoiser as D
from ttga import evalbench as E
from ttga import pipeline as P
from ttga.rng import SeededRng
from ttga.runconfig import RunConfig
from ttga.schedule import build_schedule

import oracles
from tracing import Tracer

METHODS = ("baseline", "tta", "ttga")
SETUP_REPEATS = 3

# scene looks, as (blur sigma, noise std); test scenes are harder than training
TRAIN_LOOK = (0.3, 0.02)
TEST_LOOK = (0.6, 0.04)
OCCLUDER_MIX = 0.87     # occluder intensity, from background (0) to disk (1)

SEGMENTER = dict(seg_hidden=12, seg_epochs=8, seg_lr=1e-2)
SEG_BATCH = 8
SMALL_CONV = dict(denoiser="trainable", embedding_dim=16, denoiser_hidden=16,
                  denoiser_epochs=2, nulltext_max_steps=25)


@dataclass(frozen=True)
class Spec:
    name: str
    config: dict                    # RunConfig fields
    n_seg_train: int = 48
    n_den_train: int = 32
    n_test: int = 4


SPECS = {
    spec.name: spec for spec in (
        Spec("eval-analytic", dict(SEGMENTER), n_test=6),
        Spec("eval-conv", dict(SEGMENTER, **SMALL_CONV, tau=20, n_augment=2,
                               resample_masks_per_step=True)),
        Spec("train", dict(SEGMENTER, **SMALL_CONV, tau=20, n_augment=2)),
    )
}


# ---- inputs ----


def render_scene(rng: np.random.Generator, size: int, occluded: bool,
                 look: tuple[float, float]) -> E.ToyScene:
    """A bright disk on a dark background, optionally crossed by a bar through
    a point of its rim, then blurred and noised."""
    cy, cx = size / 2 + rng.uniform(-size / 8, size / 8, 2)
    radius = size * rng.uniform(0.18, 0.30)
    bg, fg = rng.uniform(0.15, 0.25), rng.uniform(0.70, 0.85)
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    gt = (yy - cy) ** 2 + (xx - cx) ** 2 <= radius ** 2
    image = np.where(gt, fg, bg)
    occluder = None
    if occluded:
        rim, angle, width = rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi), rng.uniform(2.0, 3.5)
        py, px = cy + radius * np.sin(rim), cx + radius * np.cos(rim)
        dist = np.abs((yy - py) * np.cos(angle) - (xx - px) * np.sin(angle))
        image[dist <= width / 2] = bg + OCCLUDER_MIX * (fg - bg)
        occluder = {"py": float(py), "px": float(px), "angle": float(angle), "width": float(width)}
    blur, noise = look
    image = ndimage.gaussian_filter(image, blur) + noise * rng.standard_normal(image.shape)
    params = {"size": size, "cy": float(cy), "cx": float(cx), "radius": float(radius),
              "fg_value": float(fg), "bg_value": float(bg), "occluder": occluder}
    return E.ToyScene(image=np.clip(image, 0.0, 1.0), gt_mask=gt.astype(np.uint8), params=params)


def make_scenes(seed: int, purpose: int, n: int, size: int, look, occlude_even: bool):
    rng = np.random.default_rng([seed, purpose])
    return [render_scene(rng, size, occlude_even and i % 2 == 0, look) for i in range(n)]


@dataclass
class Models:
    denoiser: object
    semantic: object
    segmenter: object


def segmenter_config(cfg: RunConfig) -> E.SegTrainConfig:
    return E.SegTrainConfig(epochs=cfg.seg_epochs, batch_size=SEG_BATCH, lr=cfg.seg_lr,
                            hidden=cfg.seg_hidden)


# The host's speed drifts by 20-40% over minutes, because other tenants share
# its cores. Just before every operation the runner times a fixed computation
# made of the same kinds of work as the program, and scales the operation's
# time by REFERENCE_S over the computation's time.
REFERENCE_S = 0.003


class HostReference:
    """A small im2col convolution and elementwise numpy driven from a Python
    loop, into buffers allocated once, so that its time does not depend on
    what the allocator did before it."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((4, 34, 34, 8))
        self.w = rng.standard_normal((72, 8))
        self.v = rng.standard_normal((32, 32))
        self.cols = np.empty((4, 32, 32, 9, 8))
        self.out = np.empty((4 * 32 * 32, 8))

    def __call__(self) -> float:
        total = 0.0
        for _ in range(2):
            for i in range(3):
                for j in range(3):
                    self.cols[:, :, :, 3 * i + j, :] = self.x[:, i:i + 32, j:j + 32, :]
            np.matmul(self.cols.reshape(-1, 72), self.w, out=self.out)
            np.tanh(self.out, out=self.out)
            total += float(self.out.sum())
            for k in range(40):
                total += float((self.v * k + 1.0).mean())
        return total


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---- one evaluation over fixed models ----


class Evaluation:
    """Per-image timings and ``run_evaluation`` passes over one scene list."""

    def __init__(self, cfg: RunConfig, scenes, models: Models, out_dir: Path, runner):
        self.cfg = cfg
        self.scenes = scenes
        self.models = models
        self.out_dir = out_dir
        self.run = runner
        self.method_cfg = {m: replace(cfg, methods=m) for m in METHODS}
        self.seconds = {m: [] for m in METHODS}
        self.images_per_s: list[float] = []
        self.first_results: dict = {}
        self.passes: list[dict[str, bytes]] = []

    def per_image(self) -> None:
        m = self.models
        for i, scene in enumerate(self.scenes):
            for method in METHODS:
                res = self.run(P.evaluate_image, i, scene, self.method_cfg[method],
                               m.denoiser, m.semantic, m.segmenter)
                if res is not None:
                    self.seconds[method].append(self.run.seconds)
                    self.first_results.setdefault((i, method), res)

    def csv_pass(self) -> None:
        m = self.models
        out = self.out_dir / f"pass{len(self.passes)}"
        rows = self.run(P.run_evaluation, self.cfg, self.scenes, m.denoiser, m.semantic,
                        m.segmenter, out, P.RunLog(None))
        if rows is None:
            return
        self.images_per_s.append(len(self.scenes) / self.run.seconds)
        self.passes.append({p.name: p.read_bytes() for p in sorted((out / "eval").glob("*.csv"))})
        shutil.rmtree(out)

    def ttga_means(self) -> tuple[float, float]:
        rows = [r for r in oracles.read_csv(self.passes[0]["per_image.csv"])
                if r["method"] == "ttga"]
        auc = [float(r["err_auc"]) for r in rows if r["err_auc"] != ""]
        return (statistics.fmean(float(r["dsc"]) for r in rows),
                statistics.fmean(auc) if auc else math.nan)

    def metrics(self) -> dict:
        dsc, err_auc = self.ttga_means()
        return {
            "ttga_s_per_image": (statistics.median(self.seconds["ttga"]), "s"),
            "tta_s_per_image": (statistics.median(self.seconds["tta"]), "s"),
            "baseline_s_per_image": (statistics.median(self.seconds["baseline"]), "s"),
            "images_per_s": (statistics.median(self.images_per_s), "1/s"),
            "ttga_dsc": (dsc, "0-100"),
            "ttga_err_auc": (err_auc, "0-100"),
        }

    def check(self) -> list[str]:
        if not self.passes or len(self.first_results) != len(self.scenes) * len(METHODS):
            return ["evaluation produced no complete output to check"]
        problems = [f"pass {k}: CSV bytes differ from pass 0"
                    for k, files in enumerate(self.passes) if files != self.passes[0]]
        cfg, m = self.cfg, self.models
        files = self.passes[0]
        rows = oracles.read_csv(files["per_image.csv"])
        diagonal = math.hypot(cfg.size, cfg.size)
        problems += oracles.check_metric_cells(rows, diagonal)
        problems += oracles.check_augment_rows(
            oracles.read_csv(files["augment_metadata.csv"]), list(range(len(self.scenes))),
            cfg.n_augment, cfg.lambda_r_low, cfg.lambda_r_high)
        for i, scene in enumerate(self.scenes):
            expected = oracles.baseline_scores(m.segmenter.segment(scene.image), scene.gt_mask)
            [row] = [r for r in rows if r["method"] == "baseline" and int(r["image_id"]) == i]
            problems += oracles.compare_to_csv(expected, row, f"image {i} baseline")
        if isinstance(m.denoiser, D.AnalyticGaussianDenoiser):
            problems += self._check_nulltext()
        return problems

    def _check_nulltext(self) -> list[str]:
        cfg, m = self.cfg, self.models
        problems = []
        for i, scene in enumerate(self.scenes):
            low, high = oracles.nulltext_loss_bounds(
                m.denoiser, scene.image, m.semantic.values, cfg.tau,
                cfg.inversion_interval, cfg.omega)
            for item in self.first_results[(i, "ttga")].aug_metadata:
                loss = item["reconstruction_loss"]
                if not low - 1e-12 <= loss <= high + 1e-12:
                    problems.append(f"image {i}: null-text loss {loss:.6e} outside "
                                    f"[{low:.6e}, {high:.6e}]")
        return problems


# ---- workloads ----


class Runner:
    """Calls one operation, counting it as attempted and, if it raises, as
    failed. Just before each operation, and outside its time, it samples the
    host's speed; ``seconds`` is the last operation's duration scaled to the
    reference speed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.seconds = 0.0
        self.scale = 1.0
        self.reference_s: list[float] = []
        self._reference = HostReference()

    def sample(self) -> float:
        """Time the reference three times; set and return the scale factor
        REFERENCE_S / (median of the three)."""
        times = []
        for _ in range(3):
            t0 = perf_counter()
            self._reference()
            times.append(perf_counter() - t0)
        self.reference_s.append(statistics.median(times))
        self.scale = REFERENCE_S / self.reference_s[-1]
        return self.scale

    def __call__(self, fn, *args, **kwargs):
        self.sample()
        self.attempted += 1
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return None
        finally:
            self.seconds = (perf_counter() - t0) * self.scale


class Workload:
    """Set-up and round timings shared by the workloads; subclasses fill them."""

    def __init__(self, spec: Spec, seed: int, out_dir: Path, runner: Runner):
        self.cfg = RunConfig(seed=seed, methods=",".join(METHODS), **spec.config)
        self.spec = spec
        self.seed = seed
        self.out_dir = out_dir
        self.run = runner
        self.setup_s: list[float] = []
        self.seg_rates: list[float] = []
        self.den_rates: list[float] = []
        self.seg_losses: list[list[float]] = []
        self.evaluation: Evaluation | None = None

    def scenes(self, purpose: int, n: int, look, occlude_even: bool = False):
        return make_scenes(self.seed, purpose, n, self.cfg.size, look, occlude_even)

    def train_segmenter(self):
        """Train the toy segmenter as the pipeline does; None if it raised."""
        cfg = self.cfg
        trained = self.run(E.train_toy_segmenter, self.seg_scenes,
                           SeededRng(cfg.seed, P.STREAM_SEGMENTER), segmenter_config(cfg))
        if trained is not None:
            self.seg_rates.append(len(self.seg_scenes) * cfg.seg_epochs / self.run.seconds)
            self.seg_losses.append(trained[1])
        return trained

    def ttga_seconds(self) -> list[float]:
        return self.evaluation.seconds["ttga"]

    def metrics(self) -> dict:
        out = {"setup_s": (statistics.median(self.setup_s), "s")}
        out.update(self.evaluation.metrics())
        out.update({
            "seg_train_examples_per_s": (statistics.median(self.seg_rates), "1/s"),
            "denoiser_train_examples_per_s": (statistics.median(self.den_rates), "1/s"),
        })
        return out

    def check(self) -> list[str]:
        problems = self.evaluation.check()
        if not self.seg_losses or any(x != self.seg_losses[0] for x in self.seg_losses):
            problems.append("identical segmenter trainings gave different losses")
        return problems


class EvalWorkload(Workload):
    """Set-up trains the segmenter and builds the denoiser; a round evaluates."""

    def __init__(self, spec: Spec, seed: int, out_dir: Path, runner: Runner):
        super().__init__(spec, seed, out_dir, runner)
        self.seg_scenes = self.scenes(1, spec.n_seg_train, TRAIN_LOOK)
        self.den_scenes = self.scenes(2, spec.n_den_train, TRAIN_LOOK)
        self.test_scenes = self.scenes(3, spec.n_test, TEST_LOOK, occlude_even=True)

    def setup(self) -> None:
        cfg = self.cfg
        segmenter, _ = self.train_segmenter()
        t0 = perf_counter()
        schedule = build_schedule(cfg.total_steps, cfg.beta_start, cfg.beta_end)
        t1 = perf_counter()
        denoiser = P.build_denoiser(cfg, schedule, self.den_scenes, P.RunLog(None))
        t2 = perf_counter()
        models = Models(denoiser, P.semantic_anchor(cfg), segmenter)
        scale = self.run.scale      # sampled before the segmenter training
        self.setup_s.append(self.run.seconds + (perf_counter() - t0) * scale)
        den_epochs = cfg.denoiser_epochs if cfg.denoiser == "trainable" else 1
        self.den_rates.append(len(self.den_scenes) * den_epochs / ((t2 - t1) * scale))
        self.evaluation = Evaluation(cfg, self.test_scenes, models, self.out_dir, self.run)

    def round(self) -> None:
        self.evaluation.per_image()
        self.evaluation.csv_pass()


class TrainWorkload(Workload):
    """A round sets up the data again, trains both models from scratch,
    round-trips their checkpoints and evaluates the reloaded models on
    held-out scenes. Set-up is cheap here, so repeating it in every round
    spreads its samples over the run."""

    def __init__(self, spec: Spec, seed: int, out_dir: Path, runner: Runner):
        super().__init__(spec, seed, out_dir, runner)
        held_out = self.scenes(3, spec.n_test, TEST_LOOK, occlude_even=True)
        self.evaluation = Evaluation(self.cfg, held_out, None, out_dir, runner)
        self.rounds: list[dict] = []

    def setup(self) -> None:
        cfg, spec = self.cfg, self.spec
        scale = self.run.sample()
        t0 = perf_counter()
        self.schedule = build_schedule(cfg.total_steps, cfg.beta_start, cfg.beta_end)
        self.seg_scenes = self.scenes(1, spec.n_seg_train, TRAIN_LOOK)
        self.dataset = [(s.image, P.scene_embedding(s, cfg.embedding_dim))
                        for s in self.scenes(2, spec.n_den_train, TRAIN_LOOK)]
        self.setup_s.append((perf_counter() - t0) * scale)

    def round(self) -> None:
        cfg = self.cfg
        self.setup()
        trained = self.train_segmenter()
        if trained is None:
            return
        segmenter, seg_losses = trained

        den_cfg = D.DenoiserTrainConfig(epochs=cfg.denoiser_epochs, batch_size=cfg.denoiser_batch,
                                        drop_p=cfg.drop_p, lr=cfg.denoiser_lr)
        rng = SeededRng(cfg.seed, P.STREAM_DENOISER)
        model = D.ConvDenoiser(self.schedule, channels=1, embedding_dim=cfg.embedding_dim,
                               hidden=cfg.denoiser_hidden, rng=rng.derive(1))
        trained = self.run(D.train_toy_denoiser, self.dataset, self.schedule, rng.derive(2),
                           den_cfg, model=model)
        if trained is None:
            return
        self.den_rates.append(len(self.dataset) * cfg.denoiser_epochs / self.run.seconds)
        denoiser, stats = trained

        index = len(self.rounds)
        seg_back = self.run(self._round_trip, E.save_segmenter, E.load_segmenter, segmenter,
                            self.out_dir / f"segmenter-{index}.ckpt")
        den_back = self.run(self._round_trip, D.save_checkpoint,
                            lambda p: D.load_checkpoint(p, self.schedule), denoiser,
                            self.out_dir / f"denoiser-{index}.ckpt")
        self.rounds.append(dict(segmenter=segmenter, denoiser=denoiser, seg_back=seg_back,
                                den_back=den_back, den_losses=stats.epoch_losses))
        if seg_back is None or den_back is None:
            return
        self.evaluation.models = Models(den_back, P.semantic_anchor(cfg), seg_back)
        self.evaluation.per_image()
        self.evaluation.csv_pass()

    @staticmethod
    def _round_trip(save, load, model, path):
        save(path, model)
        back = load(path)
        path.unlink()
        return back

    def check(self) -> list[str]:
        if not self.rounds or any(r["seg_back"] is None or r["den_back"] is None
                                  for r in self.rounds):
            return ["training produced no complete output to check"]
        first = self.rounds[0]
        problems = []
        for name, losses in (("segmenter", self.seg_losses[0]), ("denoiser", first["den_losses"])):
            if not losses[-1] < losses[0]:
                problems.append(f"{name}: last epoch loss {losses[-1]:.6f} "
                                f"not below first {losses[0]:.6f}")
        for name in ("segmenter", "denoiser"):
            params = [r[name].flat_parameters() for r in self.rounds]
            if not np.all(np.isfinite(params[0])):
                problems.append(f"{name}: non-finite parameters")
            if any(not np.array_equal(p, params[0]) for p in params):
                problems.append(f"{name}: rounds trained to different parameters")
        scene = self.evaluation.scenes[0]
        if not np.array_equal(first["segmenter"].segment(scene.image),
                              first["seg_back"].segment(scene.image)):
            problems.append("segmenter checkpoint does not reproduce its outputs")
        e = P.scene_embedding(scene, self.cfg.embedding_dim)
        for t in (1, self.cfg.tau, self.cfg.total_steps):
            if not np.array_equal(first["denoiser"].predict(scene.image, t, e),
                                  first["den_back"].predict(scene.image, t, e)):
                problems.append(f"denoiser checkpoint does not reproduce predict at t={t}")
        return problems + super().check()


def make_workload(name: str, seed: int, out_dir: Path, runner: Runner) -> Workload:
    cls = TrainWorkload if name == "train" else EvalWorkload
    return cls(SPECS[name], seed, out_dir, runner)


def measure(name: str, seed: int, seconds: float, out_dir: Path) -> dict:
    """Untraced run: end-to-end metrics and the correctness checks. Whole
    rounds run for about ``seconds``, and at least two, so that the second
    can be checked against the first."""
    runner = Runner()
    work = make_workload(name, seed, out_dir, runner)
    for _ in range(SETUP_REPEATS):
        work.setup()
    start = perf_counter()
    durations: list[float] = []
    # start a round only while it would end less than half a round past the
    # deadline, so that runs measure ``seconds`` on average
    while len(durations) < 2 or perf_counter() - start + durations[-1] / 2 < seconds:
        t0 = perf_counter()
        work.round()
        durations.append(perf_counter() - t0)
    problems = work.check()
    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)
    metrics = work.metrics()
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    return dict(correct=not problems, attempted=runner.attempted, failed=runner.failed,
                metrics=metrics)


def trace(name: str, seed: int, out_dir: Path, spans_path: Path) -> dict:
    """Traced run: one set-up and one round under the tracer, after one
    untraced round that is the reference for the tracing overhead. The
    checks run too, so the traced round's outputs must equal the untraced."""
    runner = Runner()
    work = make_workload(name, seed, out_dir, runner)
    tracer = Tracer()
    tracer.install()
    try:
        work.setup()
        tracer.uninstall()
        work.round()
        mark = len(work.ttga_seconds())
        tracer.install()
        work.round()
    finally:
        tracer.uninstall()
    tracer.write_spans(spans_path)
    untraced = statistics.median(work.ttga_seconds()[:mark])
    traced = statistics.median(work.ttga_seconds()[mark:])
    problems = work.check()
    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)
    metrics = tracer.per_layer()
    metrics.update({
        "trace.ttga_s_per_image_untraced": (untraced, "s"),
        "trace.ttga_s_per_image_traced": (traced, "s"),
        "trace.overhead_s_per_image": (traced - untraced, "s"),
        "host.reference_s": (statistics.median(runner.reference_s), "s"),
    })
    return dict(correct=not problems, attempted=runner.attempted, failed=runner.failed,
                metrics=metrics)
