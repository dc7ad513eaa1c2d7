"""Spans and counts around calls into the ttga modules, for the traced run.

The program is not changed: ``Tracer.install`` replaces public functions and
methods by wrappers in the module or class where the caller looks them up
(``from .x import y`` binds ``y`` in the importing module, so ``conv2d`` is
wrapped in both ``denoiser`` and ``evalbench``), and ``uninstall`` puts the
originals back. Each span records its name, start, end and parent; spans stay
in memory until ``write_spans``. Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import csv
import functools
import statistics
from collections import Counter
from time import perf_counter

import numpy as np

from ttga import autodiff, denoiser, engine, evalbench, nulltext, pipeline


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self._originals: list[tuple] = []
        self.tallies: Counter = Counter()
        self.spade_fractions: list[float] = []
        self.embeddings: set[int] = set()
        self.seg_final_loss = 0.0

    # ---- recording ----

    def _wrap(self, fn, name, observe=None):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name(args, kwargs) if callable(name) else name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def _predict_seen(self, args, kwargs, result):
        self.embeddings.add(hash(args[3].values.tobytes()))

    def _conv_seen(self, args, kwargs, result):
        b, h, w, _ = args[0].shape
        k_in, c_out = args[1].shape
        self.tallies["conv2d_flops"] += 2 * b * h * w * k_in * c_out
        self.tallies["im2col_bytes"] += 8 * b * h * w * k_in

    def _mask_seen(self, args, kwargs, result):
        self.spade_fractions.append(float(np.mean(result.spade)))

    def _nulltext_seen(self, args, kwargs, result):
        self.tallies["nulltext_iterations"] += result.iterations_used

    def _seg_train_seen(self, args, kwargs, result):
        self.tallies["segmenter_epochs"] += args[2].epochs
        self.seg_final_loss = result[1][-1]

    def _den_train_seen(self, args, kwargs, result):
        self.tallies["denoiser_epochs"] += args[3].epochs

    def _den_fit_seen(self, args, kwargs, result):
        cfg = args[0]
        self.tallies["denoiser_epochs"] += cfg.denoiser_epochs if cfg.denoiser == "trainable" else 1

    def _targets(self):
        """(owner, attribute, span name, observer) for every wrapped name; a
        span name may be a function of the call's arguments. Every call in
        the program passes these arguments by position."""
        def predict(args, kwargs):
            return f"denoiser.predict.{args[3].role}"

        out = [
            (pipeline, "run_evaluation", "pipeline.run_evaluation", None),
            (pipeline, "evaluate_image", "pipeline.evaluate_image", None),
            (pipeline, "generate_set", "engine.generate_set", None),
            (pipeline, "ensemble", "engine.ensemble", None),
            (pipeline, "tta_baseline", "evalbench.tta_baseline", None),
            (pipeline, "consistency_relevance", "masks.relevance", None),
            (pipeline, "build_denoiser", "denoiser.train", self._den_fit_seen),
            (engine, "generate_one", "engine.generate_one", None),
            (engine, "ddim_invert", "sampler.ddim_invert", None),
            (engine, "optimize_null_text", "nulltext.optimize", self._nulltext_seen),
            (engine, "make_mask", "masks.make_mask", self._mask_seen),
            (engine, "cfg_single", "guidance.cfg", None),
            (engine, "cfg_multi", "guidance.cfg", None),
            (nulltext, "cfg_single", "guidance.cfg", None),
            (nulltext, "adam_step", "optim.adam_step", None),
            (denoiser, "conv2d", "autodiff.conv2d", self._conv_seen),
            (denoiser, "adam_step", "optim.adam_step", None),
            (denoiser, "train_toy_denoiser", "denoiser.train", self._den_train_seen),
            (evalbench, "conv2d", "autodiff.conv2d", self._conv_seen),
            (evalbench, "adam_step", "optim.adam_step", None),
            (evalbench, "ensemble", "engine.ensemble", None),
            (evalbench, "train_toy_segmenter", "evalbench.train_segmenter", self._seg_train_seen),
            (autodiff.Tensor, "backward", "autodiff.backward", None),
            (evalbench.ConvSegmenter, "segment", "evalbench.segment", None),
        ]
        for cls in (denoiser.AnalyticGaussianDenoiser, denoiser.ConvDenoiser):
            out += [
                (cls, "predict", predict, self._predict_seen),
                (cls, "grad_wrt_embedding", "denoiser.grad_embedding", None),
                (cls, "grad_wrt_input", "denoiser.grad_input", None),
            ]
        out += [(pipeline, fn, "metrics.score", None) for fn in ("dice", "roc_auc", "hd95", "nsd")]
        return out

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, observe in self._targets():
            original = getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, observe))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    # ---- results ----

    def _totals(self):
        """Per span name: (count, total duration, total self time)."""
        starts, ends = np.array(self.starts), np.array(self.ends)
        parents = np.array(self.parents, dtype=np.int64)
        dur = ends - starts
        child = np.zeros_like(dur)
        nested = parents >= 0
        np.add.at(child, parents[nested], dur[nested])
        self_time = dur - child
        totals: dict[str, list] = {}
        for name, d, s in zip(self.names, dur, self_time):
            entry = totals.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += d
            entry[2] += s
        return totals

    def per_layer(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric: (value, unit). Times and counts are totals
        over the traced part of the run."""
        totals = self._totals()

        def calls(name):
            return totals.get(name, (0, 0.0, 0.0))[0]

        def secs(name):
            return totals.get(name, (0, 0.0, 0.0))[1]

        def self_secs(name):
            return totals.get(name, (0, 0.0, 0.0))[2]

        def per(total, count):
            return total / count if count else 0.0

        roles = ("null", "semantic", "optimized_null")
        predicts = sum(calls(f"denoiser.predict.{r}") for r in roles)
        out = {
            "pipeline.evaluate_image_s": (secs("pipeline.evaluate_image"), "s"),
            "pipeline.run_evaluation_overhead_s": (self_secs("pipeline.run_evaluation"), "s"),
            "sampler.ddim_invert_calls": (calls("sampler.ddim_invert"), "count"),
            "sampler.ddim_invert_s": (secs("sampler.ddim_invert"), "s"),
            "nulltext.optimize_s": (secs("nulltext.optimize"), "s"),
            "nulltext.iterations": (self.tallies["nulltext_iterations"], "count"),
            "engine.generate_one_calls": (calls("engine.generate_one"), "count"),
            "engine.generate_one_self_s": (self_secs("engine.generate_one"), "s"),
            "engine.ensemble_s": (secs("engine.ensemble"), "s"),
        }
        for r in roles:
            out[f"denoiser.predict_calls.{r}"] = (calls(f"denoiser.predict.{r}"), "count")
            out[f"denoiser.predict_s.{r}"] = (secs(f"denoiser.predict.{r}"), "s")
        out.update({
            "denoiser.calls_per_distinct_embedding": (per(predicts, len(self.embeddings)), "ratio"),
            "denoiser.grad_embedding_calls": (calls("denoiser.grad_embedding"), "count"),
            "denoiser.grad_input_calls": (calls("denoiser.grad_input"), "count"),
            "denoiser.grad_s": (secs("denoiser.grad_embedding") + secs("denoiser.grad_input"), "s"),
            "denoiser.train_epoch_s": (per(secs("denoiser.train"), self.tallies["denoiser_epochs"]), "s"),
            "guidance.cfg_calls": (calls("guidance.cfg"), "count"),
            "guidance.cfg_s": (secs("guidance.cfg"), "s"),
            "masks.make_mask_calls": (calls("masks.make_mask"), "count"),
            "masks.make_mask_s": (secs("masks.make_mask"), "s"),
            "masks.relevance_calls": (calls("masks.relevance"), "count"),
            "masks.relevance_s": (secs("masks.relevance"), "s"),
            "masks.spade_fraction": (statistics.fmean(self.spade_fractions)
                                     if self.spade_fractions else 0.0, "ratio"),
            "autodiff.conv2d_calls": (calls("autodiff.conv2d"), "count"),
            "autodiff.conv2d_s": (secs("autodiff.conv2d"), "s"),
            "autodiff.backward_calls": (calls("autodiff.backward"), "count"),
            "autodiff.backward_s": (secs("autodiff.backward"), "s"),
            "autodiff.conv2d_flops": (self.tallies["conv2d_flops"], "computed-flop"),
            "autodiff.im2col_bytes": (self.tallies["im2col_bytes"], "computed-B"),
            "optim.adam_step_calls": (calls("optim.adam_step"), "count"),
            "optim.adam_step_s": (secs("optim.adam_step"), "s"),
            "evalbench.segment_calls": (calls("evalbench.segment"), "count"),
            "evalbench.segment_s": (secs("evalbench.segment"), "s"),
            "evalbench.tta_baseline_s": (secs("evalbench.tta_baseline"), "s"),
            "evalbench.train_segmenter_epoch_s": (
                per(secs("evalbench.train_segmenter"), self.tallies["segmenter_epochs"]), "s"),
            "evalbench.train_segmenter_final_loss": (self.seg_final_loss, "MSE"),
            "metrics.score_s": (secs("metrics.score"), "s"),
        })
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as f:
            writer = csv.writer(f)
            writer.writerow(["span", "name", "start_s", "end_s", "parent"])
            for i, row in enumerate(zip(self.names, self.starts, self.ends, self.parents)):
                writer.writerow([i, row[0], f"{row[1]:.9f}", f"{row[2]:.9f}", row[3]])
