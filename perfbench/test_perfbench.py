"""Tests of the benchmark itself: toy-size runs of every workload, the
independent oracles on hand-computed fixtures, and checks that reject altered
output.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import oracles
import workloads as W
from ttga.denoiser import AnalyticGaussianDenoiser
from ttga.schedule import build_schedule

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
TOY = dict(tau=20, n_augment=2, seg_epochs=3, nulltext_max_steps=20)


def toy_spec(name: str) -> W.Spec:
    spec = W.SPECS[name]
    return replace(spec, config={**spec.config, **TOY}, n_seg_train=16, n_den_train=8, n_test=2)


@pytest.fixture
def toy_specs(monkeypatch):
    for name in W.SPECS:
        monkeypatch.setitem(W.SPECS, name, toy_spec(name))


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(W.SPECS)


@pytest.mark.parametrize("name", list(W.SPECS))
def test_toy_run_passes_checks(name, toy_specs, tmp_path):
    result = W.measure(name, seed=3, seconds=0.01, out_dir=tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: unit for k, (_, unit) in result["metrics"].items()} == expected
    for name, (value, unit) in result["metrics"].items():
        assert 0 <= value <= 100 if unit == "0-100" else 0 < value < math.inf, name


@pytest.mark.parametrize("name", list(W.SPECS))
def test_toy_traced_run_reports_every_layer(name, toy_specs, tmp_path):
    result = W.trace(name, seed=3, out_dir=tmp_path, spans_path=tmp_path / "spans.csv")
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: unit for k, (_, unit) in result["metrics"].items()} == expected
    metrics = {k: v for k, (v, _) in result["metrics"].items()}
    assert metrics["autodiff.conv2d_calls"] > 0 and metrics["sampler.ddim_invert_calls"] > 0
    header, *spans = (tmp_path / "spans.csv").read_text().splitlines()
    assert header == "span,name,start_s,end_s,parent" and len(spans) > 100


def test_tracer_restores_the_program(toy_specs, tmp_path):
    from ttga import autodiff, denoiser, engine, pipeline
    before = (pipeline.evaluate_image, engine.generate_one, denoiser.conv2d,
              autodiff.Tensor.backward, denoiser.AnalyticGaussianDenoiser.predict)
    W.trace("eval-analytic", seed=3, out_dir=tmp_path, spans_path=tmp_path / "spans.csv")
    after = (pipeline.evaluate_image, engine.generate_one, denoiser.conv2d,
             autodiff.Tensor.backward, denoiser.AnalyticGaussianDenoiser.predict)
    assert after == before


# ---- oracles on hand-computed fixtures ----


def test_dice_by_sets_fixture():
    pred = np.array([[1, 1], [0, 0]])
    gt = np.array([[1, 0], [1, 0]])
    assert oracles.dice_by_sets(pred, gt) == 50.0
    assert oracles.dice_by_sets(np.zeros((2, 2)), np.zeros((2, 2))) == 100.0
    assert oracles.dice_by_sets(gt, np.zeros((2, 2))) == 0.0


def test_auc_pairwise_fixture():
    labels = np.array([0, 0, 1, 1])
    # positives 0.35 and 0.8 against negatives 0.1 and 0.4: 3 of 4 pairs
    assert oracles.auc_pairwise(np.array([0.1, 0.4, 0.35, 0.8]), labels) == 75.0
    # a tie counts one half: 0.5 ties both negatives, 0.9 beats both
    assert oracles.auc_pairwise(np.array([0.5, 0.5, 0.5, 0.9]), labels) == 75.0
    assert math.isnan(oracles.auc_pairwise(np.array([0.1, 0.2]), np.array([1, 1])))


def test_normalised_entropy_fixture():
    p = np.array([[0.5, 0.5], [1.0, 0.0], [0.25, 0.75]])
    expected = [1.0, 0.0, -(0.25 * math.log2(0.25) + 0.75 * math.log2(0.75))]
    assert np.allclose(oracles.normalised_entropy(p), expected, rtol=0, atol=1e-15)


def _tiny_analytic(projection):
    projection = np.asarray(projection, dtype=np.float64)
    return AnalyticGaussianDenoiser(build_schedule(), (2, 2), projection.shape[1], mu=0.3,
                                    projection=projection, data_std=1.0)


def test_nulltext_bounds_one_step_fixture():
    """tau = 1: the inversion is one rung 0 -> 1 where eps(x0, 0) = P c, and
    with a one-dimensional embedding the least-squares minimum is
    mean(r^2) - (p.r)^2 / (n |p|^2) for the zero-null residual r."""
    p_col = np.array([1.0, 0.0, -1.0, 2.0])
    model = _tiny_analytic(p_col[:, None])
    x0 = np.array([[0.2, 0.9], [0.4, 0.1]])
    c, omega = 0.5, 2.0
    abar = model.schedule.alpha_bars[1]
    gamma = math.sqrt((1 - abar) / abar)
    pc = (p_col * c).reshape(2, 2)
    xbar1 = x0 + gamma * pc
    x1 = xbar1 * math.sqrt(abar)
    scale = math.sqrt(1 - abar) / (abar + 1 - abar)
    base = scale * (x1 - math.sqrt(abar) * 0.3)
    r = (x0 - (xbar1 - gamma * (base + omega * pc))).ravel()
    p = -gamma * (1 - omega) * p_col
    expected_min = np.mean(r ** 2) - (p @ r) ** 2 / (4 * (p @ p))
    low, high = oracles.nulltext_loss_bounds(model, x0, np.array([c]), 1, 1, omega)
    assert high == pytest.approx(np.mean(r ** 2), rel=1e-12)
    assert low == pytest.approx(expected_min, rel=1e-9)


def test_nulltext_bounds_limits():
    x0 = np.array([[0.2, 0.9], [0.4, 0.1]])
    sem = np.arange(4.0) / 4
    # a full-rank projection reproduces any image exactly
    low, high = oracles.nulltext_loss_bounds(_tiny_analytic(2 * np.eye(4)), x0, sem, 30, 10, 2.0)
    assert low < 1e-25 < high
    # a zero projection leaves nothing to optimise
    low, high = oracles.nulltext_loss_bounds(_tiny_analytic(np.zeros((4, 1))), x0, sem[:1], 30, 10, 2.0)
    assert low == pytest.approx(high, rel=1e-12)


# ---- the checks reject altered output ----


@pytest.fixture(scope="module")
def evaluation(tmp_path_factory):
    spec = toy_spec("eval-analytic")
    work = W.EvalWorkload(spec, 5, tmp_path_factory.mktemp("eval"), W.Runner())
    work.setup()
    work.round()
    work.round()
    assert work.check() == []
    return work.evaluation


def replace_pass(evaluation, name, data: bytes):
    """A copy of the evaluation whose first pass has another ``name`` file."""
    clone = W.Evaluation.__new__(W.Evaluation)
    clone.__dict__.update(evaluation.__dict__)
    clone.passes = [dict(evaluation.passes[0], **{name: data}), *evaluation.passes[1:]]
    return clone


def edit_cell(evaluation, method, key, edit):
    """Apply ``edit`` to one cell of the first ``method`` row of per_image.csv."""
    rows = oracles.read_csv(evaluation.passes[0]["per_image.csv"])
    row = next(r for r in rows if r["method"] == method)
    row[key] = edit(row[key])
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)
    return replace_pass(evaluation, "per_image.csv", out.getvalue().encode())


def test_unaltered_csv_survives_rewriting(evaluation):
    assert edit_cell(evaluation, "ttga", "dsc", str).check() == []


def test_checks_reject_altered_baseline_cell(evaluation):
    problems = edit_cell(evaluation, "baseline", "auc",
                         lambda cell: f"{float(cell) - 0.000002:.6f}").check()
    assert any("baseline auc" in p for p in problems)
    assert any("differ from pass 0" in p for p in problems)


def test_checks_reject_out_of_range_cell(evaluation):
    problems = edit_cell(evaluation, "ttga", "nsd", lambda cell: "100.500000").check()
    assert any("ttga nsd: 100.500000 outside" in p for p in problems)


def test_checks_reject_missing_augment_row(evaluation):
    data = evaluation.passes[0]["augment_metadata.csv"].decode().splitlines(keepends=True)
    problems = replace_pass(evaluation, "augment_metadata.csv",
                            "".join(data[:-1]).encode()).check()
    assert any("augment rows 1, expected 2" in p for p in problems)


def test_checks_reject_nulltext_loss_below_minimum(evaluation):
    item = evaluation.first_results[(0, "ttga")].aug_metadata[0]
    saved = item["reconstruction_loss"]
    item["reconstruction_loss"] = 0.0
    try:
        assert any("null-text loss" in p for p in evaluation.check())
    finally:
        item["reconstruction_loss"] = saved
