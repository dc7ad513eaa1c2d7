"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -v -s`` to see them live).

Tolerances are pinned here, not configurable: inversion round trip < 5%
relative L2 with strict decrease over intervals 50/25/10/5; one-step
null-text MSE <= 5e-4 on >= 95/100 images and least-squares agreement to
1e-6; guidance algebra at 1e-12 or bit-level; mask laws exact with a
3-sigma Bernoulli band; degenerate generation identities bit-exact / 1e-8;
metric oracles exact on 1000 fixtures; gradient checks at 1e-4 relative;
directional end-to-end inequalities on 3-seed means inside 15 minutes;
byte-identical reruns.
"""

import time

import numpy as np
import pytest

from conftest import central_difference, relative_gradient_match
from oracles import auc_oracle, dice_oracle, hd95_oracle, nsd_oracle
from ttga import (
    AnalyticGaussianDenoiser,
    ConditionEmbedding,
    ConvDenoiser,
    GuidanceConfig,
    MaskPolicy,
    NullOptConfig,
    SeededRng,
    TtgaConfig,
    attention_mask,
    bernoulli_mask,
    build_schedule,
    cfg_multi,
    ddim_invert,
    generate_one,
    hybrid_mask,
    one_step_reconstruct,
    optimize_null_text,
    to_xbar,
)
from ttga.cli import main as cli_main
from ttga.engine import entropy_bits
from ttga.guidance import cfg_single
from ttga.metrics import dice, hd95, nsd, nsd_tolerance, roc_auc
from ttga.nulltext import reconstruction_loss
from ttga.pipeline import (
    RunLog,
    build_denoiser,
    build_segmenter,
    build_test_set,
    build_train_set,
    evaluate_image,
    semantic_anchor,
)
from ttga.runconfig import RunConfig
from ttga.sampler import ddim_sample
from ttga.schedule import build_schedule as _build_schedule


def report(number: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {number}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


SCHEDULE = build_schedule()


def _toy_batch(n, size=16, seed=7701):
    rng = SeededRng(seed)
    batch = []
    for i in range(n):
        r = rng.derive(i)
        yy, xx = np.mgrid[0:size, 0:size]
        cy, cx = r.uniform(size * 0.3, size * 0.7, (2,))
        rad = float(r.uniform(0.18 * size, 0.3 * size))
        img = 0.2 + 0.6 * (((yy - cy) ** 2 + (xx - cx) ** 2) <= rad * rad)
        batch.append(img + r.normal((size, size)) * 0.02)
    return batch


def test_criterion_1_inversion_round_trip():
    start = time.monotonic()
    model = AnalyticGaussianDenoiser(SCHEDULE, (16, 16), 8, mu=0.0, rng=SeededRng(13))
    e = model.null_embedding()
    batch = _toy_batch(10)
    mean_err = {}
    for interval in (50, 25, 10, 5):
        errs = []
        for x0 in batch:
            traj = ddim_invert(model, x0, 300, interval, e)
            back = ddim_sample(model, traj.x_tau, list(traj.steps)[::-1], e)
            errs.append(np.linalg.norm(back - x0) / np.linalg.norm(x0))
        mean_err[interval] = float(np.mean(errs))
    elapsed = time.monotonic() - start
    ok = (
        mean_err[10] < 0.05
        and mean_err[50] > mean_err[25] > mean_err[10] > mean_err[5]
        and elapsed < 10.0
    )
    report(1, ok, (
        f"round-trip rel L2 at interval 10 = {mean_err[10]:.4f} (< 0.05), "
        f"errors {[round(mean_err[i], 4) for i in (50, 25, 10, 5)]} strictly "
        f"decreasing, {elapsed:.1f}s < 10s"
    ))


def test_criterion_2_one_step_null_text_quality():
    start = time.monotonic()
    # (i) production optimizer settings on 100 toy images
    model = AnalyticGaussianDenoiser(SCHEDULE, (16, 16), 512, mu=0.0,
                                     rng=SeededRng(31))
    c = ConditionEmbedding(SeededRng(32).normal(512))
    opt = NullOptConfig(lr=0.1, max_steps=500, early_stop=5e-4)
    passed = 0
    for x0 in _toy_batch(100, seed=3100):
        traj = ddim_invert(model, x0, 300, 10, c)
        result = optimize_null_text(model, traj, c, 2.0, opt)
        recon = one_step_reconstruct(model, traj.x_tau, traj.tau, c,
                                     result.embedding, 2.0)
        if reconstruction_loss(recon, traj.x0) <= 5e-4:
            passed += 1

    # (ii) closed-form least-squares agreement on the linear oracle
    small = AnalyticGaussianDenoiser(SCHEDULE, (8, 8), 24, mu=0.0, rng=SeededRng(33))
    c_small = ConditionEmbedding(SeededRng(34).normal(24))
    x0 = _toy_batch(1, size=8, seed=3200)[0]
    traj = ddim_invert(small, x0, 300, 10, c_small)
    base = one_step_reconstruct(small, traj.x_tau, traj.tau, c_small,
                                small.null_embedding(), 2.0)
    b_mat = SCHEDULE.gammas[300] * (1.0 - 2.0) * small.projection
    e_star, *_ = np.linalg.lstsq(b_mat, (traj.x0 - base).ravel(), rcond=None)
    min_loss = float(np.mean(((traj.x0 - base).ravel() - b_mat @ e_star) ** 2))
    result = optimize_null_text(small, traj, c_small, 2.0,
                                NullOptConfig(lr=0.1, max_steps=2000, early_stop=0.0))
    gap = abs(result.final_loss - min_loss)
    elapsed = time.monotonic() - start
    ok = passed >= 95 and gap < 1e-6 and elapsed < 120.0
    report(2, ok, (
        f"MSE <= 5e-4 on {passed}/100 images (need >= 95); "
        f"least-squares loss gap {gap:.2e} < 1e-6; {elapsed:.1f}s < 120s"
    ))


def test_criterion_3_guidance_algebra():
    zero = np.zeros((3, 3))
    one = np.ones((3, 3))
    checks = []
    # lambda_c = 1 nullifies the raw unconditional coefficient
    for omega in (0.0, 0.7, 1.0, 2.0, 7.5):
        for lam_r in (0.0, 0.5, 1.0, 2.0):
            g = GuidanceConfig(omega=omega, lambda_c=1.0, lambda_r=lam_r)
            checks.append(abs(cfg_multi(one, zero, zero, g)[0, 0]) <= 1e-12)
    # omega = 1 kills the identity term: output equals cfg_single at lambda_c
    rng = SeededRng(71)
    eps = [rng.normal((4, 4)) for _ in range(3)]
    for lam_r in (0.0, 1.0, 3.0):
        g = GuidanceConfig(omega=1.0, lambda_c=0.6, lambda_r=lam_r)
        delta = cfg_multi(eps[0], eps[1], eps[2], g) - cfg_single(eps[0], eps[1], 0.6)
        checks.append(np.max(np.abs(delta)) <= 1e-12)
    # lambda_c = lambda_r = 0 reduces to the unconditional prediction, bitwise
    g = GuidanceConfig(omega=2.0, lambda_c=0.0, lambda_r=0.0)
    checks.append(np.array_equal(cfg_multi(eps[0], eps[1], eps[2], g), eps[0]))
    ok = all(checks)
    report(3, ok, f"{sum(checks)}/{len(checks)} guidance algebra identities at 1e-12/bit-level")


def test_criterion_4_mask_laws():
    rng = SeededRng(41)
    ones = np.ones((8, 8), dtype=np.uint8)
    partition_ok = True
    spade_total, pixel_total = 0, 0
    for i in range(1000):
        r = rng.derive(i)
        mb = bernoulli_mask((8, 8), 0.75, r)
        relevance = SeededRng(42, i).normal((8, 8))
        mp = attention_mask(relevance, 0.5)
        hy = hybrid_mask(mb, mp)
        for pair in (mb, mp, hy):
            partition_ok &= np.array_equal(pair.spade + pair.club, ones)
        partition_ok &= np.array_equal(hy.spade, 1 - (mb.spade ^ mp.spade))
        spade_total += int(mb.spade.sum())
        pixel_total += mb.spade.size
    # exhaustive four-case truth table
    mb4 = bernoulli_mask((2, 2), 0.5, SeededRng(43))
    mb4 = mb4.from_spade(np.array([[0, 0], [1, 1]], dtype=np.uint8))
    mp4 = mb4.from_spade(np.array([[0, 1], [0, 1]], dtype=np.uint8))
    truth = np.array_equal(hybrid_mask(mb4, mp4).spade,
                           np.array([[1, 0], [0, 1]], dtype=np.uint8))
    density = spade_total / pixel_total
    band = 3.0 * np.sqrt(0.75 * 0.25 / pixel_total)
    density_ok = abs(density - 0.75) <= band
    ok = partition_ok and truth and density_ok
    report(4, ok, (
        f"partition exact on 3000 pairs; truth table exact; Bernoulli density "
        f"{density:.5f} within {band:.5f} of 0.75"
    ))


@pytest.fixture(scope="module")
def degenerate_setup():
    rng = SeededRng(51)
    model = AnalyticGaussianDenoiser(SCHEDULE, (8, 8), 48, mu=0.25, rng=rng.derive(1))
    c = ConditionEmbedding(rng.derive(2).normal(48))
    x0 = _toy_batch(1, size=8, seed=5100)[0]
    traj = ddim_invert(model, x0, 60, 10, c)
    null_opt = optimize_null_text(model, traj, c, 2.0,
                                  NullOptConfig(lr=0.1, max_steps=200, early_stop=1e-7))
    return model, c, x0, traj, null_opt


def test_criterion_5_degenerate_generation_identities(degenerate_setup):
    model, c, x0, traj, null_opt = degenerate_setup

    def cfg_with(p, lam=1.2):
        return TtgaConfig(
            tau=60, inversion_interval=10, n_augment=1,
            guidance=GuidanceConfig(2.0, 1.0, 1.0),
            lambda_r_low=lam, lambda_r_high=lam,
            mask_policy=MaskPolicy(scheme="bernoulli", p_m=p),
            null_opt=NullOptConfig(lr=0.1, max_steps=200, early_stop=1e-7),
        )

    all_spade = generate_one(model, x0, null_opt, c, cfg_with(1.0), SeededRng(1),
                             trajectory=traj)
    recon = one_step_reconstruct(model, traj.x_tau, traj.tau, c, null_opt.embedding, 2.0)
    spade_exact = np.array_equal(all_spade, recon)

    lam = 1.2
    all_club = generate_one(model, x0, null_opt, c, cfg_with(0.0, lam), SeededRng(2),
                            trajectory=traj)
    u = model.projection @ (
        c.values + lam * (1.0 - 2.0) * (null_opt.embedding.values - c.values)
    )
    u = u.reshape(model.shape)
    xbar = traj.x_tau / np.sqrt(SCHEDULE.alpha_bars[traj.tau])
    for t in range(traj.tau, 0, -1):
        abar = SCHEDULE.alpha_bars[t]
        x_t = xbar * np.sqrt(abar)
        eps = np.sqrt(1.0 - abar) * (x_t - np.sqrt(abar) * model.mu) + u
        xbar = xbar + (SCHEDULE.gammas[t - 1] - SCHEDULE.gammas[t]) * eps
    club_gap = float(np.max(np.abs(all_club - xbar)))
    ok = spade_exact and club_gap < 1e-8
    report(5, ok, (
        f"all-spade output bit-identical to one-step reconstruction: {spade_exact}; "
        f"all-club vs hand-unrolled chain max gap {club_gap:.2e} < 1e-8"
    ))


def test_criterion_6_metric_oracles():
    rng = SeededRng(61)
    mismatches = 0
    for i in range(1000):
        r = rng.derive(i)
        h = int(r.integers(4, 17))
        w = int(r.integers(4, 17))
        density = float(r.uniform(0.1, 0.9))
        a = (r.random((h, w)) < density).astype(np.uint8)
        b = (r.random((h, w)) < density).astype(np.uint8)
        if float(r.random()) < 0.05:
            a[:] = 0
        scores = np.round(r.random((h, w)) * 8) / 8
        tol = nsd_tolerance((h, w))
        if dice(a, b) != dice_oracle(a, b):
            mismatches += 1
        if hd95(a, b) != hd95_oracle(a, b):
            mismatches += 1
        if nsd(a, b, tol) != nsd_oracle(a, b, tol):
            mismatches += 1
        got, want = roc_auc(scores, b), auc_oracle(scores, b)
        if not ((np.isnan(got) and np.isnan(want)) or got == want):
            mismatches += 1
    entropy_ok = (
        abs(entropy_bits(np.array([0.5, 0.5])) - 1.0) < 1e-12
        and entropy_bits(np.array([1.0, 0.0])) == 0.0
    )
    ok = mismatches == 0 and entropy_ok
    report(6, ok, (
        f"dice/auc/hd95/nsd exact vs brute force on 1000 fixtures "
        f"({mismatches} mismatches); entropy(0.5,0.5)=1 bit, one-hot=0"
    ))


def test_criterion_7_gradient_checks():
    conv = ConvDenoiser(SCHEDULE, channels=1, embedding_dim=3, hidden=5,
                        rng=SeededRng(71))
    analytic = AnalyticGaussianDenoiser(SCHEDULE, (5, 5), 3, mu=0.2,
                                        rng=SeededRng(72))
    rng = SeededRng(73)
    embed_fail = 0
    for probe in range(100):
        model = conv if probe % 2 == 0 else analytic
        r = rng.derive(probe)
        x = r.normal((5, 5))
        e0 = r.normal(3)
        loss_grad = r.normal((5, 5))
        t = int(r.integers(1, SCHEDULE.total_steps + 1))

        def f(vec):
            return float(np.sum(model.predict(x, t, ConditionEmbedding(vec)) * loss_grad))

        analytic_grad = model.grad_wrt_embedding(loss_grad, x, t, ConditionEmbedding(e0))
        if not relative_gradient_match(analytic_grad, central_difference(f, e0)):
            embed_fail += 1

    loss_fail = 0
    for probe in range(100):
        model = conv if probe % 2 == 0 else analytic
        r = rng.derive(10_000 + probe)
        x_tau = r.normal((5, 5))
        x0 = r.normal((5, 5))
        c = ConditionEmbedding(r.normal(3))
        e0 = r.normal(3)
        tau, omega = int(r.integers(10, 500)), 2.0
        gamma_tau = SCHEDULE.gammas[tau]
        eps_c = model.predict(x_tau, tau, c)
        xbar = to_xbar(x_tau, tau, SCHEDULE)

        def loss_of(vec):
            eps_e = model.predict(x_tau, tau, ConditionEmbedding(vec))
            recon = xbar - gamma_tau * cfg_single(eps_e, eps_c, omega)
            return float(np.mean((x0 - recon) ** 2))

        recon = xbar - gamma_tau * cfg_single(
            model.predict(x_tau, tau, ConditionEmbedding(e0)), eps_c, omega
        )
        upstream = (2.0 / x0.size) * (recon - x0) * (-gamma_tau) * (1.0 - omega)
        analytic_grad = model.grad_wrt_embedding(upstream, x_tau, tau,
                                                 ConditionEmbedding(e0))
        if not relative_gradient_match(analytic_grad, central_difference(loss_of, e0)):
            loss_fail += 1

    ok = embed_fail == 0 and loss_fail == 0
    report(7, ok, (
        f"embedding gradients: {100 - embed_fail}/100 probes within 1e-4 relative; "
        f"null-text loss gradients: {100 - loss_fail}/100 probes within 1e-4 relative"
    ))


def test_criterion_8_directional_end_to_end():
    start = time.monotonic()
    per_seed = {}
    for seed in (0, 1, 2):
        cfg = RunConfig(seed=seed, n_train=200, n_test=200,
                        seg_epochs=25, seg_hidden=12)
        log = RunLog(None)
        train = build_train_set(cfg)
        test = build_test_set(cfg)
        schedule = _build_schedule(cfg.total_steps, cfg.beta_start, cfg.beta_end)
        denoiser = build_denoiser(cfg, schedule, train, log)
        segmenter = build_segmenter(cfg, train, log)
        semantic = semantic_anchor(cfg)
        results = [evaluate_image(i, test[i], cfg, denoiser, semantic, segmenter)
                   for i in range(len(test))]
        rows = [row for res in results for row in res.rows]
        agg = {}
        for m in ("baseline", "tta", "ttga"):
            mrows = [r for r in rows if r["method"] == m]
            occ = [r for r in mrows if r["occluded"] == 1]
            agg[m] = dict(
                dsc=float(np.nanmean([r["dsc"] for r in mrows])),
                err_auc=float(np.nanmean([r["err_auc"] for r in mrows])),
                err_auc_occ=float(np.nanmean([r["err_auc"] for r in occ])),
            )
        per_seed[seed] = agg

    def seed_mean(method, key):
        return float(np.mean([per_seed[s][method][key] for s in per_seed]))

    elapsed = time.monotonic() - start
    a = (seed_mean("ttga", "dsc"), seed_mean("baseline", "dsc"))
    b = (seed_mean("ttga", "err_auc"), seed_mean("baseline", "err_auc"))
    c = (seed_mean("ttga", "err_auc_occ"), seed_mean("tta", "err_auc_occ"))
    ok = a[0] >= a[1] and b[0] > b[1] and c[0] >= c[1] and elapsed < 900.0
    report(8, ok, (
        f"3-seed means on 200 images: (a) TTGA DSC {a[0]:.3f} >= baseline {a[1]:.3f}; "
        f"(b) TTGA error AUC {b[0]:.3f} > baseline entropy AUC {b[1]:.3f}; "
        f"(c) occluded-subset TTGA error AUC {c[0]:.3f} >= TTA {c[1]:.3f}; "
        f"{elapsed:.0f}s < 900s"
    ))


def test_criterion_9_reproducibility(tmp_path):
    args = [
        "--seed", "3",
        "--set", "n_train=40", "--set", "n_test=6", "--set", "n_augment=2",
        "--set", "tau=40", "--set", "embedding_dim=64", "--set", "seg_epochs=6",
        "--set", "nulltext_max_steps=60", "--set", "size=24",
    ]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["full-pipeline", "--out", str(out_a), *args]) == 0
    assert cli_main(["full-pipeline", "--out", str(out_b), *args]) == 0
    identical = []
    for rel in ("eval/per_image.csv", "eval/aggregate.csv",
                "eval/augment_metadata.csv"):
        a_bytes = (out_a / rel).read_bytes()
        b_bytes = (out_b / rel).read_bytes()
        identical.append(a_bytes == b_bytes)
    ok = all(identical)
    report(9, ok, f"byte-identical CSVs across reruns: {identical}")
