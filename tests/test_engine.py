import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ttga import (
    AnalyticGaussianDenoiser,
    ConditionEmbedding,
    ConvDenoiser,
    GuidanceConfig,
    MaskPolicy,
    NullOptConfig,
    SeededRng,
    TtgaConfig,
    build_schedule,
    ddim_invert,
    ddim_step,
    ensemble,
    error_estimate_map,
    from_xbar,
    generate_one,
    generate_set,
    one_step_reconstruct,
    optimize_null_text,
    to_xbar,
)
from ttga.denoiser import Denoiser
from ttga.engine import (_generate, _invert, augmentation_path_step, blend, entropy_bits,
                         select_words)
import ttga.engine as engine_module
from ttga.guidance import cfg_multi, cfg_single, identity_coefficient
from ttga.sampler import move
from ttga.errors import ConfigError, ContractError, NumericalAbort
from ttga.masks import MaskPair, consistency_relevance, saliency_relevance


@pytest.fixture(scope="module")
def schedule():
    return build_schedule()


@pytest.fixture(scope="module")
def setup(schedule):
    rng = SeededRng(41)
    model = AnalyticGaussianDenoiser(schedule, (8, 8), 48, mu=0.25, rng=rng.derive(1))
    c = ConditionEmbedding(rng.derive(2).normal(48))
    yy, xx = np.mgrid[0:8, 0:8]
    x0 = 0.2 + 0.6 * (((yy - 4) ** 2 + (xx - 4) ** 2) <= 6.0)
    x0 = x0 + rng.derive(3).normal((8, 8)) * 0.02
    traj = ddim_invert(model, x0, 60, 10, c)
    null_opt = optimize_null_text(model, traj, c, 2.0,
                                  NullOptConfig(lr=0.1, max_steps=200, early_stop=1e-7))
    return model, c, x0, traj, null_opt


def small_cfg(**kwargs):
    defaults = dict(
        tau=60, inversion_interval=10, n_augment=2,
        guidance=GuidanceConfig(omega=2.0, lambda_c=1.0, lambda_r=1.0),
        null_opt=NullOptConfig(lr=0.1, max_steps=200, early_stop=1e-7),
    )
    defaults.update(kwargs)
    return TtgaConfig(**defaults)


# ---- path steps ----


def test_identity_path_jumps_along_identity_noise(setup, schedule):
    model, c, x0, traj, null_opt = setup
    cfg = small_cfg(club_stride=7, mask_policy=MaskPolicy(scheme="bernoulli", p_m=0.5))
    records = []
    generate_one(model, x0, null_opt, c, cfg, SeededRng(12), trajectory=traj,
                 record_steps=records)
    xbar_tau = to_xbar(traj.x_tau, traj.tau, schedule)
    for rec in records:
        expected = move(xbar_tau, traj.tau, rec["t_out"], null_opt.identity_noise, schedule)
        assert np.array_equal(rec["spade"], expected)
    assert records[-1]["t_out"] == 0
    rec = one_step_reconstruct(model, traj.x_tau, traj.tau, c, null_opt.embedding, 2.0)
    assert np.array_equal(records[-1]["spade"], rec)


def _conv_setup(schedule):
    rng = SeededRng(57)
    model = ConvDenoiser(schedule, channels=1, embedding_dim=8, hidden=6, rng=rng.derive(1))
    c = ConditionEmbedding(rng.derive(2).normal(8))
    x0 = 0.2 + 0.5 * rng.derive(3).random((8, 8))
    traj = ddim_invert(model, x0, 20, 10, c)
    null_opt = optimize_null_text(model, traj, c, 2.0,
                                  NullOptConfig(lr=0.1, max_steps=5, early_stop=0.0))
    return model, c, x0, traj, null_opt


@pytest.mark.parametrize("kind", ["analytic", "conv"])
def test_identity_noise_is_guided_noise_of_best_embedding(setup, schedule, kind):
    model, c, x0, traj, null_opt = setup if kind == "analytic" else _conv_setup(schedule)
    expected = cfg_single(model.predict(traj.x_tau, traj.tau, null_opt.embedding),
                          model.predict(traj.x_tau, traj.tau, c), 2.0)
    assert np.array_equal(null_opt.identity_noise, expected)


def fresh_step(model, x_t, t, null_opt, c, g, t_out=None, lambda_r=None):
    """``augmentation_path_step`` at t_out (default t - 1), in new buffers;
    ``lambda_r``, when given, holds one identity scale per item."""
    return augmentation_path_step(
        model, x_t, t, null_opt, c, g, t - 1 if t_out is None else t_out,
        identity_coefficient(g, x_t.shape, lambda_r), np.empty((3,) + x_t.shape),
        np.empty(x_t.shape))


def test_augmentation_step_reduces_to_conditional_ddim(setup, schedule):
    model, c, x0, traj, null_opt = setup
    g = GuidanceConfig(omega=2.0, lambda_c=1.0, lambda_r=0.0)
    x_t = traj.x_tau
    t = traj.tau
    got = fresh_step(model, x_t, t, null_opt, c, g)
    plain = to_xbar(ddim_step(model, x_t, t, t - 1, c), t - 1, schedule)
    assert np.max(np.abs(got - plain)) < 1e-12


def test_augmentation_step_unconditional_reduction(setup, schedule):
    model, c, x0, traj, null_opt = setup
    g = GuidanceConfig(omega=2.0, lambda_c=0.0, lambda_r=0.0)
    x_t = traj.x_tau
    t = traj.tau
    got = fresh_step(model, x_t, t, null_opt, c, g)
    plain = to_xbar(
        ddim_step(model, x_t, t, t - 1, model.null_embedding()), t - 1, schedule
    )
    assert np.max(np.abs(got - plain)) < 1e-12


def test_stages_read_the_models_own_schedule():
    """Every stage that takes a model steps on ``model.schedule``: on a
    non-default schedule each one equals the hand computation from that
    schedule's gammas and alpha_bars."""
    s = build_schedule(200, 1e-4, 0.05)
    assert not np.allclose(s.gammas, build_schedule().gammas[:201])
    gam, root = s.gammas, np.sqrt(s.alpha_bars)
    rng = SeededRng(43)
    model = AnalyticGaussianDenoiser(s, (6, 6), 8, mu=0.3, rng=rng.derive(1))
    c, null = ConditionEmbedding(rng.derive(2).normal(8)), model.null_embedding()
    x0 = 0.2 + 0.5 * rng.derive(3).random((6, 6))

    x_t = rng.derive(4).normal((6, 6))
    hand = (x_t / root[150] + (gam[90] - gam[150]) * model.predict(x_t, 150, c)) * root[90]
    assert np.max(np.abs(ddim_step(model, x_t, 150, 90, c) - hand)) < 1e-12

    traj = ddim_invert(model, x0, 60, 25, c)
    assert traj.steps == (0, 25, 50, 60)
    xbar = x0.copy()
    for k in range(1, len(traj.steps)):
        u, t = traj.steps[k - 1], traj.steps[k]
        xbar = xbar + (gam[t] - gam[u]) * model.predict(traj.latents[k - 1], u, c)
        assert np.max(np.abs(traj.latents[k] - xbar * root[t])) < 1e-12

    def recon(e):
        eps = cfg_single(model.predict(traj.x_tau, 60, e), model.predict(traj.x_tau, 60, c), 2.0)
        return traj.x_tau / root[60] - gam[60] * eps

    got = one_step_reconstruct(model, traj.x_tau, 60, c, null, 2.0)
    assert np.max(np.abs(got - recon(null))) < 1e-12
    null_opt = optimize_null_text(model, traj, c, 2.0,
                                  NullOptConfig(lr=0.1, max_steps=3, early_stop=0.0))
    assert abs(null_opt.trace[0] - np.mean((x0 - recon(null)) ** 2)) < 1e-15

    g = GuidanceConfig(omega=2.0, lambda_c=1.0, lambda_r=0.7)
    x_t = traj.x_tau
    preds = [model.predict(x_t, 60, e) for e in (null, c, null_opt.embedding)]
    hand = x_t / root[60] + (gam[57] - gam[60]) * cfg_multi(*preds, g)
    got = fresh_step(model, x_t, 60, null_opt, c, g, t_out=57)
    assert np.max(np.abs(got - hand)) < 1e-12
    # the club-pixel column steps on the same schedule
    assert model.at_pixels(np.arange(3), (null, c, null_opt.embedding)).schedule is s


# ---- blend ----


def test_blend_is_exact_selection():
    rng = SeededRng(4)
    spade_val = rng.normal((6, 6))
    club_val = rng.normal((6, 6))
    mask = MaskPair((rng.random((6, 6)) < 0.5).astype(np.uint8))
    out = blend(spade_val, club_val, select_words(mask.spade), np.empty((6, 6)))
    sel = mask.spade.astype(bool)
    assert np.array_equal(out[sel], spade_val[sel])
    assert np.array_equal(out[~sel], club_val[~sel])


# bit patterns of signed zeros, infinities, quiet and signalling NaNs with
# payloads, subnormals and ordinary values, then any pattern at all
_SPECIAL_BITS = [int(v) for v in np.array(
    [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2e-308, 1.0, -1.5]
).view(np.int64)] + [int(np.uint64(b).astype(np.int64)) for b in (
    0x7FF0000000000001, 0x7FF8000000000ABC, 0xFFF4000000000001, 0xFFFFFFFFFFFFFFFF)]
_FLOAT_BITS = st.one_of(st.sampled_from(_SPECIAL_BITS), st.integers(-2**63, 2**63 - 1))


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(1, 4), st.integers(1, 5), st.integers(1, 5))
def test_blend_copies_the_bits_np_where_selects(data, n, h, w):
    club = data.draw(arrays(np.int64, (n, h, w), elements=_FLOAT_BITS)).view(np.float64)
    spade = data.draw(arrays(np.int64, (h, w), elements=_FLOAT_BITS)).view(np.float64)
    sel = data.draw(arrays(np.bool_, (n, h, w)))
    pair = MaskPair(sel[0].astype(np.uint8))
    out = np.empty_like(club)
    for spade_sel in (sel, pair.spade):
        want = np.where(spade_sel, spade, club).view(np.int64)
        got = blend(spade, club, select_words(spade_sel), out)
        assert got is out and np.array_equal(got.view(np.int64), want)


def test_blend_rejects_an_output_over_the_club_value():
    club = np.zeros((2, 3, 3))
    with pytest.raises(ContractError, match="overlap"):
        blend(np.ones((3, 3)), club, select_words(np.ones((2, 3, 3))), club)


# ---- generate_one ----


def test_all_spade_is_bit_identical_to_reconstruction(setup):
    model, c, x0, traj, null_opt = setup
    cfg = small_cfg(mask_policy=MaskPolicy(scheme="bernoulli", p_m=1.0))
    out = generate_one(model, x0, null_opt, c, cfg, SeededRng(100), trajectory=traj)
    rec = one_step_reconstruct(model, traj.x_tau, traj.tau, c, null_opt.embedding, 2.0)
    assert np.array_equal(out, rec)


def _hand_unrolled_club_chain(model, traj, c, null_opt, lambda_r, omega, schedule):
    """Independent affine unroll of the pure augmentation chain for the
    linear oracle: eps(x,t,e) = s_t (x - m_t) + P e."""
    lam_c = 1.0
    u = model.projection @ (
        lam_c * c.values
        + lambda_r * (1.0 - omega) * (null_opt.embedding.values - c.values)
    )
    u = u.reshape(model.shape)
    xbar = traj.x_tau / np.sqrt(schedule.alpha_bars[traj.tau])
    for t in range(traj.tau, 0, -1):
        abar = schedule.alpha_bars[t]
        s_t = np.sqrt(1.0 - abar)
        d = schedule.gammas[t - 1] - schedule.gammas[t]
        x_t = xbar * np.sqrt(abar)
        eps = s_t * (x_t - np.sqrt(abar) * model.mu) + u
        xbar = xbar + d * eps
    return xbar


def test_all_club_matches_hand_unrolled_chain(setup, schedule):
    model, c, x0, traj, null_opt = setup
    lam = 1.3
    cfg = small_cfg(
        mask_policy=MaskPolicy(scheme="bernoulli", p_m=0.0),
        lambda_r_low=lam, lambda_r_high=lam, n_augment=1,
    )
    out = generate_one(model, x0, null_opt, c, cfg, SeededRng(7), trajectory=traj)
    hand = _hand_unrolled_club_chain(model, traj, c, null_opt, lam, 2.0, schedule)
    assert np.max(np.abs(out - hand)) < 1e-8


def test_blend_partition_holds_at_every_step(setup, schedule):
    model, c, x0, traj, null_opt = setup
    cfg = small_cfg(mask_policy=MaskPolicy(scheme="bernoulli", p_m=0.5))
    records = []
    generate_one(model, x0, null_opt, c, cfg, SeededRng(8), trajectory=traj,
                 record_steps=records)
    assert len(records) == cfg.tau
    for rec in records:
        (mask,), (blended,), (club,) = rec["masks"], rec["blended"], rec["club"]
        assert np.array_equal(mask.spade + mask.club,
                              np.ones_like(mask.spade))
        sel = mask.spade.astype(bool)
        assert np.array_equal(blended[sel], rec["spade"][sel])
        assert np.array_equal(blended[~sel], club[~sel])


@pytest.mark.parametrize("overrides", [
    dict(club_stride=7),
    dict(lambda_r_low=0.0, lambda_r_high=0.0),
    dict(guidance=GuidanceConfig(omega=2.0, lambda_c=0.0, lambda_r=1.0)),
    dict(mask_policy=MaskPolicy(resample_per_step=True)),
], ids=["club_stride", "lambda_r_zero", "lambda_c_zero", "masks_per_step"])
def test_loop_replays_the_allocating_step_bit_for_bit(setup, schedule, overrides):
    """Each recorded club value is ``augmentation_path_step``, run in fresh
    buffers, from the previous recorded blended latent; each blended latent
    is ``np.where`` over the recorded masks; the output is the last one
    unbarred. The loop reuses its buffers, so the records must be copies."""
    model, c, x0, traj, null_opt = setup
    cfg = small_cfg(n_augment=3, **overrides)
    streams = [SeededRng(31).derive(i) for i in range(cfg.n_augment)]
    records = []
    out, lambdas = _generate(model, traj, null_opt, c, cfg, streams, None, records)
    assert len(records) == -(-cfg.tau // cfg.club_stride)
    xbar = np.broadcast_to(to_xbar(traj.x_tau, traj.tau, schedule), out.shape)
    for rec in records:
        club = fresh_step(model, from_xbar(xbar, rec["t"], schedule), rec["t"], null_opt, c,
                          cfg.guidance, t_out=rec["t_out"], lambda_r=np.array(lambdas))
        assert np.array_equal(rec["club"].view(np.int64), club.view(np.int64))
        sel = np.stack([m.spade for m in rec["masks"]]).astype(bool)
        xbar = np.where(sel, rec["spade"], club)
        assert np.array_equal(rec["blended"].view(np.int64), xbar.view(np.int64))
    assert np.array_equal(out.view(np.int64), from_xbar(xbar, 0, schedule).view(np.int64))
    recorded = [rec[key] for rec in records for key in ("spade", "club", "blended")]
    for i, a in enumerate(recorded):
        assert not any(np.shares_memory(a, b) for b in recorded[i + 1:])


@pytest.fixture(scope="module")
def wide_setup(schedule):
    """The analytic set-up on a non-square grid, inverted to tau 60."""
    rng = SeededRng(43)
    model = AnalyticGaussianDenoiser(schedule, (6, 9), 16, mu=rng.derive(1).normal((6, 9)),
                                     rng=rng.derive(2))
    c = ConditionEmbedding(rng.derive(3).normal(16))
    x0 = 0.3 + 0.4 * rng.derive(4).random((6, 9))
    traj = ddim_invert(model, x0, 60, 10, c)
    null_opt = optimize_null_text(model, traj, c, 2.0,
                                  NullOptConfig(lr=0.1, max_steps=30, early_stop=0.0))
    return model, c, traj, null_opt


def _both_loops(model, traj, null_opt, c, cfg, relevance_fn=None):
    """``_generate`` on the club pixels (no records) and on the full grid
    (records asked for), each on the streams SeededRng(31).derive(i)."""
    def run(records):
        streams = [SeededRng(31).derive(i) for i in range(cfg.n_augment)]
        return _generate(model, traj, null_opt, c, cfg, streams, relevance_fn, records)
    return run(None), run([])


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("scheme, per_item", [
    ("bernoulli", False), ("attention", False), ("attention", True),
    ("hybrid", False), ("hybrid", True)])
@pytest.mark.parametrize("overrides", [
    dict(), dict(club_stride=7), dict(lambda_r_low=0.0, lambda_r_high=0.0),
    dict(guidance=GuidanceConfig(omega=2.0, lambda_c=0.0, lambda_r=1.0)),
], ids=["stride_1", "stride_7", "lambda_r_zero", "lambda_c_zero"])
def test_club_pixel_loop_equals_the_full_loop_bit_for_bit(wide_setup, n, scheme, per_item,
                                                          overrides):
    model, c, traj, null_opt = wide_setup
    cfg = small_cfg(n_augment=n, mask_policy=MaskPolicy(scheme=scheme, p_m=0.6), **overrides)

    def relevance(x, t, pred):
        # one map for all items, or a different one for each
        base = consistency_relevance(model, x, t, c, pred)
        return np.stack([np.roll(base, i, axis=1) for i in range(n)]) if per_item else base

    (got, got_lambdas), (want, want_lambdas) = _both_loops(model, traj, null_opt, c, cfg,
                                                           relevance)
    assert got_lambdas == want_lambdas
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("p_m", [1.0, 0.0], ids=["all_spade", "all_club"])
def test_club_pixel_loop_on_an_empty_or_full_column(wide_setup, p_m):
    model, c, traj, null_opt = wide_setup
    cfg = small_cfg(n_augment=3, mask_policy=MaskPolicy(scheme="bernoulli", p_m=p_m))
    (got, _), (want, _) = _both_loops(model, traj, null_opt, c, cfg)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _held_masks(model, traj, null_opt, c, cfg):
    """The (N, H, W) boolean spade stack that both loops hold."""
    records = []
    streams = [SeededRng(31).derive(i) for i in range(cfg.n_augment)]
    _generate(model, traj, null_opt, c, cfg, streams, None, records)
    return np.stack([m.spade for m in records[0]["masks"]]).astype(bool)


@pytest.mark.parametrize("resample, records, column", [
    (False, None, True), (False, [], False), (True, None, False)])
def test_only_held_masks_without_records_run_the_club_pixels(wide_setup, monkeypatch,
                                                             resample, records, column):
    model, c, traj, null_opt = wide_setup
    cfg = small_cfg(n_augment=3, mask_policy=MaskPolicy(scheme="bernoulli", p_m=0.6,
                                                        resample_per_step=resample))
    calls = []
    original = AnalyticGaussianDenoiser.at_pixels

    def at_pixels(self, pixels, embeddings):
        calls.append(len(pixels))
        return original(self, pixels, embeddings)

    monkeypatch.setattr(AnalyticGaussianDenoiser, "at_pixels", at_pixels)
    streams = [SeededRng(31).derive(i) for i in range(cfg.n_augment)]
    _generate(model, traj, null_opt, c, cfg, streams, None, records)
    assert len(calls) == int(column)
    if column:
        spade = _held_masks(model, traj, null_opt, c, cfg)
        assert calls == [int((~spade).sum())]


@pytest.mark.parametrize("resample, records", [(False, None), (False, []), (True, None)],
                         ids=["column", "recorded", "masks_per_step"])
def test_loop_computes_the_identity_coefficient_once_per_set(wide_setup, monkeypatch,
                                                             resample, records):
    """Every step hands ``cfg_multi`` the same identity coefficient, built
    for the step's prediction shape with one lambda_r per row."""
    model, c, traj, null_opt = wide_setup
    cfg = small_cfg(n_augment=3, lambda_r_low=0.0, lambda_r_high=1.5, club_stride=7,
                    mask_policy=MaskPolicy(scheme="bernoulli", p_m=0.6,
                                           resample_per_step=resample))
    seen = []
    original = engine_module.cfg_multi

    def cfg_multi(eps_null, *args, coefficient=None, **kwargs):
        seen.append((coefficient, eps_null.shape))
        return original(eps_null, *args, coefficient=coefficient, **kwargs)

    monkeypatch.setattr(engine_module, "cfg_multi", cfg_multi)
    streams = [SeededRng(31).derive(i) for i in range(cfg.n_augment)]
    _generate(model, traj, null_opt, c, cfg, streams, None, records)
    assert len(seen) == -(-cfg.tau // cfg.club_stride)
    coefficient = seen[0][0]
    assert all(k is coefficient and shape == coefficient.shape for k, shape in seen)
    column = not resample and records is None
    assert coefficient.shape[1:] == ((1,) if column else model.shape)
    assert coefficient.live.shape == coefficient.shape[:1]


def test_club_pixel_loop_aborts_where_the_full_loop_does(wide_setup, schedule):
    """A pixelwise model that turns non-finite at one pixel, club in some
    item, from step 30 on: both loops abort at step 29."""
    model, c, traj, null_opt = wide_setup
    cfg = small_cfg(n_augment=3, mask_policy=MaskPolicy(scheme="bernoulli", p_m=0.5))
    spade = _held_masks(model, traj, null_opt, c, cfg)
    poison = np.zeros(model.shape, dtype=bool)
    poison[np.unravel_index(np.flatnonzero(~spade[0] & spade[1])[0], model.shape)] = True

    class Poisoned(AnalyticGaussianDenoiser):
        def at_pixels(self, pixels, embeddings):
            sub = super().at_pixels(pixels, embeddings)
            sub.poison = self.poison.reshape(-1)[pixels].reshape(sub.shape)
            return sub

        def predict_each(self, x, t, embeddings, out=None):
            preds = super().predict_each(x, t, embeddings, out)
            if t <= 30:
                for pred in preds:
                    pred[..., self.poison] = np.nan
            return preds

    poisoned = Poisoned(schedule, model.shape, model.embedding_dim, mu=model.mu,
                        projection=model.projection)
    poisoned.poison = poison
    messages = []
    for records in (None, []):
        streams = [SeededRng(31).derive(i) for i in range(cfg.n_augment)]
        with pytest.raises(NumericalAbort) as caught:
            _generate(poisoned, traj, null_opt, c, cfg, streams, None, records)
        messages.append(str(caught.value))
    assert messages == ["non-finite blended latent at step 29"] * 2


def test_club_pixel_loop_checks_only_the_kept_spade_pixels(wide_setup):
    """A non-finite identity-path value at a pixel that every item routes to
    the club path is never read; at a pixel some item keeps, it aborts both
    loops at the first step."""
    model, c, traj, null_opt = wide_setup
    cfg = small_cfg(n_augment=3, mask_policy=MaskPolicy(scheme="bernoulli", p_m=0.3))
    spade = _held_masks(model, traj, null_opt, c, cfg)
    kept = spade.any(axis=0).ravel()
    for pixel, aborts in ((np.flatnonzero(~kept)[0], False), (np.flatnonzero(kept)[0], True)):
        noise = null_opt.identity_noise.copy()
        noise.flat[pixel] = np.nan
        poisoned = dataclasses.replace(null_opt, identity_noise=noise)
        if aborts:
            for records in (None, []):
                streams = [SeededRng(31).derive(i) for i in range(cfg.n_augment)]
                with pytest.raises(NumericalAbort, match="^non-finite blended latent at step 59$"):
                    _generate(model, traj, poisoned, c, cfg, streams, None, records)
        else:
            (got, _), (want, _) = _both_loops(model, traj, poisoned, c, cfg)
            assert np.isfinite(got).all()
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.fixture(scope="module")
def steep_setup():
    """An analytic set-up on a 60-step schedule so steep that gamma_60 -
    gamma_t exceeds 1 at every t < 60: a finite identity noise can make the
    identity-path jump overflow at any step."""
    schedule = build_schedule(60, 1e-4, 0.2)
    rng = SeededRng(47)
    model = AnalyticGaussianDenoiser(schedule, (6, 9), 16, mu=0.2, rng=rng.derive(1))
    c = ConditionEmbedding(rng.derive(2).normal(16))
    traj = ddim_invert(model, 0.3 + 0.4 * rng.derive(3).random((6, 9)), 60, 10, c)
    null_opt = optimize_null_text(model, traj, c, 2.0,
                                  NullOptConfig(lr=0.1, max_steps=10, early_stop=0.0))
    return model, c, traj, null_opt


@pytest.mark.parametrize("k", [30, 45])
def test_identity_path_overflow_at_an_interior_step_aborts_both_loops_there(steep_setup, k):
    """An identity noise whose jump passes the float range first at step k,
    at one pixel some item keeps: the club-pixel loop, which checks the
    jump's t = 0 value once and then step by step, aborts at step k as the
    full loop does. At a pixel no item keeps, neither loop aborts and their
    bits agree."""
    model, c, traj, null_opt = steep_setup
    cfg = small_cfg(n_augment=3, mask_policy=MaskPolicy(scheme="bernoulli", p_m=0.3))
    kept = _held_masks(model, traj, null_opt, c, cfg).any(axis=0).ravel()
    reach = model.schedule.gammas[cfg.tau] - model.schedule.gammas
    # |reach[t]| * big overflows for t <= k, not for t = k + 1
    big = np.finfo(np.float64).max / np.sqrt(reach[k] * reach[k + 1])
    for pixel, aborts in ((np.flatnonzero(kept)[0], True), (np.flatnonzero(~kept)[0], False)):
        noise = null_opt.identity_noise.copy()
        noise.flat[pixel] = big
        poisoned = dataclasses.replace(null_opt, identity_noise=noise)
        with np.errstate(over="ignore", invalid="ignore"):
            if aborts:
                for records in (None, []):
                    streams = [SeededRng(31).derive(i) for i in range(cfg.n_augment)]
                    with pytest.raises(NumericalAbort,
                                       match=f"^non-finite blended latent at step {k}$"):
                        _generate(model, traj, poisoned, c, cfg, streams, None, records)
            else:
                (got, _), (want, _) = _both_loops(model, traj, poisoned, c, cfg)
                assert np.isfinite(got).all()
                assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("club_stride", [1, 7])
@pytest.mark.parametrize("resample, records, column", [
    (False, None, True), (False, [], False), (True, None, False)],
    ids=["column", "recorded", "masks_per_step"])
def test_loop_work_counts(wide_setup, monkeypatch, club_stride, resample, records, column):
    """The identity-path jump runs once per set on the club-pixel column,
    whose t = 0 value is finite, and once per step on the full grid; the
    guidance runs once per step on both."""
    model, c, traj, null_opt = wide_setup
    cfg = small_cfg(n_augment=3, club_stride=club_stride,
                    mask_policy=MaskPolicy(scheme="bernoulli", p_m=0.6,
                                           resample_per_step=resample))
    counts = {"move": 0, "cfg_multi": 0}
    for name in counts:
        def counted(*args, _original=getattr(engine_module, name), _name=name, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(engine_module, name, counted)
    streams = [SeededRng(31).derive(i) for i in range(cfg.n_augment)]
    _generate(model, traj, null_opt, c, cfg, streams, None, records)
    steps = -(-cfg.tau // club_stride)
    assert counts == {"move": 1 if column else steps, "cfg_multi": steps}


def test_generate_one_deterministic(setup):
    model, c, x0, traj, null_opt = setup
    cfg = small_cfg()
    a = generate_one(model, x0, null_opt, c, cfg, SeededRng(9, 2), trajectory=traj)
    b = generate_one(model, x0, null_opt, c, cfg, SeededRng(9, 2), trajectory=traj)
    assert np.array_equal(a, b)


def test_generate_one_recomputes_missing_trajectory(setup):
    model, c, x0, traj, null_opt = setup
    cfg = small_cfg()
    with_traj = generate_one(model, x0, null_opt, c, cfg, SeededRng(10), trajectory=traj)
    without = generate_one(model, x0, null_opt, c, cfg, SeededRng(10))
    assert np.array_equal(with_traj, without)


def test_generate_one_aborts_on_nonfinite(setup, schedule):
    model, c, x0, traj, null_opt = setup

    class ExplodingModel(Denoiser):
        kind = "exploding"

        def __init__(self, base, sched):
            self.embedding_dim = base.embedding_dim
            self.schedule = sched
            self._base = base

        def null_embedding(self):
            return self._base.null_embedding()

        def predict_each(self, x, t, embeddings, out=None):
            if out is None:
                out = np.empty((len(embeddings),) + x.shape)
            out[...] = np.inf
            return out

    cfg = small_cfg(mask_policy=MaskPolicy(scheme="bernoulli", p_m=0.0))
    # inf - inf in both guidance terms warns once each before the abort
    with pytest.warns(RuntimeWarning, match="invalid value encountered in subtract") as caught, \
            pytest.raises(NumericalAbort, match="step"):
        generate_one(ExplodingModel(model, schedule), x0, null_opt, c, cfg,
                     SeededRng(11), trajectory=traj)
    assert len(caught) == 2


def test_mean_centering_over_mask_randomness(setup, schedule):
    """With a fixed lambda_r and per-pixel-independent linear dynamics, the
    expectation of the output over Bernoulli masks is the p-weighted convex
    combination of the two deterministic path outputs."""
    model, c, x0, traj, null_opt = setup
    p = 0.6
    lam = 1.0
    cfg = small_cfg(
        mask_policy=MaskPolicy(scheme="bernoulli", p_m=p),
        lambda_r_low=lam, lambda_r_high=lam,
    )
    spade_out = generate_one(
        model, x0, null_opt, c,
        small_cfg(mask_policy=MaskPolicy(scheme="bernoulli", p_m=1.0),
                  lambda_r_low=lam, lambda_r_high=lam),
        SeededRng(0), trajectory=traj,
    )
    club_out = generate_one(
        model, x0, null_opt, c,
        small_cfg(mask_policy=MaskPolicy(scheme="bernoulli", p_m=0.0),
                  lambda_r_low=lam, lambda_r_high=lam),
        SeededRng(0), trajectory=traj,
    )
    n = 200
    rng = SeededRng(123)
    samples = np.stack([
        generate_one(model, x0, null_opt, c, cfg, rng.derive(i), trajectory=traj)
        for i in range(n)
    ])
    # sharp structural fact behind the convex combination: per pixel each
    # sample IS one of the two deterministic path outputs
    dist = np.minimum(np.abs(samples - spade_out[None]),
                      np.abs(samples - club_out[None]))
    assert np.max(dist) < 1e-10
    spade_freq = np.isclose(samples, spade_out[None], atol=1e-10).mean()
    n_total = samples.size
    assert abs(spade_freq - p) <= 3.0 * np.sqrt(p * (1 - p) / n_total)
    # per-pixel 3-SE agreement, allowing the multiplicity of 64 pixels:
    # z-scores behave like standard normals, so cap the worst at 5 and the
    # 3-sigma exceedance fraction at a few counts
    mean = samples.mean(axis=0)
    expected = p * spade_out + (1.0 - p) * club_out
    se = np.abs(spade_out - club_out) * np.sqrt(p * (1 - p) / n) + 1e-300
    z = np.abs(mean - expected) / se
    assert np.max(z) < 5.0
    assert (z > 3.0).mean() <= 5.0 / z.size


# ---- generate_set ----


def test_generate_set_shares_one_optimization(setup):
    model, c, x0, traj, null_opt = setup
    cfg = small_cfg(n_augment=3)
    aset = generate_set(model, x0, c, cfg, SeededRng(50))
    assert len(aset.augmented) == 3
    shared = optimize_null_text(model, _invert(model, x0, c, cfg), c, 2.0, cfg.null_opt)
    assert aset.null_opt.final_loss == shared.final_loss
    assert aset.null_opt.trace == shared.trace
    assert np.array_equal(aset.null_opt.identity_noise, shared.identity_noise)
    lams = [item.lambda_r for item in aset.per_item]
    assert all(cfg.lambda_r_low <= l <= cfg.lambda_r_high for l in lams)
    assert len(set(lams)) == 3


def test_generate_set_reproducible(setup):
    model, c, x0, traj, null_opt = setup
    cfg = small_cfg(n_augment=2)
    a = generate_set(model, x0, c, cfg, SeededRng(51, 9))
    b = generate_set(model, x0, c, cfg, SeededRng(51, 9))
    for ga, gb in zip(a.augmented, b.augmented):
        assert np.array_equal(ga, gb)
    assert a.per_item == b.per_item


def test_generate_set_past_the_float_range_warns_of_nothing(setup, schedule):
    """A null-text loss that overflows is inf, with no step taken after it,
    and a model whose outputs overflow ends in NumericalAbort; numpy reports
    neither."""
    model, c, x0, traj, null_opt = setup
    conv = ConvDenoiser(schedule, channels=1, embedding_dim=8, hidden=4, rng=SeededRng(5))
    conv.set_flat_parameters(np.full(conv.flat_parameters().size, 1e300))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        huge = small_cfg(guidance=GuidanceConfig(omega=1e300, lambda_c=1.0, lambda_r=1.0))
        aset = generate_set(model, x0, c, huge, SeededRng(53))
        assert aset.null_opt.final_loss == np.inf and np.isfinite(aset.augmented).all()
        assert aset.null_opt.trace == (np.inf,) and aset.null_opt.iterations_used == 0
        with pytest.raises(NumericalAbort, match="non-finite relevance map"):
            generate_set(conv, x0, conv.null_embedding(), small_cfg(tau=20), SeededRng(54))


def test_single_all_spade_augmentation_is_reconstruction(setup):
    model, c, x0, traj, null_opt = setup
    cfg = small_cfg(n_augment=1, mask_policy=MaskPolicy(scheme="bernoulli", p_m=1.0))
    aset = generate_set(model, x0, c, cfg, SeededRng(52))
    shared = optimize_null_text(model, traj, c, 2.0, cfg.null_opt)
    rec = one_step_reconstruct(model, traj.x_tau, traj.tau, c, shared.embedding, 2.0)
    assert np.array_equal(aset.augmented[0], rec)


def test_invert_with_null_inverts_under_the_null_embedding(setup):
    model, c, x0, traj, _ = setup
    got = _invert(model, x0, c, small_cfg(invert_with="null"))
    want = ddim_invert(model, x0, 60, 10, model.null_embedding())
    assert got.steps == want.steps
    assert all(np.array_equal(a, b) for a, b in zip(got.latents, want.latents))
    # the setup's semantic inversion takes another path
    assert not np.array_equal(got.x_tau, traj.x_tau)


def _set_equals_single_generations(model, x0, c, cfg, rng, relevance_fn):
    """generate_set against a loop of generate_one on the streams
    rng.derive(i), sharing the set's inversion and null-text optimization."""
    aset = generate_set(model, x0, c, cfg, rng, relevance_fn=relevance_fn)
    traj = ddim_invert(model, x0, cfg.tau, cfg.inversion_interval, c)
    null_opt = optimize_null_text(model, traj, c, cfg.guidance.omega, cfg.null_opt)
    assert len(aset.augmented) == cfg.n_augment
    for i, (got, item) in enumerate(zip(aset.augmented, aset.per_item)):
        single = generate_one(model, x0, null_opt, c, cfg, rng.derive(i),
                              trajectory=traj, relevance_fn=relevance_fn)
        assert np.array_equal(got, single), f"item {i}"
        first_draw = float(rng.derive(i).uniform(cfg.lambda_r_low, cfg.lambda_r_high))
        assert item.lambda_r == first_draw
        assert item.mask_stream == rng.derive(i).stream_id


def test_generate_set_equals_single_generations_held_hybrid(setup):
    model, c, x0, traj, null_opt = setup
    cfg = small_cfg(tau=300, n_augment=10,
                    mask_policy=MaskPolicy(scheme="hybrid", p_m=0.75,
                                           relevance_quantile=0.3))
    _set_equals_single_generations(
        model, x0, c, cfg, SeededRng(53, 4),
        lambda x, t, pred: consistency_relevance(model, x, t, c, pred),
    )


def test_generate_set_equals_single_generations_resampled_strided(setup):
    model, c, x0, traj, null_opt = setup
    cfg = small_cfg(n_augment=4, club_stride=7,
                    mask_policy=MaskPolicy(scheme="bernoulli", p_m=0.5,
                                           resample_per_step=True))
    _set_equals_single_generations(model, x0, c, cfg, SeededRng(54), None)


def test_generate_set_equals_single_generations_conv(schedule):
    rng = SeededRng(55)
    model = ConvDenoiser(schedule, channels=1, embedding_dim=16, hidden=16,
                         rng=rng.derive(1))
    flat = model.flat_parameters()
    model.set_flat_parameters(flat + 0.05 * rng.derive(2).normal(flat.shape))
    c = ConditionEmbedding(rng.derive(3).normal(16))
    x0 = 0.2 + 0.5 * rng.derive(4).random((10, 10))
    cfg = small_cfg(tau=20, n_augment=3,
                    mask_policy=MaskPolicy(scheme="hybrid", p_m=0.75,
                                           resample_per_step=True),
                    null_opt=NullOptConfig(lr=0.1, max_steps=10, early_stop=1e-7))
    _set_equals_single_generations(
        model, x0, c, cfg, SeededRng(56),
        lambda x, t, pred: consistency_relevance(model, x, t, c, pred),
    )


def test_conv_set_item_does_not_depend_on_the_set_size(schedule):
    # hidden 12 on a 16x16 grid: a product over the whole stack once gave
    # other bits than the product over one grid, so item 0 changed with N
    rng = SeededRng(61)
    model = ConvDenoiser(schedule, embedding_dim=8, hidden=12, rng=rng.derive(1))
    flat = model.flat_parameters()
    model.set_flat_parameters(flat + 0.1 * rng.derive(2).normal(flat.shape))
    c = ConditionEmbedding(rng.derive(3).normal(8))
    x0 = 0.2 + 0.5 * rng.derive(4).random((16, 16))
    def relevance(x, t, pred):
        return consistency_relevance(model, x, t, c, pred)

    items = []
    for n in (1, 4):
        cfg = small_cfg(tau=20, n_augment=n,
                        mask_policy=MaskPolicy(scheme="hybrid", p_m=0.75,
                                               resample_per_step=True),
                        null_opt=NullOptConfig(lr=0.1, max_steps=5, early_stop=0.0))
        items.append(generate_set(model, x0, c, cfg, SeededRng(62), relevance_fn=relevance)
                     .augmented[0])
    assert np.array_equal(items[0], items[1])


@pytest.mark.parametrize("resample", [True, False])
def test_conv_step_forward_and_backward_counts(schedule, conv_passes, resample):
    model, c, x0, traj, null_opt = _conv_setup(schedule)
    cfg = small_cfg(tau=20, mask_policy=MaskPolicy(scheme="hybrid", resample_per_step=resample))
    conv_passes.clear()
    generate_one(model, x0, null_opt, c, cfg, SeededRng(59), trajectory=traj)
    if resample:
        # per step: the semantic prediction, whose graph the relevance's input
        # gradient reuses, and one call for the null and identity conditions
        assert conv_passes == {"forward": 2 * cfg.tau, "backward": cfg.tau}
    else:
        # one relevance at x_tau, then one call for all three conditions a step
        assert conv_passes == {"forward": cfg.tau + 1, "backward": 1}


class _OneForwardPerEmbedding(ConvDenoiser):
    """The reference for a shared forward: one ``predict`` per embedding."""

    def predict_each(self, x, t, embeddings, out=None):
        preds = np.stack([self.predict(x, t, e) for e in embeddings])
        if out is None:
            return preds
        out[...] = preds
        return out

    def predict(self, x, t, e):
        return ConvDenoiser.predict_each(self, x, t, [e])[0]


@pytest.mark.parametrize("resample, max_steps, per_step", [
    (False, 0, [2]),     # null and semantic; the identity term reuses the null's
    (True, 0, [1, 1]),   # the semantic, kept for the relevance; null and identity
    (False, 5, [3]),     # null-text moved the null off zero: three embeddings
])
def test_conv_loop_forwards_each_distinct_embedding_once(schedule, conv_batch_items, resample,
                                                         max_steps, per_step):
    """Batch items of each conv forward over a loop of N = 3: each step
    predicts every distinct embedding once, and the stack keeps the bytes of
    a model that predicts each embedding on its own."""
    model, c, x0, _, _ = _conv_setup(schedule)
    # embedding channels that carry weight, so a null-text step can lower the loss
    flat = model.flat_parameters()
    model.set_flat_parameters(flat + 0.05 * SeededRng(63).normal(flat.shape))
    traj = ddim_invert(model, x0, 20, 10, c)
    null_opt = optimize_null_text(model, traj, c, 2.0,
                                  NullOptConfig(lr=0.1, max_steps=max_steps, early_stop=0.0))
    raw = null_opt.embedding.values.tobytes() == model.null_embedding().values.tobytes()
    assert raw == (max_steps == 0)
    reference = _OneForwardPerEmbedding(schedule, embedding_dim=8, hidden=6)
    reference.set_flat_parameters(model.flat_parameters())
    n = 3
    cfg = small_cfg(tau=20, n_augment=n,
                    mask_policy=MaskPolicy(scheme="hybrid", resample_per_step=resample))
    conv_batch_items.clear()
    got, _ = _generate(model, traj, null_opt, c, cfg,
                       [SeededRng(64).derive(i) for i in range(n)], None)
    # held masks read one relevance map, at x_tau, before the first step
    assert conv_batch_items == [1] * (not resample) + [k * n for k in per_step] * cfg.tau
    want, _ = _generate(reference, traj, null_opt, c, cfg,
                        [SeededRng(64).derive(i) for i in range(n)], None)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_shared_semantic_prediction_leaves_generation_unchanged(schedule):
    model, c, x0, traj, null_opt = _conv_setup(schedule)
    cfg = small_cfg(tau=20, mask_policy=MaskPolicy(scheme="hybrid", resample_per_step=True))

    def run(relevance_fn):
        return generate_one(model, x0, null_opt, c, cfg, SeededRng(60), trajectory=traj,
                            relevance_fn=relevance_fn)

    assert np.array_equal(run(None),
                          run(lambda x, t, pred: saliency_relevance(model, x, t, c)))
    assert np.array_equal(run(lambda x, t, pred: consistency_relevance(model, x, t, c, pred)),
                          run(lambda x, t, pred: consistency_relevance(model, x, t, c)))


def test_config_validation():
    with pytest.raises(ConfigError):
        small_cfg(tau=0)
    with pytest.raises(ConfigError):
        small_cfg(n_augment=0)
    with pytest.raises(ConfigError):
        small_cfg(lambda_r_low=2.0, lambda_r_high=1.0)
    with pytest.raises(ConfigError):
        small_cfg(lambda_r_low=-0.5)
    with pytest.raises(ConfigError):
        small_cfg(invert_with="prompt")
    with pytest.raises(ConfigError, match="inversion_interval"):
        small_cfg(inversion_interval=0)
    with pytest.raises(ConfigError, match="omega"):
        small_cfg(guidance=GuidanceConfig(omega=1.0))


# ---- ensemble ----


def _prob(p_fg):
    p_fg = np.asarray(p_fg, dtype=np.float64)
    return np.stack([1.0 - p_fg, p_fg], axis=-1)


def test_ensemble_idempotent_for_identical_members():
    member = _prob(SeededRng(60).random((5, 5)))
    result = ensemble([member, member, member])
    assert np.allclose(result.mean_probability, member, atol=1e-15)
    assert np.allclose(result.entropy_map, entropy_bits(member), atol=1e-15)


def test_entropy_values():
    assert entropy_bits(np.array([0.5, 0.5])) == pytest.approx(1.0, abs=1e-12)
    assert entropy_bits(np.array([1.0, 0.0])) == 0.0
    assert entropy_bits(np.array([0.25, 0.75])) == pytest.approx(0.811278, abs=5e-7)


def test_error_estimate_normalization():
    uniform = _prob(np.full((3, 3), 0.5))
    onehot = _prob(np.zeros((3, 3)))
    skewed = _prob(np.full((3, 3), 0.75))
    assert np.allclose(error_estimate_map(ensemble([uniform])), 1.0, atol=1e-12)
    assert np.allclose(error_estimate_map(ensemble([onehot])), 0.0, atol=1e-15)
    assert np.allclose(error_estimate_map(ensemble([skewed])), 0.811278, atol=5e-7)


def test_ensemble_bounds_and_convex_hull():
    rng = SeededRng(61)
    members = [_prob(rng.random((6, 6))) for _ in range(5)]
    result = ensemble(members)
    stacked = np.stack(members)
    assert np.all(result.mean_probability >= stacked.min(axis=0) - 1e-15)
    assert np.all(result.mean_probability <= stacked.max(axis=0) + 1e-15)
    assert np.all(result.entropy_map <= 1.0 + 1e-12)
    assert np.abs(result.mean_probability.sum(axis=-1) - 1.0).max() < 1e-9


def test_ensemble_rejects_bad_members():
    with pytest.raises(ContractError):
        ensemble([])
    with pytest.raises(ContractError):
        ensemble([np.full((2, 2, 2), 0.9)])
    with pytest.raises(ContractError):
        ensemble(_prob(np.full((2, 2), 0.5)))


def test_resample_per_step_changes_masks(setup):
    model, c, x0, traj, null_opt = setup
    held = generate_one(model, x0, null_opt, c,
                        small_cfg(mask_policy=MaskPolicy(scheme="bernoulli", p_m=0.5)),
                        SeededRng(78), trajectory=traj)
    records = []
    resampled = generate_one(
        model, x0, null_opt, c,
        small_cfg(mask_policy=MaskPolicy(scheme="bernoulli", p_m=0.5,
                                         resample_per_step=True)),
        SeededRng(78), trajectory=traj, record_steps=records)
    assert not np.array_equal(held, resampled)
    masks = {rec["masks"][0].spade.tobytes() for rec in records}
    assert len(masks) > 1
