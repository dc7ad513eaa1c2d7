import numpy as np
import pytest

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
    generate_one,
    generate_set,
    one_step_reconstruct,
    optimize_null_text,
    to_xbar,
)
from ttga.engine import augmentation_path_step, blend, entropy_bits
from ttga.guidance import cfg_single
from ttga.nulltext import jump_from_tau
from ttga.errors import ConfigError, ContractError, NumericalAbort
from ttga.masks import MaskPair, consistency_relevance


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
    traj = ddim_invert(model, x0, 60, 10, c, schedule)
    null_opt = optimize_null_text(model, traj, c, 2.0, schedule,
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
        expected = jump_from_tau(xbar_tau, traj.tau, rec["t_out"], null_opt.identity_noise,
                                 schedule)
        assert np.array_equal(rec["spade"], expected)
    assert records[-1]["t_out"] == 0
    rec = one_step_reconstruct(model, traj.x_tau, traj.tau, c, null_opt.embedding,
                               2.0, schedule)
    assert np.array_equal(records[-1]["spade"], rec)


def _conv_setup(schedule):
    rng = SeededRng(57)
    model = ConvDenoiser(schedule, channels=1, embedding_dim=8, hidden=6, rng=rng.derive(1))
    c = ConditionEmbedding(rng.derive(2).normal(8))
    x0 = 0.2 + 0.5 * rng.derive(3).random((8, 8))
    traj = ddim_invert(model, x0, 20, 10, c, schedule)
    null_opt = optimize_null_text(model, traj, c, 2.0, schedule,
                                  NullOptConfig(lr=0.1, max_steps=5, early_stop=0.0))
    return model, c, x0, traj, null_opt


@pytest.mark.parametrize("kind", ["analytic", "conv"])
def test_identity_noise_is_guided_noise_of_best_embedding(setup, schedule, kind):
    model, c, x0, traj, null_opt = setup if kind == "analytic" else _conv_setup(schedule)
    expected = cfg_single(model.predict(traj.x_tau, traj.tau, null_opt.embedding),
                          model.predict(traj.x_tau, traj.tau, c), 2.0)
    assert np.array_equal(null_opt.identity_noise, expected)


def test_augmentation_step_reduces_to_conditional_ddim(setup, schedule):
    model, c, x0, traj, null_opt = setup
    g = GuidanceConfig(omega=2.0, lambda_c=1.0, lambda_r=0.0)
    x_t = traj.x_tau
    t = traj.tau
    got = augmentation_path_step(model, x_t, t, null_opt, c, g, schedule)
    plain = to_xbar(ddim_step(model, x_t, t, t - 1, c, schedule), t - 1, schedule)
    assert np.max(np.abs(got - plain)) < 1e-12


def test_augmentation_step_unconditional_reduction(setup, schedule):
    model, c, x0, traj, null_opt = setup
    g = GuidanceConfig(omega=2.0, lambda_c=0.0, lambda_r=0.0)
    x_t = traj.x_tau
    t = traj.tau
    got = augmentation_path_step(model, x_t, t, null_opt, c, g, schedule)
    plain = to_xbar(
        ddim_step(model, x_t, t, t - 1, model.null_embedding(), schedule), t - 1, schedule
    )
    assert np.max(np.abs(got - plain)) < 1e-12


# ---- blend ----


def test_blend_is_exact_selection():
    rng = SeededRng(4)
    spade_val = rng.normal((6, 6))
    club_val = rng.normal((6, 6))
    mask = MaskPair.from_spade((rng.random((6, 6)) < 0.5).astype(np.uint8))
    out = blend(spade_val, club_val, mask)
    sel = mask.spade.astype(bool)
    assert np.array_equal(out[sel], spade_val[sel])
    assert np.array_equal(out[~sel], club_val[~sel])


# ---- generate_one ----


def test_all_spade_is_bit_identical_to_reconstruction(setup, schedule):
    model, c, x0, traj, null_opt = setup
    cfg = small_cfg(mask_policy=MaskPolicy(scheme="bernoulli", p_m=1.0))
    out = generate_one(model, x0, null_opt, c, cfg, SeededRng(100), trajectory=traj)
    rec = one_step_reconstruct(model, traj.x_tau, traj.tau, c, null_opt.embedding,
                               2.0, schedule)
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

    class ExplodingModel:
        kind = "exploding"

        def __init__(self, base, sched):
            self.embedding_dim = base.embedding_dim
            self.schedule = sched
            self._base = base

        def null_embedding(self):
            return self._base.null_embedding()

        def predict(self, x, t, e):
            return np.full_like(x, np.inf)

    cfg = small_cfg(mask_policy=MaskPolicy(scheme="bernoulli", p_m=0.0))
    with pytest.raises(NumericalAbort, match="step"):
        generate_one(ExplodingModel(model, schedule), x0, null_opt, c, cfg,
                     SeededRng(11), trajectory=traj)


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
    losses = {item.reconstruction_loss for item in aset.per_item}
    assert len(losses) == 1
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


def test_single_all_spade_augmentation_is_reconstruction(setup, schedule):
    model, c, x0, traj, null_opt = setup
    cfg = small_cfg(n_augment=1, mask_policy=MaskPolicy(scheme="bernoulli", p_m=1.0))
    aset = generate_set(model, x0, c, cfg, SeededRng(52))
    shared = optimize_null_text(model, traj, c, 2.0, schedule, cfg.null_opt)
    rec = one_step_reconstruct(model, traj.x_tau, traj.tau, c, shared.embedding,
                               2.0, schedule)
    assert np.array_equal(aset.augmented[0], rec)


def _set_equals_single_generations(model, x0, c, cfg, rng, relevance_fn):
    """generate_set against a loop of generate_one on the streams
    rng.derive(i), sharing the set's inversion and null-text optimization."""
    aset = generate_set(model, x0, c, cfg, rng, relevance_fn=relevance_fn)
    traj = ddim_invert(model, x0, cfg.tau, cfg.inversion_interval, c, model.schedule)
    null_opt = optimize_null_text(model, traj, c, cfg.guidance.omega, model.schedule,
                                  cfg.null_opt)
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
        lambda x, t: consistency_relevance(model, x, t, c),
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
        lambda x, t: consistency_relevance(model, x, t, c),
    )


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
        ensemble([_prob(np.full((2, 2), 0.5)), _prob(np.full((3, 3), 0.5))])


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
