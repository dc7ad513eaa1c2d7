
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import EDGE_FLOATS, central_difference, relative_gradient_match
from oracles import stepwise_nulltext_inversion
from ttga import (
    AdamState,
    AnalyticGaussianDenoiser,
    ConditionEmbedding,
    ConvDenoiser,
    NullOptConfig,
    SeededRng,
    adam_step,
    build_schedule,
    ddim_invert,
    one_step_reconstruct,
    optimize_null_text,
    to_xbar,
)
from ttga.errors import ContractError, DegenerateGuidanceError
from ttga.guidance import cfg_single
from ttga.nulltext import reconstruction_loss
from ttga.sampler import ddim_sample


@pytest.fixture(scope="module")
def schedule():
    return build_schedule()


# ---- adam ----


def test_adam_converges_on_quadratic():
    x = np.array([1.0])
    state = AdamState(dim=1, lr=0.1)
    for _ in range(200):
        x = adam_step(state, x, 2.0 * x)
    assert abs(x[0]) < 1e-3


def test_adam_zero_gradient_is_fixed_point():
    x = np.array([0.7, -0.3])
    state = AdamState(dim=2, lr=0.1)
    for _ in range(50):
        x = adam_step(state, x, np.zeros(2))
    assert np.array_equal(x, np.array([0.7, -0.3]))


def test_adam_first_step_is_signed_lr():
    g = np.array([0.5, -2.0, 1e-3])
    x = np.zeros(3)
    state = AdamState(dim=3, lr=0.1)
    x = adam_step(state, x, g)
    # bias correction makes mhat = g, vhat = g^2, so the step is
    # -lr * g / (|g| + eps) = -lr * sign(g) up to the eps_hat effect
    expected = -0.1 * g / (np.abs(g) + state.eps_hat)
    assert np.allclose(x, expected, rtol=1e-12)
    assert np.all(np.abs(x + 0.1 * np.sign(g)) < 1e-5)


def test_adam_length_mismatch():
    state = AdamState(dim=2, lr=0.1)
    with pytest.raises(ContractError):
        adam_step(state, np.zeros(2), np.zeros(3))


# ---- one_step_reconstruct ----


class ZeroDenoiser:
    kind = "zero"
    embedding_dim = 2

    def __init__(self, schedule):
        self.schedule = schedule

    def null_embedding(self):
        return ConditionEmbedding(np.zeros(2))

    def predict(self, x, t, e):
        return np.zeros_like(x)


def test_one_step_zero_eps_is_rescale(schedule, rng):
    m = ZeroDenoiser(schedule)
    x_tau = rng.normal((6, 6))
    tau = 300
    out = one_step_reconstruct(m, x_tau, tau, m.null_embedding(), m.null_embedding(), 2.0)
    assert np.allclose(out, x_tau / np.sqrt(schedule.alpha_bars[tau]), rtol=1e-13)


def test_one_step_matches_hand_computed_closed_form(schedule, rng):
    m = AnalyticGaussianDenoiser(schedule, (5, 5), 3, mu=0.0, rng=SeededRng(4))
    x_tau = rng.normal((5, 5))
    tau = 200
    c = ConditionEmbedding(rng.normal(3))
    null = m.null_embedding()
    omega = 2.0
    abar = schedule.alpha_bars[tau]
    s_t = np.sqrt(1.0 - abar)
    base = s_t * x_tau
    pc = (m.projection @ c.values).reshape(5, 5)
    eps_dot = (1.0 - omega) * base + omega * (base + pc)
    hand = x_tau / np.sqrt(abar) - schedule.gammas[tau] * eps_dot
    got = one_step_reconstruct(m, x_tau, tau, c, null, omega)
    assert np.max(np.abs(got - hand)) < 1e-10


def test_one_step_omega_one_ignores_null_embedding(schedule, rng):
    m = AnalyticGaussianDenoiser(schedule, (5, 5), 3, mu=0.2, rng=SeededRng(4))
    x_tau = rng.normal((5, 5))
    c = ConditionEmbedding(rng.normal(3))
    a = one_step_reconstruct(m, x_tau, 100, c, m.null_embedding(), 1.0)
    b = one_step_reconstruct(m, x_tau, 100, c,
                             ConditionEmbedding(rng.normal(3)), 1.0)
    assert np.array_equal(a, b)


# ---- optimize_null_text ----


def _least_squares_target(model, traj, c, omega, schedule):
    """Closed-form minimizer of the one-step reconstruction MSE for the
    linear oracle; solved through the normal equations."""
    tau = traj.tau
    x_tau = traj.x_tau
    base = one_step_reconstruct(model, x_tau, tau, c, model.null_embedding(), omega)
    r0 = (traj.x0 - base).ravel()
    # residual(e) = r0 + gamma_tau * (1 - omega) * P e
    b_mat = schedule.gammas[tau] * (1.0 - omega) * model.projection
    e_star, *_ = np.linalg.lstsq(b_mat, r0, rcond=None)
    min_loss = float(np.mean((r0 - b_mat @ e_star) ** 2))
    return e_star, min_loss


def _invert_scene(schedule, dim=24, size=8, seed=31, mu=0.0):
    rng = SeededRng(seed)
    model = AnalyticGaussianDenoiser(schedule, (size, size), dim, mu=mu,
                                     rng=rng.derive(1))
    c = ConditionEmbedding(rng.derive(2).normal(dim))
    yy, xx = np.mgrid[0:size, 0:size]
    x0 = 0.2 + 0.6 * (((yy - size / 2) ** 2 + (xx - size / 2) ** 2) <= 6.0)
    x0 = x0 + rng.derive(3).normal((size, size)) * 0.02
    traj = ddim_invert(model, x0, 300, 10, c)
    return model, c, traj


def test_optimizer_reaches_least_squares_minimum(schedule):
    model, c, traj = _invert_scene(schedule)
    e_star, min_loss = _least_squares_target(model, c, 2.0, schedule) if False else \
        _least_squares_target(model, traj, c, 2.0, schedule)
    result = optimize_null_text(
        model, traj, c, 2.0,
        NullOptConfig(lr=0.1, max_steps=2000, early_stop=0.0),
    )
    assert abs(result.final_loss - min_loss) < 1e-6


def test_optimizer_starting_at_minimum_stops_immediately(schedule):
    model, c, traj = _invert_scene(schedule, dim=128, size=8)
    result = optimize_null_text(model, traj, c, 2.0,
                                NullOptConfig(lr=0.1, max_steps=500, early_stop=5e-4))
    # re-run with the solved embedding as the canonical start by shifting the
    # projection offset into the model is overkill; instead assert the
    # trivial restatement: a second optimization whose early_stop already
    # exceeds the initial loss stops at iteration 0
    init_loss = reconstruction_loss(
        one_step_reconstruct(model, traj.x_tau, traj.tau, c, model.null_embedding(), 2.0),
        traj.x0,
    )
    again = optimize_null_text(model, traj, c, 2.0,
                               NullOptConfig(lr=0.1, max_steps=500,
                                             early_stop=init_loss * 1.0000001))
    assert again.iterations_used == 0
    assert result.final_loss <= 5e-4


@settings(max_examples=100, deadline=None)
@given(st.data(), st.sampled_from([(1, 1), (2, 3), (8, 8), (17, 40), (32, 32)]))
def test_reconstruction_loss_has_the_bits_of_np_mean(data, shape):
    recon, x0 = (data.draw(arrays(np.float64, shape, elements=EDGE_FLOATS)) for _ in range(2))
    with np.errstate(over="ignore", invalid="ignore"):
        got = reconstruction_loss(recon, x0)
        want = float(np.mean((x0 - recon) ** 2))
    assert type(got) is float
    assert np.float64(got).view(np.int64) == np.float64(want).view(np.int64)


def test_best_so_far_loss_monotone(schedule):
    model, c, traj = _invert_scene(schedule, dim=16)
    result = optimize_null_text(model, traj, c, 2.0,
                                NullOptConfig(lr=0.1, max_steps=120, early_stop=0.0))
    assert len(result.trace) == 121
    best = np.minimum.accumulate(result.trace)
    assert np.all(np.diff(best) <= 0.0)


@pytest.mark.parametrize("dim, early_stop", [(16, 0.0), (128, 5e-4)])
def test_trace_holds_the_loss_of_every_iteration(schedule, dim, early_stop):
    """One loss per iteration from 0: the first at the zero embedding, and
    the least of them, not always the last, is the reported loss, bit for
    bit."""
    model, c, traj = _invert_scene(schedule, dim=dim)
    result = optimize_null_text(model, traj, c, 2.0,
                                NullOptConfig(lr=0.1, max_steps=200, early_stop=early_stop))
    assert len(result.trace) == result.iterations_used + 1
    zero = one_step_reconstruct(model, traj.x_tau, traj.tau, c, model.null_embedding(), 2.0)
    assert result.trace[0] == reconstruction_loss(zero, traj.x0)
    assert min(result.trace) == result.final_loss
    if early_stop:
        assert result.iterations_used < 200 and result.trace[-1] <= early_stop
    else:
        assert result.trace[-1] > result.final_loss


@pytest.mark.parametrize("omega, max_steps", [(2.0, 0), (1e200, 500)])
def test_null_text_edge_exits_keep_the_zero_embedding(schedule, omega, max_steps):
    """With no step allowed, or a first loss that overflows to inf, the
    result is the zero embedding's evaluation, bit for bit: no iteration,
    one loss in the trace, and its guided noise as the identity noise."""
    model, c, traj = _invert_scene(schedule, dim=16)
    with np.errstate(over="ignore", invalid="ignore"):
        result = optimize_null_text(model, traj, c, omega,
                                    NullOptConfig(lr=0.1, max_steps=max_steps, early_stop=0.0))
        null = model.null_embedding()
        zero = one_step_reconstruct(model, traj.x_tau, traj.tau, c, null, omega)
        first = reconstruction_loss(zero, traj.x0)
        guided = cfg_single(model.predict(traj.x_tau, traj.tau, null),
                            model.predict(traj.x_tau, traj.tau, c), omega)
    assert (first == np.inf) == (omega == 1e200)
    assert result.iterations_used == 0
    assert result.trace == (first,)
    assert result.final_loss == first
    assert not result.embedding.values.any()
    assert result.identity_noise.tobytes() == guided.tobytes()


def test_null_loss_gradient_matches_fd_conv(schedule):
    rng = SeededRng(55)
    model = ConvDenoiser(schedule, channels=1, embedding_dim=3, hidden=5,
                         rng=rng.derive(1))
    x_tau = rng.normal((6, 6))
    x0 = rng.normal((6, 6))
    c = ConditionEmbedding(rng.normal(3))
    tau, omega = 200, 2.0
    gamma_tau = schedule.gammas[tau]
    eps_c = model.predict(x_tau, tau, c)
    xbar = to_xbar(x_tau, tau, schedule)

    def loss_of(values):
        eps_e = model.predict(x_tau, tau, ConditionEmbedding(values))
        recon = xbar - gamma_tau * cfg_single(eps_e, eps_c, omega)
        return float(np.mean((x0 - recon) ** 2))

    e0 = rng.normal(3)
    recon = xbar - gamma_tau * cfg_single(
        model.predict(x_tau, tau, ConditionEmbedding(e0)), eps_c, omega
    )
    upstream = (2.0 / x0.size) * (recon - x0) * (-gamma_tau) * (1.0 - omega)
    analytic = model.grad_wrt_embedding(upstream, x_tau, tau, ConditionEmbedding(e0))
    numeric = central_difference(loss_of, e0)
    assert relative_gradient_match(analytic, numeric)


def test_conv_null_text_iteration_runs_one_forward_and_one_backward(schedule, conv_passes):
    rng = SeededRng(58)
    model = ConvDenoiser(schedule, channels=1, embedding_dim=4, hidden=6, rng=rng.derive(1))
    c = ConditionEmbedding(rng.normal(4))
    traj = ddim_invert(model, 0.2 + 0.5 * rng.derive(2).random((8, 8)), 20, 10, c)
    conv_passes.clear()
    k = 7
    result = optimize_null_text(model, traj, c, 2.0,
                                NullOptConfig(lr=0.1, max_steps=k, early_stop=0.0))
    assert result.iterations_used == k
    # the semantic prediction, the starting embedding, then one of each per
    # iteration: each prediction keeps the graph its gradient is taken from
    assert conv_passes == {"forward": k + 2, "backward": k}


def test_omega_one_is_rejected(schedule):
    model, c, traj = _invert_scene(schedule)
    with pytest.raises(DegenerateGuidanceError):
        optimize_null_text(model, traj, c, 1.0, NullOptConfig())


def test_one_step_variant_comparable_to_stepwise_oracle(schedule):
    """At tiny tau the per-rung tuning oracle and the single-jump variant
    must reach similar reconstruction quality, with the one-step variant
    spending no more optimizer iterations."""
    model, c, traj_full = _invert_scene(schedule, dim=96, size=8, seed=77)
    traj = ddim_invert(model, traj_full.x0, 30, 10, c)
    opt = NullOptConfig(lr=0.1, max_steps=300, early_stop=1e-6)

    one = optimize_null_text(model, traj, c, 2.0, opt)
    recon_one = one_step_reconstruct(model, traj.x_tau, traj.tau, c,
                                     one.embedding, 2.0)
    mse_one = reconstruction_loss(recon_one, traj.x0)

    recon_step, _, iters_step = stepwise_nulltext_inversion(model, traj, c, 2.0, opt)
    mse_step = reconstruction_loss(recon_step, traj.x0)

    assert mse_one <= max(5.0 * mse_step, 1e-5)
    assert one.iterations_used <= iters_step


def test_optimized_null_improves_round_trip(schedule):
    """Guided resampling down the ladder with the optimized embedding must
    beat the unoptimized null embedding at reconstructing the input."""
    model, c, traj = _invert_scene(schedule, dim=128)
    result = optimize_null_text(model, traj, c, 2.0,
                                NullOptConfig(lr=0.1, max_steps=400, early_stop=1e-8))
    raw = one_step_reconstruct(model, traj.x_tau, traj.tau, c,
                               model.null_embedding(), 2.0)
    tuned = one_step_reconstruct(model, traj.x_tau, traj.tau, c,
                                 result.embedding, 2.0)
    assert reconstruction_loss(tuned, traj.x0) < 0.01 * reconstruction_loss(raw, traj.x0)
