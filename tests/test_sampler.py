import numpy as np
import pytest

from ttga import (
    AnalyticGaussianDenoiser,
    ConditionEmbedding,
    SeededRng,
    build_schedule,
    ddim_invert,
    ddim_step,
    to_xbar,
)
from ttga.errors import ContractError
from ttga.sampler import InversionTrajectory, ddim_sample, inversion_ladder


@pytest.fixture(scope="module")
def schedule():
    return build_schedule()


class ZeroDenoiser:
    """Predicts exactly zero noise; handy for rescale-only identities."""

    kind = "zero"
    embedding_dim = 1

    def __init__(self, schedule):
        self.schedule = schedule

    def null_embedding(self):
        return ConditionEmbedding(np.zeros(1))

    def predict(self, x, t, e):
        return np.zeros_like(x)


def analytic(schedule, mu=0.0, shape=(8, 8), dim=4, seed=3):
    return AnalyticGaussianDenoiser(schedule, shape, dim, mu=mu, rng=SeededRng(seed))


# ---- ddim_step ----


def test_ddim_zero_eps_is_pure_rescale(schedule, rng):
    m = ZeroDenoiser(schedule)
    x = rng.normal((5, 5))
    t, t_next = 400, 100
    out = ddim_step(m, x, t, t_next, m.null_embedding())
    ratio = np.sqrt(schedule.alpha_bars[t_next] / schedule.alpha_bars[t])
    assert np.allclose(out, ratio * x, rtol=1e-13)


def test_ddim_endpoint_identity(schedule, rng):
    m = analytic(schedule)
    x = rng.normal((8, 8))
    e = m.null_embedding()
    t = 250
    out = ddim_step(m, x, t, 0, e)
    expected = to_xbar(x, t, schedule) - schedule.gammas[t] * m.predict(x, t, e)
    assert np.array_equal(out, expected)


def test_ddim_rejects_non_descending(schedule, rng):
    m = ZeroDenoiser(schedule)
    with pytest.raises(ContractError):
        ddim_step(m, rng.normal((2, 2)), 100, 100, m.null_embedding())


def test_ddim_deterministic_bitwise(schedule, rng):
    m = analytic(schedule, mu=0.3)
    x = rng.normal((8, 8))
    e = ConditionEmbedding(rng.normal(4))
    assert np.array_equal(
        ddim_step(m, x, 500, 450, e), ddim_step(m, x, 500, 450, e)
    )


def test_ddim_chain_vs_single_jump(schedule, rng):
    m = analytic(schedule, mu=0.0)
    e = m.null_embedding()
    x = rng.normal((8, 8))
    t, t_next = 320, 280
    jump = ddim_step(m, x, t, t_next, e)
    chained = ddim_sample(m, x, list(range(t, t_next - 1, -1)), e)
    rel = np.linalg.norm(chained - jump) / np.linalg.norm(chained)
    assert rel < 0.02


def test_ddim_mean_dynamics_match_closed_form(schedule, rng):
    """With the linear oracle each step is an affine map computable by hand;
    the sampler must track it to 1e-6 at every visited step."""
    m = analytic(schedule, mu=0.0, shape=(6, 6), dim=3, seed=9)
    e = m.null_embedding()
    x = rng.normal((6, 6))
    steps = list(range(300, -1, -50))
    hand = to_xbar(x, 300, schedule)
    got = x
    for t, t_next in zip(steps[:-1], steps[1:]):
        s_t = np.sqrt(1.0 - schedule.alpha_bars[t])
        scale = np.sqrt(schedule.alpha_bars[t])
        hand = hand + (schedule.gammas[t_next] - schedule.gammas[t]) * s_t * scale * hand
        got = ddim_step(m, got, t, t_next, e)
        hand_unbarred = hand * np.sqrt(schedule.alpha_bars[t_next])
        assert np.max(np.abs(got - hand_unbarred)) < 1e-6


# ---- ddim_invert ----


def test_inversion_ladder_structure():
    assert inversion_ladder(300, 10) == list(range(0, 301, 10))
    assert len(inversion_ladder(300, 10)) - 1 == 30
    assert inversion_ladder(25, 10) == [0, 10, 20, 25]
    assert inversion_ladder(10, 10) == [0, 10]
    with pytest.raises(ContractError):
        inversion_ladder(100, 0)


def test_invert_records_input_exactly(schedule, rng):
    m = analytic(schedule)
    x0 = rng.normal((8, 8))
    traj = ddim_invert(m, x0, 300, 10, m.null_embedding())
    assert np.array_equal(traj.x0, x0)
    assert traj.steps == tuple(range(0, 301, 10))
    assert traj.tau == 300


def test_single_rung_is_one_update(schedule, rng):
    m = analytic(schedule, mu=0.1)
    e = ConditionEmbedding(rng.normal(4))
    x0 = rng.normal((8, 8))
    traj = ddim_invert(m, x0, 10, 10, e)
    assert len(traj.steps) == 2
    eps = m.predict(x0, 0, e)
    expected = (to_xbar(x0, 0, schedule) + schedule.gammas[10] * eps)
    expected = expected * np.sqrt(schedule.alpha_bars[10])
    assert np.array_equal(traj.x_tau, expected)


def test_invert_bad_args(schedule, rng):
    m = analytic(schedule)
    x0 = rng.normal((8, 8))
    with pytest.raises(IndexError):
        ddim_invert(m, x0, 2000, 10, m.null_embedding())
    with pytest.raises(ContractError):
        ddim_invert(m, x0, 100, -1, m.null_embedding())


def test_trajectory_invariants():
    with pytest.raises(ContractError):
        InversionTrajectory(steps=(0, 5, 5), latents=(1, 2, 3))
    with pytest.raises(ContractError):
        InversionTrajectory(steps=(1, 5), latents=(1, 2))


def _toy_batch(n, size=16, seed=77):
    rng = SeededRng(seed)
    batch = []
    for i in range(n):
        r = rng.derive(i)
        yy, xx = np.mgrid[0:size, 0:size]
        cy, cx = r.uniform(size * 0.3, size * 0.7, (2,))
        rad = float(r.uniform(3, 5))
        img = 0.2 + 0.6 * (((yy - cy) ** 2 + (xx - cx) ** 2) <= rad * rad)
        batch.append(img + r.normal((size, size)) * 0.02)
    return batch


def test_round_trip_error_small_and_monotone(schedule):
    m = analytic(schedule, mu=0.0, shape=(16, 16), dim=8, seed=13)
    e = m.null_embedding()
    batch = _toy_batch(10)
    mean_errors = {}
    for interval in (50, 25, 10, 5):
        errs = []
        for x0 in batch:
            traj = ddim_invert(m, x0, 300, interval, e)
            back = ddim_sample(m, traj.x_tau, list(traj.steps)[::-1], e)
            errs.append(np.linalg.norm(back - x0) / np.linalg.norm(x0))
        mean_errors[interval] = float(np.mean(errs))
    assert mean_errors[10] < 0.05
    assert mean_errors[50] > mean_errors[25] > mean_errors[10] > mean_errors[5]


def test_ddim_from_pure_noise_recovers_data_mean(schedule):
    """Deterministic sampling from x_T ~ N(0, I) with the analytic oracle for
    N(mu, I) data: the empirical mean over many draws lands within three
    standard errors of mu. Pixels of one grid act as independent draws."""
    mu = 0.7
    m = analytic(schedule, mu=mu, shape=(25, 40), dim=2, seed=29)
    e = m.null_embedding()
    x = SeededRng(30).normal((25, 40))
    steps = list(range(1000, -1, -50))
    out = ddim_sample(m, x, steps, e)
    n = out.size
    se = out.std(ddof=1) / np.sqrt(n)
    assert abs(out.mean() - mu) < 3.0 * se
