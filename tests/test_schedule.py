import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttga import SeededRng, build_schedule, from_xbar, to_xbar
from ttga.errors import ConfigError


def test_default_schedule_shape_and_endpoints(default_schedule):
    s = default_schedule
    assert s.total_steps == 1000
    assert s.alphas.shape == (1000,)
    assert s.alpha_bars.shape == (1001,)
    assert s.gammas.shape == (1001,)
    assert s.alpha_bars[0] == 1.0
    assert s.gammas[0] == 0.0


def test_alpha_bar_is_cumulative_product(default_schedule):
    s = default_schedule
    assert np.allclose(s.alpha_bars[1:], np.cumprod(s.alphas), rtol=1e-14)


def test_gamma_formula_and_monotonicity(default_schedule):
    s = default_schedule
    expected = np.sqrt((1.0 - s.alpha_bars[1:]) / s.alpha_bars[1:])
    assert np.allclose(s.gammas[1:], expected, rtol=1e-14)
    assert np.all(np.diff(s.gammas) > 0)
    assert np.all(np.diff(s.alpha_bars) < 0)


def test_gamma_analytic_value():
    # one-step schedule with alpha_bar = 0.8 -> gamma = sqrt(0.2 / 0.8) = 0.5
    s = build_schedule(1, 0.2, 0.2)
    assert s.alpha_bars[1] == pytest.approx(0.8, rel=1e-15)
    assert s.gammas[1] == pytest.approx(0.5, rel=1e-12)


@pytest.mark.parametrize(
    "kwargs,field",
    [
        (dict(total_steps=0), "total_steps"),
        (dict(beta_start=0.0), "beta_start"),
        (dict(beta_start=0.3, beta_end=0.2), "beta_start"),
        (dict(beta_start=0.5, beta_end=1.0), "beta_end"),
    ],
)
def test_build_schedule_rejects_bad_ranges(kwargs, field):
    with pytest.raises(ConfigError, match=field):
        build_schedule(**{"total_steps": 10, **kwargs})


def test_to_xbar_identity_at_zero(default_schedule, rng):
    x = rng.normal((5, 5))
    assert np.array_equal(to_xbar(x, 0, default_schedule), x)


def test_to_xbar_scaling():
    # alpha_bar = 0.25 -> division by 0.5
    s = build_schedule(1, 0.75, 0.75)
    x = np.ones((2, 2))
    assert np.allclose(to_xbar(x, 1, s), 2.0, rtol=1e-12)


def test_xbar_out_of_range(default_schedule):
    with pytest.raises(IndexError):
        to_xbar(np.ones((2, 2)), 1001, default_schedule)


@settings(max_examples=30, deadline=None)
@given(t=st.integers(min_value=0, max_value=1000), seed=st.integers(0, 2**32 - 1))
def test_xbar_round_trip_property(t, seed):
    s = build_schedule()
    x = SeededRng(seed).normal((4, 4))
    back = from_xbar(to_xbar(x, t, s), t, s)
    assert np.max(np.abs(back - x)) < 1e-12 * max(np.max(np.abs(x)), 1e-30)


def test_schedule_tables_are_immutable(default_schedule):
    with pytest.raises(ValueError):
        default_schedule.gammas[0] = 1.0
