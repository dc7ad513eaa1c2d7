import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import EDGE_FLOATS
from ttga import GuidanceConfig, SeededRng, cfg_multi, cfg_single
from ttga.errors import ConfigError, ContractError
from ttga.guidance import cfg_three_term, identity_coefficient


def grids(seed, n=3, shape=(4, 4)):
    rng = SeededRng(seed)
    return [rng.normal(shape) for _ in range(n)]


def test_cfg_single_endpoints():
    a, b = grids(1, 2)
    assert np.array_equal(cfg_single(a, b, 1.0), b)
    assert np.array_equal(cfg_single(a, b, 0.0), a)


def test_cfg_single_extrapolation():
    v = SeededRng(2).normal((4, 4))
    zero = np.zeros((4, 4))
    assert np.allclose(cfg_single(zero, v, 2.0), 2.0 * v, rtol=1e-15)


def test_cfg_single_shape_mismatch():
    with pytest.raises(ContractError):
        cfg_single(np.zeros((2, 2)), np.zeros((3, 3)), 1.0)


def _coefficients(g: GuidanceConfig):
    """Extract cfg_multi's coefficients by feeding unit basis grids."""
    zero = np.zeros((2, 2))
    one = np.ones((2, 2))
    return (
        cfg_multi(one, zero, zero, g)[0, 0],
        cfg_multi(zero, one, zero, g)[0, 0],
        cfg_multi(zero, zero, one, g)[0, 0],
    )


def test_lambda_c_one_kills_unconditional_term():
    for omega in (0.0, 0.5, 2.0, 7.5):
        for lam_r in (0.0, 0.7, 1.5):
            g = GuidanceConfig(omega=omega, lambda_c=1.0, lambda_r=lam_r)
            c_null, c_sem, c_id = _coefficients(g)
            assert abs(c_null) <= 1e-12
            assert abs(c_sem - (1.0 - lam_r * (1.0 - omega))) <= 1e-12
            assert abs(c_id - lam_r * (1.0 - omega)) <= 1e-12


def test_lambda_zero_reduces_to_unconditional():
    eps_null, eps_sem, eps_id = grids(3)
    g = GuidanceConfig(omega=2.0, lambda_c=0.0, lambda_r=0.0)
    assert np.array_equal(cfg_multi(eps_null, eps_sem, eps_id, g), eps_null)


def test_omega_one_kills_identity_term():
    eps_null, eps_sem, eps_id = grids(4)
    for lam_r in (0.0, 1.0, 5.0):
        g = GuidanceConfig(omega=1.0, lambda_c=0.7, lambda_r=lam_r)
        expected = cfg_single(eps_null, eps_sem, 0.7)
        assert np.allclose(cfg_multi(eps_null, eps_sem, eps_id, g), expected, atol=1e-15)


def test_multi_matches_generic_three_term_mix():
    """Substituting the joint prediction cfg_single(eps_id, eps_sem, omega)
    into the generic mix must reproduce cfg_multi term for term."""
    eps_null, eps_sem, eps_id = grids(5)
    for omega, lc, lr in [(2.0, 1.0, 0.8), (0.5, 0.3, 1.2), (3.0, 2.0, 0.1)]:
        g = GuidanceConfig(omega=omega, lambda_c=lc, lambda_r=lr)
        joint = cfg_single(eps_id, eps_sem, omega)
        generic = cfg_three_term(eps_null, eps_sem, joint, lc, lr)
        assert np.max(np.abs(cfg_multi(eps_null, eps_sem, eps_id, g) - generic)) < 1e-12


def test_chain_rule_coefficient_audit():
    """On unit-basis inputs the three-term mix carries coefficients
    (1 - lambda_c, lambda_c - lambda_r, lambda_r)."""
    zero = np.zeros((2, 2))
    one = np.ones((2, 2))
    lc, lr = 0.6, 0.9
    assert cfg_three_term(one, zero, zero, lc, lr)[0, 0] == pytest.approx(1 - lc, abs=1e-15)
    assert cfg_three_term(zero, one, zero, lc, lr)[0, 0] == pytest.approx(lc - lr, abs=1e-15)
    assert cfg_three_term(zero, zero, one, lc, lr)[0, 0] == pytest.approx(lr, abs=1e-15)


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.floats(min_value=-4, max_value=4, allow_nan=False),
    omega=st.floats(min_value=0, max_value=5, allow_nan=False),
    lc=st.floats(min_value=0, max_value=3, allow_nan=False),
    lr=st.floats(min_value=0, max_value=3, allow_nan=False),
)
def test_cfg_multi_homogeneous_property(seed, k, omega, lc, lr):
    eps_null, eps_sem, eps_id = grids(seed)
    g = GuidanceConfig(omega=omega, lambda_c=lc, lambda_r=lr)
    scaled = cfg_multi(k * eps_null, k * eps_sem, k * eps_id, g)
    ref = k * cfg_multi(eps_null, eps_sem, eps_id, g)
    assert np.max(np.abs(scaled - ref)) <= 1e-12 * max(1.0, abs(k)) * (
        1.0 + np.max(np.abs(ref))
    )


@settings(max_examples=80, deadline=None)
@given(st.data(), st.integers(1, 3), st.booleans(), st.booleans())
def test_cfg_multi_at_lambda_c_one_has_the_bits_of_the_multiply_by_one(data, n, per_item,
                                                                       in_place):
    """At lambda_c = 1 the semantic difference is added unscaled, with the
    bits of the form that multiplies it by 1.0, overflows included."""
    preds = data.draw(arrays(np.float64, (3, n, 2, 3), elements=EDGE_FLOATS))
    g = GuidanceConfig(omega=2.0, lambda_c=1.0, lambda_r=1.0)
    lambda_r = data.draw(arrays(np.float64, n, elements=st.sampled_from([0.0, 0.5, 1.5])))
    coefficient = identity_coefficient(g, preds.shape[1:], lambda_r if per_item else None)
    eps_null, eps_sem, eps_id = preds
    live, coeff = coefficient.live, coefficient.coeff
    with np.errstate(over="ignore", invalid="ignore"):
        # cfg_multi's terms in its order, with the multiply by lambda_c
        want = eps_null + (eps_sem - eps_null) * 1.0
        if coefficient.every:
            want += (eps_id - eps_sem) * coeff
        elif live.any():
            want[live] += coeff[live] * (eps_id[live] - eps_sem[live])
        got = cfg_multi(*preds.copy(), g, in_place=in_place, coefficient=coefficient)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_cfg_multi_affine_in_each_argument():
    eps_null, eps_sem, eps_id = grids(6)
    delta = SeededRng(7).normal((4, 4))
    g = GuidanceConfig(omega=2.0, lambda_c=0.8, lambda_r=1.3)
    base = cfg_multi(eps_null, eps_sem, eps_id, g)
    for idx in range(3):
        args_lo = [eps_null, eps_sem, eps_id]
        args_hi = [eps_null.copy(), eps_sem.copy(), eps_id.copy()]
        args_hi[idx] = args_hi[idx] + delta
        diff = cfg_multi(*args_hi, g) - base
        args_lo2 = [np.zeros((4, 4))] * 3
        args_lo2[idx] = delta
        linear_part = cfg_multi(*args_lo2, g) - cfg_multi(
            np.zeros((4, 4)), np.zeros((4, 4)), np.zeros((4, 4)), g
        )
        assert np.max(np.abs(diff - linear_part)) < 1e-12


def test_guidance_config_validation():
    with pytest.raises(ConfigError):
        GuidanceConfig(omega=-1.0)
    with pytest.raises(ConfigError):
        GuidanceConfig(lambda_c=float("nan"))


def test_cfg_multi_per_item_lambda_r_equals_scalar_calls():
    """Per-item identity scales give, item by item, the scalar call's bits;
    a zero scale skips its term even where the identity prediction is not
    finite."""
    rng = SeededRng(10)
    n, s, i = rng.normal((3, 4, 4)), rng.normal((3, 4, 4)), rng.normal((3, 4, 4))
    i[0] = np.inf
    lams = np.array([0.0, 0.7, 1.3])
    g = GuidanceConfig(omega=2.0, lambda_c=1.0, lambda_r=1.0)
    got = cfg_multi(n, s, i, g, coefficient=identity_coefficient(g, n.shape, lams))
    for k, lam in enumerate(lams):
        want = cfg_multi(n[k], s[k], i[k], GuidanceConfig(2.0, 1.0, float(lam)))
        assert np.array_equal(got[k], want)
    assert np.all(np.isfinite(got[0]))
    with pytest.raises(ContractError, match="lambda_r"):
        identity_coefficient(g, n.shape, lams[:2])


def _special_stacks(seed, shape):
    """Three prediction stacks with NaN, +-inf and +-0 among normal values."""
    rng = SeededRng(seed)
    stacks = [rng.normal(shape) for _ in range(3)]
    specials = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0])
    for k, a in enumerate(stacks):
        flat = a.reshape(-1)
        flat[k::4] = specials[(np.arange(flat[k::4].size) + k) % specials.size]
    return stacks


@pytest.mark.parametrize("lams", [
    [0.0, 0.7, 1.3, 0.0], [0.7, 1.3, 0.5, 1.1], [0.0, 0.0, 0.0, 0.0], None],
    ids=["some_zero", "all_nonzero", "all_zero", "scalar"])
@pytest.mark.parametrize("lambda_c", [1.0, 0.0, 0.8])
@pytest.mark.parametrize("shape", [(4, 3, 5), (4, 1)], ids=["stack", "column"])
@pytest.mark.parametrize("in_place", [False, True])
def test_cfg_multi_with_a_precomputed_coefficient_keeps_the_bits(lams, lambda_c, shape,
                                                                 in_place):
    """The coefficient computed once gives, item by item, the bits of the
    scalar call at that item's lambda_r, including items whose coefficient is
    0 among nonzero ones and inputs holding NaN, +-inf and +-0. The result
    goes to the unconditional prediction's buffer in place, and otherwise no
    input changes."""
    g = GuidanceConfig(omega=2.0, lambda_c=lambda_c, lambda_r=1.0)
    lambda_r = None if lams is None else np.array(lams)
    coefficient = identity_coefficient(g, shape, lambda_r)
    assert coefficient.every == (lams is None or all(lams))
    scales = [1.0] * shape[0] if lams is None else lams
    for seed in range(3):
        inputs = _special_stacks(seed, shape)
        got_in = [a.copy() for a in inputs]
        with np.errstate(invalid="ignore"):
            want = np.stack([cfg_multi(*(a[k] for a in inputs), GuidanceConfig(2.0, lambda_c, lam))
                             for k, lam in enumerate(scales)])
            got = cfg_multi(*got_in, g, in_place=in_place, coefficient=coefficient)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        if in_place:
            assert got is got_in[0]
        else:
            for a, b in zip(got_in, inputs):
                assert np.array_equal(a.view(np.int64), b.view(np.int64))


def test_cfg_multi_rejects_a_coefficient_for_another_shape():
    g = GuidanceConfig()
    n, s, i = SeededRng(11).normal((3, 3, 4, 4))
    coefficient = identity_coefficient(g, (3, 4, 4), np.array([0.5, 1.0, 1.5]))
    with pytest.raises(ContractError, match="identity coefficient"):
        cfg_multi(n[:2], s[:2], i[:2], g, coefficient=coefficient)
    with pytest.raises(ContractError, match="lambda_r"):
        identity_coefficient(g, (2, 4, 4), np.array([0.5, 1.0, 1.5]))
