import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttga import (
    AnalyticGaussianDenoiser,
    ConditionEmbedding,
    ConvDenoiser,
    MaskPair,
    MaskPolicy,
    SeededRng,
    attention_mask,
    bernoulli_mask,
    build_schedule,
    hybrid_mask,
)
from ttga.errors import ConfigError, ContractError
from ttga.masks import consistency_relevance, make_mask, saliency_relevance


def test_bernoulli_degenerate_probabilities():
    rng = SeededRng(1)
    all_spade = bernoulli_mask((8, 8), 1.0, rng)
    assert np.all(all_spade.spade == 1) and np.all(all_spade.club == 0)
    all_club = bernoulli_mask((8, 8), 0.0, rng)
    assert np.all(all_club.spade == 0) and np.all(all_club.club == 1)


def test_bernoulli_density_in_binomial_band():
    n = 64 * 64
    pair = bernoulli_mask((64, 64), 0.75, SeededRng(2))
    density = pair.spade.mean()
    assert abs(density - 0.75) < 3.0 * np.sqrt(0.75 * 0.25 / n)


def test_bernoulli_reproducible():
    a = bernoulli_mask((16, 16), 0.4, SeededRng(3, 5))
    b = bernoulli_mask((16, 16), 0.4, SeededRng(3, 5))
    assert np.array_equal(a.spade, b.spade)


def test_bernoulli_bad_probability():
    with pytest.raises(ContractError):
        bernoulli_mask((4, 4), 1.5, SeededRng(1))


def test_attention_ramp_takes_top_half():
    relevance = np.arange(256, dtype=np.float64).reshape(16, 16)
    pair = attention_mask(relevance, 0.5)
    assert pair.spade.sum() == 128
    assert np.all(pair.spade.ravel()[128:] == 1)


def test_attention_constant_is_all_spade():
    pair = attention_mask(np.full((8, 8), 3.3), 0.5)
    assert np.all(pair.spade == 1)


def test_attention_two_level_disk_selected_exactly():
    yy, xx = np.mgrid[0:16, 0:16]
    disk = (((yy - 8) ** 2 + (xx - 8) ** 2) <= 22).astype(np.float64)
    pair = attention_mask(disk, 0.5)
    # threshold lands at 0.5, strictly between the two levels: no ties
    assert np.array_equal(pair.spade, disk.astype(np.uint8))


def test_attention_validates_input():
    with pytest.raises(ContractError):
        attention_mask(np.zeros((4, 4, 2)), 0.5)
    with pytest.raises(ContractError):
        attention_mask(np.full((4, 4), np.nan), 0.5)
    with pytest.raises(ContractError):
        attention_mask(np.zeros((4, 4)), 1.0)


def test_hybrid_reduces_to_attention_when_bernoulli_all_ones():
    rng = SeededRng(5)
    mp = MaskPair.from_spade((rng.random((8, 8)) < 0.5).astype(np.uint8))
    mb = MaskPair.from_spade(np.ones((8, 8), dtype=np.uint8))
    assert np.array_equal(hybrid_mask(mb, mp).spade, mp.spade)


def test_hybrid_reduces_to_bernoulli_when_attention_all_ones():
    rng = SeededRng(6)
    mb = MaskPair.from_spade((rng.random((8, 8)) < 0.5).astype(np.uint8))
    mp = MaskPair.from_spade(np.ones((8, 8), dtype=np.uint8))
    assert np.array_equal(hybrid_mask(mb, mp).spade, mb.spade)


def test_hybrid_truth_table_exhaustive():
    mb = MaskPair.from_spade(np.array([[0, 0], [1, 1]], dtype=np.uint8))
    mp = MaskPair.from_spade(np.array([[0, 1], [0, 1]], dtype=np.uint8))
    out = hybrid_mask(mb, mp)
    # spade = 1 iff mb == mp; equivalently NOT(mb XOR mp)
    assert np.array_equal(out.spade, np.array([[1, 0], [0, 1]], dtype=np.uint8))
    assert np.array_equal(out.spade, 1 - (mb.spade ^ mp.spade))


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), p=st.floats(0, 1), q=st.floats(0.01, 0.99))
def test_partition_property_all_schemes(seed, p, q):
    rng = SeededRng(seed)
    pairs = [bernoulli_mask((6, 6), p, rng)]
    relevance = SeededRng(seed, 1).normal((6, 6))
    pairs.append(attention_mask(relevance, q))
    pairs.append(hybrid_mask(pairs[0], pairs[1]))
    for pair in pairs:
        assert np.array_equal(pair.spade + pair.club, np.ones((6, 6), dtype=np.uint8))
        assert set(np.unique(pair.spade)) <= {0, 1}


def test_maskpair_rejects_bad_partitions():
    with pytest.raises(ContractError):
        MaskPair(np.ones((2, 2), dtype=np.uint8), np.ones((2, 2), dtype=np.uint8))
    with pytest.raises(ContractError):
        MaskPair(np.full((2, 2), 2, dtype=np.uint8), np.full((2, 2), -1, dtype=np.int8))
    with pytest.raises(ContractError):
        MaskPair(np.ones((2, 2), dtype=bool), np.ones((2, 2), dtype=bool))
    with pytest.raises(ContractError, match="binary"):
        MaskPair.from_spade(np.array([[0, 1], [2, 1]]))


@pytest.mark.parametrize("build", [
    lambda spade: MaskPair.from_spade(spade),
    lambda spade: MaskPair(spade, 1 - spade),
])
def test_maskpair_keeps_read_only_copies_of_the_callers_arrays(build):
    spade = np.array([[0, 1], [1, 1]], dtype=np.uint8)
    before = spade.copy()
    pair = build(spade)
    assert spade.flags.writeable and np.array_equal(spade, before)
    assert not pair.spade.flags.writeable and not pair.club.flags.writeable
    assert not np.may_share_memory(pair.spade, spade)
    spade[0, 0] = 1
    assert pair.spade[0, 0] == 0
    assert pair.spade.dtype == pair.club.dtype == np.uint8


def test_make_mask_dispatch_and_relevance_requirement():
    rng = SeededRng(7)
    bern = make_mask(MaskPolicy(scheme="bernoulli", p_m=0.3), (8, 8), rng)
    assert bern.spade.shape == (8, 8)
    with pytest.raises(ContractError, match="relevance"):
        make_mask(MaskPolicy(scheme="attention"), (8, 8), rng)
    relevance = SeededRng(8).normal((8, 8))
    att = make_mask(MaskPolicy(scheme="attention"), (8, 8), rng, relevance)
    hyb = make_mask(MaskPolicy(scheme="hybrid", p_m=1.0), (8, 8), rng, relevance)
    assert np.array_equal(att.spade, hyb.spade)  # p_m=1 keeps attention assignment


def test_policy_validation():
    with pytest.raises(ConfigError):
        MaskPolicy(scheme="other")
    with pytest.raises(ConfigError):
        MaskPolicy(p_m=-0.1)
    with pytest.raises(ConfigError):
        MaskPolicy(relevance_quantile=0.0)


def test_saliency_relevance_shape_and_finiteness():
    schedule = build_schedule()
    model = AnalyticGaussianDenoiser(schedule, (10, 10), 4, mu=0.3, rng=SeededRng(9))
    x = SeededRng(10).normal((10, 10))
    rel = saliency_relevance(model, x, 250, model.null_embedding())
    assert rel.shape == (10, 10)
    assert np.all(np.isfinite(rel)) and np.all(rel >= 0.0)
    # analytic model: |d ||eps||^2 / dx| = |2 s eps|, then box-smoothed
    from scipy import ndimage

    eps = model.predict(x, 250, model.null_embedding())
    s = np.sqrt(1.0 - schedule.alpha_bars[250])
    expected = ndimage.uniform_filter(np.abs(2.0 * s * eps), size=3, mode="nearest")
    assert np.allclose(rel, expected, rtol=1e-12)


def test_saliency_relevance_stack_is_per_item():
    schedule = build_schedule()
    model = AnalyticGaussianDenoiser(schedule, (10, 10), 4, mu=0.3, rng=SeededRng(9))
    xs = SeededRng(11).normal((3, 10, 10))
    e = model.null_embedding()
    got = saliency_relevance(model, xs, 250, e)
    assert np.array_equal(got, np.stack([saliency_relevance(model, x, 250, e) for x in xs]))


@pytest.mark.parametrize("kind", ["analytic", "conv"])
@pytest.mark.parametrize("shape", [(10, 10), (3, 10, 10)])
def test_relevance_reuses_a_passed_prediction(kind, shape):
    schedule = build_schedule()
    if kind == "analytic":
        model = AnalyticGaussianDenoiser(schedule, (10, 10), 4, mu=0.3, rng=SeededRng(9))
    else:
        model = ConvDenoiser(schedule, channels=1, embedding_dim=4, hidden=6, rng=SeededRng(9))
    x = SeededRng(12).normal(shape)
    e = ConditionEmbedding(SeededRng(13).normal(4))
    for relevance in (saliency_relevance, consistency_relevance):
        want = relevance(model, x, 250, e)
        got = relevance(model, x, 250, e, model.predict_vjp(x, 250, e))
        assert np.array_equal(got, want)
