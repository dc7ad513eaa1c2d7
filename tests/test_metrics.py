import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from oracles import auc_oracle, dice_oracle, hd95_oracle, nsd_oracle
from ttga import SeededRng
from ttga.metrics import (
    binarize,
    boundary_coords,
    dice,
    error_ground_truth,
    hd95,
    image_diagonal,
    midranks,
    nsd,
    nsd_tolerance,
    roc_auc,
)


def test_dice_trivial_cases():
    a = np.zeros((4, 4), dtype=np.uint8)
    b = np.zeros((4, 4), dtype=np.uint8)
    assert dice(a, b) == 100.0
    a[0, 0] = 1
    b[3, 3] = 1
    assert dice(a, b) == 0.0
    assert dice(a, a) == 100.0


def test_dice_hand_value():
    a = np.zeros((4, 4), dtype=np.uint8)
    b = np.zeros((4, 4), dtype=np.uint8)
    a[0, 0] = a[0, 1] = 1
    b[0, 1] = b[0, 2] = 1
    assert dice(a, b) == 50.0


def test_dice_symmetric(rng):
    a = (rng.random((8, 8)) < 0.4).astype(np.uint8)
    b = (rng.random((8, 8)) < 0.4).astype(np.uint8)
    assert dice(a, b) == dice(b, a)


def test_auc_trivial_cases():
    gt = np.array([[0, 1], [1, 0]], dtype=np.uint8)
    assert roc_auc(gt.astype(float), gt) == 100.0
    assert roc_auc(1.0 - gt, gt) == 0.0
    assert roc_auc(np.full((2, 2), 0.3), gt) == 50.0


def test_auc_degenerate_returns_nan():
    assert np.isnan(roc_auc(np.random.rand(2, 2), np.zeros((2, 2), dtype=np.uint8)))
    assert np.isnan(roc_auc(np.random.rand(2, 2), np.ones((2, 2), dtype=np.uint8)))


def test_auc_of_a_nan_score_is_nan():
    gt = np.array([[0, 1], [1, 0]], dtype=np.uint8)
    scores = np.array([[0.1, 0.9], [np.nan, 0.2]])
    assert np.isnan(roc_auc(scores, gt))


# few distinct values, so ties are heavy; -0.0 and 0.0 are distinct bits
# that compare equal
TIED_VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.5, -np.inf, np.inf])


@settings(max_examples=300, deadline=None)
@given(
    dtype=st.sampled_from([np.float64, np.float32]),
    values=st.one_of(
        st.lists(TIED_VALUES, min_size=1, max_size=64),
        st.lists(st.floats(allow_nan=False, width=32), min_size=1, max_size=64),
        st.builds(lambda v, n: [v] * n, TIED_VALUES, st.integers(1, 40)),
    ),
)
@example(dtype=np.float64, values=[0.3])
@example(dtype=np.float32, values=[-0.0, 0.0, 1.0, -0.0, 0.0])
def test_midranks_equal_scipy_rankdata_bit_for_bit(dtype, values):
    x = np.array(values, dtype=dtype)
    got, want = midranks(x), rankdata(x)
    assert got.dtype == want.dtype == np.float64
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_auc_is_asymmetric_in_roles():
    rng = SeededRng(5)
    scores = rng.random((6, 6))
    labels = (rng.random((6, 6)) < 0.5).astype(np.uint8)
    forward = roc_auc(scores, labels)
    # swapping roles is a different question entirely; no symmetry expected
    swapped = roc_auc(labels.astype(float), binarize(scores))
    assert not np.isclose(forward, swapped)


def test_hd95_identical_masks():
    m = np.zeros((8, 8), dtype=np.uint8)
    m[2:5, 2:5] = 1
    assert hd95(m, m) == 0.0


def test_hd95_single_pixels_distance_five():
    a = np.zeros((8, 8), dtype=np.uint8)
    b = np.zeros((8, 8), dtype=np.uint8)
    a[1, 1] = 1
    b[4, 5] = 1  # distance sqrt(9 + 16) = 5
    assert hd95(a, b) == pytest.approx(5.0, abs=1e-12)


def test_hd95_empty_conventions():
    empty = np.zeros((6, 8), dtype=np.uint8)
    full = np.ones((6, 8), dtype=np.uint8)
    assert hd95(empty, empty) == 0.0
    assert hd95(full, empty) == image_diagonal((6, 8))
    assert hd95(empty, full) == image_diagonal((6, 8))


def test_nsd_trivial_cases():
    m = np.zeros((8, 8), dtype=np.uint8)
    m[2:6, 2:6] = 1
    assert nsd(m, m) == 100.0
    far = np.zeros((16, 16), dtype=np.uint8)
    far[0, 0] = 1
    other = np.zeros((16, 16), dtype=np.uint8)
    other[15, 15] = 1
    assert nsd(far, other, tolerance_px=1.0) == 0.0
    assert nsd(np.zeros((4, 4)), np.zeros((4, 4))) == 100.0
    assert nsd(np.zeros((4, 4)), np.ones((4, 4))) == 0.0


def test_nsd_default_tolerance():
    assert nsd_tolerance((32, 32)) == 1.0
    assert nsd_tolerance((128, 128)) == 2.0


def test_boundary_includes_image_border():
    full = np.ones((4, 4), dtype=np.uint8)
    coords = boundary_coords(full)
    assert len(coords) == 12  # the border ring of a 4x4 block


def test_error_ground_truth_cases():
    gt = np.zeros((4, 4), dtype=np.uint8)
    gt[1:3, 1:3] = 1
    perfect = gt.astype(np.float64)
    assert not error_ground_truth(perfect, gt).any()
    inverted = 1.0 - gt
    assert np.array_equal(error_ground_truth(inverted, gt), np.ones((4, 4), dtype=np.uint8))
    one_off = perfect.copy()
    one_off[0, 0] = 0.9
    err = error_ground_truth(one_off, gt)
    assert err.sum() == 1 and err[0, 0] == 1


def test_error_ground_truth_empty_iff_match(rng):
    gt = (rng.random((6, 6)) < 0.5).astype(np.uint8)
    prob = np.where(gt == 1, 0.8, 0.1)
    assert not error_ground_truth(prob, gt).any()


def _random_masks(seed, max_side=16):
    rng = SeededRng(seed)
    h = int(rng.integers(4, max_side + 1))
    w = int(rng.integers(4, max_side + 1))
    density = float(rng.uniform(0.1, 0.9))
    a = (rng.random((h, w)) < density).astype(np.uint8)
    b = (rng.random((h, w)) < density).astype(np.uint8)
    # occasionally degenerate masks to exercise the sentinels
    if rng.random() < 0.05:
        a[:] = 0
    if rng.random() < 0.05:
        b[:] = 1
    return a, b


@pytest.mark.parametrize("seed", range(200))
def test_metrics_match_brute_force_oracles(seed):
    a, b = _random_masks(seed)
    assert dice(a, b) == dice_oracle(a, b)
    assert hd95(a, b) == hd95_oracle(a, b)
    tol = nsd_tolerance(a.shape)
    assert nsd(a, b, tol) == nsd_oracle(a, b, tol)
    scores = SeededRng(seed, 99).random(a.shape)
    # quantize so score ties actually occur
    scores = np.round(scores * 8) / 8
    got = roc_auc(scores, b)
    want = auc_oracle(scores, b)
    assert (np.isnan(got) and np.isnan(want)) or got == want
