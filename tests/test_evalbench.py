import warnings

import numpy as np
import pytest

from ttga import SeededRng, evalbench
from ttga.autodiff import Tensor
from ttga.engine import ensemble
from ttga.errors import ConfigError, ContractError
from ttga.evalbench import (
    ConvSegmenter,
    Difficulty,
    SegTrainConfig,
    ThresholdSegmenter,
    _SPATIAL_OPS,
    _spatial,
    _spatial_inverse,
    load_segmenter,
    make_dataset,
    render_scene,
    sample_scene_params,
    save_segmenter,
    train_toy_segmenter,
    tta_baseline,
)
from ttga.metrics import binarize, dice
from ttga.pipeline import STREAM_TEST_DATA, build_test_set
from ttga.runconfig import RunConfig


@pytest.fixture(scope="module")
def trained_segmenter():
    rng = SeededRng(7)
    train = make_dataset(80, Difficulty(0.0, 0.3, 0.02), rng.derive(1))
    seg, losses = train_toy_segmenter(train, rng.derive(3),
                                      SegTrainConfig(epochs=14, hidden=10))
    assert losses[-1] < losses[0]
    return seg


def _capture_members(monkeypatch) -> list:
    """The member stacks that ``tta_baseline`` hands to ``ensemble``, in call order."""
    captured = []

    def capture(members):
        captured.append(members)
        return ensemble(members)

    monkeypatch.setattr(evalbench, "ensemble", capture)
    return captured


def _dsc(seg, scene):
    return dice(binarize(seg.segment(scene.image)[:, :, 1]), scene.gt_mask)


def test_gt_mask_is_exact_disk():
    params = sample_scene_params(SeededRng(1), Difficulty(0.7, 1.0, 0.1))
    scene = render_scene(params)
    yy, xx = np.mgrid[0:32, 0:32]
    expected = ((yy - params["cy"]) ** 2 + (xx - params["cx"]) ** 2
                <= params["radius"] ** 2).astype(np.uint8)
    assert np.array_equal(scene.gt_mask, expected)


def test_noise_past_the_float_range_clips_without_a_warning():
    """A noise term that overflows is ±inf, and the clip takes it to 0 or 1."""
    params = sample_scene_params(SeededRng(1), Difficulty(0.0, 0.0, 1e308))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scene = render_scene(params)
    assert ((scene.image >= 0.0) & (scene.image <= 1.0)).all()


def test_occluder_straddles_disk_boundary():
    for i in range(20):
        params = sample_scene_params(SeededRng(2).derive(i), Difficulty(0.9, 0.0, 0.0))
        scene = render_scene(params)
        occ = params["occluder"]
        bar = np.isclose(scene.image, occ["value"])
        assert bar.any()
        assert (bar & (scene.gt_mask == 1)).any() or (bar & (scene.gt_mask == 0)).any()


def test_separable_scene_threshold_dsc_100():
    scenes = make_dataset(10, Difficulty(0.0, 0.0, 0.0), SeededRng(3))
    seg = ThresholdSegmenter()
    assert all(_dsc(seg, s) == 100.0 for s in scenes)


def test_fixed_seed_identical_datasets():
    a = make_dataset(5, Difficulty(0.5, 0.5, 0.05), SeededRng(4, 8))
    b = make_dataset(5, Difficulty(0.5, 0.5, 0.05), SeededRng(4, 8))
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.image, sb.image)
        assert np.array_equal(sa.gt_mask, sb.gt_mask)


def test_occlusion_strictly_hurts_on_paired_scenes(trained_segmenter):
    occluded, clean = [], []
    for i in range(100):
        params = sample_scene_params(SeededRng(11).derive(i), Difficulty(0.8, 0.3, 0.02))
        with_bar = render_scene(params)
        no_bar = render_scene({**params, "occluder": None})
        occluded.append(_dsc(trained_segmenter, with_bar))
        clean.append(_dsc(trained_segmenter, no_bar))
    assert np.mean(occluded) < np.mean(clean)


def test_trained_segmenter_dsc_on_clean_scenes(trained_segmenter):
    clean = make_dataset(30, Difficulty(0.0, 0.0, 0.0), SeededRng(5))
    scores = [_dsc(trained_segmenter, s) for s in clean]
    assert np.mean(scores) >= 95.0


def test_constant_image_is_all_background():
    seg = ThresholdSegmenter()
    prob = seg.segment(np.zeros((8, 8)))
    assert np.all(prob[:, :, 0] > 0.5)
    assert np.allclose(prob.sum(axis=-1), 1.0, atol=1e-12)


def test_saturated_logistics_return_zero_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert Tensor(np.array([-800.0])).sigmoid().data[0] == 0.0
        p = ThresholdSegmenter().segment(np.full((3, 3), -100.0))
        assert np.all(p[..., 1] == 0.0) and np.all(p[..., 0] == 1.0)


def test_segment_is_pure(trained_segmenter):
    image = make_dataset(1, Difficulty(0.5, 0.5, 0.05), SeededRng(6))[0].image
    assert np.array_equal(trained_segmenter.segment(image),
                          trained_segmenter.segment(image))


@pytest.mark.parametrize("shape", [(4,), (2, 4, 4, 1)])
def test_segment_rejects_bad_shape(trained_segmenter, shape):
    for seg in (trained_segmenter, ThresholdSegmenter()):
        with pytest.raises(ContractError):
            seg.segment(np.zeros(shape))


def _perturbed_segmenter(hidden: int) -> ConvSegmenter:
    seg = ConvSegmenter(hidden=hidden, rng=SeededRng(hidden))
    flat = seg.flat_parameters()
    seg.set_flat_parameters(flat + 0.3 * SeededRng(hidden, 1).normal(flat.shape))
    return seg


@pytest.mark.parametrize("make", [ThresholdSegmenter, lambda: _perturbed_segmenter(12),
                                  lambda: _perturbed_segmenter(16)],
                         ids=["threshold", "conv12", "conv16"])
@pytest.mark.parametrize("size", [16, 24, 32])
@pytest.mark.parametrize("n", [1, 4, 10])
def test_segmenting_a_stack_equals_segmenting_each_item(make, size, n):
    seg = make()
    stack = SeededRng(size, n).uniform(0.0, 1.0, (n, size, size))
    got = seg.segment(stack)
    want = np.stack([seg.segment(grid) for grid in stack])
    assert got.shape == (n, size, size, 2)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_make_dataset_validates_count():
    with pytest.raises(ConfigError):
        make_dataset(0, Difficulty(), SeededRng(1))


def test_difficulty_validation():
    with pytest.raises(ConfigError):
        Difficulty(occlusion=1.5)
    with pytest.raises(ConfigError):
        Difficulty(blur=-1.0)


@pytest.mark.parametrize("kwargs, key", [
    (dict(epochs=0), "seg_epochs"),
    (dict(hidden=0), "seg_hidden"),
    (dict(batch_size=0), "batch_size"),
    (dict(lr=float("nan")), "seg_lr"),
])
def test_seg_train_config_validation(kwargs, key):
    with pytest.raises(ConfigError, match=key):
        SegTrainConfig(**{"epochs": 1, **kwargs})


# ---- geometric TTA baseline ----


def test_tta_single_view_equals_plain_prediction(trained_segmenter):
    scene = make_dataset(1, Difficulty(0.6, 0.4, 0.03), SeededRng(8))[0]
    first = trained_segmenter.segment(scene.image)
    er = tta_baseline(trained_segmenter, scene.image, 1, SeededRng(9), first_view=first)
    assert np.array_equal(er.mean_probability, trained_segmenter.segment(scene.image))


def test_tta_reuses_a_given_first_view_bit_for_bit(trained_segmenter, monkeypatch):
    """The given first view is member 0, and the other views draw their
    jitter from the stream in order, as if the first view had drawn none."""
    scene = make_dataset(1, Difficulty(0.6, 0.4, 0.03), SeededRng(8))[0]
    first = trained_segmenter.segment(scene.image)
    rng = SeededRng(9)
    want = [first]
    for op in _SPATIAL_OPS[1:5]:
        view = np.clip(_spatial(scene.image, *op) + 0.02 * float(rng.normal()), 0.0, 1.0)
        prob = trained_segmenter.segment(np.ascontiguousarray(view))
        want.append(_spatial_inverse(prob, *op))
    images = []
    segment = trained_segmenter.segment
    monkeypatch.setattr(trained_segmenter, "segment", lambda im: images.append(im) or segment(im))
    members = _capture_members(monkeypatch)
    tta_baseline(trained_segmenter, scene.image, 5, SeededRng(9), first_view=first)
    assert [im.shape for im in images] == [(4,) + scene.image.shape]
    (reused,) = members
    for a, b in zip(want, reused, strict=True):
        assert np.array_equal(a.view(np.int64), b.view(np.int64))


def test_tta_flip_invariant_case(monkeypatch):
    """A symmetric scene under a pointwise segmenter: every mapped-back view
    prediction equals the plain one, so the ensemble collapses to it."""
    yy, xx = np.mgrid[0:16, 0:16]
    image = 0.2 + 0.6 * (((yy - 7.5) ** 2 + (xx - 7.5) ** 2) <= 20).astype(float)
    seg = ThresholdSegmenter()
    single = seg.segment(image)
    members = _capture_members(monkeypatch)
    er = tta_baseline(seg, image, 6, SeededRng(10), jitter_sigma=0.0, first_view=single)
    assert np.allclose(er.mean_probability, single, atol=1e-12)
    assert np.allclose(members[0][3], single, atol=1e-12)


def test_tta_views_are_mapped_back_correctly(trained_segmenter, monkeypatch):
    # an asymmetric scene: mapped-back member predictions must stay aligned
    # with the unflipped image (foreground mass near the true disk)
    scene = make_dataset(1, Difficulty(0.0, 0.0, 0.0), SeededRng(12))[0]
    seg = ThresholdSegmenter()
    members = _capture_members(monkeypatch)
    tta_baseline(seg, scene.image, 8, SeededRng(13), jitter_sigma=0.0,
                 first_view=seg.segment(scene.image))
    (stack,) = members
    assert len(stack) == 8
    for member in stack:
        assert dice(binarize(member[:, :, 1]), scene.gt_mask) == 100.0


def test_tta_dsc_within_sanity_band_of_baseline(trained_segmenter):
    """Aggregate TTA DSC stays within a few points of the plain prediction
    over multiple seeds; geometric views must not wreck accuracy."""
    scenes = make_dataset(25, Difficulty(0.6, 0.4, 0.03), SeededRng(14))
    base = np.mean([_dsc(trained_segmenter, s) for s in scenes])
    for seed in (0, 1, 2):
        rng = SeededRng(seed, 77)
        scores = []
        for s in scenes:
            er = tta_baseline(trained_segmenter, s.image, 10, rng,
                              first_view=trained_segmenter.segment(s.image))
            scores.append(dice(binarize(er.mean_probability[:, :, 1]), s.gt_mask))
        assert abs(np.mean(scores) - base) <= 2.0


def test_tta_rejects_bad_view_count(trained_segmenter):
    with pytest.raises(ConfigError):
        tta_baseline(trained_segmenter, np.zeros((8, 8)), 0, SeededRng(1),
                     first_view=trained_segmenter.segment(np.zeros((8, 8))))


# ---- segmenter checkpoints ----


def test_threshold_checkpoint_round_trip(tmp_path):
    seg = ThresholdSegmenter(threshold=0.4, sharpness=30.0)
    path = tmp_path / "seg.ckpt"
    save_segmenter(path, seg)
    loaded = load_segmenter(path)
    assert loaded.threshold == 0.4 and loaded.sharpness == 30.0


@pytest.mark.parametrize("extra", [-1, 1])
def test_set_flat_parameters_rejects_wrong_length(extra):
    seg = ConvSegmenter(hidden=4, rng=SeededRng(16))
    flat = seg.flat_parameters()
    with pytest.raises(ContractError):
        seg.set_flat_parameters(np.zeros(flat.size + extra))
    assert np.array_equal(seg.flat_parameters(), flat)


def test_conv_checkpoint_round_trip(tmp_path, trained_segmenter):
    path = tmp_path / "seg.ckpt"
    save_segmenter(path, trained_segmenter)
    loaded = load_segmenter(path)
    image = SeededRng(15).random((12, 12))
    assert np.array_equal(loaded.segment(image), trained_segmenter.segment(image))


@pytest.mark.parametrize("occlusion", [0.0, 0.8])
def test_test_set_occludes_exactly_the_even_ids(occlusion):
    """Even ids carry an occluder when the test occlusion is above 0; every
    other scene is the clean draw of its own stream, bit for bit."""
    cfg = RunConfig(seed=3, n_test=6, size=16, test_occlusion=occlusion)
    scenes = build_test_set(cfg)
    assert len(scenes) == 6
    rng = SeededRng(cfg.seed, STREAM_TEST_DATA)
    clean = Difficulty(0.0, cfg.test_blur, cfg.test_noise)
    for i, scene in enumerate(scenes):
        occluded = occlusion > 0 and i % 2 == 0
        assert (scene.params["occluder"] is not None) == occluded
        if not occluded:
            want = render_scene(sample_scene_params(rng.derive(i), clean, cfg.size))
            assert scene.params == want.params
            assert scene.image.tobytes() == want.image.tobytes()
            assert scene.gt_mask.tobytes() == want.gt_mask.tobytes()
