import copy
import weakref

import numpy as np
import pytest

from conftest import central_difference, relative_gradient_match
from ttga import (
    AnalyticGaussianDenoiser,
    ConditionEmbedding,
    ConvDenoiser,
    DenoiserTrainConfig,
    SeededRng,
    build_schedule,
    load_checkpoint,
    save_checkpoint,
    train_toy_denoiser,
)
import ttga.denoiser as denoiser_module
from ttga.autodiff import Tensor
from ttga.denoiser import ConvStack, Denoiser, fit
from ttga.errors import CapabilityError, ConfigError, ContractError, CorruptFileError


@pytest.fixture(scope="module")
def schedule():
    return build_schedule()


def make_analytic(schedule, mu=0.0, dim=6, shape=(8, 8), seed=3):
    return AnalyticGaussianDenoiser(schedule, shape, dim, mu=mu, rng=SeededRng(seed))


def test_analytic_zero_mean_formula(schedule, rng):
    m = make_analytic(schedule, mu=0.0)
    x = rng.normal((8, 8))
    for t in (1, 250, 999):
        expected = np.sqrt(1.0 - schedule.alpha_bars[t]) * x
        got = m.predict(x, t, m.null_embedding())
        assert np.allclose(got, expected, rtol=1e-13)


def test_analytic_shifted_mean_formula(schedule, rng):
    mu = rng.normal((8, 8))
    m = AnalyticGaussianDenoiser(schedule, (8, 8), 4, mu=mu, rng=SeededRng(5))
    x = rng.normal((8, 8))
    t = 400
    abar = schedule.alpha_bars[t]
    expected = np.sqrt(1.0 - abar) * (x - np.sqrt(abar) * mu)
    assert np.allclose(m.predict(x, t, m.null_embedding()), expected, rtol=1e-13)


def test_analytic_matches_numerical_score(schedule, rng):
    """eps = -sqrt(1-abar) * d/dx log N(x; sqrt(abar)*mu, I), checked by
    central differences of the log-density."""
    mu = rng.normal((3, 3))
    m = AnalyticGaussianDenoiser(schedule, (3, 3), 2, mu=mu, rng=SeededRng(8))
    t = 300
    abar = schedule.alpha_bars[t]
    x = rng.normal((3, 3))

    def log_density(flat):
        return -0.5 * float(np.sum((flat.reshape(3, 3) - np.sqrt(abar) * mu) ** 2))

    score = central_difference(log_density, x.ravel(), h=1e-5).reshape(3, 3)
    expected = -np.sqrt(1.0 - abar) * score
    got = m.predict(x, t, m.null_embedding())
    assert relative_gradient_match(got, expected, rtol=1e-7)


def test_analytic_conditioning_is_linear_projection(schedule, rng):
    m = make_analytic(schedule)
    x = rng.normal((8, 8))
    e = ConditionEmbedding(rng.normal(6))
    base = m.predict(x, 100, m.null_embedding())
    got = m.predict(x, 100, e)
    assert np.allclose(got - base, (m.projection @ e.values).reshape(8, 8), rtol=1e-12)


def test_analytic_embedding_gradient_exact(schedule, rng):
    m = make_analytic(schedule)
    x = rng.normal((8, 8))
    e = ConditionEmbedding(rng.normal(6))
    loss_grad = rng.normal((8, 8))
    got = m.grad_wrt_embedding(loss_grad, x, 50, e)
    assert np.array_equal(got, m.projection.T @ loss_grad.ravel())
    assert np.array_equal(
        m.grad_wrt_embedding(np.zeros((8, 8)), x, 50, e), np.zeros(6)
    )


def test_null_embedding_is_one_object(schedule, conv_model):
    m = make_analytic(schedule)
    assert m.null_embedding() is m.null_embedding()
    assert conv_model.null_embedding() is conv_model.null_embedding()
    assert not m.null_embedding().values.any()


@pytest.mark.parametrize("kind", ["analytic", "conv"])
def test_stacked_calls_equal_single_grid_calls(kind, schedule, conv_model, rng):
    if kind == "analytic":
        cases = [(make_analytic(schedule, mu=0.3), 5, 8)]
    else:
        # hidden 12 on these grids is where one product over the whole stack
        # once gave other bits than the single-grid products (up to 3.9e-16)
        wide = ConvDenoiser(schedule, embedding_dim=8, hidden=12, rng=SeededRng(25))
        flat = wide.flat_parameters()
        wide.set_flat_parameters(flat + 0.1 * SeededRng(26).normal(flat.shape))
        cases = [(conv_model, 5, 8)] + [(wide, n, size) for size in (16, 24) for n in (4, 10)]
    for m, n, size in cases:
        xs = rng.normal((n, size, size))
        gs = rng.normal((n, size, size))
        for e in (m.null_embedding(), ConditionEmbedding(rng.normal(m.embedding_dim))):
            for t in (1, 300):
                got = m.predict(xs, t, e)
                assert np.array_equal(got, np.stack([m.predict(x, t, e) for x in xs]))
                got = m.grad_wrt_input(gs, xs, t, e)
                want = np.stack([m.grad_wrt_input(g, x, t, e) for g, x in zip(gs, xs)])
                assert np.array_equal(got, want)


@pytest.fixture(scope="module")
def conditioned_conv(schedule):
    """A conv model whose embedding channels carry weight, unlike a new one's."""
    model = ConvDenoiser(schedule, channels=1, embedding_dim=4, hidden=6, rng=SeededRng(23))
    flat = model.flat_parameters()
    model.set_flat_parameters(flat + 0.1 * SeededRng(24).normal(flat.shape))
    return model


@pytest.mark.parametrize("kind", ["analytic", "conv"])
@pytest.mark.parametrize("stacked", [False, True])
def test_predict_vjp_equals_predict_and_gradients(kind, stacked, schedule, conditioned_conv,
                                                  rng):
    m = make_analytic(schedule, mu=0.3) if kind == "analytic" else conditioned_conv
    shape = (3, 8, 8) if stacked else (8, 8)
    x, g = rng.normal(shape), rng.normal(shape)
    e = ConditionEmbedding(rng.normal(m.embedding_dim))
    for t in (1, 300):
        for wrt, grad in (("input", m.grad_wrt_input), ("embedding", m.grad_wrt_embedding)):
            pred, vjp = m.predict_vjp(x, t, e, wrt)
            assert np.array_equal(pred, m.predict(x, t, e))
            first = vjp(g)
            assert np.array_equal(first, grad(g, x, t, e))
            assert np.array_equal(vjp(g), first)


@pytest.mark.parametrize("kind", ["analytic", "conv"])
@pytest.mark.parametrize("stacked", [False, True])
@pytest.mark.parametrize("k", [1, 3])
def test_predict_each_equals_one_predict_per_embedding(kind, stacked, k, schedule,
                                                       conditioned_conv, rng):
    m = make_analytic(schedule, mu=0.3) if kind == "analytic" else conditioned_conv
    x = rng.normal((4, 8, 8) if stacked else (8, 8))
    embeddings = [m.null_embedding()] + [ConditionEmbedding(rng.normal(m.embedding_dim))
                                         for _ in range(k - 1)]
    got = m.predict_each(x, 250, embeddings)
    assert isinstance(got, np.ndarray) and got.shape == (k,) + x.shape
    out = np.full((k,) + x.shape, np.nan)
    into = m.predict_each(x, 250, embeddings, out=out)
    assert into is out
    for pred, e, buffer, written in zip(got, embeddings, out, into):
        assert np.array_equal(pred, m.predict(x, 250, e))
        assert np.shares_memory(written, buffer) and np.array_equal(written, pred)


@pytest.mark.parametrize("kind", ["analytic", "conv"])
@pytest.mark.parametrize("stacked", [False, True])
@pytest.mark.parametrize("case", ["optimized_null", "repeat", "signed_zero"])
def test_predict_each_gives_equal_embeddings_their_own_bits_in_distinct_arrays(
        kind, stacked, case, schedule, conditioned_conv, rng, conv_batch_items):
    """The conv model runs one forward over the distinct value bytes, two in
    each case: -0.0 == +0.0, but they are not the same bytes. A repeat's
    prediction still equals its own ``predict``, bit for bit, and shares no
    memory with the others."""
    m = make_analytic(schedule, mu=0.3) if kind == "analytic" else conditioned_conv
    null, dim = m.null_embedding(), m.embedding_dim
    a, b = (ConditionEmbedding(rng.normal(dim)) for _ in range(2))
    embeddings = {
        "optimized_null": [null, a, ConditionEmbedding(null.values, role="optimized_null")],
        "repeat": [a, b, a],
        "signed_zero": [ConditionEmbedding(np.zeros(dim)), ConditionEmbedding(-np.zeros(dim))],
    }[case]
    x = rng.normal((4, 8, 8) if stacked else (8, 8))
    got = m.predict_each(x, 250, embeddings)
    assert conv_batch_items == ([] if kind == "analytic" else [2 * (4 if stacked else 1)])
    into = m.predict_each(x, 250, embeddings,
                          out=np.full((len(embeddings),) + x.shape, np.nan))
    for e, pred, written in zip(embeddings, got, into):
        want = m.predict(x, 250, e).view(np.int64)
        assert np.array_equal(pred.view(np.int64), want)
        assert np.array_equal(written.view(np.int64), want)
    for i, pred in enumerate(got):
        assert not any(np.shares_memory(pred, other) for other in got[i + 1:])


@pytest.mark.parametrize("kind", ["analytic", "conv"])
def test_predict_each_rejects_an_out_of_another_shape(kind, schedule, conditioned_conv, rng):
    m = make_analytic(schedule) if kind == "analytic" else conditioned_conv
    x = rng.normal((2, 8, 8))
    embeddings = [m.null_embedding(), ConditionEmbedding(rng.normal(m.embedding_dim))]
    # too few items, too many, a missing stack axis, a stack of another size
    for shape in ((1, 2, 8, 8), (3, 2, 8, 8), (2, 8, 8), (2, 1, 8, 8)):
        with pytest.raises(ContractError, match="out shape"):
            m.predict_each(x, 250, embeddings, out=np.zeros(shape))
    assert m.predict_each(x, 250, []).shape == (0, 2, 8, 8)
    empty = np.zeros((0, 2, 8, 8))
    assert m.predict_each(x, 250, [], out=empty) is empty


def test_at_pixels_predicts_the_full_models_bits_at_those_pixels(schedule, rng):
    m = make_analytic(schedule, mu=rng.normal((5, 7)), dim=6, shape=(5, 7))
    embeddings = [m.null_embedding(), ConditionEmbedding(rng.normal(6)),
                  ConditionEmbedding(rng.normal(6), role="optimized_null")]
    x = rng.normal((3, 5, 7))
    full = m.predict_each(x, 250, embeddings)
    m.predict_each(x[0], 250, embeddings)
    # one P @ e per role, whether a grid or a stack was predicted
    assert len(m._proj_cache) == 3
    cache = dict(m._proj_cache)
    item, pix = np.nonzero(rng.random((3, 35)) < 0.4)
    sub = m.at_pixels(pix, embeddings)
    assert sub.shape == (pix.size, 1) and sub.pixelwise
    assert sub.null_embedding() is m.null_embedding()
    column = sub.predict_each(x.reshape(3, -1)[item, pix].reshape(-1, 1), 250, embeddings)
    for want, got in zip(full, column):
        assert np.array_equal(got[:, 0].view(np.int64),
                              want.reshape(3, -1)[item, pix].view(np.int64))
    assert m._proj_cache.keys() == cache.keys()
    assert all(m._proj_cache[key] is cache[key] for key in cache)


@pytest.mark.parametrize("data_std", [1.0, 0.37, 2.5, 1e-3, 1.06e-8, 1e150])
def test_analytic_tables_equal_the_scalar_expressions_at_every_t(schedule, data_std):
    """sqrt(abar_t) and the posterior scale, tabled once per model, have the
    bits of the scalar expressions, down to just above the smallest
    admitted data_std."""
    assert AnalyticGaussianDenoiser.data_std_ok(1.06e-8)
    assert not AnalyticGaussianDenoiser.data_std_ok(1.05e-8)
    m = AnalyticGaussianDenoiser(schedule, (2, 2), 2, data_std=data_std)
    for t in range(schedule.total_steps + 1):
        abar = schedule.alpha_bars[t]
        scale = np.sqrt(1.0 - abar) / (abar * data_std ** 2 + 1.0 - abar)
        assert m._scales[t].view(np.int64) == scale.view(np.int64)
        assert m._sqrt_abar[t].view(np.int64) == np.sqrt(abar).view(np.int64)
    assert np.all(np.isfinite(m._scales))


def test_analytic_predict_checks_the_step_before_the_tables(schedule, rng):
    m = make_analytic(schedule)
    x = rng.normal((8, 8))
    for t in (-1, schedule.total_steps + 1):
        with pytest.raises(IndexError, match="step index"):
            m.predict_each(x, t, [m.null_embedding(), m.null_embedding()])
    with pytest.raises(ContractError, match="embedding dim"):
        m.predict_each(x, 5, [m.null_embedding(), ConditionEmbedding(np.zeros(3))])
    assert m.predict_each(x, -1, []).shape == (0, 8, 8)


def test_at_pixels_keeps_no_projection_and_reuses_cached_products(schedule, rng):
    """The column holds no (L, D) copy of the projection, takes each P @ e
    from the model's cache when it is there, and predicts only under the
    embeddings it was built with."""
    m = make_analytic(schedule, mu=rng.normal((5, 7)), dim=6, shape=(5, 7))
    embeddings = [m.null_embedding(), ConditionEmbedding(rng.normal(6)),
                  ConditionEmbedding(rng.normal(6), role="optimized_null")]
    x = rng.normal((2, 5, 7))
    full = m.predict_each(x, 40, embeddings)
    pix = np.flatnonzero(rng.random(35) < 0.5)
    # a model whose products all come from the cache
    cached = copy.copy(m)
    cached.projection = None
    sub = cached.at_pixels(pix, embeddings)
    for value in vars(sub).values():
        if isinstance(value, np.ndarray):
            assert value.shape != (pix.size, 6) and not np.shares_memory(value, m.projection)
    column = sub.predict_each(x[1].reshape(-1)[pix].reshape(-1, 1), 40, embeddings)
    for want, got in zip(full, column):
        assert np.array_equal(got[:, 0].view(np.int64), want[1].reshape(-1)[pix].view(np.int64))
    with pytest.raises(CapabilityError, match="embeddings it was built with"):
        sub.predict(column[0], 40, ConditionEmbedding(rng.normal(6)))
    with pytest.raises(CapabilityError, match="embedding gradient"):
        sub.predict_vjp(column[0], 40, embeddings[1], wrt="embedding")
    with pytest.raises(CapabilityError, match="embeddings it was built with"):
        cached.at_pixels(pix, [ConditionEmbedding(rng.normal(6))])


def test_only_the_analytic_model_is_pixelwise(schedule, conv_model):
    assert make_analytic(schedule).pixelwise and not conv_model.pixelwise
    with pytest.raises(CapabilityError, match="not pixelwise"):
        conv_model.at_pixels(np.arange(3), [conv_model.null_embedding()])


def test_predict_vjp_rejects_unknown_wrt(schedule, conv_model, rng):
    for m in (make_analytic(schedule), conv_model):
        with pytest.raises(ContractError, match="wrt"):
            m.predict_vjp(rng.normal((8, 8)), 10, m.null_embedding(), "weights")


def test_predict_rejects_bad_grid_shape(schedule, conv_model, rng):
    e = ConditionEmbedding(rng.normal(6))
    with pytest.raises(ContractError, match="shape"):
        make_analytic(schedule).predict(rng.normal((8, 7)), 10, e)
    with pytest.raises(ContractError, match="grid"):
        conv_model.predict(rng.normal((2, 3, 8, 8)), 10, ConditionEmbedding(rng.normal(4)))


def test_models_read_single_channel_grids_only(schedule):
    with pytest.raises(ContractError, match="channels=3"):
        ConvDenoiser(schedule, channels=3)
    with pytest.raises(ContractError, match=r"\(H, W\)"):
        AnalyticGaussianDenoiser(schedule, (4, 4, 3), 2)


@pytest.mark.parametrize("data_std", [0.0, -1.0, np.nan, np.inf, 1e300, 1e-9])
def test_analytic_rejects_a_data_std_whose_scale_is_not_finite(schedule, data_std):
    # 1e300 squared overflows; 1e-9 squared is lost next to 1, so the scale at t = 0 is 0/0
    with pytest.raises(ContractError, match="data_std"):
        AnalyticGaussianDenoiser(schedule, (4, 4), 2, data_std=data_std)


def test_predict_rejects_dim_mismatch(schedule, rng):
    m = make_analytic(schedule)
    with pytest.raises(ContractError, match="embedding dim"):
        m.predict(rng.normal((8, 8)), 10, ConditionEmbedding(np.zeros(5)))


def test_predict_rejects_bad_step(schedule, rng):
    m = make_analytic(schedule)
    with pytest.raises(IndexError):
        m.predict(rng.normal((8, 8)), 1001, m.null_embedding())


def test_base_class_capability_error(schedule):
    class Opaque(Denoiser):
        kind = "opaque"
        embedding_dim = 2

        def __init__(self):
            self.schedule = schedule

        def predict_each(self, x, t, embeddings, out=None):
            if out is None:
                out = np.empty((len(embeddings),) + x.shape)
            out[...] = x
            return list(out)

    with pytest.raises(CapabilityError):
        Opaque().grad_wrt_embedding(np.zeros((2, 2)), np.zeros((2, 2)), 1,
                                    ConditionEmbedding(np.zeros(2)))


@pytest.fixture(scope="module")
def conv_model(schedule):
    return ConvDenoiser(schedule, channels=1, embedding_dim=4, hidden=6, rng=SeededRng(21))


def test_conv_predict_is_pure_and_shape_preserving(conv_model, rng):
    x = rng.normal((9, 7))
    e = ConditionEmbedding(rng.normal(4))
    a = conv_model.predict(x, 123, e)
    b = conv_model.predict(x, 123, e)
    assert a.shape == x.shape
    assert np.array_equal(a, b)


def test_conv_embedding_gradient_matches_fd(conv_model, rng):
    x = rng.normal((6, 6))
    e0 = rng.normal(4)
    loss_grad = rng.normal((6, 6))
    t = 77

    def f(vec):
        pred = conv_model.predict(x, t, ConditionEmbedding(vec))
        return float(np.sum(pred * loss_grad))

    numeric = central_difference(f, e0)
    analytic = conv_model.grad_wrt_embedding(loss_grad, x, t, ConditionEmbedding(e0))
    assert relative_gradient_match(analytic, numeric)


def test_conv_input_gradient_matches_fd(conv_model, rng):
    x = rng.normal((5, 5))
    e = ConditionEmbedding(rng.normal(4))
    loss_grad = rng.normal((5, 5))

    def f(flat):
        return float(np.sum(conv_model.predict(flat.reshape(5, 5), 10, e) * loss_grad))

    numeric = central_difference(f, x.ravel()).reshape(5, 5)
    analytic = conv_model.grad_wrt_input(loss_grad, x, 10, e)
    assert relative_gradient_match(analytic, numeric)


def test_conv_gradients_leave_no_parameter_grad(schedule, rng):
    model = ConvDenoiser(schedule, channels=1, embedding_dim=4, hidden=6, rng=SeededRng(22))
    x = rng.normal((6, 6))
    e = ConditionEmbedding(rng.normal(4))
    for _ in range(2):
        model.grad_wrt_input(rng.normal((6, 6)), x, 30, e)
        model.grad_wrt_embedding(rng.normal((6, 6)), x, 30, e)
    assert all(p.grad is None for p in model.parameters())


def _disk_dataset(n, rng, size=12, dim=4):
    out = []
    for _ in range(n):
        yy, xx = np.mgrid[0:size, 0:size]
        cy, cx = rng.uniform(4, size - 4, (2,))
        r = float(rng.uniform(2.0, 4.0))
        img = 0.2 + 0.6 * (((yy - cy) ** 2 + (xx - cx) ** 2) <= r * r)
        e = np.zeros(dim)
        e[:3] = [cy / size, cx / size, r / size]
        out.append((img.astype(np.float64), ConditionEmbedding(e)))
    return out


def denoising_mse(model, dataset, rng):
    """Mean squared noise-prediction error over a dataset, one random
    timestep per example."""
    s = model.schedule
    total = 0.0
    for x0, emb in dataset:
        t = int(rng.integers(1, s.total_steps + 1))
        z = rng.normal(np.asarray(x0).shape)
        xt = np.sqrt(s.alpha_bars[t]) * x0 + np.sqrt(1.0 - s.alpha_bars[t]) * z
        total += float(np.mean((model.predict(xt, t, emb) - z) ** 2))
    return total / len(dataset)


def test_training_halves_denoising_mse(schedule):
    rng = SeededRng(99)
    dataset = _disk_dataset(120, rng)
    config = DenoiserTrainConfig(epochs=4, batch_size=16, drop_p=0.1, lr=3e-3)
    model = ConvDenoiser(schedule, channels=1, embedding_dim=4, hidden=8,
                         rng=rng.derive(1))
    train_rng = rng.derive(2)
    initial_mse = denoising_mse(model, dataset, train_rng.derive(0xE7A1))
    model, stats = train_toy_denoiser(dataset, schedule, train_rng, config, model=model)
    final_mse = denoising_mse(model, dataset, train_rng.derive(0xE7A2))
    assert final_mse <= 0.5 * initial_mse
    held_out = _disk_dataset(30, SeededRng(123))
    untrained = ConvDenoiser(schedule, channels=1, embedding_dim=4, hidden=8,
                             rng=SeededRng(99).derive(1))
    mse_trained = denoising_mse(model, held_out, SeededRng(7))
    mse_untrained = denoising_mse(untrained, held_out, SeededRng(7))
    assert mse_trained < mse_untrained


def test_training_ignores_earlier_inference_gradients(schedule):
    dataset = _disk_dataset(20, SeededRng(12))
    config = DenoiserTrainConfig(epochs=1, batch_size=8, drop_p=0.1, lr=3e-3)

    def trained(probe_first):
        model = ConvDenoiser(schedule, channels=1, embedding_dim=4, hidden=6, rng=SeededRng(13))
        if probe_first:
            x, e = dataset[0]
            model.grad_wrt_input(np.ones_like(x), x, 50, e)
            model.grad_wrt_input(np.ones_like(x), x, 500, e)
        model, _ = train_toy_denoiser(dataset, schedule, SeededRng(14), config, model=model)
        assert all(not p.requires_grad and p.grad is None for p in model.parameters())
        return model.flat_parameters()

    assert np.array_equal(trained(True), trained(False))


def test_fit_frees_each_batch_graph_before_building_the_next(no_cyclic_gc):
    """The input, the target and the output of a batch, and so its graph,
    are gone by the time the next batch is built."""
    previous, still_alive = [], []

    class Recording(ConvStack):
        def forward(self, x):
            out = super().forward(x)
            previous[-1].append(weakref.ref(out.data))
            return out

    model = Recording([(1, 3), (3, 1)], SeededRng(5))
    data = SeededRng(6).normal((6, 5, 5, 1))

    def batch(idx):
        if previous:
            still_alive.append([ref() is not None for ref in previous[-1]])
        inputs, target = Tensor(data[idx]), -data[idx]
        previous.append([weakref.ref(inputs.data), weakref.ref(target)])
        return inputs, target

    fit(model, 6, batch, epochs=2, batch_size=2, lr=1e-2, rng=SeededRng(7))
    assert still_alive == [[False] * 3] * 5


def test_fit_loss_is_the_mean_squared_error_and_its_gradient(monkeypatch):
    """fit's loss is the mean squared error of the forward pass, and the
    gradient it hands to Adam matches central differences of that error."""
    model = ConvStack([(1, 2), (2, 1)], SeededRng(5))
    x, y = SeededRng(6).normal((2, 4, 4, 1)), SeededRng(8).normal((2, 4, 4, 1))
    start = model.flat_parameters()

    def mse(flat):
        model.set_flat_parameters(flat)
        return float(np.mean((model.forward(Tensor(x)).data - y) ** 2))

    numeric = central_difference(mse, start, h=1e-6)
    model.set_flat_parameters(start)
    grads = []
    monkeypatch.setattr(denoiser_module, "adam_step",
                        lambda state, params, g: grads.append(g) or params)
    losses = fit(model, 2, lambda idx: (Tensor(x[idx]), y[idx]), epochs=1, batch_size=2,
                 lr=1e-2, rng=SeededRng(7))
    assert losses == [pytest.approx(mse(start), rel=1e-12)]
    assert relative_gradient_match(grads[0], numeric, rtol=1e-6)


def test_drop_p_zero_never_substitutes_null(schedule):
    rng = SeededRng(5)
    dataset = _disk_dataset(20, rng)
    config = DenoiserTrainConfig(epochs=1, batch_size=8, drop_p=0.0, lr=1e-3)
    model = ConvDenoiser(schedule, embedding_dim=4, hidden=6, rng=SeededRng(10))
    _, stats = train_toy_denoiser(dataset, schedule, rng.derive(3), config, model=model)
    assert stats.null_substitutions == 0
    assert stats.examples_seen == 20


def test_drop_p_one_conditional_equals_unconditional(schedule):
    rng = SeededRng(6)
    dataset = _disk_dataset(20, rng)
    config = DenoiserTrainConfig(epochs=2, batch_size=8, drop_p=1.0, lr=3e-3)
    model = ConvDenoiser(schedule, embedding_dim=4, hidden=6, rng=SeededRng(10))
    model, stats = train_toy_denoiser(dataset, schedule, rng.derive(3), config, model=model)
    assert stats.null_substitutions == stats.examples_seen
    x = SeededRng(8).normal((12, 12))
    e = ConditionEmbedding(SeededRng(9).normal(4))
    cond = model.predict(x, 40, e)
    uncond = model.predict(x, 40, model.null_embedding())
    assert np.array_equal(cond, uncond)


def test_empty_dataset_rejected(schedule, rng):
    with pytest.raises(ConfigError, match="dataset"):
        train_toy_denoiser([], schedule, rng, DenoiserTrainConfig(epochs=1),
                           model=ConvDenoiser(schedule, embedding_dim=4))


@pytest.mark.parametrize("kwargs, key", [
    (dict(epochs=-1), "denoiser_epochs"),
    (dict(batch_size=0), "denoiser_batch"),
    (dict(drop_p=1.5), "drop_p"),
    (dict(drop_p=float("nan")), "drop_p"),
    (dict(lr=0.0), "denoiser_lr"),
    (dict(lr=float("inf")), "denoiser_lr"),
])
def test_train_config_validation(kwargs, key):
    with pytest.raises(ConfigError, match=key):
        DenoiserTrainConfig(**{"epochs": 1, **kwargs})


def test_checkpoint_round_trip_analytic(tmp_path, schedule, rng):
    mu = rng.normal((6, 6))
    m = AnalyticGaussianDenoiser(schedule, (6, 6), 5, mu=mu, rng=SeededRng(17))
    path = tmp_path / "analytic.ckpt"
    save_checkpoint(path, m)
    loaded = load_checkpoint(path, schedule)
    x = rng.normal((6, 6))
    e = ConditionEmbedding(rng.normal(5))
    assert np.array_equal(loaded.predict(x, 300, e), m.predict(x, 300, e))


def test_checkpoint_round_trip_conv(tmp_path, schedule, conv_model, rng):
    path = tmp_path / "conv.ckpt"
    save_checkpoint(path, conv_model)
    loaded = load_checkpoint(path, schedule)
    x = rng.normal((6, 6))
    e = ConditionEmbedding(rng.normal(4))
    assert np.array_equal(loaded.predict(x, 55, e), conv_model.predict(x, 55, e))


def test_checkpoint_magic(tmp_path, schedule, conv_model):
    path = tmp_path / "conv.ckpt"
    save_checkpoint(path, conv_model)
    assert path.read_bytes()[:4] == b"TTGM"


def test_corrupt_checkpoints_rejected(tmp_path, schedule, conv_model):
    good = tmp_path / "conv.ckpt"
    save_checkpoint(good, conv_model)
    data = good.read_bytes()
    cases = {
        "truncated header": data[:10],
        "bad magic": b"XXXX" + data[4:],
        "missing parameters": data[:-8],
        "extra bytes": data + b"\0" * 3,
    }
    for name, blob in cases.items():
        path = tmp_path / f"{name}.ckpt"
        path.write_bytes(blob)
        with pytest.raises(CorruptFileError):
            load_checkpoint(path, schedule)
