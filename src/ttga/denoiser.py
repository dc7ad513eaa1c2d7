"""Noise-prediction models eps(x_t, t, e) with gradient access w.r.t. the
conditioning embedding.

Two implementations share one interface:

* ``AnalyticGaussianDenoiser`` -- the exact posterior-mean noise predictor for
  data distributed N(mu, I), with a linear conditioning hook
  ``eps(x,t,e) = eps*(x,t) + P @ e`` (P a frozen random projection). Because
  it is exactly linear in both x and e, guidance algebra and embedding
  optimization have closed forms against which everything else is tested.

* ``ConvDenoiser`` -- a small tanh convnet over (image, broadcast condition
  channels, sinusoidal time features), differentiated by the autodiff module.

``ConvStack`` and ``fit`` are the conv layers and the Adam mini-batch loop
with its mean-squared-error loss that ``ConvDenoiser`` and the toy segmenter
in ``evalbench`` share.

A denoiser implements two methods: ``predict_each`` evaluates several
embeddings at once, as the rows of one array (a caller's buffer if given
one), and ``predict_vjp`` returns one prediction with its vector-Jacobian
product. ``Denoiser`` derives ``predict`` and
``grad_wrt_input``/``grad_wrt_embedding`` from them. Each takes one
single-channel (H, W) grid, or an (N, H, W) stack of them; item i of a
stacked prediction or input gradient equals the single-grid call on item i,
bit for bit. A ``pixelwise`` model, whose prediction at a pixel reads only
that pixel of the input, also implements ``at_pixels``: the same model on a
column of chosen pixels.

For N(mu, I) data the marginal of x_t is N(sqrt(abar_t)*mu, I), and the
posterior-mean predictor is

    eps*(x, t) = sqrt(1 - abar_t) * (x - sqrt(abar_t) * mu).
"""

from __future__ import annotations

import copy
import ctypes
import functools
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import checkpoint
from .autodiff import Tensor, conv2d, scatter_matrix
from .errors import CapabilityError, ConfigError, ContractError, CorruptFileError, NumericalAbort
from .optim import AdamState, adam_step
from .rng import SeededRng
from .schedule import NoiseSchedule

ROLE_SEMANTIC = "semantic"
ROLE_NULL = "null"
ROLE_OPTIMIZED_NULL = "optimized_null"
_ROLES = (ROLE_SEMANTIC, ROLE_NULL, ROLE_OPTIMIZED_NULL)


def _check_wrt(wrt: str) -> None:
    if wrt not in ("input", "embedding"):
        raise ContractError(f"wrt must be input|embedding, got {wrt!r}")


@dataclass(frozen=True)
class ConditionEmbedding:
    """Fixed-length conditioning vector with a bookkeeping role tag."""

    values: np.ndarray
    role: str = ROLE_SEMANTIC

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1:
            raise ContractError(f"embedding must be a vector, got shape {v.shape}")
        if self.role not in _ROLES:
            raise ContractError(f"unknown embedding role {self.role!r}")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def dim(self) -> int:
        return self.values.size


class Denoiser:
    """Interface shared by all noise predictors. Subclasses implement
    ``predict_each`` and, if they are differentiable, ``predict_vjp``.

    A grid is (H, W); an (N, H, W) input is a stack of N grids.
    """

    kind: str
    embedding_dim: int
    schedule: NoiseSchedule
    # each predicted pixel depends on the same input pixel only
    pixelwise = False

    def predict_each(
        self, x: np.ndarray, t: int, embeddings: Sequence[ConditionEmbedding],
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """The noise predicted at (x, t) under each embedding, in order, as
        the rows of one (len(embeddings), *x.shape) array: ``out`` itself if
        given, else a new array."""
        raise NotImplementedError

    def predict_vjp(
        self, x: np.ndarray, t: int, e: ConditionEmbedding, wrt: str = "input"
    ) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
        """``predict(x, t, e)`` and the vector-Jacobian product at (x, t, e):
        a function of ``loss_grad`` that returns d<loss_grad, predict>/d x
        (wrt="input") or d<loss_grad, predict>/d e (wrt="embedding")."""
        raise CapabilityError(f"{self.kind} does not support gradients")

    def predict(self, x: np.ndarray, t: int, e: ConditionEmbedding) -> np.ndarray:
        return self.predict_each(x, t, [e])[0]

    def at_pixels(self, pixels: np.ndarray,
                  embeddings: Sequence[ConditionEmbedding]) -> "Denoiser":
        """A pixelwise model restricted to the flat grid positions
        ``pixels``, as an (L, 1) grid: row k of its prediction under one of
        ``embeddings`` is this model's prediction at ``pixels[k]``, bit for
        bit."""
        raise CapabilityError(f"{self.kind} is not pixelwise")

    def grad_wrt_embedding(self, loss_grad: np.ndarray, x: np.ndarray, t: int,
                           e: ConditionEmbedding) -> np.ndarray:
        return self.predict_vjp(x, t, e, "embedding")[1](loss_grad)

    def grad_wrt_input(self, loss_grad: np.ndarray, x: np.ndarray, t: int,
                       e: ConditionEmbedding) -> np.ndarray:
        return self.predict_vjp(x, t, e, "input")[1](loss_grad)

    def null_embedding(self) -> ConditionEmbedding:
        """The unconditional embedding; the same object on every call, so
        caches keyed on the embedding hit for it."""
        return self._null

    @functools.cached_property
    def _null(self) -> ConditionEmbedding:
        return ConditionEmbedding(np.zeros(self.embedding_dim), role=ROLE_NULL)

    def _check_embeddings(self, embeddings: Sequence[ConditionEmbedding],
                          x: np.ndarray | None = None, out: np.ndarray | None = None) -> None:
        for e in embeddings:
            if e.dim != self.embedding_dim:
                raise ContractError(
                    f"embedding dim {e.dim} != model embedding_dim {self.embedding_dim}")
        if out is not None and out.shape != (len(embeddings),) + np.shape(x):
            raise ContractError(f"out shape {out.shape} != {(len(embeddings),) + np.shape(x)}")


class AnalyticGaussianDenoiser(Denoiser):
    """Closed-form predictor for N(mu, data_std^2 I) data with linear
    conditioning.

    The exact posterior mean of the forward noise given x_t is

        eps*(x, t) = sqrt(1-abar_t) / (abar_t*sigma^2 + 1 - abar_t)
                     * (x - sqrt(abar_t)*mu),

    which reduces to sqrt(1-abar_t)*(x - sqrt(abar_t)*mu) for unit data
    variance. Larger data_std weakens the pull toward the prototype mu,
    i.e. the model trusts the observed latent more.
    """

    kind = "analytic_gaussian"
    pixelwise = True

    @staticmethod
    def data_std_ok(data_std: float) -> bool:
        """Whether ``data_std`` is positive and its square, the data variance,
        finite and not lost when added to 1: at t = 0 the denominator of the
        posterior scale is (variance + 1) - 1, and a zero there makes 0/0."""
        return data_std > 0.0 and 1.0 < 1.0 + data_std * data_std < np.inf

    def __init__(
        self,
        schedule: NoiseSchedule,
        shape: tuple,
        embedding_dim: int,
        mu: np.ndarray | float = 0.0,
        rng: SeededRng | None = None,
        projection: np.ndarray | None = None,
        data_std: float = 1.0,
    ):
        self.schedule = schedule
        self.shape = tuple(shape)
        if len(self.shape) != 2:
            raise ContractError(f"grid shape must be (H, W), got {self.shape}")
        self.embedding_dim = int(embedding_dim)
        self.data_std = float(data_std)
        if not self.data_std_ok(self.data_std):
            raise ContractError(
                f"data_std must be positive, its square finite and not lost next to 1, "
                f"got {data_std}")
        self.mu = np.broadcast_to(np.asarray(mu, dtype=np.float64), self.shape).copy()
        n = int(np.prod(self.shape))
        if projection is not None:
            projection = np.asarray(projection, dtype=np.float64)
            if projection.shape != (n, self.embedding_dim):
                raise ContractError(
                    f"projection shape {projection.shape} != ({n}, {self.embedding_dim})"
                )
            self.projection = projection.copy()
        else:
            if rng is None:
                rng = SeededRng(0)
            self.projection = rng.normal((n, self.embedding_dim)) / np.sqrt(self.embedding_dim)
        self.mu.setflags(write=False)
        self.projection.setflags(write=False)
        # sqrt(abar_t) and the posterior scale of eps* at every t, computed
        # elementwise by the scalar expressions and so with their bits
        abar = schedule.alpha_bars
        self._sqrt_abar = np.sqrt(abar)
        self._scales = np.sqrt(1.0 - abar) / (abar * self.data_std ** 2 + 1.0 - abar)
        # P @ e of the last embedding seen in each role, matched by identity
        self._proj_cache: dict[str, tuple[ConditionEmbedding, np.ndarray]] = {}

    def _projected(self, e: ConditionEmbedding) -> np.ndarray:
        """``P @ e`` as a grid, computed once per embedding in each role."""
        hit = self._proj_cache.get(e.role)
        if hit is None or hit[0] is not e:
            if self.projection is None:
                raise CapabilityError(
                    "a pixel column predicts only the embeddings it was built with")
            hit = self._proj_cache[e.role] = (e, (self.projection @ e.values).reshape(self.shape))
        return hit[1]

    def at_pixels(self, pixels, embeddings):
        """Gathers ``mu`` and each embedding's ``P @ e`` at ``pixels``.
        ``P @ e`` is this model's full product, cached here if it was not
        yet: a product over a subset of the rows may sum in another order.
        The column keeps no projection, so it predicts only under
        ``embeddings`` and has no embedding gradient. The null embedding is
        this model's own object, which the caches match by identity."""
        pixels = np.asarray(pixels, dtype=np.intp)
        sub = copy.copy(self)
        sub.shape = (pixels.size, 1)
        sub.mu = self.mu.reshape(-1)[pixels].reshape(sub.shape)
        sub.projection = None
        sub._null = self.null_embedding()
        sub._proj_cache = {e.role: (e, self._projected(e).reshape(-1)[pixels].reshape(sub.shape))
                           for e in embeddings}
        return sub

    def predict_each(self, x, t, embeddings, out=None):
        """``scale*(x - sqrt(abar)*mu)`` once, in the last prediction's
        buffer, plus ``P @ e`` per embedding, broadcast over a stack."""
        if embeddings:
            self.schedule.check_step(t)
        self._check_embeddings(embeddings, x, out)
        if x.shape != self.shape and x.shape[1:] != self.shape:
            raise ContractError(f"grid shape {x.shape} != model shape {self.shape}")
        if out is None:
            out = np.empty((len(embeddings),) + x.shape)
        if len(out):
            base = np.subtract(x, self._sqrt_abar[t] * self.mu, out=out[-1])
            base *= self._scales[t]
            for e, pred in zip(embeddings, out):
                np.add(base, self._projected(e), out=pred)
        return out

    def predict_vjp(self, x, t, e, wrt="input"):
        _check_wrt(wrt)
        if wrt == "embedding" and self.projection is None:
            raise CapabilityError("a pixel column has no embedding gradient")
        pred = self.predict_each(x, t, [e])[0]
        if wrt == "input":
            scale = self._scales[t]
            return pred, lambda loss_grad: scale * np.asarray(loss_grad, dtype=np.float64)

        def vjp(loss_grad: np.ndarray) -> np.ndarray:
            # a stack's items share the embedding, so their gradients add up
            g = np.asarray(loss_grad, dtype=np.float64).reshape(-1, self.projection.shape[0])
            return self.projection.T @ g.sum(axis=0)

        return pred, vjp


_TIME_FREQS = np.array([1.0, 2.0, 4.0, 8.0])
TIME_FEATURES = 2 * _TIME_FREQS.size


def time_features(t: int, total_steps: int) -> np.ndarray:
    """Sinusoidal features of the normalized timestep, length TIME_FEATURES."""
    tt = 2.0 * np.pi * t / total_steps
    return np.concatenate([np.sin(_TIME_FREQS * tt), np.cos(_TIME_FREQS * tt)])


class ConvStack:
    """KERNEL x KERNEL stride-1 'same' convolutions with tanh between layers:
    the weights, their flat-vector view and the forward pass shared by the
    conv models. ``dims`` holds one (in, out) channel pair per layer; weights
    are drawn layer by layer from ``rng`` and biases start at zero.

    Parameters do not require gradients outside ``fit``, so an inference
    call builds no weight-gradient graph and leaves no ``.grad`` behind.
    The conv models read an (H, W) grid or an (N, H, W) stack, shaped by
    ``_prepare`` and ``_restore``.
    """

    KERNEL = 3

    def __init__(self, dims: Sequence[tuple[int, int]], rng: SeededRng | None = None):
        rng = rng or SeededRng(0)
        k2 = self.KERNEL * self.KERNEL
        self.weights = [Tensor(rng.normal((k2 * cin, cout)) / np.sqrt(k2 * cin))
                        for cin, cout in dims]
        self.biases = [Tensor(np.zeros(cout)) for _, cout in dims]

    def parameters(self) -> list[Tensor]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend((w, b))
        return out

    def flat_parameters(self) -> np.ndarray:
        return np.concatenate([p.data.ravel() for p in self.parameters()])

    def set_flat_parameters(self, flat: np.ndarray) -> None:
        params = self.parameters()
        expected = sum(p.data.size for p in params)
        if flat.size != expected:
            raise ContractError(f"parameter vector length {flat.size}, expected {expected}")
        i = 0
        for p in params:
            n = p.data.size
            p.data = flat[i:i + n].reshape(p.data.shape).astype(np.float64)
            i += n

    @staticmethod
    def _prepare(x: np.ndarray):
        """(B, H, W, 1) batch of the input, and whether it was a stack."""
        arr = np.asarray(x, dtype=np.float64)
        if arr.ndim not in (2, 3):
            raise ContractError(f"expected an (H, W) grid or (N, H, W) stack, got {arr.shape}")
        stacked = arr.ndim == 3
        return (arr if stacked else arr[None])[..., None], stacked

    @staticmethod
    def _restore(out: np.ndarray, stacked: bool) -> np.ndarray:
        return out[..., 0] if stacked else out[0, ..., 0]

    def forward(self, x: Tensor, more: Sequence[Tensor] = ()) -> Tensor:
        """(B, H, W, C_in) -> (B, H, W, C_out) through every layer; the first
        layer reads ``more`` after x along the channel axis, as ``conv2d`` does."""
        out = x
        last = len(self.weights) - 1
        for li, (wt, bt) in enumerate(zip(self.weights, self.biases)):
            out = conv2d(out, wt, bt, self.KERNEL, more if li == 0 else ())
            if li != last:
                out = out.tanh()
        return out


class ConvDenoiser(ConvStack, Denoiser):
    """Small conditional convnet: 4 stride-1 'same' 3x3 convolutions with tanh.

    Input channels are the image, the condition embedding broadcast over
    space, and sinusoidal time features. The first layer's weights on the
    condition channels start at zero, so an untrained (or never-trained
    because drop_p = 1) conditioning pathway is exactly inert.

    It reads (H, W) grids and (N, H, W) stacks; ``channels`` must be 1.
    """

    kind = "trainable_net"

    def __init__(
        self,
        schedule: NoiseSchedule,
        channels: int = 1,
        embedding_dim: int = 8,
        hidden: int = 48,
        rng: SeededRng | None = None,
    ):
        if channels != 1:
            raise ContractError(f"ConvDenoiser reads one-channel grids, got channels={channels}")
        self.schedule = schedule
        self.embedding_dim = int(embedding_dim)
        self.hidden = int(hidden)
        in_ch = 1 + self.embedding_dim + TIME_FEATURES
        super().__init__([(in_ch, hidden), (hidden, hidden), (hidden, hidden), (hidden, 1)], rng)
        # layer-0 rows are ordered (kernel position, input channel)
        w0 = self.weights[0].data.reshape(self.KERNEL * self.KERNEL, in_ch, hidden)
        w0[:, 1:1 + self.embedding_dim] = 0.0

    def forward(self, x: Tensor, emb: Tensor, feats: Tensor) -> Tensor:
        """The network over its input channels: the (B, H, W, 1) image, then
        the embedding and the time features, (B|1, 1, 1, C) each, broadcast
        over the (B, H, W) grid."""
        return super().forward(x, (emb, feats))

    def _feats(self, t: int) -> Tensor:
        return Tensor(time_features(t, self.schedule.total_steps).reshape(1, 1, 1, -1))

    def predict_each(self, x, t, embeddings, out=None):
        """One forward over the distinct embeddings, those whose values'
        bytes no earlier one has: the (k*N, H, W) batch repeats the N items
        of ``x`` once per distinct embedding. Each row of the result is a
        copy of its embedding's part of the batch."""
        # t = 0 is admitted: inversion ladders evaluate the predictor at the
        # clean endpoint, where sqrt(1 - abar_0) = 0.
        self.schedule.check_step(t)
        self._check_embeddings(embeddings, x, out)
        xb, stacked = self._prepare(x)
        if out is None:
            out = np.empty((len(embeddings),) + np.shape(x))
        if not embeddings:
            return out
        keys = [e.values.tobytes() for e in embeddings]
        first = {key: keys.index(key) for key in keys}
        k, n = len(first), xb.shape[0]
        rows = np.repeat([embeddings[i].values for i in first.values()], n, axis=0)
        y = self.forward(Tensor(np.concatenate([xb] * k)),
                         Tensor(rows.reshape(k * n, 1, 1, -1)), self._feats(t))
        parts = dict(zip(first, np.split(y.data, k)))
        for dst, key in zip(out, keys):
            dst[...] = self._restore(parts[key], stacked)
        return out

    def predict_vjp(self, x, t, e, wrt="input"):
        """One forward pass that keeps its graph; each call of the returned
        function runs one backward pass over it."""
        self.schedule.check_step(t)
        self._check_embeddings([e])
        _check_wrt(wrt)
        xb, stacked = self._prepare(x)
        xt = Tensor(xb, requires_grad=(wrt == "input"))
        emb = Tensor(e.values.reshape(1, 1, 1, -1), requires_grad=(wrt == "embedding"))
        out = self.forward(xt, emb, self._feats(t))
        leaf = xt if wrt == "input" else emb

        def vjp(loss_grad: np.ndarray) -> np.ndarray:
            g, _ = self._prepare(np.asarray(loss_grad, dtype=np.float64))
            leaf.grad = None
            out.backward(seed=g)
            if wrt == "embedding":
                return leaf.grad.reshape(self.embedding_dim)
            return self._restore(leaf.grad, stacked)

        return self._restore(out.data, stacked), vjp


# ---- training ----


@dataclass(frozen=True)
class DenoiserTrainConfig:
    epochs: int
    batch_size: int = 16
    drop_p: float = 0.1
    lr: float = 1e-3

    def __post_init__(self):
        if self.epochs < 0:
            raise ConfigError(f"denoiser_epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"denoiser_batch must be >= 1, got {self.batch_size}")
        if not 0.0 <= self.drop_p <= 1.0:
            raise ConfigError(f"drop_p must be in [0,1], got {self.drop_p}")
        if not 0.0 < self.lr < np.inf:
            raise ConfigError(f"denoiser_lr must be finite and > 0, got {self.lr}")


@dataclass
class TrainStats:
    epoch_losses: list[float] = field(default_factory=list)
    null_substitutions: int = 0
    examples_seen: int = 0


# glibc <malloc.h> parameter numbers
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def keep_freed_batches() -> None:
    """Let glibc's malloc keep the memory of a freed batch graph for the next.

    Each batch frees its whole graph before the next is built. With glibc's
    default thresholds, buffers of several MiB are mapped and unmapped, or
    the top of the heap is returned to the OS, once per batch, and every
    batch pays to page its buffers in again. Serving blocks up to 64 MiB from
    the heap, and trimming it only past 128 MiB free, reuses them instead.
    The setting holds for the rest of the process; with a C library that has
    no ``mallopt`` this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 64 << 20)
    mallopt(_M_TRIM_THRESHOLD, 128 << 20)


@np.errstate(over="ignore", invalid="ignore")
def fit(
    model: ConvStack,
    n: int,
    batch: Callable[[np.ndarray], tuple],
    epochs: int,
    batch_size: int,
    lr: float,
    rng: SeededRng,
) -> list[float]:
    """Shuffled mini-batch Adam on the mean squared error of ``model.forward``
    over ``n`` examples; the mean batch loss of each epoch.

    Each epoch draws a permutation from ``rng`` and calls ``batch`` with the
    indices of each mini-batch in turn; it returns the arguments of
    ``model.forward`` and then the target of those examples. The model's
    parameters require gradients only while this runs. A batch whose loss or
    updated parameters are not finite ends the training in NumericalAbort,
    with numpy's overflow warnings silenced.
    """
    keep_freed_batches()
    params = model.flat_parameters()
    state = AdamState(dim=params.size, lr=lr)
    losses = []
    for p in model.parameters():
        p.requires_grad = True
    try:
        for epoch in range(1, epochs + 1):
            order = rng.permutation(n)
            epoch_loss, batches = 0.0, 0
            for start in range(0, n, batch_size):
                *inputs, target = batch(order[start:start + batch_size])
                # the backward's scatter matrix, built once per grid before any batch
                # graph: built inside one, it would stay between that graph's buffers
                scatter_matrix(*inputs[0].shape[1:3], model.KERNEL)
                out = model.forward(*inputs)
                diff = out.data - target
                loss = float(np.mean(diff * diff))
                epoch_loss += loss
                # d mean(diff^2) / d out, summed in the order a graph of the loss would
                h = (1.0 / diff.size) * diff
                out.backward(seed=h + h)
                # free this batch's arrays and graph before the next one is built
                del inputs, target, out, diff, h
                grads = np.concatenate([p.grad.ravel() for p in model.parameters()])
                for p in model.parameters():
                    p.grad = None
                params = adam_step(state, params, grads)
                if not (np.isfinite(loss) and np.isfinite(params).all()):
                    raise NumericalAbort(
                        f"non-finite training loss or parameters in epoch {epoch} of {epochs}; "
                        "training diverged")
                model.set_flat_parameters(params)
                batches += 1
            losses.append(epoch_loss / max(batches, 1))
    finally:
        for p in model.parameters():
            p.requires_grad = False
            p.grad = None
    return losses


def train_toy_denoiser(
    dataset: Sequence[tuple[np.ndarray, ConditionEmbedding]],
    schedule: NoiseSchedule,
    rng: SeededRng,
    config: DenoiserTrainConfig,
    *,
    model: ConvDenoiser,
) -> tuple[ConvDenoiser, TrainStats]:
    """Train ``model`` on the standard denoising objective with condition
    dropout; each example is an (H, W) grid and its embedding.

    Each example is noised to a uniformly drawn timestep; with probability
    ``drop_p`` the condition embedding is replaced by the null embedding so
    the model also learns an unconditional prediction (enabling
    classifier-free guidance at inference).
    """
    if not dataset:
        raise ConfigError("dataset must be nonempty (field: dataset)")
    null = model.null_embedding()
    stats = TrainStats()
    s = schedule

    def batch(idx: np.ndarray) -> tuple[Tensor, Tensor, Tensor, np.ndarray]:
        xs, feats, embs, zs = [], [], [], []
        for i in idx:
            x0, emb = dataset[i]
            x0 = np.asarray(x0, dtype=np.float64)[:, :, None]
            t = int(rng.integers(1, s.total_steps + 1))
            z = rng.normal(x0.shape)
            xt = np.sqrt(s.alpha_bars[t]) * x0 + np.sqrt(1.0 - s.alpha_bars[t]) * z
            use_null = config.drop_p > 0.0 and float(rng.random()) < config.drop_p
            if use_null:
                stats.null_substitutions += 1
            xs.append(xt)
            zs.append(z)
            feats.append(time_features(t, s.total_steps))
            embs.append((null if use_null else emb).values)
            stats.examples_seen += 1
        b = len(xs)
        xb = Tensor(np.stack(xs))
        fb = Tensor(np.stack(feats).reshape(b, 1, 1, -1))
        eb = Tensor(np.stack(embs).reshape(b, 1, 1, -1))
        return xb, eb, fb, np.stack(zs)

    stats.epoch_losses = fit(model, len(dataset), batch, config.epochs,
                             config.batch_size, config.lr, rng)
    return model, stats


# ---- checkpoints ----


def save_checkpoint(path, model: Denoiser) -> None:
    """Fields (embedding_dim, H, W, channels = 1, hidden) + f64 params."""
    if model.kind == "analytic_gaussian":
        (h, w), aux = model.shape, 0
        params = np.concatenate([[model.data_std], model.mu.ravel(),
                                 model.projection.ravel()])
    elif model.kind == "trainable_net":
        h = w = 0
        aux = model.hidden
        params = model.flat_parameters()
    else:
        raise CapabilityError(f"cannot checkpoint model kind {model.kind!r}")
    checkpoint.write(path, model.kind, (model.embedding_dim, h, w, 1, aux), params)


def load_checkpoint(path, schedule: NoiseSchedule) -> Denoiser:
    """The denoiser in a checkpoint file; CorruptFileError if its header or
    parameters do not describe a single-channel model this package builds."""
    kind, (dim, h, w, c, aux), params = checkpoint.read(
        path, (AnalyticGaussianDenoiser.kind, ConvDenoiser.kind))
    if c != 1:
        raise CorruptFileError(f"{path}: {c} grid channels; only single-channel grids are read")
    analytic = kind == AnalyticGaussianDenoiser.kind
    # save_checkpoint writes hidden width 0 for the analytic model and grid 0 x 0 for the net
    if any((aux,) if analytic else (h, w)):
        raise CorruptFileError(f"{path}: a {kind} file with grid {(h, w)} and hidden width {aux}")
    if analytic:
        n = h * w
        if params.size != 1 + n + n * dim:
            raise CorruptFileError(f"{path}: {params.size} parameters do not fit shape {(h, w)}")
        data_std = float(params[0])
        if not AnalyticGaussianDenoiser.data_std_ok(data_std):
            raise CorruptFileError(
                f"{path}: data_std {data_std} is not positive with a finite square "
                "that is not lost next to 1")
        return AnalyticGaussianDenoiser(schedule, (h, w), dim, mu=params[1:1 + n].reshape(h, w),
                                        projection=params[1 + n:].reshape(n, dim),
                                        data_std=data_std)
    if aux < 1:
        raise CorruptFileError(f"{path}: hidden width {aux} is not positive")
    model = ConvDenoiser(schedule, embedding_dim=dim, hidden=aux)
    if params.size != model.flat_parameters().size:
        raise CorruptFileError(f"{path}: {params.size} parameters do not fit the network")
    model.set_flat_parameters(np.array(params))
    return model
