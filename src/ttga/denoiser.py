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
that ``ConvDenoiser`` and the toy segmenter in ``evalbench`` share.

``predict`` and ``grad_wrt_input`` take one grid, or a stack of grids along a
new leading item axis; item i of a stacked result equals the single-grid
call on item i, bit for bit.

For N(mu, I) data the marginal of x_t is N(sqrt(abar_t)*mu, I), and the
posterior-mean predictor is

    eps*(x, t) = sqrt(1 - abar_t) * (x - sqrt(abar_t) * mu).
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .autodiff import Tensor, concat_channels, conv2d
from .errors import CapabilityError, ConfigError, ContractError, CorruptFileError
from .optim import AdamState, adam_step
from .rng import SeededRng
from .schedule import NoiseSchedule

ROLE_SEMANTIC = "semantic"
ROLE_NULL = "null"
ROLE_OPTIMIZED_NULL = "optimized_null"
_ROLES = (ROLE_SEMANTIC, ROLE_NULL, ROLE_OPTIMIZED_NULL)


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

    @staticmethod
    def null(dim: int) -> "ConditionEmbedding":
        return ConditionEmbedding(np.zeros(dim), role=ROLE_NULL)


class Denoiser:
    """Interface shared by all noise predictors.

    One grid has ``grid_ndim`` axes; an input with one more axis is a stack
    of grids, item by item along the leading axis.
    """

    kind: str
    embedding_dim: int
    grid_ndim: int
    schedule: NoiseSchedule

    def predict(self, x: np.ndarray, t: int, e: ConditionEmbedding) -> np.ndarray:
        raise NotImplementedError

    def grad_wrt_embedding(
        self, loss_grad: np.ndarray, x: np.ndarray, t: int, e: ConditionEmbedding
    ) -> np.ndarray:
        """Vector-Jacobian product d<loss_grad, predict>/d e."""
        raise CapabilityError(f"{self.kind} does not support embedding gradients")

    def grad_wrt_input(
        self, loss_grad: np.ndarray, x: np.ndarray, t: int, e: ConditionEmbedding
    ) -> np.ndarray:
        """Vector-Jacobian product d<loss_grad, predict>/d x."""
        raise CapabilityError(f"{self.kind} does not support input gradients")

    def null_embedding(self) -> ConditionEmbedding:
        """The unconditional embedding; the same object on every call, so
        caches keyed on the embedding hit for it."""
        return self._null

    @functools.cached_property
    def _null(self) -> ConditionEmbedding:
        return ConditionEmbedding.null(self.embedding_dim)

    def _check_call(self, x: np.ndarray, t: int, e: ConditionEmbedding) -> None:
        # t = 0 is admitted: inversion ladders evaluate the predictor at the
        # clean endpoint, where sqrt(1 - abar_0) = 0.
        self.schedule.check_step(t)
        if e.dim != self.embedding_dim:
            raise ContractError(
                f"embedding dim {e.dim} != model embedding_dim {self.embedding_dim}"
            )


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
        self.embedding_dim = int(embedding_dim)
        if data_std <= 0.0:
            raise ContractError(f"data_std must be positive, got {data_std}")
        self.data_std = float(data_std)
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
        # P @ e of the last embedding seen in each role, matched by identity
        self._proj_cache: dict[str, tuple[ConditionEmbedding, np.ndarray]] = {}

    def _projected(self, e: ConditionEmbedding) -> np.ndarray:
        hit = self._proj_cache.get(e.role)
        if hit is not None and hit[0] is e:
            return hit[1]
        value = (self.projection @ e.values).reshape(self.shape)
        self._proj_cache[e.role] = (e, value)
        return value

    @property
    def grid_ndim(self) -> int:
        return len(self.shape)

    def _scale(self, t: int) -> float:
        abar = self.schedule.alpha_bars[t]
        return np.sqrt(1.0 - abar) / (abar * self.data_std ** 2 + 1.0 - abar)

    def predict(self, x: np.ndarray, t: int, e: ConditionEmbedding) -> np.ndarray:
        self._check_call(x, t, e)
        if x.shape != self.shape and x.shape[1:] != self.shape:
            raise ContractError(f"grid shape {x.shape} != model shape {self.shape}")
        abar = self.schedule.alpha_bars[t]
        return self._scale(t) * (x - np.sqrt(abar) * self.mu) + self._projected(e)

    def grad_wrt_embedding(self, loss_grad, x, t, e):
        self._check_call(x, t, e)
        return self.projection.T @ np.asarray(loss_grad, dtype=np.float64).ravel()

    def grad_wrt_input(self, loss_grad, x, t, e):
        self._check_call(x, t, e)
        return self._scale(t) * np.asarray(loss_grad, dtype=np.float64)


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

    def forward(self, x: Tensor) -> Tensor:
        """(B, H, W, C_in) -> (B, H, W, C_out) through every layer."""
        out = x
        last = len(self.weights) - 1
        for li, (wt, bt) in enumerate(zip(self.weights, self.biases)):
            out = conv2d(out, wt, bt, self.KERNEL)
            if li != last:
                out = out.tanh()
        return out


class ConvDenoiser(ConvStack, Denoiser):
    """Small conditional convnet: 4 stride-1 'same' 3x3 convolutions with tanh.

    Input channels are the image channels, the condition embedding broadcast
    over space, and sinusoidal time features. The first layer's weights on
    the condition channels start at zero, so an untrained (or never-trained
    because drop_p = 1) conditioning pathway is exactly inert.

    A one-channel model reads (H, W) grids and (N, H, W) stacks; a C-channel
    model reads (H, W, C) grids and (N, H, W, C) stacks.
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
        self.schedule = schedule
        self.channels = int(channels)
        self.embedding_dim = int(embedding_dim)
        self.hidden = int(hidden)
        in_ch = self.channels + self.embedding_dim + TIME_FEATURES
        super().__init__(
            [(in_ch, hidden), (hidden, hidden), (hidden, hidden), (hidden, self.channels)], rng
        )
        # layer-0 rows are ordered (kernel position, input channel)
        w0 = self.weights[0].data.reshape(self.KERNEL * self.KERNEL, in_ch, hidden)
        w0[:, self.channels:self.channels + self.embedding_dim] = 0.0

    @property
    def grid_ndim(self) -> int:
        return 2 if self.channels == 1 else 3

    def _assemble(self, x: Tensor, feats: Tensor, emb: Tensor) -> Tensor:
        """Network input: the image channels, then the embedding and the time
        features broadcast over the (B, H, W) grid."""
        b, h, w, _ = x.shape
        return concat_channels([
            x,
            emb.broadcast_to((b, h, w, self.embedding_dim)),
            feats.broadcast_to((b, h, w, TIME_FEATURES)),
        ])

    def _prepare(self, x: np.ndarray):
        """(B, H, W, C) batch of the input, and whether it was a stack."""
        arr = np.asarray(x, dtype=np.float64)
        stacked = arr.ndim == self.grid_ndim + 1
        if arr.ndim != self.grid_ndim and not stacked:
            raise ContractError(
                f"expected a {self.grid_ndim}-D grid or a stack of them, got shape {arr.shape}"
            )
        if self.channels == 1:
            arr = arr[..., None]
        elif arr.shape[-1] != self.channels:
            raise ContractError(f"grid channels {arr.shape[-1]} != model channels {self.channels}")
        return (arr if stacked else arr[None]), stacked

    def _restore(self, out: np.ndarray, stacked: bool) -> np.ndarray:
        if self.channels == 1:
            out = out[..., 0]
        return out if stacked else out[0]

    def predict(self, x: np.ndarray, t: int, e: ConditionEmbedding) -> np.ndarray:
        self._check_call(x, t, e)
        xb, stacked = self._prepare(x)
        feats = Tensor(time_features(t, self.schedule.total_steps).reshape(1, 1, 1, -1))
        emb = Tensor(e.values.reshape(1, 1, 1, -1))
        out = self.forward(self._assemble(Tensor(xb), feats, emb))
        return self._restore(out.data, stacked)

    def _vjp(self, loss_grad, x, t, e, wrt: str) -> np.ndarray:
        xb, stacked = self._prepare(x)
        g, _ = self._prepare(np.asarray(loss_grad, dtype=np.float64))
        xt = Tensor(xb, requires_grad=(wrt == "input"))
        feats = Tensor(time_features(t, self.schedule.total_steps).reshape(1, 1, 1, -1))
        emb = Tensor(e.values.reshape(1, 1, 1, -1), requires_grad=(wrt == "embedding"))
        out = self.forward(self._assemble(xt, feats, emb))
        out.backward(seed=g)
        if wrt == "embedding":
            return emb.grad.reshape(self.embedding_dim)
        return self._restore(xt.grad, stacked)

    def grad_wrt_embedding(self, loss_grad, x, t, e):
        self._check_call(x, t, e)
        return self._vjp(loss_grad, x, t, e, wrt="embedding")

    def grad_wrt_input(self, loss_grad, x, t, e):
        self._check_call(x, t, e)
        return self._vjp(loss_grad, x, t, e, wrt="input")


# ---- training ----


@dataclass(frozen=True)
class DenoiserTrainConfig:
    epochs: int = 30
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
    initial_mse: float
    final_mse: float = float("nan")
    epoch_losses: list[float] = field(default_factory=list)
    null_substitutions: int = 0
    examples_seen: int = 0


def denoising_mse(
    model: Denoiser,
    dataset: Sequence[tuple[np.ndarray, ConditionEmbedding]],
    rng: SeededRng,
    n_draws: int = 1,
) -> float:
    """Mean squared noise-prediction error over a dataset at random timesteps."""
    s = model.schedule
    total, count = 0.0, 0
    for x0, emb in dataset:
        for _ in range(n_draws):
            t = int(rng.integers(1, s.total_steps + 1))
            z = rng.normal(np.asarray(x0).shape)
            xt = np.sqrt(s.alpha_bars[t]) * x0 + np.sqrt(1.0 - s.alpha_bars[t]) * z
            pred = model.predict(xt, t, emb)
            total += float(np.mean((pred - z) ** 2))
            count += 1
    return total / count


def fit(
    model: ConvStack,
    n: int,
    batch_loss: Callable[[np.ndarray], Tensor],
    epochs: int,
    batch_size: int,
    lr: float,
    rng: SeededRng,
) -> list[float]:
    """Shuffled mini-batch Adam over ``n`` examples; the mean batch loss of
    each epoch.

    Each epoch draws a permutation from ``rng`` and calls ``batch_loss`` with
    the indices of each mini-batch in turn; it returns the scalar loss Tensor
    of those examples, built through ``model``. The model's parameters
    require gradients only while this runs.
    """
    params = model.flat_parameters()
    state = AdamState(dim=params.size, lr=lr)
    losses = []
    for p in model.parameters():
        p.requires_grad = True
    try:
        for _ in range(epochs):
            order = rng.permutation(n)
            epoch_loss, batches = 0.0, 0
            for start in range(0, n, batch_size):
                loss = batch_loss(order[start:start + batch_size])
                loss.backward()
                grads = np.concatenate([p.grad.ravel() for p in model.parameters()])
                for p in model.parameters():
                    p.grad = None
                params = adam_step(state, params, grads)
                model.set_flat_parameters(params)
                epoch_loss += float(loss.data)
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
    config: DenoiserTrainConfig | None = None,
    model: ConvDenoiser | None = None,
) -> tuple[ConvDenoiser, TrainStats]:
    """Standard denoising objective with condition dropout.

    Each example is noised to a uniformly drawn timestep; with probability
    ``drop_p`` the condition embedding is replaced by the null embedding so
    the model also learns an unconditional prediction (enabling
    classifier-free guidance at inference).
    """
    if not dataset:
        raise ConfigError("dataset must be nonempty (field: dataset)")
    config = config or DenoiserTrainConfig()

    first_grid = np.asarray(dataset[0][0], dtype=np.float64)
    channels = 1 if first_grid.ndim == 2 else first_grid.shape[-1]
    if model is None:
        model = ConvDenoiser(
            schedule,
            channels=channels,
            embedding_dim=dataset[0][1].dim,
            rng=rng.derive(0xC0DE),
        )
    null = model.null_embedding()

    eval_rng = rng.derive(0xE7A1)
    stats = TrainStats(initial_mse=denoising_mse(model, dataset, eval_rng))

    s = schedule

    def batch_loss(idx: np.ndarray) -> Tensor:
        xs, feats, embs, zs = [], [], [], []
        for i in idx:
            x0, emb = dataset[i]
            x0 = np.asarray(x0, dtype=np.float64)
            if x0.ndim == 2:
                x0 = x0[:, :, None]
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
        diff = model.forward(model._assemble(xb, fb, eb)) - Tensor(np.stack(zs))
        return (diff * diff).mean()

    stats.epoch_losses = fit(model, len(dataset), batch_loss, config.epochs,
                             config.batch_size, config.lr, rng)
    stats.final_mse = denoising_mse(model, dataset, rng.derive(0xE7A2))
    return model, stats


# ---- checkpoints ----

CHECKPOINT_MAGIC = b"TTGM"
_KIND_CODES = {"analytic_gaussian": 1, "trainable_net": 2}
_CKPT_HEADER = struct.Struct("<4sIIIIIIQ")


def write_checkpoint(path, kind_code: int, fields: tuple, params: np.ndarray) -> None:
    """Header (magic, kind code, five u32 fields, parameter count) + f64
    parameters; the container shared by model and segmenter checkpoints."""
    with open(path, "wb") as f:
        f.write(_CKPT_HEADER.pack(CHECKPOINT_MAGIC, kind_code, *fields, params.size))
        f.write(params.astype("<f8").tobytes())


def read_checkpoint(path) -> tuple[int, tuple, np.ndarray]:
    """(kind code, five header fields, parameters) of a checkpoint file.

    Raises CorruptFileError when the file is shorter than its header, has the
    wrong magic, or holds a different number of parameters than it declares.
    """
    data = Path(path).read_bytes()
    if len(data) < _CKPT_HEADER.size:
        raise CorruptFileError(
            f"{path}: truncated checkpoint, {len(data)} bytes < {_CKPT_HEADER.size}-byte header"
        )
    magic, kind_code, *fields, count = _CKPT_HEADER.unpack_from(data)
    if magic != CHECKPOINT_MAGIC:
        raise CorruptFileError(f"{path}: bad checkpoint magic {magic!r}")
    body = len(data) - _CKPT_HEADER.size
    if body != 8 * count:
        raise CorruptFileError(f"{path}: expected {count} parameters, found {body} bytes of them")
    return kind_code, tuple(fields), np.frombuffer(data, dtype="<f8", offset=_CKPT_HEADER.size)


def save_checkpoint(path, model: Denoiser) -> None:
    """Fields (embedding_dim, H, W, C, hidden) + f64 params."""
    if model.kind == "analytic_gaussian":
        shape = model.shape if len(model.shape) == 3 else model.shape + (1,)
        h, w, c = shape
        params = np.concatenate([[model.data_std], model.mu.ravel(),
                                 model.projection.ravel()])
        aux = 0
    elif model.kind == "trainable_net":
        h = w = 0
        c = model.channels
        aux = model.hidden
        params = model.flat_parameters()
    else:
        raise CapabilityError(f"cannot checkpoint model kind {model.kind!r}")
    write_checkpoint(path, _KIND_CODES[model.kind], (model.embedding_dim, h, w, c, aux), params)


def load_checkpoint(path, schedule: NoiseSchedule) -> Denoiser:
    kind_code, (dim, h, w, c, aux), params = read_checkpoint(path)
    if kind_code == 1:
        shape = (h, w) if c == 1 else (h, w, c)
        n = h * w * c
        if params.size != 1 + n + n * dim:
            raise CorruptFileError(f"{path}: {params.size} parameters do not fit shape {shape}")
        data_std = float(params[0])
        mu = params[1:1 + n].reshape(shape)
        projection = params[1 + n:].reshape(n, dim)
        return AnalyticGaussianDenoiser(
            schedule, shape, dim, mu=mu, projection=projection, data_std=data_std
        )
    if kind_code == 2:
        model = ConvDenoiser(schedule, channels=c, embedding_dim=dim, hidden=aux)
        if params.size != model.flat_parameters().size:
            raise CorruptFileError(f"{path}: {params.size} parameters do not fit the network")
        model.set_flat_parameters(np.array(params))
        return model
    raise CorruptFileError(f"{path}: unknown model kind code {kind_code}")
