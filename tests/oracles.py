"""Brute-force reference implementations used to check the production
metrics. Everything here is deliberately written as plain loops over pixels
so it shares no code path with the vectorized implementations."""

import math

import numpy as np


def dice_oracle(a, b):
    a = np.asarray(a, dtype=bool)
    b = np.asarray(b, dtype=bool)
    inter = 0
    ca = cb = 0
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            if a[i, j]:
                ca += 1
            if b[i, j]:
                cb += 1
            if a[i, j] and b[i, j]:
                inter += 1
    if ca + cb == 0:
        return 100.0
    return 200.0 * inter / (ca + cb)


def auc_oracle(scores, labels):
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels, dtype=bool).ravel()
    pos = [s for s, l in zip(scores, labels) if l]
    neg = [s for s, l in zip(scores, labels) if not l]
    if not pos or not neg:
        return float("nan")
    u = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                u += 1.0
            elif p == q:
                u += 0.5
    return 100.0 * u / (len(pos) * len(neg))


def boundary_oracle(mask):
    mask = np.asarray(mask, dtype=bool)
    h, w = mask.shape
    coords = []
    for i in range(h):
        for j in range(w):
            if not mask[i, j]:
                continue
            on_border = i == 0 or j == 0 or i == h - 1 or j == w - 1
            if on_border:
                coords.append((i, j))
                continue
            if not (mask[i - 1, j] and mask[i + 1, j] and mask[i, j - 1] and mask[i, j + 1]):
                coords.append((i, j))
    return coords


def _min_distances(src, dst):
    out = []
    for (i, j) in src:
        best = math.inf
        for (k, l) in dst:
            d = math.sqrt((i - k) ** 2 + (j - l) ** 2)
            if d < best:
                best = d
        out.append(best)
    return out


def hd95_oracle(a, b):
    a = np.asarray(a, dtype=bool)
    b = np.asarray(b, dtype=bool)
    if not a.any() and not b.any():
        return 0.0
    if not a.any() or not b.any():
        return float(math.hypot(a.shape[0], a.shape[1]))
    ba = boundary_oracle(a)
    bb = boundary_oracle(b)
    dists = _min_distances(ba, bb) + _min_distances(bb, ba)
    return float(np.percentile(dists, 95))


def nsd_oracle(a, b, tolerance):
    a = np.asarray(a, dtype=bool)
    b = np.asarray(b, dtype=bool)
    if not a.any() and not b.any():
        return 100.0
    if not a.any() or not b.any():
        return 0.0
    ba = boundary_oracle(a)
    bb = boundary_oracle(b)
    da = _min_distances(ba, bb)
    db = _min_distances(bb, ba)
    frac_a = float(sum(1 for d in da if d <= tolerance)) / len(ba)
    frac_b = float(sum(1 for d in db if d <= tolerance)) / len(bb)
    return 100.0 * (frac_a + frac_b) / 2.0


def stepwise_nulltext_inversion(model, traj, c, omega, opt_config):
    """Vanilla per-rung null-text tuning: walking the ladder downward, tune a
    separate null embedding at every rung so each guided step reproduces the
    next inversion template. Test-only reference for the one-step shortcut.
    """
    from ttga.denoiser import ConditionEmbedding
    from ttga.guidance import cfg_single
    from ttga.nulltext import AdamState, adam_step
    from ttga.schedule import from_xbar, to_xbar

    schedule = model.schedule
    steps_desc = list(traj.steps)[::-1]
    x = traj.x_tau.copy()
    embeddings = []
    total_iterations = 0
    for t, t_next in zip(steps_desc[:-1], steps_desc[1:]):
        target = traj.latents[traj.steps.index(t_next)]
        eps_c = model.predict(x, t, c)
        xbar = to_xbar(x, t, schedule)
        dg = schedule.gammas[t_next] - schedule.gammas[t]

        def evaluate(values):
            e = ConditionEmbedding(values, role="optimized_null")
            eps = cfg_single(model.predict(x, t, e), eps_c, omega)
            out = from_xbar(xbar + dg * eps, t_next, schedule)
            return e, out, float(np.mean((target - out) ** 2))

        values = np.zeros(model.embedding_dim)
        e, out, loss = evaluate(values)
        state = AdamState(dim=values.size, lr=opt_config.lr)
        iters = 0
        n = target.size
        scale = np.sqrt(schedule.alpha_bars[t_next])
        while loss > opt_config.early_stop and iters < opt_config.max_steps:
            upstream = (2.0 / n) * (out - target) * scale * dg * (1.0 - omega)
            grad = model.grad_wrt_embedding(upstream, x, t, e)
            values = adam_step(state, values, grad)
            iters += 1
            e, out, loss = evaluate(values)
        total_iterations += iters
        embeddings.append(e)
        x = out
    return x, embeddings, total_iterations
