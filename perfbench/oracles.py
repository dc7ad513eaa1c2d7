"""Checks of the program's outputs that do not call the program's own metric,
entropy or optimisation code.

* DSC by counting sets of pixel coordinates, ROC-AUC by comparing every
  (positive, negative) pair with ties worth one half, and the error score as
  the normalised Shannon entropy of the class probabilities.
* The one-step null-text reconstruction of the analytic denoiser is affine in
  the null embedding, so its least-squares minimum follows from
  ``numpy.linalg.lstsq`` on the denoiser's projection.
* Cell checks on ``per_image.csv`` and ``augment_metadata.csv``: documented
  ranges, degenerate flags and row counts.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

CSV_TOLERANCE = 5e-7 + 1e-9     # half a unit in the CSV's sixth decimal
SCORE_RANGE = (0.0, 100.0)


def dice_by_sets(pred: np.ndarray, gt: np.ndarray) -> float:
    a = set(zip(*np.nonzero(pred)))
    b = set(zip(*np.nonzero(gt)))
    if not a and not b:
        return 100.0
    return 200.0 * len(a & b) / (len(a) + len(b))


def auc_pairwise(scores: np.ndarray, labels: np.ndarray) -> float:
    """Share of (positive, negative) pairs ranked correctly, ties 1/2, on 0-100;
    NaN when one class is absent."""
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels, dtype=bool).ravel()
    pos, neg = scores[labels], scores[~labels]
    if pos.size == 0 or neg.size == 0:
        return math.nan
    wins = np.count_nonzero(pos[:, None] > neg[None, :])
    ties = np.count_nonzero(pos[:, None] == neg[None, :])
    return 100.0 * (wins + 0.5 * ties) / (pos.size * neg.size)


def normalised_entropy(prob: np.ndarray) -> np.ndarray:
    """Entropy over the last axis divided by log K, in [0, 1]; 0 log 0 = 0."""
    p = np.asarray(prob, dtype=np.float64)
    logs = np.log(np.where(p > 0.0, p, 1.0))
    return -(p * logs).sum(axis=-1) / math.log(p.shape[-1])


def baseline_scores(prob: np.ndarray, gt: np.ndarray) -> dict:
    """DSC and AUC of the segmentation, and of the entropy error map against
    the pixels the 0.5-thresholded prediction gets wrong."""
    fg = prob[:, :, 1]
    pred = fg >= 0.5
    err_gt = pred != gt.astype(bool)
    err_score = normalised_entropy(prob)
    return {
        "dsc": dice_by_sets(pred, gt),
        "auc": auc_pairwise(fg, gt),
        "err_dsc": dice_by_sets(err_score >= 0.5, err_gt),
        "err_auc": auc_pairwise(err_score, err_gt),
    }


def compare_to_csv(expected: dict, row: dict, where: str) -> list[str]:
    """Each expected value must match its CSV cell at six decimals; NaN must be
    an empty cell."""
    problems = []
    for key, value in expected.items():
        cell = row[key]
        if math.isnan(value):
            if cell != "":
                problems.append(f"{where} {key}: expected an empty cell, got {cell!r}")
        elif cell == "" or abs(float(cell) - value) > CSV_TOLERANCE:
            problems.append(f"{where} {key}: csv {cell!r} != independent {value:.9f}")
    return problems


def read_csv(data: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(data.decode("utf-8"))))


def check_metric_cells(rows: list[dict], diagonal: float) -> list[str]:
    """Scores lie in [0, 100] and hd95 in [0, diagonal]; an empty AUC cell must
    carry its degenerate flag and a flag must mark an empty cell."""
    problems = []
    ranges = {key: SCORE_RANGE for key in ("dsc", "auc", "nsd", "err_dsc", "err_auc", "err_nsd")}
    ranges["hd95"] = (0.0, diagonal)
    for row in rows:
        where = f"image {row['image_id']} {row['method']}"
        flags = set(filter(None, row["flags"].split(";")))
        for key, (low, high) in ranges.items():
            cell = row[key]
            flag = f"{key}_degenerate"
            if cell == "":
                if flag not in flags:
                    problems.append(f"{where} {key}: empty cell without flag {flag}")
                continue
            if flag in flags:
                problems.append(f"{where} {key}: flag {flag} on a filled cell")
            if not low - CSV_TOLERANCE <= float(cell) <= high + CSV_TOLERANCE:
                problems.append(f"{where} {key}: {cell} outside [{low}, {high}]")
    return problems


def check_augment_rows(rows: list[dict], image_ids: list[int], n_augment: int,
                       lambda_low: float, lambda_high: float) -> list[str]:
    """Exactly n_augment rows per image, indexed 0..n-1, with lambda_r in range
    and a non-negative reconstruction loss."""
    problems = []
    for image_id in image_ids:
        mine = [r for r in rows if int(r["image_id"]) == image_id]
        if [int(r["aug_index"]) for r in mine] != list(range(n_augment)):
            problems.append(f"image {image_id}: augment rows {len(mine)}, expected {n_augment}")
        for r in mine:
            if not lambda_low <= float(r["lambda_r"]) <= lambda_high:
                problems.append(f"image {image_id}: lambda_r {r['lambda_r']} outside "
                                f"[{lambda_low}, {lambda_high}]")
            if float(r["reconstruction_loss"]) < 0.0:
                problems.append(f"image {image_id}: negative reconstruction loss")
    return problems


def nulltext_loss_bounds(model, image: np.ndarray, semantic: np.ndarray, tau: int,
                         interval: int, omega: float) -> tuple[float, float]:
    """(least-squares minimum, loss of the zero null) of the one-step
    reconstruction MSE over the null embedding, for the analytic Gaussian
    denoiser eps(x, t, e) = s_t (x - sqrt(abar_t) mu) + P e.

    The DDIM inversion to tau is recomputed here from the schedule's
    alpha-bar table and the denoiser's parameters (mu, P, data_std).
    """
    abar = np.asarray(model.schedule.alpha_bars, dtype=np.float64)
    gamma = np.zeros_like(abar)
    gamma[1:] = np.sqrt((1.0 - abar[1:]) / abar[1:])
    mu = np.asarray(model.mu, dtype=np.float64)
    proj = np.asarray(model.projection, dtype=np.float64)
    var = model.data_std ** 2

    def eps_base(x, t):
        scale = math.sqrt(1.0 - abar[t]) / (abar[t] * var + 1.0 - abar[t])
        return scale * (x - math.sqrt(abar[t]) * mu)

    p_sem = (proj @ semantic).reshape(mu.shape)
    x0 = np.asarray(image, dtype=np.float64)
    steps = list(range(0, tau, interval)) + [tau]
    x, xbar = x0, x0.copy()
    for u, t in zip(steps[:-1], steps[1:]):
        xbar = xbar + (gamma[t] - gamma[u]) * (eps_base(x, u) + p_sem)
        x = xbar * math.sqrt(abar[t])

    # recon(e) = xbar_tau - gamma_tau ((1 - omega) eps(x_tau, e) + omega eps(x_tau, c))
    base = eps_base(x, tau)
    offset = xbar - gamma[tau] * ((1.0 - omega) * base + omega * (base + p_sem))
    gain = -gamma[tau] * (1.0 - omega)
    target = (x0 - offset).ravel()
    e_star = np.linalg.lstsq(gain * proj, target, rcond=None)[0]
    minimum = float(np.mean((target - gain * (proj @ e_star)) ** 2))
    return minimum, float(np.mean(target ** 2))
