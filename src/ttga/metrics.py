"""Segmentation and error-estimation metrics.

All scores are reported on a 0-100 scale except hd95 (pixels). Boundary
pixels are mask pixels with at least one 4-neighbor outside the mask, with
everything beyond the image border counting as background.

Empty-mask conventions (sentinels chosen for aggregate stability):
dice(both empty) = 100; hd95(both empty) = 0, hd95(one empty) = image
diagonal; nsd(both empty) = 100, nsd(one empty) = 0; roc_auc with a
single-class ground truth returns NaN and the record is flagged upstream.
"""

from __future__ import annotations

import numpy as np


def binarize(prob: np.ndarray) -> np.ndarray:
    return (np.asarray(prob) >= 0.5).astype(np.uint8)


def dice(pred_binary: np.ndarray, gt_binary: np.ndarray) -> float:
    """200 * |A & B| / (|A| + |B|)."""
    a = np.asarray(pred_binary, dtype=bool)
    b = np.asarray(gt_binary, dtype=bool)
    total = int(a.sum()) + int(b.sum())
    if total == 0:
        return 100.0
    return 200.0 * int((a & b).sum()) / total


def midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of a 1-D array, each group of equal values sharing the
    mean of its ranks. A group starting at sorted position ``start`` with
    ``count`` members gets ``start + 1 + (count - 1) / 2``, an exact
    half-integer, so these equal ``scipy.stats.rankdata``'s average ranks
    bit for bit. Values must not be NaN."""
    order = np.argsort(values)
    ordered = values[order]
    new_group = np.empty(ordered.size, dtype=bool)
    new_group[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new_group[1:])
    starts = np.flatnonzero(new_group)
    counts = np.diff(starts, append=ordered.size)
    ranks = np.empty(ordered.size)
    ranks[order] = np.repeat(starts + 1 + (counts - 1) / 2.0, counts)
    return ranks


def roc_auc(score_grid: np.ndarray, gt_binary: np.ndarray) -> float:
    """Mann-Whitney AUC with midrank tie handling, scaled to 0-100; NaN if
    any score is NaN."""
    scores = np.asarray(score_grid, dtype=np.float64).ravel()
    labels = np.asarray(gt_binary, dtype=bool).ravel()
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0 or np.isnan(scores).any():
        return float("nan")
    ranks = midranks(scores)
    u = ranks[labels].sum() - n_pos * (n_pos + 1) / 2.0
    return 100.0 * u / (n_pos * n_neg)


def boundary_coords(mask: np.ndarray) -> np.ndarray:
    """(n, 2) integer coordinates of boundary pixels of a binary mask."""
    m = np.asarray(mask, dtype=bool)
    padded = np.pad(m, 1)
    interior = (
        padded[:-2, 1:-1] & padded[2:, 1:-1] & padded[1:-1, :-2] & padded[1:-1, 2:]
    )
    return np.argwhere(m & ~interior)


def image_diagonal(shape) -> float:
    return float(np.hypot(shape[0], shape[1]))


def _directed_distances(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Euclidean distance from each src pixel to the nearest dst pixel."""
    diff = src[:, None, :].astype(np.float64) - dst[None, :, :].astype(np.float64)
    return np.sqrt((diff ** 2).sum(axis=2)).min(axis=1)


def _boundary_distances(pred_binary: np.ndarray, gt_binary: np.ndarray):
    """Both masks as booleans and the boundary distances (a -> b, b -> a),
    None in place of the distances when either mask is empty."""
    a = np.asarray(pred_binary, dtype=bool)
    b = np.asarray(gt_binary, dtype=bool)
    if not a.any() or not b.any():
        return a, b, None
    ba, bb = boundary_coords(a), boundary_coords(b)
    return a, b, (_directed_distances(ba, bb), _directed_distances(bb, ba))


def hd95(pred_binary: np.ndarray, gt_binary: np.ndarray) -> float:
    """95th percentile of the pooled symmetric boundary-distance multiset."""
    a, b, dists = _boundary_distances(pred_binary, gt_binary)
    if dists is None:
        return image_diagonal(a.shape) if a.any() or b.any() else 0.0
    return float(np.percentile(np.concatenate(dists), 95))


def nsd_tolerance(shape) -> float:
    """Default tolerance: 1% of the image diagonal, at least one pixel."""
    return max(1.0, round(0.01 * image_diagonal(shape)))


def nsd(pred_binary: np.ndarray, gt_binary: np.ndarray, tolerance_px: float | None = None) -> float:
    """Symmetric average of the boundary fractions lying within tolerance of
    the other mask's boundary, scaled to 0-100."""
    a, b, dists = _boundary_distances(pred_binary, gt_binary)
    if tolerance_px is None:
        tolerance_px = nsd_tolerance(a.shape)
    if tolerance_px < 0:
        raise ValueError(f"tolerance_px must be >= 0, got {tolerance_px}")
    if dists is None:
        return 0.0 if a.any() or b.any() else 100.0
    frac_a, frac_b = (float((d <= tolerance_px).sum()) / d.size for d in dists)
    return 100.0 * (frac_a + frac_b) / 2.0


def error_ground_truth(pred_prob: np.ndarray, gt_binary: np.ndarray) -> np.ndarray:
    """Binary map of where the 0.5-thresholded prediction disagrees with the
    ground truth; the target that error-estimation maps are scored against."""
    pred = binarize(pred_prob)
    gt = np.asarray(gt_binary, dtype=np.uint8)
    return (pred ^ gt).astype(np.uint8)
