"""Grid serialization: raw float64 dumps for round-tripping, PGM for eyeballing.

Raw format: 16-byte header (magic ``TTGA``, u32 height, u32 width,
u32 channels, little-endian) followed by H*W*C float64 values, row-major.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import CorruptFileError

MAGIC = b"TTGA"
_HEADER = struct.Struct("<4sIII")


def _as_hwc(grid: np.ndarray) -> np.ndarray:
    if grid.ndim == 2:
        return grid[:, :, None]
    if grid.ndim == 3:
        return grid
    raise ValueError(f"expected a 2-D or 3-D grid, got shape {grid.shape}")


def save_grid(path, grid: np.ndarray) -> None:
    g = np.ascontiguousarray(_as_hwc(grid), dtype=np.float64)
    h, w, c = g.shape
    with open(path, "wb") as f:
        f.write(_HEADER.pack(MAGIC, h, w, c))
        f.write(g.astype("<f8").tobytes())


def load_grid(path) -> np.ndarray:
    """The grid in a raw file; CorruptFileError if it is truncated, has the
    wrong magic, holds a value count other than its header's or holds a
    value that is not finite."""
    data = Path(path).read_bytes()
    if len(data) < _HEADER.size:
        raise CorruptFileError(f"{path}: truncated grid file")
    magic, h, w, c = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise CorruptFileError(f"{path}: bad magic {magic!r}")
    body = len(data) - _HEADER.size
    if body != 8 * h * w * c:
        raise CorruptFileError(f"{path}: expected {h * w * c} values, found {body} bytes of them")
    values = np.frombuffer(data, dtype="<f8", offset=_HEADER.size)
    if not np.all(np.isfinite(values)):
        raise CorruptFileError(f"{path}: holds non-finite values")
    grid = values.reshape(h, w, c).astype(np.float64)
    return grid[:, :, 0] if c == 1 else grid


def save_pgm(path, grid: np.ndarray) -> None:
    """8-bit binary PGM (P5), min-max scaled; constant grids map to 0."""
    g = _as_hwc(grid).mean(axis=2)
    lo, hi = float(g.min()), float(g.max())
    if hi > lo:
        scaled = (g - lo) / (hi - lo)
    else:
        scaled = np.zeros_like(g)
    pixels = np.round(scaled * 255.0).astype(np.uint8)
    h, w = pixels.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(pixels.tobytes())

