"""Grid serialization: raw float64 dumps for round-tripping, PGM for eyeballing.

Raw format: 16-byte header (magic ``TTGA``, u32 height, u32 width,
u32 channels, little-endian) followed by H*W float64 values, row-major.
Every grid is (H, W), so the channel field is always 1.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import CorruptFileError

MAGIC = b"TTGA"
_HEADER = struct.Struct("<4sIII")


def save_grid(path, grid: np.ndarray) -> None:
    g = np.asarray(grid, dtype="<f8")
    h, w = g.shape
    with open(path, "wb") as f:
        f.write(_HEADER.pack(MAGIC, h, w, 1))
        f.write(g.tobytes())


def load_grid(path) -> np.ndarray:
    """The (H, W) grid in a raw file; CorruptFileError if it is truncated,
    has the wrong magic or a channel count other than 1, holds a value count
    other than its header's or holds a value that is not finite."""
    data = Path(path).read_bytes()
    if len(data) < _HEADER.size:
        raise CorruptFileError(f"{path}: truncated grid file")
    magic, h, w, c = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise CorruptFileError(f"{path}: bad magic {magic!r}")
    if c != 1:
        raise CorruptFileError(f"{path}: {c} channels, not 1")
    body = len(data) - _HEADER.size
    if body != 8 * h * w:
        raise CorruptFileError(f"{path}: expected {h * w} values, found {body} bytes of them")
    values = np.frombuffer(data, dtype="<f8", offset=_HEADER.size)
    if not np.all(np.isfinite(values)):
        raise CorruptFileError(f"{path}: holds non-finite values")
    return values.reshape(h, w).astype(np.float64)


def save_pgm(path, grid: np.ndarray) -> None:
    """8-bit binary PGM (P5), min-max scaled; constant grids map to 0."""
    lo, hi = float(grid.min()), float(grid.max())
    scaled = (grid - lo) / (hi - lo) if hi > lo else np.zeros_like(grid)
    pixels = np.round(scaled * 255.0).astype(np.uint8)
    h, w = pixels.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(pixels.tobytes())
