import struct

import numpy as np
import pytest

from ttga import SeededRng
from ttga import gridio
from ttga.errors import CorruptFileError


def test_raw_round_trip_2d(tmp_path, rng):
    grid = rng.normal((7, 5))
    path = tmp_path / "g.f64"
    gridio.save_grid(path, grid)
    assert np.array_equal(gridio.load_grid(path), grid)


@pytest.mark.parametrize("channels", [0, 2, 3])
def test_channel_count_other_than_one_rejected(tmp_path, channels):
    path = tmp_path / "g.f64"
    values = np.zeros(4 * 6 * channels)
    path.write_bytes(struct.pack("<4sIII", b"TTGA", 4, 6, channels) + values.tobytes())
    with pytest.raises(CorruptFileError, match=f"{channels} channels"):
        gridio.load_grid(path)


def test_header_layout(tmp_path):
    path = tmp_path / "g.f64"
    gridio.save_grid(path, np.zeros((2, 3)))
    raw = path.read_bytes()
    assert raw[:4] == b"TTGA"
    assert len(raw) == 16 + 2 * 3 * 8
    assert int.from_bytes(raw[4:8], "little") == 2
    assert int.from_bytes(raw[8:12], "little") == 3
    assert int.from_bytes(raw[12:16], "little") == 1


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.f64"
    path.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(CorruptFileError, match="magic"):
        gridio.load_grid(path)


def test_truncated_rejected(tmp_path):
    path = tmp_path / "g.f64"
    gridio.save_grid(path, np.zeros((2, 2)))
    whole = path.read_bytes()
    for cut in (8, 3):  # one whole value short, then part of one
        path.write_bytes(whole[:-cut])
        with pytest.raises(CorruptFileError, match="expected"):
            gridio.load_grid(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_value_rejected(tmp_path, value):
    path = tmp_path / "g.f64"
    gridio.save_grid(path, np.array([[0.0, value], [1.0, 2.0]]))
    with pytest.raises(CorruptFileError, match="non-finite"):
        gridio.load_grid(path)


def _read_pgm(path) -> np.ndarray:
    """A binary PGM as float64 in [0, 1]."""
    magic, size, maxval, data = path.read_bytes().split(b"\n", 3)
    assert magic == b"P5"
    w, h = (int(v) for v in size.split())
    pixels = np.frombuffer(data, dtype=np.uint8, count=h * w)
    return pixels.reshape(h, w).astype(np.float64) / int(maxval)


def test_pgm_format_and_scaling(tmp_path):
    grid = np.array([[0.0, 0.5], [1.0, 0.25]])
    path = tmp_path / "g.pgm"
    gridio.save_pgm(path, grid)
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n2 2\n255\n")
    pixels = np.frombuffer(raw[-4:], dtype=np.uint8).reshape(2, 2)
    assert pixels[0, 0] == 0 and pixels[1, 0] == 255
    back = _read_pgm(path)
    assert back.shape == (2, 2)
    assert back[1, 0] == 1.0


def test_pgm_constant_grid(tmp_path):
    path = tmp_path / "c.pgm"
    gridio.save_pgm(path, np.full((3, 3), 7.0))
    assert np.all(_read_pgm(path) == 0.0)
