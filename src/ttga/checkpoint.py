"""The checkpoint container shared by denoiser and segmenter files.

A file is a little-endian header -- the magic, a u32 kind code, five u32
fields whose meaning the kind defines, and a u64 parameter count -- followed
by that many f64 parameters.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import CorruptFileError

MAGIC = b"TTGM"
KIND_CODES = {"analytic_gaussian": 1, "trainable_net": 2, "threshold": 3, "trained_net": 4}
_HEADER = struct.Struct("<4sIIIIIIQ")


def write(path, kind: str, fields: tuple, params: np.ndarray) -> None:
    with open(path, "wb") as f:
        f.write(_HEADER.pack(MAGIC, KIND_CODES[kind], *fields, params.size))
        f.write(params.astype("<f8").tobytes())


def read(path, kinds: tuple[str, ...]) -> tuple[str, tuple, np.ndarray]:
    """(kind, five header fields, parameters) of a checkpoint file.

    Raises CorruptFileError when the file is shorter than its header, has the
    wrong magic, holds a kind not in ``kinds``, or holds a different number of
    parameters than it declares.
    """
    data = Path(path).read_bytes()
    if len(data) < _HEADER.size:
        raise CorruptFileError(
            f"{path}: truncated checkpoint, {len(data)} bytes < {_HEADER.size}-byte header"
        )
    magic, code, *fields, count = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise CorruptFileError(f"{path}: bad checkpoint magic {magic!r}")
    kind = next((k for k in kinds if KIND_CODES[k] == code), None)
    if kind is None:
        raise CorruptFileError(f"{path}: kind code {code} is not one of {', '.join(kinds)}")
    body = len(data) - _HEADER.size
    if body != 8 * count:
        raise CorruptFileError(f"{path}: expected {count} parameters, found {body} bytes of them")
    return kind, tuple(fields), np.frombuffer(data, dtype="<f8", offset=_HEADER.size)
