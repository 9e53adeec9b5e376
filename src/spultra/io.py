"""On-disk formats: binary image/sinogram container, 16-bit PGM exports,
the run's CSV tables and the per-run manifest."""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import struct
from pathlib import Path

import numpy as np
import scipy

from .errors import ConfigurationError

_SPIM_MAGIC = b"SPIM"
_SPIM_VERSION = 1


def write_spim(path, data: np.ndarray, spacing) -> None:
    """Binary layout: magic, u32 LE version, u32 LE ndims, dims u32 LE,
    per-axis spacing float64 LE, payload float64 LE row-major."""
    data = np.asarray(data, dtype=np.float64)
    spacing = tuple(float(s) for s in spacing)
    if len(spacing) != data.ndim:
        raise ConfigurationError("one spacing per axis required")
    with open(path, "wb") as fh:
        fh.write(_SPIM_MAGIC)
        fh.write(struct.pack("<II", _SPIM_VERSION, data.ndim))
        fh.write(struct.pack(f"<{data.ndim}I", *data.shape))
        fh.write(struct.pack(f"<{data.ndim}d", *spacing))
        fh.write(data.astype("<f8").tobytes())


def read_exact(fh, n: int, what: str) -> bytes:
    """The next ``n`` bytes of the file ``fh``; a header that asks for more
    bytes than the file has left means a truncated or malformed file, which
    is reported before anything is allocated."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if n > left:
        raise ConfigurationError(f"{fh.name}: {what} truncated: expected {n} bytes, "
                                 f"got {left}")
    return fh.read(n)


def read_spim(path) -> tuple[np.ndarray, tuple[float, ...]]:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _SPIM_MAGIC:
            raise ConfigurationError(f"not a SPIM file: bad magic {magic!r}")
        version, ndims = struct.unpack("<II", read_exact(fh, 8, "SPIM header"))
        if version != _SPIM_VERSION:
            raise ConfigurationError(f"unsupported SPIM version {version}")
        dims = struct.unpack(f"<{ndims}I", read_exact(fh, 4 * ndims, "SPIM header"))
        spacing = struct.unpack(f"<{ndims}d", read_exact(fh, 8 * ndims, "SPIM header"))
        payload = read_exact(fh, 8 * math.prod(dims), "SPIM payload")
    data = np.frombuffer(payload, dtype="<f8")
    return data.reshape(dims).astype(np.float64), spacing


def write_pgm(path, img_hu: np.ndarray, window=(800.0, 1200.0)) -> None:
    """16-bit binary PGM of an HU image clipped to the display window."""
    lo, hi = float(window[0]), float(window[1])
    if hi <= lo:
        raise ConfigurationError("window must satisfy hi > lo")
    scaled = np.clip((np.asarray(img_hu) - lo) / (hi - lo), 0.0, 1.0)
    pix = np.round(scaled * 65535.0).astype(">u2")
    rows, cols = pix.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{cols} {rows}\n65535\n".encode("ascii"))
        fh.write(pix.tobytes())


def write_csv(path, header, rows) -> None:
    """A CSV table: None is written as an empty field, a float (numpy floats
    included) as ``%.17g`` so it reads back exactly, anything else by ``str``."""
    def field(v):
        return "" if v is None else f"{v:.17g}" if isinstance(v, (float, np.floating)) else v

    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        wr.writerows([field(v) for v in row] for row in rows)


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def run_environment() -> dict:
    """What the artifact bytes depend on besides the config and seed: the
    BLAS/OpenMP thread variables (None when unset), which change the
    summation order, and the numpy and scipy versions."""
    env = {name: os.environ.get(name)
           for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["numpy"] = np.__version__
    env["scipy"] = scipy.__version__
    return env


def write_manifest(path, config_hash: str, seed: int, artifacts: dict) -> None:
    """Record the run identity, the environment of :func:`run_environment` and
    checksums of the run's deterministic artifacts."""
    payload = {"config_hash": config_hash, "seed": seed,
               "environment": run_environment(),
               "artifacts": dict(sorted(artifacts.items()))}
    # write beside it and rename, so an interrupted run cannot truncate it
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(payload, indent=2) + "\n")
    os.replace(tmp, path)


def read_manifest(path) -> dict:
    """The manifest at ``path``; anything but a JSON object whose
    ``environment`` and ``artifacts``, when present, are objects raises
    ConfigurationError."""
    try:
        payload = json.loads(Path(path).read_text())
    except ValueError as err:  # JSONDecodeError or UnicodeDecodeError
        raise ConfigurationError(f"manifest {path} is not valid JSON: {err}") from None
    if not isinstance(payload, dict):
        raise ConfigurationError(f"manifest {path} is not a JSON object")
    for key in ("environment", "artifacts"):
        if not isinstance(payload.get(key, {}), dict):
            raise ConfigurationError(f"manifest {path}: {key!r} is not a JSON object")
    return payload
