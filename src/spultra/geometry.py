"""2D scan geometry and the matched forward/back projection pair.

The system model is assembled once per geometry as a sparse matrix whose
entries are exact ray/pixel intersection lengths (Siddon-style tracing).
Forward and back projection share the same matrix, so the pair is an exact
adjoint by construction, which the iterative solvers rely on.

Assembly writes the CSR arrays directly: rays are traced in chunks, each
chunk's entries are sorted by pixel within their ray and repeated
(ray, pixel) pairs are summed, so the result equals ``coo_matrix.tocsr()``
of the traced triplets. Each chunk goes straight into the final arrays,
which grow in place, and a chunk's temporaries are about 1 MiB each, so the
assembly peaks near the size of the matrix itself (about 1.06 times it at
128x128, 1.3 times at 64x64).
"""

from __future__ import annotations

import functools
import logging
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ConfigurationError

log = logging.getLogger(__name__)

# Rays are traced in chunks of about this many (ray, grid edge) elements
# (1008 rays at 64x64, 508 at 128x128), so that each float64 (ray, edge)
# temporary of the tracer is about 1 MiB: it stays in cache while the tracer
# sweeps it several times, and the assembly's peak is the matrix plus a few
# such temporaries.
_CHUNK_ELEMENTS = 2 ** 17
_INT32_MAX = np.iinfo(np.int32).max


@dataclass(frozen=True)
class SystemGeometry:
    """Scan description for a single-slice parallel- or fan-beam acquisition.

    Distances are in mm, angles in radians. ``image_dims`` is (rows, cols);
    ``pixel_spacing`` is (dx, dy) with dx along columns and dy along rows.
    For fan beam, ``source_to_detector > source_to_iso > 0`` must hold.
    """

    beam_kind: str
    n_detectors: int
    n_views: int
    detector_spacing: float
    angular_range: float
    image_dims: tuple[int, int]
    pixel_spacing: tuple[float, float] = (1.0, 1.0)
    source_to_iso: float = 0.0
    source_to_detector: float = 0.0

    def __post_init__(self):
        if self.beam_kind not in ("parallel", "fan"):
            raise ConfigurationError(f"unknown beam_kind {self.beam_kind!r}")
        if self.n_detectors < 1 or self.n_views < 1:
            raise ConfigurationError("n_detectors and n_views must be positive")
        if self.detector_spacing <= 0:
            raise ConfigurationError("detector_spacing must be positive")
        if min(self.pixel_spacing) <= 0:
            raise ConfigurationError("pixel spacings must be positive")
        if self.angular_range <= 0:
            raise ConfigurationError("angular_range must be positive")
        if self.beam_kind == "fan" and not (self.source_to_detector > self.source_to_iso > 0):
            raise ConfigurationError("fan beam requires source_to_detector > source_to_iso > 0")

    @property
    def n_rays(self) -> int:
        return self.n_detectors * self.n_views

    @property
    def n_pixels(self) -> int:
        return self.image_dims[0] * self.image_dims[1]

    def view_angles(self) -> np.ndarray:
        return np.arange(self.n_views) * (self.angular_range / self.n_views)

    def detector_offsets(self) -> np.ndarray:
        return (np.arange(self.n_detectors) - (self.n_detectors - 1) / 2.0) * self.detector_spacing


@dataclass
class ImageGrid:
    """2D attenuation map (mm^-1) with its pixel spacing."""

    data: np.ndarray
    spacing: tuple[float, float] = (1.0, 1.0)

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 2:
            raise ConfigurationError("ImageGrid data must be 2D")
        if not np.isfinite(self.data).all():
            raise ConfigurationError("ImageGrid values must be finite")

    @property
    def dims(self) -> tuple[int, int]:
        return self.data.shape


@dataclass
class Sinogram:
    """Per-ray measurements, shape (n_views, n_detectors).

    Values may be raw counts or line integrals depending on the stage.
    """

    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 2:
            raise ConfigurationError("Sinogram data must be 2D (n_views, n_detectors)")

    def ravel(self) -> np.ndarray:
        return self.data.reshape(-1)


def _ray_endpoints(geom: SystemGeometry) -> tuple[np.ndarray, np.ndarray]:
    """Source/destination points for every ray, each (n_rays, 2), view-major order."""
    angles = geom.view_angles()
    offsets = geom.detector_offsets()
    rows, cols = geom.image_dims
    dx, dy = geom.pixel_spacing
    half_diag = 0.5 * np.hypot(cols * dx, rows * dy)

    cos_a = np.cos(angles)[:, None]
    sin_a = np.sin(angles)[:, None]
    u = offsets[None, :]

    if geom.beam_kind == "parallel":
        # detector axis e = (cos, sin), ray direction d = (-sin, cos)
        reach = 1.05 * half_diag + max(dx, dy)
        px = u * cos_a
        py = u * sin_a
        src = np.stack([px + reach * sin_a, py - reach * cos_a], axis=-1)
        dst = np.stack([px - reach * sin_a, py + reach * cos_a], axis=-1)
    else:
        dso = geom.source_to_iso
        dsd = geom.source_to_detector
        # source rotates on a circle of radius dso; central ray direction is
        # d = (-sin, cos); the flat detector sits at distance dsd along d with
        # its axis e = (cos, sin)
        sx = (dso * sin_a) + 0.0 * u
        sy = (-dso * cos_a) + 0.0 * u
        det_x = sx + dsd * (-sin_a) + u * cos_a
        det_y = sy + dsd * cos_a + u * sin_a
        src = np.stack([sx, sy], axis=-1)
        dst = np.stack([det_x, det_y], axis=-1)

    return src.reshape(-1, 2), dst.reshape(-1, 2)


def pixel_centres(dims, spacing) -> tuple[np.ndarray, np.ndarray]:
    """(x, y) in mm of every pixel centre, each of shape ``dims``, with the
    origin at the image centre, x growing along columns and y falling down
    the rows: the grid whose edges :func:`_trace_chunk` crosses."""
    rows, cols = dims
    dx, dy = spacing
    xc = (np.arange(cols) - (cols - 1) / 2.0) * dx
    yc = ((rows - 1) / 2.0 - np.arange(rows)) * dy
    return np.meshgrid(xc, yc)


def _trace_chunk(src, dst, geom: SystemGeometry):
    """Exact intersection lengths for one batch of rays.

    Returns (ray_local_idx, pixel_idx, length) arrays, ray by ray in tracing
    order. The grid crossing parameters along each ray are sorted, and every
    inter-crossing segment is attributed to the pixel containing its
    midpoint. The (ray, edge) temporaries are updated in place to keep few
    of them alive at once.
    """
    rows, cols = geom.image_dims
    dx, dy = geom.pixel_spacing
    x_left = -0.5 * cols * dx
    y_top = 0.5 * rows * dy
    x_edges = x_left + np.arange(cols + 1) * dx
    y_edges = y_top - np.arange(rows + 1) * dy  # descending

    d = dst - src
    length = np.hypot(d[:, 0], d[:, 1])

    alpha = np.empty((src.shape[0], cols + rows + 2))
    ax, ay = alpha[:, :cols + 1], alpha[:, cols + 1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        np.subtract(x_edges, src[:, 0:1], out=ax)
        ax /= d[:, 0:1]
        np.subtract(y_edges, src[:, 1:2], out=ay)
        ay /= d[:, 1:2]
    # rays parallel to an axis never cross that family of edges
    alpha[~np.isfinite(alpha)] = -1.0
    np.clip(alpha, 0.0, 1.0, out=alpha)
    alpha.sort(axis=1)

    seg = np.diff(alpha, axis=1)
    mid = 0.5 * seg
    mid += alpha[:, :-1]
    del alpha, ax, ay
    # floor((x_mid - x_left) / dx) and floor((y_top - y_mid) / dy)
    col = mid * d[:, 0:1]
    col += src[:, 0:1]
    col -= x_left
    col /= dx
    np.floor(col, out=col)
    row = np.multiply(mid, d[:, 1:2], out=mid)
    row += src[:, 1:2]
    np.subtract(y_top, row, out=row)
    row /= dy
    np.floor(row, out=row)
    ok = (seg > 0) & (col >= 0) & (col < cols) & (row >= 0) & (row < rows)

    ray_idx = np.repeat(np.arange(src.shape[0]), np.count_nonzero(ok, axis=1))
    pix = row[ok].astype(np.int64) * cols + col[ok].astype(np.int64)
    w = seg[ok] * length[ray_idx]
    return ray_idx, pix, w


def _csr_rows(ray, pix, w, n_rays: int, n_pixels: int):
    """One traced chunk in CSR order: per-ray entry counts, pixel indices and
    lengths. Each ray's entries are sorted by pixel and repeated (ray, pixel)
    pairs are summed, as ``coo_matrix.tocsr()`` does; a pair traced twice
    (the only repeat seen) sums to the same bits in either order."""
    # ray is nondecreasing, so this stable sort leaves it in place
    order = np.argsort(ray * n_pixels + pix, kind="stable")
    pix, w = pix[order], w[order]
    first = np.ones(pix.size, dtype=bool)
    first[1:] = (pix[1:] != pix[:-1]) | (ray[1:] != ray[:-1])
    if not first.all():
        starts = np.flatnonzero(first)
        ray, pix, w = ray[starts], pix[starts], np.add.reduceat(w, starts)
    counts = np.bincount(ray, minlength=n_rays)
    return counts, pix.astype(np.int32 if n_pixels <= _INT32_MAX else np.int64), w


def _build_matrix(geom: SystemGeometry) -> sp.csr_matrix:
    t0 = time.perf_counter()
    src, dst = _ray_endpoints(geom)
    n_rays, n_pixels = geom.n_rays, geom.n_pixels
    chunk = max(1, _CHUNK_ELEMENTS // (sum(geom.image_dims) + 2))
    indptr = np.zeros(n_rays + 1, dtype=np.int64)
    # each chunk is written straight into the final arrays, grown in place by
    # realloc (mremap for large blocks), so no chunk list is ever concatenated
    indices = np.empty(0, dtype=np.int32 if max(n_rays, n_pixels) <= _INT32_MAX else np.int64)
    data = np.empty(0)
    nnz = 0
    for start in range(0, n_rays, chunk):
        stop = min(start + chunk, n_rays)
        counts, pix, w = _csr_rows(*_trace_chunk(src[start:stop], dst[start:stop], geom),
                                   stop - start, n_pixels)
        indptr[start + 1:stop + 1] = counts
        end = nnz + pix.size
        if end > _INT32_MAX and indices.dtype != np.int64:
            indices = indices.astype(np.int64)
        indices.resize(end, refcheck=False)
        data.resize(end, refcheck=False)
        indices[nnz:end] = pix
        data[nnz:end] = w
        nnz = end
        del counts, pix, w  # freed before the next chunk is traced
    np.cumsum(indptr, out=indptr)
    mat = sp.csr_matrix((data, indices, indptr.astype(indices.dtype)), shape=(n_rays, n_pixels))
    mib = (data.nbytes + indices.nbytes + mat.indptr.nbytes) / 2**20
    log.info("system matrix: %d nonzeros, %.1f MiB, built in %.2f s",
             nnz, mib, time.perf_counter() - t0)
    return mat


@functools.lru_cache(maxsize=8)
def system_matrix(geom: SystemGeometry) -> sp.csr_matrix:
    """The (n_rays, n_pixels) intersection-length matrix, cached per geometry."""
    return _build_matrix(geom)


@functools.lru_cache(maxsize=8)
def matrix_sums(geom: SystemGeometry) -> tuple[np.ndarray, np.ndarray]:
    """Row sums ``A 1`` (per ray) and column sums ``A^T 1`` (per pixel) of
    :func:`system_matrix`, cached per geometry and read-only."""
    a = system_matrix(geom)
    sums = a @ np.ones(geom.n_pixels), a.T @ np.ones(geom.n_rays)
    for v in sums:
        v.flags.writeable = False
    return sums


def _check_image(img: ImageGrid, geom: SystemGeometry):
    if img.dims != geom.image_dims:
        raise ConfigurationError(
            f"image dims {img.dims} do not match geometry {geom.image_dims}"
        )


def forward_project(img: ImageGrid, geom: SystemGeometry) -> Sinogram:
    """Line integrals of ``img`` along every ray (mm^-1 * mm, dimensionless)."""
    _check_image(img, geom)
    y = system_matrix(geom) @ img.data.reshape(-1)
    return Sinogram(y.reshape(geom.n_views, geom.n_detectors))


def back_project(sino: Sinogram, geom: SystemGeometry) -> ImageGrid:
    """Adjoint of :func:`forward_project`, using identical intersection weights."""
    if sino.data.shape != (geom.n_views, geom.n_detectors):
        raise ConfigurationError(
            f"sinogram shape {sino.data.shape} does not match geometry "
            f"({geom.n_views}, {geom.n_detectors})"
        )
    x = system_matrix(geom).T @ sino.ravel()
    return ImageGrid(x.reshape(geom.image_dims), geom.pixel_spacing)


def _check_weights(w, geom: SystemGeometry) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64).reshape(-1)
    if w.shape[0] != geom.n_rays:
        raise ConfigurationError("weight length does not match ray count")
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    return w


def weighted_gram_diag(geom: SystemGeometry, w: np.ndarray) -> ImageGrid:
    """Diagonal of the weighted normal matrix, per pixel: sum_i a_ij w_i (A 1)_i."""
    w = _check_weights(w, geom)
    diag = system_matrix(geom).T @ (w * matrix_sums(geom)[0])
    return ImageGrid(diag.reshape(geom.image_dims), geom.pixel_spacing)


def compute_kappa(geom: SystemGeometry, w: np.ndarray) -> ImageGrid:
    """Resolution-uniformity weights: per pixel the square root of the ratio of
    weighted to unweighted column sums of the system matrix.

    Pixels crossed by no ray get 0.
    """
    num = system_matrix(geom).T @ _check_weights(w, geom)
    den = matrix_sums(geom)[1]
    kappa = np.zeros(geom.n_pixels)
    covered = den > 0
    kappa[covered] = np.sqrt(num[covered] / den[covered])
    return ImageGrid(kappa.reshape(geom.image_dims), geom.pixel_spacing)
