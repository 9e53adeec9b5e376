"""2D scan geometry and the matched forward/back projection pair.

The system model is assembled once per geometry as a sparse operator whose
entries are exact ray/pixel intersection lengths (Siddon-style tracing).
Forward and back projection share the same stored entries, so the pair is
an exact adjoint by construction, which the iterative solvers rely on.

The operator (:class:`SystemMatrix`) stores one view per orbit of the
square image's symmetries where the scan has them (:func:`_view_table`):
the other views read a traced view's rows through a pixel permutation,
with their detectors in reverse. That halves the stored bytes and changes a
mapped row from its own trace by rounding only. Any other geometry traces
and stores every view, as a plain CSR matrix would.

Assembly writes the CSR arrays directly: rays are traced in chunks, each
chunk's entries are sorted by pixel within their ray and repeated
(ray, pixel) pairs are summed, so the result equals ``coo_matrix.tocsr()``
of the traced triplets. Each chunk goes straight into the final arrays,
which grow in place, and a chunk's temporaries are about 1 MiB each; the
other kinds' index rows are then filled in chunks of the same size. So the
assembly peaks near the stored size itself (about 1.03 times it at
128x128, 1.16 times at 64x64).
"""

from __future__ import annotations

import functools
import logging
import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
# the kernels behind csr_matrix @ x and csr_matrix.T @ y
from scipy.sparse._sparsetools import csc_matvec, csr_matvec

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


def _pixel_permutations(n: int, dtype) -> np.ndarray:
    """Where each symmetry kind but the identity carries the pixels of an
    n x n image, one row per kind: ``perm[k - 1, r * n + c]`` is the index of
    the pixel (r, c) lands on. Kind 1 is the transpose (r, c) -> (c, r),
    kind 2 the clockwise rotation by 90 degrees (r, c) -> (c, n - 1 - r) and
    kind 3 their composition (r, c) -> (n - 1 - r, c), which reflects the
    image top to bottom."""
    idx = np.arange(n * n, dtype=dtype).reshape(n, n)
    return np.stack([idx.T.ravel(), idx[:, ::-1].T.ravel(), idx[::-1].ravel()])


def _view_table(geom: SystemGeometry) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(traced, block, kind)``: the views whose rays are traced, and for
    every view the index into ``traced`` of the view it is mapped from and
    the symmetry kind (:func:`_pixel_permutations`) that maps it.

    A parallel-beam scan of a square image with square pixels over pi with
    an even view count ``2 q`` is symmetric under the square's symmetries:
    the view at angle t in (0, pi/4) maps to pi/2 - t by the transpose, to
    t + pi/2 by the rotation and to pi - t by their composition, each with
    its detector offsets negated (its detectors in reverse). So only the
    views with angles in [0, pi/4] are traced, and view q at pi/2 too: its
    rays lie along pixel edges, where the tracer breaks ties to the other
    side. Any other geometry traces every view and maps each to itself."""
    n_views = geom.n_views
    views = np.arange(n_views)
    q, odd = divmod(n_views, 2)
    symmetric = (geom.beam_kind == "parallel" and not odd
                 and geom.image_dims[0] == geom.image_dims[1]
                 and geom.pixel_spacing[0] == geom.pixel_spacing[1]
                 and math.isclose(geom.angular_range, math.pi, rel_tol=1e-12))
    if not symmetric:
        return views, views, np.zeros(n_views, dtype=np.int64)
    traced = np.append(np.arange(q // 2 + 1), q)
    kind = np.select([(2 * views <= q) | (views == q), views < q, 2 * views <= 3 * q],
                     [0, 1, 2], 3)
    source = np.choose(kind, [views, q - views, views - q, 2 * q - views])
    return traced, np.searchsorted(traced, source), kind


class SystemMatrix:
    """The (n_rays, n_pixels) intersection-length matrix, stored once per
    symmetry orbit of its views (:func:`_view_table`).

    The traced views' rows are one CSR structure: ``data`` and ``indptr``,
    and one column-index row per symmetry kind in ``indices`` (shape
    ``(kinds, nnz)``), row k holding the pixels the kind-k permutation maps
    the traced row's pixels to. View v reads block ``view_block[v]`` of the
    traced rows through ``indices[view_kind[v]]``, with its detectors in
    reverse unless the kind is the identity. ``view_rows[v]`` is that
    ``(indptr slice, indices row, detector step)``; every product here and
    :meth:`block` read the stored arrays through it, one view at a time, the
    products with scipy's compiled CSR and CSC kernels. ``@`` and
    :meth:`rmatvec` take the views in stored order, kind by kind and then by
    traced block, so on a geometry where every view maps to itself they give
    the products of the plain CSR matrix bit for bit.
    """

    def __init__(self, geom: SystemGeometry, data, indices, indptr, view_block, view_kind):
        self.shape = (geom.n_rays, geom.n_pixels)
        self.n_detectors = nd = geom.n_detectors
        self.data, self.indices, self.indptr = data, indices, indptr
        self.view_block, self.view_kind = view_block, view_kind
        self.view_rows = [(indptr[b * nd:(b + 1) * nd + 1], indices[k], -1 if k else 1)
                          for b, k in zip(view_block.tolist(), view_kind.tolist())]
        self._stored_order = np.lexsort((view_block, view_kind)).tolist()

    @property
    def nnz(self) -> int:
        """Stored nonzeros: those of the traced views."""
        return self.data.size

    @property
    def nbytes(self) -> int:
        return self.data.nbytes + self.indices.nbytes + self.indptr.nbytes

    @functools.cached_property
    def sums(self) -> tuple[np.ndarray, np.ndarray]:
        """Row sums ``A 1`` (per ray) and column sums ``A^T 1`` (per pixel),
        formed on first use and read-only."""
        sums = self @ np.ones(self.shape[1]), self.rmatvec(np.ones(self.shape[0]))
        for v in sums:
            v.flags.writeable = False
        return sums

    @staticmethod
    def _vector(v, n: int, name: str) -> np.ndarray:
        # the compiled kernels read and write their vectors unchecked
        v = np.ascontiguousarray(v, dtype=np.float64)
        if v.shape != (n,):
            raise ValueError(f"{name} has shape {v.shape}, expected ({n},)")
        return v

    def __matmul__(self, x) -> np.ndarray:
        """``A x`` for a flat image ``x``."""
        x = self._vector(x, self.shape[1], "x")
        y = np.empty((len(self.view_rows), self.n_detectors))
        r = np.empty(self.n_detectors)
        for v in self._stored_order:
            ptr, idx, step = self.view_rows[v]
            r.fill(0.0)
            csr_matvec(r.size, x.size, ptr, idx, self.data, x, r)
            y[v] = r[::step]
        return y.reshape(-1)

    def rmatvec(self, y) -> np.ndarray:
        """``A^T y`` for a flat sinogram ``y``."""
        y = self._vector(y, self.shape[0], "y").reshape(-1, self.n_detectors)
        g = np.zeros(self.shape[1])
        for v in self._stored_order:
            ptr, idx, step = self.view_rows[v]
            csc_matvec(g.size, y.shape[1], ptr, idx, self.data,
                       np.ascontiguousarray(y[v, ::step]), g)
        return g

    def residual_backprojection(self, views, x, w, y_tilde) -> np.ndarray:
        """``A_V^T (w_V (A_V x - y_V))`` over the rows of ``views``.

        The views are taken in the given order, and each view's rows are
        read by the CSR kernel and then, while they are still in cache, by
        the CSC kernel. A mapped view's weights and targets are read with its
        detectors reversed, so every ray's sum and the order of accumulation
        are those of a product with :meth:`block` of ``views``, its rows
        taken in the order the pass reads them, bit for bit.
        """
        n_rays, n_pixels = self.shape
        x = self._vector(x, n_pixels, "x")
        w = self._vector(w, n_rays, "w").reshape(-1, self.n_detectors)
        y_tilde = self._vector(y_tilde, n_rays, "y_tilde").reshape(-1, self.n_detectors)
        r = np.empty(self.n_detectors)
        g = np.zeros(n_pixels)
        for v in views:
            ptr, idx, step = self.view_rows[v]
            r.fill(0.0)
            csr_matvec(r.size, n_pixels, ptr, idx, self.data, x, r)
            r -= y_tilde[v, ::step]
            r *= w[v, ::step]
            csc_matvec(n_pixels, r.size, ptr, idx, self.data, r, g)
        return g

    def block(self, views) -> sp.csr_matrix:
        """The rows of ``views`` (view by view, detectors in order) gathered
        into a new CSR matrix, each row's entries in their stored order."""
        blocks = []
        for v in views:
            ptr, idx, step = self.view_rows[v]
            rows = slice(ptr[0], ptr[-1])
            blocks.append(sp.csr_matrix((self.data[rows], idx[rows], ptr - ptr[0]),
                                        shape=(self.n_detectors, self.shape[1]))[::step])
        return sp.vstack(blocks, format="csr")


def _build_matrix(geom: SystemGeometry) -> SystemMatrix:
    t0 = time.perf_counter()
    traced, view_block, view_kind = _view_table(geom)
    nd, n_pixels = geom.n_detectors, geom.n_pixels
    src, dst = (e.reshape(geom.n_views, nd, 2)[traced].reshape(-1, 2)
                for e in _ray_endpoints(geom))
    n_rays = src.shape[0]
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
    # the other kinds' rows are remapped in chunks, so no index array of the
    # full length is ever cast to int64 (as a single np.take would); the
    # indices are in range, and mode="clip" writes to ``out`` unbuffered
    kinds = int(view_kind.max()) + 1
    indices.resize(kinds * nnz, refcheck=False)
    indices = indices.reshape(kinds, nnz)
    if kinds > 1:
        perms = _pixel_permutations(geom.image_dims[0], indices.dtype)
        for k in range(1, kinds):
            for start in range(0, nnz, _CHUNK_ELEMENTS):
                stop = min(start + _CHUNK_ELEMENTS, nnz)
                np.take(perms[k - 1], indices[0, start:stop], out=indices[k, start:stop],
                        mode="clip")
    mat = SystemMatrix(geom, data, indices, indptr.astype(indices.dtype), view_block, view_kind)
    log.info("system matrix: %d nonzeros, %.1f MiB, %d of %d views traced, built in %.2f s",
             nnz, mat.nbytes / 2**20, traced.size, geom.n_views, time.perf_counter() - t0)
    return mat


@functools.lru_cache(maxsize=8)
def system_matrix(geom: SystemGeometry) -> SystemMatrix:
    """The system matrix operator, cached per geometry."""
    return _build_matrix(geom)


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
    x = system_matrix(geom).rmatvec(sino.ravel())
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
    a = system_matrix(geom)
    diag = a.rmatvec(_check_weights(w, geom) * a.sums[0])
    return ImageGrid(diag.reshape(geom.image_dims), geom.pixel_spacing)


def compute_kappa(geom: SystemGeometry, w: np.ndarray) -> ImageGrid:
    """Resolution-uniformity weights: per pixel the square root of the ratio of
    weighted to unweighted column sums of the system matrix.

    Pixels crossed by no ray get 0.
    """
    a = system_matrix(geom)
    num = a.rmatvec(_check_weights(w, geom))
    den = a.sums[1]
    kappa = np.zeros(geom.n_pixels)
    covered = den > 0
    kappa[covered] = np.sqrt(num[covered] / den[covered])
    return ImageGrid(kappa.reshape(geom.image_dims), geom.pixel_spacing)
