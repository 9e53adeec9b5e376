"""2D scan geometry and the matched forward/back projection pair.

The system model is assembled once per geometry as a sparse operator whose
entries are exact ray/pixel intersection lengths (Siddon-style tracing).
Forward and back projection share the same stored entries, so the pair is
an exact adjoint by construction, which the iterative solvers rely on.

The operator (:class:`SystemMatrix`) stores one view per orbit of the
square image's symmetries where the scan has them (:func:`_view_table`):
the other views read a traced view's rows with the image permuted into
their kind's frame, with their detectors in reverse. So one column-index
row serves every view, the stored bytes are a quarter of a plain CSR
matrix's, and a mapped row differs from its own trace by rounding only.
Any other geometry traces and stores every view, as a plain CSR matrix
would.

Assembly writes the CSR arrays directly: rays are traced in chunks, each
chunk's entries are sorted by pixel within their ray and repeated
(ray, pixel) pairs are summed, so the result equals ``coo_matrix.tocsr()``
of the traced triplets. Each chunk goes straight into the final arrays,
which grow in place, and a chunk's temporaries are a few hundred KiB each,
so the assembly peaks near the stored size itself (about 1.05 times it at
128x128, 1.25 times at 64x64).
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
# (252 rays at 64x64, 127 at 128x128), so that each float64 (ray, edge)
# temporary of the tracer is 256 KiB: it stays in cache while the tracer
# sweeps it several times, and the assembly's peak is the matrix plus a few
# such temporaries.
_CHUNK_ELEMENTS = 2 ** 15
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
    # floor((x_mid - x_left) / dx) and floor((y_top - y_mid) / dy); the column
    # is written over alpha, which is not read again
    col = np.multiply(mid, d[:, 0:1], out=alpha[:, :-1])
    del alpha, ax, ay
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
    # the pixel index, exact in float64, is written over the row
    row *= cols
    row += col
    del col

    ray_idx = np.repeat(np.arange(src.shape[0]), np.count_nonzero(ok, axis=1))
    pix = row[ok].astype(np.int64)
    del row
    w = seg[ok]
    w *= length[ray_idx]
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


# How a view of each symmetry kind reads the n x n image through the stored
# rows of a symmetric scan, and back, as views of it: where a traced row holds
# pixel p, a kind-k view weighs ``_IN_FRAME[k](img).ravel()[p]``. The stored
# rows number the traced pixels down the columns, so kind 0 reads the
# transpose, kind 1 (the transpose) the image itself, kind 2 (the clockwise
# rotation by 90 degrees) the image with its columns in reverse and kind 3
# (their composition, a reflection top to bottom) the transpose of the image
# with its rows in reverse.
_IN_FRAME = (lambda a: a.T, lambda a: a, lambda a: a[:, ::-1], lambda a: a[::-1].T)
_FROM_FRAME = (lambda a: a.T, lambda a: a, lambda a: a[:, ::-1], lambda a: a.T[::-1])


def _switch(img: np.ndarray, a, b, out: np.ndarray) -> np.ndarray:
    """The flat n x n image ``img``, held in kind a's frame, written to
    ``out`` in kind b's frame; a frame of None is the image itself. The two
    views compose into one copy: a flip of columns between kind 2 and kind 1
    or the image, and between kinds 0 and 3; a transpose otherwise.
    Permuting is exact, so a sum accumulated across switches keeps its
    bits."""
    n = math.isqrt(img.size)
    view = img.reshape(n, n)
    if a is not None:
        view = _FROM_FRAME[a](view)
    if b is not None:
        view = _IN_FRAME[b](view)
    np.copyto(out.reshape(n, n), view)
    return out


def _view_table(geom: SystemGeometry) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(traced, block, kind)``: the views whose rays are traced, and for
    every view the index into ``traced`` of the view it is mapped from and
    the symmetry kind that maps it: kind 1 is the transpose of the image
    (r, c) -> (c, r), kind 2 the clockwise rotation by 90 degrees
    (r, c) -> (c, n - 1 - r) and kind 3 their composition
    (r, c) -> (n - 1 - r, c), which reflects the image top to bottom.

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

    The traced views' rows are one CSR structure: ``data``, ``indptr`` and
    the 1-D column-index row ``indices``. View v reads block
    ``view_block[v]`` of the traced rows, with its detectors in reverse
    unless its kind ``view_kind[v]`` is the identity. On a scan with mapped
    views (``symmetric``) ``indices`` numbers the pixels down the columns,
    so that every ray, which runs within 45 degrees of the columns, reads
    nearly consecutive addresses, and a view reads the image in its kind's
    frame (``_IN_FRAME``); otherwise the pixels are numbered along the
    rows and read as they are. ``view_rows[v]`` is ``(indptr slice, kind)``,
    and every product reads the stored arrays through it, one view at a
    time, with scipy's compiled CSR and CSC kernels. :meth:`rmatvec` takes
    the views in stored order, kind by kind and then by traced block, so on
    a geometry where every view maps to itself ``@`` and :meth:`rmatvec`
    give the products of the plain CSR matrix bit for bit.
    """

    def __init__(self, geom: SystemGeometry, data, indices, indptr, view_block, view_kind):
        self.shape = (geom.n_rays, geom.n_pixels)
        self.n_detectors = nd = geom.n_detectors
        self.data, self.indices, self.indptr = data, indices, indptr
        self.view_block, self.view_kind = view_block, view_kind
        self.symmetric = bool(view_kind.any())
        self.view_rows = [(indptr[b * nd:(b + 1) * nd + 1], k)
                          for b, k in zip(view_block.tolist(), view_kind.tolist())]
        # each view's rays in the order of its traced rows: a mapped view's
        # detectors in reverse
        det = np.arange(nd)
        self._rays = (np.arange(view_kind.size)[:, None] * nd
                      + np.where(view_kind[:, None] > 0, det[::-1], det))
        self._stored = np.lexsort((view_block, view_kind))

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

    def _ray_sums(self, views, x: np.ndarray) -> np.ndarray:
        """The ray sums of ``views`` for the flat image ``x``, one row per
        view with its detectors in the order of its traced rows. Each view
        reads the image in its kind's frame, each frame formed by at most one
        copy: a transpose for kind 0 and flips of columns for kinds 2 and 3."""
        frames = [x]
        if self.symmetric:
            x0, x2, x3 = np.empty((3, x.size))
            frames = [_switch(x, None, 0, x0), x, _switch(x, None, 2, x2), _switch(x0, 0, 3, x3)]
        nd, n_pixels, indices, data = self.n_detectors, self.shape[1], self.indices, self.data
        res = np.zeros((len(views), nd))
        for v, r in zip(views, res):
            ptr, kind = self.view_rows[v]
            csr_matvec(nd, n_pixels, ptr, indices, data, frames[kind], r)
        return res

    def _accumulate(self, views, vectors) -> np.ndarray:
        """The image ``sum A_v^T r`` over ``views`` and their ``vectors`` r
        (in traced-row order), accumulated in the given order by the CSC
        kernel into a sum held in the current view's frame, which switches
        where the kind changes."""
        n_pixels, indices, data = self.shape[1], self.indices, self.data
        g, spare, frame = np.zeros(n_pixels), np.empty(n_pixels), 0
        for v, r in zip(views, vectors):
            ptr, kind = self.view_rows[v]
            if kind != frame:
                g, spare, frame = _switch(g, frame, kind, spare), g, kind
            csc_matvec(n_pixels, r.size, ptr, indices, data, r, g)
        return _switch(g, frame, None, spare) if self.symmetric else g

    def __matmul__(self, x) -> np.ndarray:
        """``A x`` for a flat image ``x``."""
        x = self._vector(x, self.shape[1], "x")
        y = np.empty(self.shape[0])
        y[self._rays] = self._ray_sums(range(self.view_kind.size), x)
        return y

    def rmatvec(self, y) -> np.ndarray:
        """``A^T y`` for a flat sinogram ``y``, the views in stored order."""
        y = self._vector(y, self.shape[0], "y")
        return self._accumulate(self._stored, y.take(self._rays[self._stored]))

    def residual_backprojection(self, views, x, w, y_tilde) -> np.ndarray:
        """``A_V^T (w_V (A_V x - y_V))`` over the rows of ``views``.

        The residuals of :meth:`_ray_sums` are weighted in one step, a
        mapped view's weights and targets read with its detectors reversed,
        and :meth:`_accumulate` back-projects them in the given order. So
        every ray's sum and the order of accumulation are those of a
        product with :meth:`block` of ``views``, its rows taken in the
        order the pass reads them, bit for bit.
        """
        n_rays, n_pixels = self.shape
        x = self._vector(x, n_pixels, "x")
        w = self._vector(w, n_rays, "w")
        y_tilde = self._vector(y_tilde, n_rays, "y_tilde")
        views = np.asarray(views, dtype=np.intp)
        res = self._ray_sums(views, x)
        rays = self._rays[views]
        res -= y_tilde.take(rays)
        res *= w.take(rays)
        return self._accumulate(views, res)

    def block(self, views) -> sp.csr_matrix:
        """The rows of ``views`` (view by view, detectors in order) gathered
        into a new CSR matrix, each row's entries in their stored order."""
        n = math.isqrt(self.shape[1])
        pixels = np.arange(self.shape[1], dtype=self.indices.dtype)
        blocks = []
        for v in views:
            ptr, kind = self.view_rows[v]
            rows = slice(ptr[0], ptr[-1])
            idx = self.indices[rows]
            if self.symmetric:
                idx = _IN_FRAME[kind](pixels.reshape(n, n)).ravel()[idx]
            csr = sp.csr_matrix((self.data[rows], idx, ptr - ptr[0]),
                                shape=(self.n_detectors, self.shape[1]))
            blocks.append(csr[::-1] if kind else csr)
        return sp.vstack(blocks, format="csr")


def _build_matrix(geom: SystemGeometry) -> SystemMatrix:
    t0 = time.perf_counter()
    traced, view_block, view_kind = _view_table(geom)
    symmetric = view_kind.any()
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
        if symmetric:  # number the pixels down the columns
            pix = pix % geom.image_dims[1] * geom.image_dims[0] + pix // geom.image_dims[1]
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
    del src, dst
    mat = SystemMatrix(geom, data, indices, indptr.astype(indices.dtype), view_block, view_kind)
    log.info("system matrix: %d nonzeros, %.1f MiB, %d of %d views traced, built in %.2f s",
             nnz, mat.nbytes / 2**20, traced.size, geom.n_views, time.perf_counter() - t0)
    return mat


@functools.lru_cache(maxsize=8)
def system_matrix(geom: SystemGeometry) -> SystemMatrix:
    """The system matrix operator, cached per geometry."""
    return _build_matrix(geom)


def forward_project(img: np.ndarray, geom: SystemGeometry) -> np.ndarray:
    """Line integrals of the ``image_dims`` image ``img`` along every ray
    (mm^-1 * mm, dimensionless), shape (n_views, n_detectors)."""
    if np.shape(img) != geom.image_dims:
        raise ConfigurationError(
            f"image dims {np.shape(img)} do not match geometry {geom.image_dims}")
    y = system_matrix(geom) @ np.ravel(img)
    return y.reshape(geom.n_views, geom.n_detectors)


def back_project(sino: np.ndarray, geom: SystemGeometry) -> np.ndarray:
    """Adjoint of :func:`forward_project`, using identical intersection weights."""
    if np.shape(sino) != (geom.n_views, geom.n_detectors):
        raise ConfigurationError(
            f"sinogram shape {np.shape(sino)} does not match geometry "
            f"({geom.n_views}, {geom.n_detectors})"
        )
    return system_matrix(geom).rmatvec(np.ravel(sino)).reshape(geom.image_dims)


def _check_weights(w, geom: SystemGeometry) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64).reshape(-1)
    if w.shape[0] != geom.n_rays:
        raise ConfigurationError("weight length does not match ray count")
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    return w


def weighted_gram_diag(geom: SystemGeometry, w: np.ndarray) -> np.ndarray:
    """Diagonal of the weighted normal matrix, per pixel: sum_i a_ij w_i (A 1)_i."""
    a = system_matrix(geom)
    return a.rmatvec(_check_weights(w, geom) * a.sums[0]).reshape(geom.image_dims)


def compute_kappa(geom: SystemGeometry, w: np.ndarray) -> np.ndarray:
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
    return kappa.reshape(geom.image_dims)
