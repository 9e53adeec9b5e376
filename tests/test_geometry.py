import ast
import logging
import math
import re
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse._sparsetools import csc_matvec, csr_matvec

from spultra import geometry
from spultra.config import parse_config
from spultra.errors import ConfigurationError
from spultra.geometry import (SystemGeometry, back_project, compute_kappa, forward_project,
                              pixel_centres, system_matrix, weighted_gram_diag)
from spultra.recon import SubsetSystem

from conftest import dense_system, small_parallel


def test_geometry_validation():
    with pytest.raises(ConfigurationError):
        SystemGeometry("conebeam", 4, 4, 1.0, np.pi, (4, 4))
    with pytest.raises(ConfigurationError):
        SystemGeometry("parallel", 4, 4, -1.0, np.pi, (4, 4))
    with pytest.raises(ConfigurationError):
        SystemGeometry("fan", 4, 4, 1.0, np.pi, (4, 4),
                       source_to_iso=50.0, source_to_detector=40.0)


def test_zero_image_projects_to_zero(small_geom):
    img = np.zeros(small_geom.image_dims)
    assert np.all(forward_project(img, small_geom) == 0)


def test_single_pixel_perpendicular_ray():
    # one 1 mm^2 pixel of 1 mm^-1; view at angle 0 has rays perpendicular to a face
    geom = SystemGeometry("parallel", n_detectors=1, n_views=1, detector_spacing=1.0,
                          angular_range=np.pi, image_dims=(1, 1), pixel_spacing=(1.0, 1.0))
    img = np.ones((1, 1))
    sino = forward_project(img, geom)
    assert sino[0, 0] == pytest.approx(1.0, abs=1e-13)


def test_forward_matches_dense_oracle(small_geom):
    dense = dense_system(small_geom)
    rng = np.random.default_rng(7)
    x = rng.random(small_geom.n_pixels)
    img = x.reshape(small_geom.image_dims)
    got = forward_project(img, small_geom).ravel()
    assert np.max(np.abs(got - dense @ x)) <= 1e-12


def test_back_project_zero_and_one_hot(small_geom):
    zero = np.zeros((small_geom.n_views, small_geom.n_detectors))
    assert np.all(back_project(zero, small_geom) == 0)

    dense = dense_system(small_geom)
    for ray in [0, small_geom.n_rays // 2, small_geom.n_rays - 1]:
        one_hot = np.zeros(small_geom.n_rays)
        one_hot[ray] = 1.0
        sino = one_hot.reshape(small_geom.n_views, small_geom.n_detectors)
        got = back_project(sino, small_geom).reshape(-1)
        assert np.max(np.abs(got - dense[ray])) <= 1e-12


def test_adjoint_identity(small_geom):
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = rng.standard_normal(small_geom.n_pixels)
        y = rng.standard_normal(small_geom.n_rays)
        img = x.reshape(small_geom.image_dims)
        ax = forward_project(img, small_geom).ravel()
        sino = y.reshape(small_geom.n_views, small_geom.n_detectors)
        aty = back_project(sino, small_geom).reshape(-1)
        lhs = ax @ y
        rhs = x @ aty
        assert abs(lhs - rhs) <= 1e-10 * np.linalg.norm(ax) * np.linalg.norm(y)


def test_nonnegative_weights(small_geom):
    img = np.ones(small_geom.image_dims)
    assert np.all(forward_project(img, small_geom) >= 0)


def test_shape_mismatch_raises():
    geom = small_parallel()
    with pytest.raises(ConfigurationError):
        forward_project(np.zeros((4, 4)), geom)
    with pytest.raises(ConfigurationError):
        back_project(np.zeros((3, 3)), geom)
    with pytest.raises(ConfigurationError, match="sinogram shape"):
        back_project(np.zeros(geom.n_rays), geom)


def _one_pixel_two_rays():
    # single 1 mm^2 pixel crossed by a vertical and a horizontal center ray,
    # so the system matrix is exactly [[1], [1]]
    return SystemGeometry("parallel", n_detectors=1, n_views=2, detector_spacing=1.0,
                          angular_range=np.pi, image_dims=(1, 1), pixel_spacing=(1.0, 1.0))


def test_weighted_gram_diag_hand_case():
    # dense A = [[1, 0], [0, 2]], w = (1, 1): diag(A^T W A 1) = (1, 4)
    a = np.array([[1.0, 0.0], [0.0, 2.0]])
    w = np.ones(2)
    expect = a.T @ (w * (a @ np.ones(2)))
    assert np.allclose(expect, [1.0, 4.0])
    # and on a real geometry with known A = [[1], [1]], w = (1, 3): diag = 4
    geom = _one_pixel_two_rays()
    got = weighted_gram_diag(geom, np.array([1.0, 3.0]))
    assert got[0, 0] == pytest.approx(4.0, rel=1e-13)


def test_weighted_gram_diag_oracle(small_geom):
    dense = dense_system(small_geom)
    rng = np.random.default_rng(3)
    w = rng.random(small_geom.n_rays)
    got = weighted_gram_diag(small_geom, w).reshape(-1)
    expect = dense.T @ (w * (dense @ np.ones(small_geom.n_pixels)))
    scale = np.max(np.abs(expect))
    assert np.max(np.abs(got - expect)) <= 1e-12 * scale


def test_weighted_gram_diag_zero_and_negative():
    geom = small_parallel()
    assert np.all(weighted_gram_diag(geom, np.zeros(geom.n_rays)) == 0)
    with pytest.raises(ValueError):
        weighted_gram_diag(geom, -np.ones(geom.n_rays))


def test_kappa_constant_weights(small_geom):
    c = 4.0
    kappa = compute_kappa(small_geom, np.full(small_geom.n_rays, c))
    covered = back_project(
        np.ones((small_geom.n_views, small_geom.n_detectors)),
        small_geom) > 0
    assert np.allclose(kappa[covered], np.sqrt(c))
    assert np.all(kappa[~covered] == 0)


def test_kappa_two_ray_hand_value():
    # one pixel, two unit-length rays, w = (4, 9): kappa = sqrt(13 / 2)
    geom = _one_pixel_two_rays()
    got = compute_kappa(geom, np.array([4.0, 9.0]))
    assert got[0, 0] == pytest.approx(2.5495097567963922, rel=1e-12)


def test_kappa_dense_oracle(small_geom):
    dense = dense_system(small_geom)
    rng = np.random.default_rng(5)
    w = rng.random(small_geom.n_rays)
    got = compute_kappa(small_geom, w).reshape(-1)
    num = dense.T @ w
    den = dense.T @ np.ones(small_geom.n_rays)
    expect = np.zeros_like(num)
    covered = den > 0
    expect[covered] = np.sqrt(num[covered] / den[covered])
    assert np.max(np.abs(got - expect)) <= 1e-12 * max(expect.max(), 1.0)


def test_matrix_sums_cached_read_only(small_geom):
    a = system_matrix(small_geom)
    rows, cols = a.sums
    assert rows.tobytes() == (a @ np.ones(small_geom.n_pixels)).tobytes()
    assert cols.tobytes() == a.rmatvec(np.ones(small_geom.n_rays)).tobytes()
    for sums in (rows, cols):
        with pytest.raises(ValueError, match="read-only"):
            sums[0] = 1.0
    assert system_matrix(small_geom).sums[0] is rows


def test_matrix_sums_computed_once_per_geometry():
    # a geometry no other test uses, so neither its matrix nor its sums exist yet
    geom = SystemGeometry("parallel", n_detectors=7, n_views=6, detector_spacing=1.4,
                          angular_range=np.pi, image_dims=(4, 5), pixel_spacing=(1.2, 0.8))
    w = np.linspace(0.5, 2.0, geom.n_rays)
    # here only the sums call A @ x (for A 1), so its calls count their formations
    with mock.patch.object(geometry.SystemMatrix, "__matmul__", autospec=True,
                           side_effect=geometry.SystemMatrix.__matmul__) as matmul:
        for m in (1, 2, 3):
            system = SubsetSystem(geom, m)
            assert system.gram_diag(w).tobytes() == \
                weighted_gram_diag(geom, w).reshape(-1).tobytes()
            compute_kappa(geom, w)
    assert matmul.call_count == 1
    assert "sums" in vars(system_matrix(geom))


def test_pixel_centres_sit_inside_the_traced_pixels():
    # each centre is half a pixel from the grid edges the tracer crosses
    dims, spacing = (3, 4), (2.0, 0.5)
    x, y = pixel_centres(dims, spacing)
    assert x.shape == y.shape == dims
    assert np.allclose(x[0], -0.5 * 4 * 2.0 + (np.arange(4) + 0.5) * 2.0)
    assert np.allclose(y[:, 0], 0.5 * 3 * 0.5 - (np.arange(3) + 0.5) * 0.5)
    assert np.all(x[1:] == x[0]) and np.all(y[:, 1:] == y[:, :1])


def test_rays_missing_image_contribute_zero():
    # detector much wider than the image: outer rays never hit it
    geom = SystemGeometry("parallel", n_detectors=64, n_views=4, detector_spacing=1.0,
                          angular_range=np.pi, image_dims=(4, 4), pixel_spacing=(1.0, 1.0))
    a = system_matrix(geom)
    img = np.ones((4, 4))
    sino = forward_project(img, geom)
    assert type(sino) is np.ndarray and sino.dtype == np.float64
    assert sino.shape == (4, 64)
    assert np.all(sino[:, 0] == 0) and np.all(sino[:, -1] == 0)
    assert a.shape == (geom.n_rays, geom.n_pixels)


def test_fan_matches_parallel_in_the_limit():
    # a fan geometry with a huge source distance approaches parallel rays
    rows = cols = 8
    par = small_parallel(rows, cols, n_det=10, n_views=6)
    # magnification dsd/dso = 2, so detector spacing 2 samples the same rays
    fan = SystemGeometry("fan", n_detectors=10, n_views=6, detector_spacing=2.0,
                         angular_range=np.pi, image_dims=(rows, cols),
                         pixel_spacing=(1.0, 1.0),
                         source_to_iso=1e6, source_to_detector=2e6)
    rng = np.random.default_rng(1)
    x = rng.random(par.n_pixels)
    img = x.reshape(rows, cols)
    a = forward_project(img, par)
    b = forward_project(img, fan)
    assert np.max(np.abs(a - b)) < 1e-3 * max(1.0, np.max(np.abs(a)))


def _coo_reference(geom):
    """The former assembly, kept as the reference for the direct CSR build:
    trace the rays in chunks of 8192 into (ray, pixel, length) triplets and
    let ``coo_matrix.tocsr()`` sort them and sum repeated pairs. Returns the
    matrix and the number of triplets."""
    src, dst = geometry._ray_endpoints(geom)
    rows, cols = geom.image_dims
    dx, dy = geom.pixel_spacing
    x_left = -0.5 * cols * dx
    y_top = 0.5 * rows * dy
    x_edges = x_left + np.arange(cols + 1) * dx
    y_edges = y_top - np.arange(rows + 1) * dy
    parts_r, parts_c, parts_w = [], [], []
    for start in range(0, geom.n_rays, 8192):
        s, e = src[start:start + 8192], dst[start:start + 8192]
        d = e - s
        length = np.hypot(d[:, 0], d[:, 1])
        with np.errstate(divide="ignore", invalid="ignore"):
            ax = (x_edges[None, :] - s[:, 0:1]) / d[:, 0:1]
            ay = (y_edges[None, :] - s[:, 1:2]) / d[:, 1:2]
        ax[~np.isfinite(ax)] = -1.0
        ay[~np.isfinite(ay)] = -1.0
        alpha = np.concatenate([ax, ay], axis=1)
        np.clip(alpha, 0.0, 1.0, out=alpha)
        alpha.sort(axis=1)
        seg = np.diff(alpha, axis=1)
        mid = alpha[:, :-1] + 0.5 * seg
        mx = s[:, 0:1] + mid * d[:, 0:1]
        my = s[:, 1:2] + mid * d[:, 1:2]
        col = np.floor((mx - x_left) / dx).astype(np.int64)
        row = np.floor((y_top - my) / dy).astype(np.int64)
        ok = (seg > 0) & (col >= 0) & (col < cols) & (row >= 0) & (row < rows)
        ray, _ = np.nonzero(ok)
        parts_r.append(ray + start)
        parts_c.append((row * cols + col)[ok])
        parts_w.append((seg * length[:, None])[ok])
    vals = np.concatenate(parts_w)
    coo = sp.coo_matrix((vals, (np.concatenate(parts_r), np.concatenate(parts_c))),
                        shape=(geom.n_rays, geom.n_pixels))
    return coo.tocsr(), vals.size


def _assert_same_csr(got, ref):
    assert isinstance(got, sp.csr_matrix) and got.shape == ref.shape
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(ref, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name
    assert got.has_canonical_format


_spacing = st.sampled_from([0.5, 1.0, 2.0]) | st.floats(0.3, 3.0)


@st.composite
def _small_geometries(draw):
    kind = draw(st.sampled_from(["parallel", "fan"]))
    fan = {}
    if kind == "fan":
        dso = draw(st.floats(20.0, 80.0))
        fan = {"source_to_iso": dso, "source_to_detector": dso * draw(st.floats(1.2, 3.0))}
    return SystemGeometry(
        kind, n_detectors=draw(st.integers(1, 24)), n_views=draw(st.integers(1, 16)),
        detector_spacing=draw(_spacing),
        angular_range=draw(st.sampled_from([np.pi, 2 * np.pi]) | st.floats(0.1, 7.0)),
        image_dims=(draw(st.integers(1, 12)), draw(st.integers(1, 12))),
        pixel_spacing=(draw(_spacing), draw(_spacing)), **fan)


def _full_trace(geom):
    """Every view traced and mapped to itself: the matrix as it was stored
    before views were mapped by the image's symmetries."""
    views = np.arange(geom.n_views)
    with mock.patch.object(geometry, "_view_table",
                           lambda g: (views, views, np.zeros_like(views))):
        return geometry._build_matrix(geom)


def _traced_pixels(mat):
    """The stored column indices numbered along the rows, as the tracer
    numbers pixels: a symmetric scan stores them numbered down the
    columns."""
    if not mat.symmetric:
        return mat.indices
    n = math.isqrt(mat.shape[1])
    return np.arange(n * n, dtype=mat.indices.dtype).reshape(n, n).T.ravel()[mat.indices]


def _traced_rows(mat):
    """The traced views' rows, as stored, as a CSR matrix."""
    return sp.csr_matrix((mat.data, _traced_pixels(mat), mat.indptr),
                         shape=(mat.indptr.size - 1, mat.shape[1]))


@settings(deadline=None, max_examples=80)
@given(geom=_small_geometries(), chunk_elements=st.integers(1, 400))
@example(geom=SystemGeometry("parallel", n_detectors=9, n_views=12, detector_spacing=1.0,
                             angular_range=np.pi, image_dims=(6, 6)), chunk_elements=7)
def test_direct_csr_assembly_matches_coo_reference(geom, chunk_elements):
    # small chunks put chunk boundaries inside and between views; the traced
    # views' rows are the reference's bit for bit, in one column-index row
    # that numbers the pixels down the columns exactly when views are mapped
    with mock.patch.object(geometry, "_CHUNK_ELEMENTS", chunk_elements):
        got = geometry._build_matrix(geom)
    traced, _, kind = geometry._view_table(geom)
    nd = geom.n_detectors
    rays = (traced[:, None] * nd + np.arange(nd)).reshape(-1)
    _assert_same_csr(_traced_rows(got), _coo_reference(geom)[0][rays])
    assert got.indices.shape == (got.nnz,)
    assert got.symmetric == kind.any()


def test_direct_csr_assembly_merges_repeated_pairs():
    cfg = parse_config(Path(__file__).resolve().parents[1] / "configs" / "waterdisk64.ini")
    ref, n_triplets = _coo_reference(cfg.geometry)
    got = _traced_rows(_full_trace(cfg.geometry))
    assert n_triplets > got.nnz  # some (ray, pixel) pairs are traced twice
    _assert_same_csr(got, ref)


_BENCHMARK_GEOMETRIES = [
    SystemGeometry("parallel", n_detectors=160, n_views=360, detector_spacing=2.2,
                   angular_range=np.pi, image_dims=(128, 128), pixel_spacing=(2.7, 2.7)),
    SystemGeometry("parallel", n_detectors=96, n_views=180, detector_spacing=2.6,
                   angular_range=np.pi, image_dims=(64, 64), pixel_spacing=(3.5, 3.5)),
]


@pytest.mark.parametrize("geom", _BENCHMARK_GEOMETRIES, ids=["128x128", "64x64"])
def test_mapped_views_match_a_trace_of_every_view(geom):
    # views with angles in [0, pi/4] and the one at pi/2 are traced; every
    # other row comes from a symmetry of the square and differs from its own
    # trace by rounding only, except for a near-zero segment now and then
    mat = geometry._build_matrix(geom)
    full = _full_trace(geom)
    q = geom.n_views // 2
    assert np.array_equal(geometry._view_table(geom)[0], np.append(np.arange(q // 2 + 1), q))
    assert mat.indices.shape == (mat.nnz,) and mat.indices.dtype == np.int32
    assert mat.symmetric and set(mat.view_kind.tolist()) == {0, 1, 2, 3}
    assert mat.nbytes < 0.27 * full.nbytes
    nd = geom.n_detectors
    for views in np.array_split(np.arange(geom.n_views), 12):
        got, ref = mat.block(views), full.block(views)
        scale = abs(ref).max(axis=1).toarray().ravel()
        assert np.all(abs(got - ref).max(axis=1).toarray().ravel() <= 1e-12 * scale)
        sums = np.asarray(got.sum(axis=1) - ref.sum(axis=1)).ravel()
        assert np.all(np.abs(sums) <= 1e-12 * scale)
        counts = np.abs(np.diff(got.indptr) - np.diff(ref.indptr)).reshape(-1, nd)
        assert counts.sum(axis=1).max() <= 2


_FAN = SystemGeometry("fan", n_detectors=24, n_views=36, detector_spacing=2.0,
                      angular_range=np.pi, image_dims=(16, 16), pixel_spacing=(1.0, 1.0),
                      source_to_iso=40.0, source_to_detector=80.0)
_NON_SQUARE = SystemGeometry("parallel", n_detectors=24, n_views=36, detector_spacing=1.0,
                             angular_range=np.pi, image_dims=(16, 15), pixel_spacing=(1.0, 1.0))
_ODD_VIEWS = SystemGeometry("parallel", n_detectors=21, n_views=35, detector_spacing=1.0,
                            angular_range=np.pi, image_dims=(16, 16), pixel_spacing=(1.0, 1.0))


@pytest.mark.parametrize("geom", _BENCHMARK_GEOMETRIES + [_FAN, _NON_SQUARE, _ODD_VIEWS],
                         ids=["128x128", "64x64", "fan", "non-square", "odd-views"])
def test_whole_products_match_the_gathered_rows_bitwise(geom):
    # A x sums each row's entries in stored order; A^T y accumulates the rays
    # view by view in stored order (kind by kind, then by traced block), a
    # mapped view's detectors in reverse: the summation order that the
    # reconstructions' bytes depend on, with and without mapped views
    mat = system_matrix(geom)
    rng = np.random.default_rng(0)
    x, y = rng.random(geom.n_pixels), rng.random(geom.n_rays)
    assert (mat @ x).tobytes() == (mat.block(range(geom.n_views)) @ x).tobytes()
    nd = geom.n_detectors
    stored = np.lexsort((mat.view_block, mat.view_kind))
    order = np.arange(geom.n_rays).reshape(-1, nd)
    mapped = mat.view_kind[stored] > 0
    order[mapped] = order[mapped, ::-1]
    order = order.reshape(-1)
    rays = (stored[:, None] * nd + np.arange(nd)).reshape(-1)[order]
    assert mat.rmatvec(y).tobytes() == (mat.block(stored)[order].T @ y[rays]).tobytes()


class _FourRowReference:
    """The orbit-stored operator as it was laid out before it kept one
    column-index row: row k of ``rows`` holds the traced pixels as symmetry
    kind k maps them (numbered along the rows), and the products are the
    former per-view loops over those rows, with the image as it is."""

    def __init__(self, mat):
        n = math.isqrt(mat.shape[1])
        idx = np.arange(n * n, dtype=mat.indices.dtype).reshape(n, n)
        perms = np.stack([idx.ravel(), idx.T.ravel(), idx[:, ::-1].T.ravel(), idx[::-1].ravel()])
        self.rows = perms[:, _traced_pixels(mat)]
        self.mat, nd = mat, mat.n_detectors
        self.view_rows = [(mat.indptr[b * nd:(b + 1) * nd + 1], self.rows[k], -1 if k else 1)
                          for b, k in zip(mat.view_block.tolist(), mat.view_kind.tolist())]
        self.stored = np.lexsort((mat.view_block, mat.view_kind)).tolist()

    def matvec(self, x):
        y = np.empty((len(self.view_rows), self.mat.n_detectors))
        r = np.empty(self.mat.n_detectors)
        for v in self.stored:
            ptr, idx, step = self.view_rows[v]
            r.fill(0.0)
            csr_matvec(r.size, x.size, ptr, idx, self.mat.data, x, r)
            y[v] = r[::step]
        return y.reshape(-1)

    def rmatvec(self, y):
        y = y.reshape(-1, self.mat.n_detectors)
        g = np.zeros(self.mat.shape[1])
        for v in self.stored:
            ptr, idx, step = self.view_rows[v]
            csc_matvec(g.size, y.shape[1], ptr, idx, self.mat.data,
                       np.ascontiguousarray(y[v, ::step]), g)
        return g

    def residual_backprojection(self, views, x, w, y_tilde):
        w = w.reshape(-1, self.mat.n_detectors)
        y_tilde = y_tilde.reshape(-1, self.mat.n_detectors)
        r = np.empty(self.mat.n_detectors)
        g = np.zeros(x.size)
        for v in views:
            ptr, idx, step = self.view_rows[v]
            r.fill(0.0)
            csr_matvec(r.size, x.size, ptr, idx, self.mat.data, x, r)
            r -= y_tilde[v, ::step]
            r *= w[v, ::step]
            csc_matvec(x.size, r.size, ptr, idx, self.mat.data, r, g)
        return g


@pytest.mark.parametrize("geom", [small_parallel(7, 7, 9, 20)] + _BENCHMARK_GEOMETRIES,
                         ids=["7x7", "128x128", "64x64"])
def test_one_index_row_matches_the_four_row_layout_bitwise(geom):
    # each kind reads the one index row with the image in its frame, and the
    # subset pass switches the frame of its sum where the kind changes: every
    # product keeps the terms and the summation order of the four-row layout
    mat = system_matrix(geom)
    ref = _FourRowReference(mat)
    assert mat.symmetric and ref.rows.shape == (4, mat.nnz)
    rng = np.random.default_rng(0)
    x, w, y = rng.random(geom.n_pixels), rng.random(geom.n_rays), rng.random(geom.n_rays)
    assert (mat @ x).tobytes() == ref.matvec(x).tobytes()
    assert mat.rmatvec(y).tobytes() == ref.rmatvec(y).tobytes()
    q = geom.n_views // 2
    for m in (1, 3, 6, 12):
        subsets = [range(s, geom.n_views, m) for s in range(m)]
        assert sum(q in views for views in subsets) == 1
        for views in subsets:
            got = mat.residual_backprojection(views, x, w, y)
            assert got.tobytes() == ref.residual_backprojection(views, x, w, y).tobytes()
    # views in any order, the kind changing at most steps
    views = rng.permutation(geom.n_views)[:12]
    got = mat.residual_backprojection(views, x, w, y)
    assert got.tobytes() == ref.residual_backprojection(views, x, w, y).tobytes()


@pytest.mark.parametrize("geom", [_FAN, _NON_SQUARE, _ODD_VIEWS],
                         ids=["fan", "non-square", "odd-views"])
def test_geometry_without_the_symmetry_traces_every_view(geom):
    mat = geometry._build_matrix(geom)
    views = np.arange(geom.n_views)
    assert np.array_equal(mat.view_block, views) and not mat.view_kind.any()
    assert mat.indices.shape == (mat.nnz,) and not mat.symmetric
    _assert_same_csr(_traced_rows(mat), _coo_reference(geom)[0])
    _assert_same_csr(mat.block(views), _coo_reference(geom)[0])


# measured tracemalloc peaks: 1.05x the 25.5 MiB stored matrix at 128x128 and
# 1.25x the 3.7 MiB one at 64x64, where the 256 KiB chunk temporaries weigh more
@pytest.mark.parametrize("geom, bound", list(zip(_BENCHMARK_GEOMETRIES, (1.10, 1.40))),
                         ids=["128x128", "64x64"])
def test_assembly_peak_memory_near_one_matrix(geom, bound):
    # each chunk goes straight into the final arrays, so no chunk list and
    # its concatenation coexist, and a chunk's temporaries are cache-sized
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        mat = geometry._build_matrix(geom)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    size = mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes
    assert peak <= bound * size, f"assembly peak {peak / size:.3f}x the matrix"


def test_private_scipy_kernels_are_imported_by_geometry_alone():
    # csr_matvec and csc_matvec live in scipy's private _sparsetools: a scipy
    # release that moves them should break one import, in one module
    src = Path(geometry.__file__).parent
    importers = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            if any(name.startswith("scipy.sparse._sparsetools") for name in names):
                importers.add(path.name)
    assert importers == {"geometry.py"}


def test_matrix_build_logged_once_per_geometry(caplog):
    # a geometry no other test uses, so the cache does not hold it yet
    geom = SystemGeometry("parallel", n_detectors=9, n_views=5, detector_spacing=1.3,
                          angular_range=np.pi, image_dims=(5, 7), pixel_spacing=(1.1, 0.9))
    with caplog.at_level(logging.INFO, logger="spultra.geometry"):
        mat = system_matrix(geom)
        system_matrix(geom)
    msgs = [r.getMessage() for r in caplog.records if r.name == "spultra.geometry"]
    assert len(msgs) == 1
    assert re.fullmatch(rf"system matrix: {mat.nnz} nonzeros, \d+\.\d MiB, 5 of 5 views "
                        rf"traced, built in \d+\.\d\d s", msgs[0]), msgs[0]
