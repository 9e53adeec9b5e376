import dataclasses
import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spultra import recon
from spultra.errors import ConfigurationError, NumericalError
from spultra.geometry import (SystemGeometry, back_project, compute_kappa, forward_project,
                              system_matrix, weighted_gram_diag)
from spultra.metrics import to_hu
from spultra.recon import (TRACE_COLUMNS, ConvergenceTrace, EdgePreservingReg, EpParams,
                           ReconConfig, SubsetSystem, UltraQuadReg,
                           bit_reversal_order, ep_potential, ep_potential_dot,
                           fbp_reconstruct, os_lalm_image_update, pwls_ep_reconstruct,
                           pwls_ultra_reconstruct, rho_schedule, spultra_reconstruct)
from spultra.sim import Ellipse, make_phantom, simulate_prelog
from spultra.spstats import SpModel, neg_log_likelihood, post_log_convert
from spultra.ultra import (PatchConfig, SparseState, TransformUnion, accumulate_patches,
                           extract_patches, initial_transform, patch_weights,
                           regularizer_value, sparse_code_and_cluster)

from conftest import dense_system, small_fan, small_parallel


class ZeroReg:
    """No regularization; used for plain weighted least squares."""

    diag = 0.0

    def grad(self, x):
        return 0.0


def wls_cfg(n_inner, m=1, x_max=0.1):
    return ReconConfig(beta=0.0, gamma_c=1.0, n_outer=1, n_inner=n_inner,
                       n_subsets=m, x_max=x_max, patch=PatchConfig(1, 1))


def test_rho_schedule_values():
    assert rho_schedule(0, 1.999) == 1.0
    assert rho_schedule(1, 1.999) == pytest.approx(0.72260, abs=1e-4)
    rhos = [rho_schedule(t, 1.999) for t in range(1, 1001)]
    assert np.all(np.diff(rhos) < 0)
    assert all(r > 0 for r in rhos)
    with pytest.raises(ValueError):
        rho_schedule(-1, 1.999)


def test_bit_reversal_order():
    assert bit_reversal_order(1) == [0]
    assert bit_reversal_order(4) == [0, 2, 1, 3]
    assert sorted(bit_reversal_order(12)) == list(range(12))
    assert bit_reversal_order(12)[:4] == [0, 8, 4, 2]


def test_recon_config_validation():
    with pytest.raises(ConfigurationError):
        ReconConfig(beta=1.0, gamma_c=1.0, n_outer=1, alpha=2.0)
    with pytest.raises(ConfigurationError):
        ReconConfig(beta=1.0, gamma_c=1.0, n_outer=1, x_max=0.0)


def test_os_lalm_matches_dense_wls_oracle():
    geom = SystemGeometry("parallel", n_detectors=4, n_views=6, detector_spacing=1.0,
                          angular_range=np.pi, image_dims=(2, 1), pixel_spacing=(1.0, 1.0))
    a = dense_system(geom)
    rng = np.random.default_rng(3)
    w = rng.random(a.shape[0]) + 0.5
    x_star = np.array([0.03, 0.05])
    y = a @ x_star  # consistent data, interior solution
    system = SubsetSystem(geom, 1)
    d_a = system.gram_diag(w)
    x = os_lalm_image_update(np.zeros(2), system, w, y, d_a, ZeroReg(), wls_cfg(4000))
    dense = np.linalg.solve((a.T * w) @ a, a.T @ (w * y))
    assert np.max(np.abs(x - dense)) <= 1e-6


def test_os_lalm_clips_to_box():
    geom = SystemGeometry("parallel", n_detectors=4, n_views=6, detector_spacing=1.0,
                          angular_range=np.pi, image_dims=(2, 1), pixel_spacing=(1.0, 1.0))
    a = dense_system(geom)
    w = np.ones(a.shape[0])
    # data consistent with values above the cap: solution saturates at x_max
    y = a @ np.array([0.2, 0.2])
    system = SubsetSystem(geom, 1)
    d_a = system.gram_diag(w)
    x = os_lalm_image_update(np.zeros(2), system, w, y, d_a, ZeroReg(), wls_cfg(2000, x_max=0.1))
    assert np.all(x <= 0.1 + 1e-15) and np.all(x >= 0)
    assert np.allclose(x, 0.1, atol=1e-8)


def test_os_lalm_fixed_point_at_unconstrained_minimizer():
    geom = SystemGeometry("parallel", n_detectors=4, n_views=6, detector_spacing=1.0,
                          angular_range=np.pi, image_dims=(2, 1), pixel_spacing=(1.0, 1.0))
    a = dense_system(geom)
    rng = np.random.default_rng(5)
    w = rng.random(a.shape[0]) + 0.5
    y = a @ np.array([0.02, 0.06])
    dense = np.linalg.solve((a.T * w) @ a, a.T @ (w * y))
    system = SubsetSystem(geom, 1)
    d_a = system.gram_diag(w)
    x = os_lalm_image_update(dense.copy(), system, w, y, d_a, ZeroReg(), wls_cfg(50))
    assert np.max(np.abs(x - dense)) <= 1e-8


def test_os_lalm_one_step_matches_hand_transcription():
    # straight-line transcription of the five-line recursion, M=1, one step
    geom = SystemGeometry("parallel", n_detectors=3, n_views=4, detector_spacing=1.0,
                          angular_range=np.pi, image_dims=(2, 2), pixel_spacing=(1.0, 1.0))
    a = dense_system(geom)
    rng = np.random.default_rng(9)
    w = rng.random(a.shape[0]) + 0.2
    y = rng.random(a.shape[0])
    x0 = rng.uniform(0, 0.08, 4)
    alpha, x_max = 1.999, 0.1

    d_a = a.T @ (w * (a @ np.ones(4)))
    zeta = a.T @ (w * (a @ x0 - y))
    g = zeta.copy()
    eta = d_a * x0 - zeta
    rho = 1.0
    s = rho * (d_a * x0 - eta) + (1 - rho) * g
    x1 = np.clip(x0 - s / (rho * d_a), 0.0, x_max)

    system = SubsetSystem(geom, 1)
    cfg = ReconConfig(beta=0.0, gamma_c=1.0, n_outer=1, n_inner=1, n_subsets=1,
                      alpha=alpha, x_max=x_max, patch=PatchConfig(1, 1))
    got = os_lalm_image_update(x0.copy(), system, w, y, system.gram_diag(w),
                               ZeroReg(), cfg)
    assert np.max(np.abs(got - x1)) <= 1e-14


def test_os_lalm_aborts_on_nonfinite():
    geom = small_parallel(4, 4, 6, 4)
    system = SubsetSystem(geom, 1)
    w = np.ones(geom.n_rays)
    y = np.full(geom.n_rays, np.nan)
    d_a = system.gram_diag(w)
    with pytest.raises(NumericalError) as err:
        os_lalm_image_update(np.zeros(geom.n_pixels), system, w, y, d_a,
                             ZeroReg(), wls_cfg(1))
    # zeta and g are NaN from the start; s = rho (d_a x - eta) + 0 g is the
    # first iterate of step 0 to read them
    assert (err.value.quantity, err.value.step) == ("s", 0)


def test_os_lalm_reports_nonfinite_regularizer_gradient_as_x():
    class NanReg:
        diag = 1.0

        def grad(self, x):
            return np.full_like(x, np.nan)

    geom = small_parallel(4, 4, 6, 4)
    system = SubsetSystem(geom, 1)
    w = np.ones(geom.n_rays)
    y = np.zeros(geom.n_rays)
    with pytest.raises(NumericalError) as err:
        os_lalm_image_update(np.zeros(geom.n_pixels), system, w, y, system.gram_diag(w),
                             NanReg(), wls_cfg(1))
    assert (err.value.quantity, err.value.step) == ("x", 0)


def _os_lalm_reference(x0, system, w, y_tilde, d_a, reg, cfg, passes):
    """The relaxed OS-LALM loop written with one fresh array per operation."""
    m = system.m
    d_r = reg.diag
    x = np.clip(x0, 0.0, cfg.x_max)
    zeta = system.subset_gradient(system.order[-1], x, w, y_tilde)
    g = zeta.copy()
    eta = d_a * x - zeta
    for t in range(passes * m):
        rho = rho_schedule(t, cfg.alpha)
        s = rho * (d_a * x - eta) + (1.0 - rho) * g
        denom = rho * d_a + d_r
        step = (s + reg.grad(x)) / np.where(denom > 0, denom, 1.0)
        x = np.clip(x - np.where(denom > 0, step, 0.0), 0.0, cfg.x_max)
        zeta = system.subset_gradient(system.order[t % m], x, w, y_tilde)
        g = (rho / (rho + 1.0)) * (cfg.alpha * zeta + (1.0 - cfg.alpha) * g) \
            + g / (rho + 1.0)
        eta = cfg.alpha * (d_a * x - zeta) + (1.0 - cfg.alpha) * eta
    return x


@pytest.mark.parametrize("kind", ["lange", "hyperbola"])
def test_os_lalm_matches_reference_loop_bitwise(kind):
    geom = small_parallel(9, 7, 11, 20)
    system = SubsetSystem(geom, 3)
    rng = np.random.default_rng(21)
    w = rng.uniform(0.2, 2.0, geom.n_rays)
    w[:geom.n_detectors] = 0.0  # one view carries no weight
    y = rng.uniform(0.0, 0.4, geom.n_rays)
    kappa = compute_kappa(geom, w).reshape(-1)
    ep = EpParams(beta_ep=0.7, delta=0.004, potential_kind=kind, iters=2)
    cfg = ReconConfig(beta=0.0, gamma_c=1.0, n_outer=1, n_inner=2, n_subsets=3,
                      x_max=0.05, patch=PatchConfig(1, 1), ep=ep)
    reg = EdgePreservingReg(kappa, ep, geom.image_dims)
    d_a = system.gram_diag(w)
    x0 = rng.uniform(-0.01, 0.06, geom.n_pixels)  # leaves the box on both sides
    want = _os_lalm_reference(x0, system, w, y, d_a, reg, cfg, passes=2)
    got = os_lalm_image_update(x0, system, w, y, d_a, reg, cfg)
    assert got.tobytes() == want.tobytes()
    # a zero data diagonal and no regularizer freezes those pixels
    d_a0 = d_a.copy()
    d_a0[::5] = 0.0
    want = _os_lalm_reference(x0, system, w, y, d_a0, ZeroReg(), cfg, passes=2)
    got = os_lalm_image_update(x0, system, w, y, d_a0, ZeroReg(), cfg)
    assert got.tobytes() == want.tobytes()
    assert np.array_equal(got[::5], np.clip(x0[::5], 0.0, cfg.x_max))


# M = 3 and 12 do not divide 20 views; 12 does not divide 18 either; the
# square parallel geometry maps 13 of its 20 views by the image's symmetries
@pytest.mark.parametrize("geom", [small_parallel(6, 7, 9, 20), small_fan(7, 6, 11, 18),
                                  small_parallel(7, 7, 9, 20)],
                         ids=["parallel", "fan", "symmetric"])
@pytest.mark.parametrize("m", [1, 3, 12])
def test_subset_gradient_matches_gathered_block_bitwise(geom, m):
    system = SubsetSystem(geom, m)
    a = system_matrix(geom)
    dense = dense_system(geom)
    rng = np.random.default_rng(m)
    x = rng.uniform(0.0, 0.05, geom.n_pixels)
    w = rng.uniform(0.0, 2.0, geom.n_rays)
    y = rng.uniform(0.0, 3.0, geom.n_rays)
    nd = geom.n_detectors
    for s in range(m):
        views = np.arange(s, geom.n_views, m)
        rays = (views[:, None] * nd + np.arange(nd)).reshape(-1)
        block = system.sub[s]
        assert system.sub[s] is block  # built once, then memoized
        assert np.array_equal(block.toarray(), dense[rays])
        # the pass reads a mapped view's detectors in reverse
        order = np.arange(rays.size).reshape(-1, nd)
        order[a.view_kind[views] > 0] = order[a.view_kind[views] > 0, ::-1]
        a_s, rays = block[order.reshape(-1)], rays[order.reshape(-1)]
        want = m * (a_s.T @ (w[rays] * (a_s @ x - y[rays])))
        assert system.subset_gradient(s, x, w, y).tobytes() == want.tobytes()
        # subset s reads the weights and targets of its own views only
        others = np.ones(geom.n_rays, dtype=bool)
        others[rays] = False
        w_nan, y_nan = np.where(others, np.nan, w), np.where(others, np.nan, y)
        assert system.subset_gradient(s, x, w_nan, y_nan).tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="x has shape"):
        system.subset_gradient(0, x[:-1], w, y)


def test_subset_gradient_rejects_wrong_lengths():
    # 20 views, M = 3: a vector one view short still covers subset 0's views
    geom = small_parallel(6, 7, 9, 20)
    system = SubsetSystem(geom, 3)
    x = np.full(geom.n_pixels, 0.01)
    ok = np.ones(geom.n_rays)
    nd = geom.n_detectors
    for bad in (np.ones(geom.n_rays - nd), np.ones(geom.n_rays + nd), np.ones(geom.n_rays - 1)):
        for s in range(3):
            with pytest.raises(ValueError, match=rf"w has shape .*expected \({geom.n_rays},\)"):
                system.subset_gradient(s, x, bad, ok)
            with pytest.raises(ValueError,
                               match=rf"y_tilde has shape .*expected \({geom.n_rays},\)"):
                system.subset_gradient(s, x, ok, bad)


def test_subset_system_holds_no_matrix_copy():
    geom = SystemGeometry("parallel", n_detectors=160, n_views=360, detector_spacing=2.2,
                          angular_range=np.pi, image_dims=(128, 128),
                          pixel_spacing=(2.7, 2.7))
    a = system_matrix(geom)
    size = a.data.nbytes + a.indices.nbytes + a.indptr.nbytes
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        system = SubsetSystem(geom, 12)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert system.matrix is a
    assert held < 0.05 * size, f"SubsetSystem holds {held / size:.3f}x the matrix"


def test_pwls_ep_leaves_subset_blocks_unbuilt(monkeypatch):
    systems = []
    init = SubsetSystem.__init__

    def record(self, *args):
        init(self, *args)
        systems.append(self)

    monkeypatch.setattr(SubsetSystem, "__init__", record)
    geom = small_parallel(6, 6, 9, 12)
    w = np.ones(geom.n_rays)
    l = np.full(geom.n_rays, 0.1)
    cfg = ReconConfig(beta=0.0, gamma_c=1.0, n_outer=1, n_inner=1, n_subsets=4,
                      x_max=0.1, patch=PatchConfig(1, 1),
                      ep=EpParams(beta_ep=1.0, delta=0.01, iters=2))
    pwls_ep_reconstruct(l, w, geom, cfg, np.zeros((6, 6)))
    assert len(systems) == 1
    assert len(systems[0].sub) == 0


def test_ep_potentials():
    delta = 2.0
    assert ep_potential(0.0, delta, "lange") == 0.0
    assert ep_potential(0.0, delta, "hyperbola") == 0.0
    assert ep_potential_dot(0.0, delta, "lange") == 0.0
    assert ep_potential_dot(0.0, delta, "hyperbola") == 0.0
    # hyperbola at t = delta: delta^2 (sqrt(2) - 1)
    assert ep_potential(delta, delta, "hyperbola") == pytest.approx(
        delta ** 2 * (np.sqrt(2) - 1), rel=1e-14)
    # curvature bounded by 1 after the delta^2 scaling
    t = np.linspace(-10, 10, 2001)
    for kind in ("lange", "hyperbola"):
        d = np.gradient(ep_potential_dot(t, delta, kind), t)
        assert np.max(d) <= 1.0 + 1e-3


def test_ep_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    dims = (5, 5)
    kappa = rng.uniform(0.5, 2.0, dims).reshape(-1)
    ep = EpParams(beta_ep=1.4, delta=0.3, potential_kind="lange", iters=5)
    reg = EdgePreservingReg(kappa, ep, dims)
    x = rng.standard_normal(25) * 0.4
    g = reg.grad(x)
    for idx in rng.integers(0, 25, 10):
        e = np.zeros(25)
        e[idx] = 1.0
        eps = 1e-6
        fd = (reg.value(x + eps * e) - reg.value(x - eps * e)) / (2 * eps)
        assert g[idx] == pytest.approx(fd, rel=1e-6, abs=1e-10)


@pytest.mark.parametrize("kind", ["lange", "hyperbola"])
def test_ep_gradient_matches_eight_offset_sum_bitwise(kind):
    rng = np.random.default_rng(17)
    dims = (6, 9)
    kappa = rng.uniform(0.0, 2.0, dims)
    kappa[0, :] = 0.0
    kappa[2:4, 5:] = 0.0
    x = rng.uniform(0.0, 0.05, dims)
    x[3:, :4] = 0.02  # equal neighbours: zero differences
    ep = EpParams(beta_ep=1.7, delta=0.003, potential_kind=kind, iters=5)
    rows, cols = dims
    want = np.zeros(dims)
    for di, dj in [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]:
        c = (slice(max(0, -di), rows - max(0, di)), slice(max(0, -dj), cols - max(0, dj)))
        nb = (slice(max(0, di), rows - max(0, -di)), slice(max(0, dj), cols - max(0, -dj)))
        want[c] += 2.0 * kappa[c] * kappa[nb] * ep_potential_dot(x[c] - x[nb], ep.delta, kind)
    want = ep.beta_ep * want.reshape(-1)
    got = EdgePreservingReg(kappa.reshape(-1), ep, dims).grad(x.reshape(-1))
    assert got.tobytes() == want.tobytes()


def test_ep_diag_dominates_hessian_quadratic_form():
    # the bare Hessian diagonal (2 beta sum kappa_j kappa_k) underestimates:
    # the paired bound with factor 4 is required for a true majorizer
    rng = np.random.default_rng(8)
    dims = (4, 4)
    kappa = np.ones(16)
    ep = EpParams(beta_ep=1.0, delta=10.0, potential_kind="hyperbola", iters=5)
    reg = EdgePreservingReg(kappa, ep, dims)
    # near the origin the potential is quadratic with curvature ~1; compare
    # d^T D d against the true quadratic form via finite differences of grad
    for _ in range(20):
        d = rng.standard_normal(16)
        eps = 1e-6
        hd = (reg.grad(eps * d) - reg.grad(-eps * d)) / (2 * eps)
        assert d @ (reg.diag * d) >= d @ hd - 1e-6


def test_pwls_ep_reduces_to_wls_when_beta_zero():
    geom = SystemGeometry("parallel", n_detectors=6, n_views=8, detector_spacing=1.0,
                          angular_range=np.pi, image_dims=(3, 3), pixel_spacing=(1.0, 1.0))
    a = dense_system(geom)
    rng = np.random.default_rng(13)
    x_true = rng.uniform(0.01, 0.05, 9)
    l = a @ x_true
    w = np.ones(geom.n_rays)
    cfg = ReconConfig(beta=0.0, gamma_c=1.0, n_outer=1, n_inner=4000, n_subsets=1,
                      x_max=0.1, patch=PatchConfig(1, 1),
                      ep=EpParams(beta_ep=0.0, delta=0.01, iters=4000))
    x0 = np.zeros((3, 3))
    img = pwls_ep_reconstruct(l, w, geom, cfg, x0)
    dense = np.linalg.lstsq(a, l, rcond=None)[0]
    assert np.max(np.abs(img.reshape(-1) - dense)) <= 1e-5


def test_fbp_zero_and_linearity():
    geom = small_parallel(16, 16, 24, 20)
    zero = np.zeros((geom.n_views, geom.n_detectors))
    assert np.all(fbp_reconstruct(zero, geom) == 0)
    rng = np.random.default_rng(2)
    sino = rng.random((geom.n_views, geom.n_detectors))
    a = fbp_reconstruct(sino, geom)
    b = fbp_reconstruct(2.5 * sino, geom)
    assert np.allclose(b, 2.5 * a, rtol=1e-12, atol=1e-15)


def test_fbp_disk_center_accuracy():
    geom = SystemGeometry("parallel", n_detectors=192, n_views=180, detector_spacing=1.0,
                          angular_range=np.pi, image_dims=(128, 128),
                          pixel_spacing=(1.0, 1.0))
    truth = make_phantom((Ellipse(0, 0, 50, 50, 0, 0.02),), geom.image_dims)
    sino = forward_project(truth, geom)
    rec = fbp_reconstruct(sino, geom)
    center = rec[64, 64]
    assert abs(center - 0.02) / 0.02 <= 0.02


def test_fbp_rejects_a_sinogram_of_another_shape():
    geom = small_parallel(16, 16, 24, 20)
    with pytest.raises(ConfigurationError, match="sinogram shape"):
        fbp_reconstruct(np.zeros((geom.n_views, geom.n_detectors + 1)), geom)
    with pytest.raises(ConfigurationError, match="sinogram shape"):
        fbp_reconstruct(np.zeros(geom.n_rays), geom)


def test_fbp_rejects_fan():
    geom = SystemGeometry("fan", n_detectors=8, n_views=8, detector_spacing=1.0,
                          angular_range=2 * np.pi, image_dims=(4, 4),
                          pixel_spacing=(1.0, 1.0), source_to_iso=20.0,
                          source_to_detector=40.0)
    with pytest.raises(ConfigurationError):
        fbp_reconstruct(np.zeros((8, 8)), geom)


def _tiny_setup(seed=0, i0=2000.0):
    geom = small_parallel(rows=16, cols=16, n_det=24, n_views=18)
    model = SpModel(i0=i0, sigma2=25.0)
    truth = make_phantom((Ellipse(0, 0, 7, 7, 0, 0.02), Ellipse(2, 1, 3, 2, 0.4, 0.035)),
                         geom.image_dims)
    sino = simulate_prelog(truth, model, geom, seed)
    union = TransformUnion(initial_transform(16)[None, :, :])
    cfg = ReconConfig(beta=5.0, gamma_c=1e-3, n_outer=6, n_inner=2, n_subsets=2,
                      x_max=0.1, patch=PatchConfig(4, 2))
    return geom, model, truth, sino, union, cfg


def test_images_are_float64_arrays_of_image_dims():
    geom, model, truth, sino, union, cfg = _tiny_setup()
    cfg = dataclasses.replace(cfg, n_outer=1, ep=EpParams(beta_ep=1.0, delta=0.01, iters=1))
    l_t, w_t = post_log_convert(sino.ravel(), model)
    x0 = np.full(geom.image_dims, 0.015)
    images = {
        "make_phantom": truth,
        "back_project": back_project(sino, geom),
        "fbp_reconstruct": fbp_reconstruct(l_t.reshape(sino.shape), geom),
        "pwls_ep_reconstruct": pwls_ep_reconstruct(l_t, w_t, geom, cfg, x0),
        "spultra_reconstruct": spultra_reconstruct(sino, model, union, geom, cfg, x0)[0],
        "weighted_gram_diag": weighted_gram_diag(geom, w_t),
        "compute_kappa": compute_kappa(geom, w_t),
        "to_hu": to_hu(truth),
    }
    for name, img in images.items():
        assert type(img) is np.ndarray and img.dtype == np.float64, name
        assert img.shape == geom.image_dims, name


@pytest.mark.parametrize("reg", ["ultra", "ep"])
def test_majorizer_overflow_is_a_configuration_error(reg):
    geom, model, truth, sino, union, cfg = _tiny_setup()
    if reg == "ep":
        ep = EpParams(beta_ep=1e308, delta=0.01)
        with pytest.raises(ConfigurationError, match=r"^recon\.beta_ep: 1e\+308 makes "):
            EdgePreservingReg(np.ones(geom.n_pixels), ep, geom.image_dims)
        return
    tau = np.ones(cfg.patch.n_patches(geom.image_dims))
    state = sparse_code_and_cluster(truth, union, cfg.gamma_c, tau, cfg.patch)
    with pytest.raises(ConfigurationError, match=r"^recon\.beta: 1e\+308 makes "):
        UltraQuadReg(union, state, 1e308, cfg.patch, geom.image_dims)


def test_spultra_zero_outer_returns_x0():
    geom, model, truth, sino, union, cfg = _tiny_setup()
    cfg0 = ReconConfig(beta=cfg.beta, gamma_c=cfg.gamma_c, n_outer=0,
                       n_inner=cfg.n_inner, n_subsets=cfg.n_subsets,
                       x_max=cfg.x_max, patch=cfg.patch)
    x0 = np.full((16, 16), 0.01)
    img, trace = spultra_reconstruct(sino, model, union, geom, cfg0, x0)
    assert np.array_equal(img, x0)
    assert len(trace.columns["iter"]) == 1

    l_t, w_t = post_log_convert(sino.ravel(), model)
    img2, trace2 = pwls_ultra_reconstruct(l_t, w_t, union, geom, cfg0, x0)
    assert np.array_equal(img2, x0)


def test_spultra_monotone_objective_and_box():
    geom, model, truth, sino, union, cfg = _tiny_setup()
    x0 = np.full((16, 16), 0.015)
    img, trace = spultra_reconstruct(sino, model, union, geom, cfg, x0, truth=truth)
    obj = np.array(trace.columns["objective"])
    assert np.all(np.diff(obj) <= 1e-6 * np.abs(obj[:-1]))
    # the coding step never increases the objective, bit for bit
    pre = trace.columns["objective_pre_coding"]
    assert pre[0] is None
    assert np.all(obj[1:] <= np.array(pre[1:]))
    assert img.min() >= 0 and img.max() <= cfg.x_max
    rmse = trace.columns["rmse_vs_truth"]
    assert len(rmse) == len(obj) and rmse[1] is not None


@pytest.mark.parametrize("method", ["spultra", "pwls-ultra"])
def test_trace_records_clustering_diagnostics(tmp_path, method):
    geom, model, truth, sino, union, cfg = _tiny_setup(seed=3)
    x0 = np.full((16, 16), 0.015)
    if method == "spultra":
        _, trace = spultra_reconstruct(sino, model, union, geom, cfg, x0)
    else:
        l_t, w_t = post_log_convert(sino.ravel(), model)
        _, trace = pwls_ultra_reconstruct(l_t, w_t, union, geom, cfg, x0)
    n_patches = cfg.patch.n_patches(geom.image_dims)
    changed, nonzero = trace.columns["labels_changed"], trace.columns["nonzero_frac"]
    assert changed[0] is None and nonzero[0] is None
    assert len(changed) == len(nonzero) == cfg.n_outer + 1
    assert all(isinstance(c, int) and 0 <= c <= n_patches for c in changed[1:])
    assert all(0.0 <= f <= 1.0 for f in nonzero[1:])
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    rows = path.read_text().strip().splitlines()
    assert rows[1].endswith(",,,")
    last = rows[-1].split(",")
    assert int(last[-3]) == changed[-1]
    assert float(last[-2]) == nonzero[-1]


def test_pwls_ultra_monotone_objective():
    geom, model, truth, sino, union, cfg = _tiny_setup(seed=4)
    l_t, w_t = post_log_convert(sino.ravel(), model)
    x0 = np.full((16, 16), 0.015)
    img, trace = pwls_ultra_reconstruct(l_t, w_t, union, geom, cfg, x0)
    obj = np.array(trace.columns["objective"])
    assert np.all(np.diff(obj) <= 1e-6 * np.abs(obj[:-1]))
    pre = trace.columns["objective_pre_coding"]
    assert pre[0] is None
    assert np.all(obj[1:] <= np.array(pre[1:]))


def test_pwls_ultra_beta_zero_is_constrained_wls():
    geom = SystemGeometry("parallel", n_detectors=6, n_views=8, detector_spacing=1.0,
                          angular_range=np.pi, image_dims=(3, 3), pixel_spacing=(1.0, 1.0))
    a = dense_system(geom)
    rng = np.random.default_rng(17)
    x_true = rng.uniform(0.01, 0.06, 9)
    l = a @ x_true
    w = np.ones(geom.n_rays)
    union = TransformUnion(initial_transform(4)[None, :, :])
    cfg = ReconConfig(beta=0.0, gamma_c=1e-3, n_outer=1, n_inner=4000, n_subsets=1,
                      x_max=0.1, patch=PatchConfig(2, 1))
    x0 = np.zeros((3, 3))
    img, _ = pwls_ultra_reconstruct(l, w, union, geom, cfg, x0)
    dense = np.linalg.lstsq(a, l, rcond=None)[0]
    assert np.max(np.abs(img.reshape(-1) - dense)) <= 1e-5


def test_noiseless_consistent_recovery():
    # with identical settings and exact data both methods reach a small
    # error on a piecewise-constant phantom
    geom = small_parallel(rows=32, cols=32, n_det=48, n_views=40)
    model = SpModel(i0=1e6, sigma2=0.0)
    truth = make_phantom((Ellipse(0, 0, 14, 14, 0, 0.02), Ellipse(-4, 3, 5, 4, 0.2, 0.03)),
                         geom.image_dims)
    sino = simulate_prelog(truth, model, geom, 0, deterministic=True)
    union = TransformUnion(initial_transform(16)[None, :, :])
    cfg = ReconConfig(beta=1e-6, gamma_c=5e-5, n_outer=120, n_inner=10, n_subsets=4,
                      x_max=0.1, patch=PatchConfig(4, 1))
    x0 = np.full((32, 32), 0.01)
    img_sp, _ = spultra_reconstruct(sino, model, union, geom, cfg, x0)
    l_t, w_t = post_log_convert(sino.ravel(), model)
    img_pw, _ = pwls_ultra_reconstruct(l_t, w_t, union, geom, cfg, x0)
    hu = 1000.0 / 0.02
    rmse_sp = np.sqrt(np.mean((img_sp - truth) ** 2)) * hu
    rmse_pw = np.sqrt(np.mean((img_pw - truth) ** 2)) * hu
    assert rmse_sp <= 1.0
    assert rmse_pw <= 1.0


def test_majorizer_sandwich_across_outer_iteration():
    # the dropped-constant relation: L(x_next) <= 0.5||y~ - A x_next||_W^2 + Qc
    # where Qc = L(x_n) - 0.5 ||d_h||^2_{W^{-1}}
    from spultra.spstats import build_surrogate
    geom, model, truth, sino, union, cfg = _tiny_setup(seed=6)
    counts = np.maximum(sino.ravel() + model.sigma2, 0.0)
    a = system_matrix(geom)
    rng = np.random.default_rng(1)
    x_n = np.clip(truth.reshape(-1) + rng.normal(0, 0.004, geom.n_pixels), 0, 0.1)
    img_n = x_n.reshape(geom.image_dims)
    surr = build_surrogate(img_n, counts, model, geom)
    q_c = neg_log_likelihood(surr.l_n, counts, model) \
        - 0.5 * float(np.sum(surr.d_h ** 2 / surr.w))
    for _ in range(5):
        x_next = np.clip(x_n + rng.normal(0, 0.002, geom.n_pixels), 0, 0.1)
        r = surr.y_tilde - a @ x_next
        phi = 0.5 * float(np.sum(surr.w * r * r))
        lhs = neg_log_likelihood(a @ x_next, counts, model)
        assert lhs <= phi + q_c + 1e-7 * (1 + abs(lhs))


def objective_value(x: np.ndarray, state: SparseState, y_raw: np.ndarray, model: SpModel,
                    union: TransformUnion, cfg: ReconConfig, geom: SystemGeometry) -> float:
    """Reference penalized-likelihood objective, formed independently of the
    solver's bookkeeping: shifted-Poisson data term plus regularizer."""
    counts = np.maximum(y_raw.ravel() + model.sigma2, 0.0)
    l = forward_project(x, geom).ravel()
    data = neg_log_likelihood(l, counts, model)
    return data + regularizer_value(x, state, union, cfg.beta, cfg.gamma_c, cfg.patch)


def test_objective_value_beta_zero_and_additivity():
    geom, model, truth, sino, union, cfg = _tiny_setup(seed=2)
    x = np.clip(truth, 0, 0.1)
    counts = np.maximum(sino.ravel() + model.sigma2, 0.0)
    l_t, w_t = post_log_convert(sino.ravel(), model)
    tau = patch_weights(compute_kappa(geom, w_t), cfg.patch)
    state = sparse_code_and_cluster(x, union, cfg.gamma_c, tau, cfg.patch)

    cfg0 = ReconConfig(beta=0.0, gamma_c=cfg.gamma_c, n_outer=1, patch=cfg.patch)
    g0 = objective_value(x, state, sino, model, union, cfg0, geom)
    l = forward_project(x, geom).ravel()
    assert g0 == pytest.approx(neg_log_likelihood(l, counts, model), rel=1e-14)

    g1 = objective_value(x, state, sino, model, union, cfg, geom)
    cfg2 = ReconConfig(beta=2 * cfg.beta, gamma_c=cfg.gamma_c, n_outer=1, patch=cfg.patch)
    g2 = objective_value(x, state, sino, model, union, cfg2, geom)
    # differences of large objective values carry cancellation noise ~eps*|G|
    assert g2 - g1 == pytest.approx(g1 - g0, abs=1e-12 * abs(g1))


def test_objective_lower_bound():
    rng = np.random.default_rng(3)
    geom, model, truth, sino, union, cfg = _tiny_setup(seed=8)
    counts = np.maximum(sino.ravel() + model.sigma2, 0.0)
    bound = geom.n_rays * model.sigma2 - counts.sum() * np.log(model.i0 + model.sigma2)
    l_t, w_t = post_log_convert(sino.ravel(), model)
    tau = patch_weights(compute_kappa(geom, w_t), cfg.patch)
    for _ in range(10):
        x = rng.uniform(0, 0.1, geom.image_dims)
        state = sparse_code_and_cluster(x, union, cfg.gamma_c, tau, cfg.patch)
        g = objective_value(x, state, sino, model, union, cfg, geom)
        assert g >= bound - 1e-9 * abs(bound)


def test_trace_csv_round_trip(tmp_path):
    trace = ConvergenceTrace()
    trace.append(iter=0, objective=10.0, data_term=8.0, reg_term=2.0)
    trace.append(iter=1, objective=9.0, data_term=7.5, reg_term=1.5, step_norm=0.3,
                 rmse_vs_truth=41.0, wall_ms=12.5, labels_changed=7, nonzero_frac=0.25,
                 objective_pre_coding=9.5)
    assert trace.columns["objective_pre_coding"] == [None, 9.5]
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ("iter,objective,data_term,reg_term,step_norm,rmse_vs_truth,wall_ms,"
                        "labels_changed,nonzero_frac,objective_pre_coding")
    assert tuple(lines[0].split(",")) == TRACE_COLUMNS
    assert lines[1].startswith("0,10,8,2,,")
    assert lines[1].endswith(",,,")
    assert lines[2].endswith(",12.5,7,0.25,9.5")
    assert len(lines) == 3


def test_trace_rejects_an_unknown_column():
    trace = ConvergenceTrace()
    with pytest.raises(ValueError, match="unknown trace columns \\['wal_ms'\\]"):
        trace.append(iter=0, objective=1.0, wal_ms=3.0)
    assert all(col == [] for col in trace.columns.values())


@pytest.mark.parametrize("method", ["spultra", "pwls-ultra"])
def test_ultra_abort_carries_partial_trace(monkeypatch, method):
    geom, model, truth, sino, union, cfg = _tiny_setup(seed=5)
    real = SubsetSystem.subset_gradient
    calls = []

    def poisoned(self, s, x, w, y_tilde):
        calls.append(s)
        out = real(self, s, x, w, y_tilde)
        # the first outer iteration completes; the second one hits NaN
        return np.full_like(out, np.nan) if len(calls) > 6 else out

    monkeypatch.setattr(SubsetSystem, "subset_gradient", poisoned)
    x0 = np.full((16, 16), 0.015)
    with pytest.raises(NumericalError) as err:
        if method == "spultra":
            spultra_reconstruct(sino, model, union, geom, cfg, x0)
        else:
            l_t, w_t = post_log_convert(sino.ravel(), model)
            pwls_ultra_reconstruct(l_t, w_t, union, geom, cfg, x0)
    trace = err.value.trace
    assert trace.columns["iter"] == [0, 1]


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("n_outer", [1, 3])
@pytest.mark.parametrize("method", ["spultra", "pwls-ultra"])
def test_ultra_reconstruction_keeps_one_regularizer(monkeypatch, method, n_outer, stride):
    geom, model, truth, sino, union, cfg = _tiny_setup(seed=6)
    cfg = dataclasses.replace(cfg, n_outer=n_outer, patch=PatchConfig(4, stride))
    events = []
    real_init, real_update = UltraQuadReg.__init__, UltraQuadReg.update
    real_diag = recon.regularizer_majorizer_diag

    def init(self, *args):
        real_init(self, *args)
        events.append("made")

    def update(self, state):
        events.append("update")
        real_update(self, state)

    def diag(*args):
        events.append("diag")
        return real_diag(*args)

    monkeypatch.setattr(UltraQuadReg, "__init__", init)
    monkeypatch.setattr(UltraQuadReg, "update", update)
    monkeypatch.setattr(recon, "regularizer_majorizer_diag", diag)
    x0 = np.full((16, 16), 0.015)
    if method == "spultra":
        spultra_reconstruct(sino, model, union, geom, cfg, x0)
    else:
        l_t, w_t = post_log_convert(sino.ravel(), model)
        pwls_ultra_reconstruct(l_t, w_t, union, geom, cfg, x0)
    # one regularizer whose constructor computes the majorizer and forms H,
    # then one update per later outer iteration: N builds of H in all
    assert events == ["diag", "update", "made"] + ["update"] * (n_outer - 1)


def test_spultra_initial_objective_is_reference_objective():
    geom, model, truth, sino, union, cfg = _tiny_setup(seed=3)
    cfg0 = ReconConfig(beta=cfg.beta, gamma_c=cfg.gamma_c, n_outer=0,
                       n_inner=cfg.n_inner, n_subsets=cfg.n_subsets,
                       x_max=cfg.x_max, patch=cfg.patch)
    # x0 leaves the box on both sides, so the start point is the clipped image
    x0 = truth * 6.0 - 0.02
    _, trace = spultra_reconstruct(sino, model, union, geom, cfg0, x0)

    _, w_t = post_log_convert(sino.ravel(), model)
    tau = patch_weights(compute_kappa(geom, w_t), cfg.patch)
    x = np.clip(x0, 0.0, cfg.x_max)
    state = sparse_code_and_cluster(x, union, cfg.gamma_c, tau, cfg.patch)
    assert trace.columns["objective"][0] == objective_value(x, state, sino, model, union,
                                                             cfg, geom)


def _random_reg_problem(rng, k, side, stride, dims):
    """Well-conditioned transforms, random codes, labels, weights and image."""
    v = side * side
    union = TransformUnion(np.stack([np.eye(v) * 2 + 0.3 * rng.standard_normal((v, v))
                                     for _ in range(k)]))
    patch = PatchConfig(side, stride)
    n = patch.n_patches(dims)
    state = SparseState(z=rng.standard_normal((v, n)), labels=rng.integers(0, k, n),
                        tau=rng.uniform(0.2, 2.0, n))
    return union, patch, state, rng.standard_normal(dims[0] * dims[1])


def _patch_gradient(union, state, beta, patch, dims, x):
    """Reference: 2 beta sum_j tau_j P_j^T O_kj^T (O_kj P_j x - z_j), class by class."""
    p = extract_patches(x.reshape(dims), patch)
    out = np.zeros_like(p)
    for k in range(union.k):
        sel = state.labels == k
        om = union.transforms[k]
        out[:, sel] = om.T @ (om @ p[:, sel] - state.z[:, sel])
    return 2.0 * beta * accumulate_patches(out * state.tau, dims, patch).reshape(-1)


@settings(deadline=None, max_examples=80)
@given(side=st.integers(1, 5), k=st.integers(1, 4), extra_rows=st.integers(0, 9),
       extra_cols=st.integers(0, 9), seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_banded_gradient_matches_patch_gradient(side, k, extra_rows, extra_cols, seed, data):
    # images down to one patch side per axis, so flat band offsets can coincide;
    # stride 1 runs the banded H, strides 2..side the per-class patch products
    stride = data.draw(st.integers(1, side), label="stride")
    dims = (side + extra_rows, side + extra_cols)
    rng = np.random.default_rng(seed)
    union, patch, state, x = _random_reg_problem(rng, k, side, stride, dims)
    reg = UltraQuadReg(union, state, 1.7, patch, dims)
    got = reg.grad(x)
    ref = _patch_gradient(union, state, 1.7, patch, dims, x)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    # an update for other labels, weights and codes leaves nothing stale behind
    n = patch.n_patches(dims)
    state2 = SparseState(z=rng.standard_normal((patch.v, n)), labels=rng.integers(0, k, n),
                         tau=rng.uniform(0.2, 2.0, n))
    reg.update(state2)
    fresh = UltraQuadReg(union, state2, 1.7, patch, dims)
    updated = reg.grad(x)
    assert np.array_equal(updated, fresh.grad(x))
    ref2 = _patch_gradient(union, state2, 1.7, patch, dims, x)
    assert np.max(np.abs(updated - ref2)) <= 1e-12 * np.max(np.abs(ref2))
    if stride == 1:
        # the banded multiply never reads the heads of the positive offsets'
        # rows, so compare the storage too: they stay zero
        assert np.array_equal(reg.h.data, fresh.h.data)
        for i, o in enumerate(reg.h.offsets[reg.m + 1:], start=1):
            assert not np.any(reg.h.data[reg.m + i, :o])


@pytest.mark.parametrize("stride", [1, 2, 3])
def test_banded_gradient_makes_no_patch_products(monkeypatch, stride):
    rng = np.random.default_rng(40 + stride)
    dims = (9, 10)
    union, patch, state, x = _random_reg_problem(rng, 2, 3, stride, dims)
    reg = UltraQuadReg(union, state, 1.1, patch, dims)
    calls = []

    def counted(*args):
        calls.append(args)
        return extract_patches(*args)

    monkeypatch.setattr("spultra.recon.extract_patches", counted)
    reg.grad(x)
    reg.grad(x)
    # the band is applied as one multiply; without it each gradient extracts once
    assert len(calls) == (0 if stride == 1 else 2)


@pytest.mark.parametrize("stride", [1, 2])
def test_regularizer_is_freed_without_the_cyclic_collector(stride):
    # one regularizer holds a reconstruction's band; a reference cycle would
    # keep it alive into the next reconstruction
    rng = np.random.default_rng(50 + stride)
    dims = (9, 10)
    union, patch, state, x = _random_reg_problem(rng, 2, 3, stride, dims)
    reg = UltraQuadReg(union, state, 1.1, patch, dims)
    reg.grad(x)
    refs = [weakref.ref(reg)]
    if stride == 1:  # the operator and the band it multiplies by in place
        refs += [weakref.ref(reg.h), weakref.ref(reg.h.data)]
    gc.disable()
    try:
        del reg
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        gc.enable()


@pytest.mark.parametrize("stride", [1, 2])
def test_regularizer_gradient_rejects_a_wrong_length(stride):
    rng = np.random.default_rng(60 + stride)
    dims = (9, 10)
    union, patch, state, x = _random_reg_problem(rng, 2, 3, stride, dims)
    reg = UltraQuadReg(union, state, 1.1, patch, dims)
    for bad in (x[:-1], np.append(x, 0.0)):
        with pytest.raises(ValueError):
            reg.grad(bad)


def test_stride2_gradient_matches_finite_differences():
    rng = np.random.default_rng(21)
    dims = (7, 8)
    union, patch, state, x = _random_reg_problem(rng, 3, 3, 2, dims)
    beta, gamma = 0.8, 0.5
    g = UltraQuadReg(union, state, beta, patch, dims).grad(x)

    def value(x_flat):
        return regularizer_value(x_flat.reshape(dims), state, union, beta,
                                 gamma, patch)

    eps = 1e-6
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = eps
        fd = (value(x + e) - value(x - e)) / (2 * eps)
        assert abs(g[i] - fd) <= 1e-6 * max(abs(fd), 1e-3), i
    # stride-2 patches leave the last column uncovered: zero gradient there
    assert np.all(g.reshape(dims)[:, -1] == 0.0)


@pytest.mark.parametrize("stride", [1, 2])
def test_ultra_gradient_zero_at_exact_codes(stride):
    rng = np.random.default_rng(30 + stride)
    dims = (9, 7)
    union, patch, state, x = _random_reg_problem(rng, 3, 3, stride, dims)
    p = extract_patches(x.reshape(dims), patch)
    for k in range(union.k):
        sel = state.labels == k
        state.z[:, sel] = union.transforms[k] @ p[:, sel]
    reg = UltraQuadReg(union, state, 1.3, patch, dims)
    scale = np.max(np.abs(_patch_gradient(union, state, 1.3, patch, dims, np.zeros_like(x))))
    assert np.max(np.abs(reg.grad(x))) <= 1e-12 * scale
