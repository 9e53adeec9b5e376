"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The two reconstruction
criteria share module-scoped runs; the full module takes about four
minutes on a 2-core machine.
"""

import itertools
import time
from pathlib import Path

import numpy as np
import pytest

from spultra.config import parse_config
from spultra.geometry import (SystemGeometry, back_project, compute_kappa, forward_project,
                              weighted_gram_diag)
from spultra.metrics import RoiMask, rmse_roi, ssim, to_hu
from spultra.pipeline import EXIT_OK, run_pipeline
from spultra.recon import (EpParams, ReconConfig, UltraQuadReg, fbp_reconstruct,
                           pwls_ep_reconstruct, pwls_ultra_reconstruct,
                           rho_schedule, spultra_reconstruct)
from spultra.sim import Ellipse, make_phantom, nonpositive_fraction, simulate_prelog
from spultra.spstats import (SpModel, SurrogateState, likelihood_gradient,
                             neg_log_likelihood, optimum_curvature,
                             post_log_convert, surrogate_gap)
from spultra.ultra import (PatchConfig, TransformUnion, extract_patches,
                           hard_threshold, learn_transforms, sparse_code_and_cluster)

from conftest import dense_system, small_fan, small_parallel
from test_metrics import brute_force_ssim


def _report(num, desc, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{tag} criterion {num}: {desc}{suffix}")
    assert ok, f"criterion {num}: {desc}{suffix}"


# ---------------------------------------------------------------- criterion 1

def test_criterion_01_adjoint_identity():
    t0 = time.perf_counter()
    ok = True
    for geom in (small_parallel(), small_fan()):
        rng = np.random.default_rng(101)
        for _ in range(20):
            x = rng.standard_normal(geom.n_pixels)
            y = rng.standard_normal(geom.n_rays)
            ax = forward_project(x.reshape(geom.image_dims), geom).ravel()
            aty = back_project(y.reshape(geom.n_views, geom.n_detectors),
                               geom).reshape(-1)
            ok &= abs(ax @ y - x @ aty) <= 1e-10 * np.linalg.norm(ax) * np.linalg.norm(y)
    elapsed = time.perf_counter() - t0
    _report(1, "adjoint identity on 20 random pairs", ok and elapsed < 1.0,
            f"{elapsed:.2f}s")


# ---------------------------------------------------------------- criterion 2

def test_criterion_02_dense_oracle_equivalence():
    t0 = time.perf_counter()
    ok = True
    for geom in (small_parallel(16, 16, 24, 14), small_fan(16, 16, 24, 14)):
        dense = dense_system(geom)  # N_p = 256
        rng = np.random.default_rng(22)
        x = rng.random(geom.n_pixels)
        w = rng.random(geom.n_rays)

        fwd = forward_project(x.reshape(geom.image_dims), geom).ravel()
        ok &= np.max(np.abs(fwd - dense @ x)) <= 1e-12 * max(1.0, np.abs(dense @ x).max())

        y = rng.random(geom.n_rays)
        bck = back_project(y.reshape(geom.n_views, geom.n_detectors),
                           geom).reshape(-1)
        expect = dense.T @ y
        ok &= np.max(np.abs(bck - expect)) <= 1e-12 * max(1.0, np.abs(expect).max())

        da = weighted_gram_diag(geom, w).reshape(-1)
        expect = dense.T @ (w * (dense @ np.ones(geom.n_pixels)))
        ok &= np.max(np.abs(da - expect)) <= 1e-12 * max(1.0, expect.max())

        kappa = compute_kappa(geom, w).reshape(-1)
        num = dense.T @ w
        den = dense.T @ np.ones(geom.n_rays)
        expect = np.where(den > 0, np.sqrt(np.where(den > 0, num / np.maximum(den, 1e-300), 0)), 0.0)
        ok &= np.max(np.abs(kappa - expect)) <= 1e-12 * max(1.0, expect.max())
    elapsed = time.perf_counter() - t0
    _report(2, "forward/back, weighted diagonal and kappa match dense oracle",
            ok and elapsed < 5.0, f"{elapsed:.2f}s")


# ---------------------------------------------------------------- criterion 3

def test_criterion_03_surrogate_majorization():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    grid = np.linspace(0.0, 10.0, 400)
    worst_gap = -np.inf
    worst_tangency = 0.0
    for _ in range(200):
        model = SpModel(i0=float(10 ** rng.uniform(2, 5)),
                        sigma2=float(rng.uniform(0, 100)))
        l_n = float(rng.uniform(0, 8))
        counts = float(rng.uniform(0, 1.5 * (model.i0 + model.sigma2)))
        w = optimum_curvature([l_n], [counts], model)
        d_h = likelihood_gradient([l_n], [counts], model)
        state = SurrogateState(w=w, d_h=d_h, y_tilde=np.array([l_n]) - d_h / w,
                               l_n=np.array([l_n]))
        worst_gap = max(worst_gap, surrogate_gap(state, [counts], model, grid))
        # tangency: the quadratic evaluated at its own expansion point
        h_n = neg_log_likelihood([l_n], [counts], model)
        gap_at_ln = surrogate_gap(state, [counts], model, [l_n])
        worst_tangency = max(worst_tangency, abs(gap_at_ln) / (1 + abs(h_n)))
    elapsed = time.perf_counter() - t0
    ok = worst_gap <= 1e-9 and worst_tangency <= 1e-9 and elapsed < 10.0
    _report(3, "optimum-curvature surrogates majorize on [0,10] grid", ok,
            f"max violation {worst_gap:.2e}, {elapsed:.2f}s")


# ---------------------------------------------------------------- criterion 4

def test_criterion_04_gradient_checks():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    ok = True
    for _ in range(20):
        model = SpModel(i0=float(rng.uniform(100, 5000)),
                        sigma2=float(rng.uniform(0, 50)),
                        s1=float(rng.uniform(0.8, 1.5)), s2=float(rng.uniform(0, 0.02)))
        l = float(rng.uniform(0.05, 6))
        counts = float(rng.uniform(0, 1.5 * model.i0))
        step = 1e-5 * (1 + abs(l))
        fd = (neg_log_likelihood([l + step], [counts], model)
              - neg_log_likelihood([l - step], [counts], model)) / (2 * step)
        got = likelihood_gradient([l], [counts], model)[0]
        ok &= abs(got - fd) <= 1e-6 * max(abs(fd), 1e-3)

    from spultra.ultra import TransformUnion as TU
    dims = (6, 6)
    cfg_patch = PatchConfig(2, 1)
    for trial in range(20):
        r2 = np.random.default_rng(trial)
        mats = np.stack([np.eye(4) * 2 + 0.3 * r2.standard_normal((4, 4))
                         for _ in range(2)])
        union = TU(mats)
        img = r2.standard_normal(dims)
        n = cfg_patch.n_patches(dims)
        tau = r2.uniform(0.2, 2.0, n)
        state = sparse_code_and_cluster(img, union, 0.6, tau, cfg_patch)
        beta = 1.2
        reg = UltraQuadReg(union, state, beta, cfg_patch, dims)
        g = reg.grad(img.reshape(-1)).reshape(dims)

        def quad(x):
            val = 0.0
            p = extract_patches(x, cfg_patch)
            for k in range(2):
                sel = state.labels == k
                if np.any(sel):
                    resid = union.transforms[k] @ p[:, sel] - state.z[:, sel]
                    val += float(np.sum(tau[sel] * np.einsum("ij,ij->j", resid, resid)))
            return beta * val

        i, j = r2.integers(0, dims[0]), r2.integers(0, dims[1])
        e = np.zeros(dims)
        e[i, j] = 1.0
        eps = 1e-6
        fd = (quad(img + eps * e) - quad(img - eps * e)) / (2 * eps)
        ok &= abs(g[i, j] - fd) <= 1e-6 * max(abs(fd), 1e-3)
    elapsed = time.perf_counter() - t0
    _report(4, "likelihood and regularizer gradients match finite differences",
            ok and elapsed < 10.0, f"{elapsed:.2f}s")


# ---------------------------------------------------------------- criterion 5

def test_criterion_05_rho_schedule():
    ok = rho_schedule(0, 1.999) == 1.0
    ok &= abs(rho_schedule(1, 1.999) - 0.72260) <= 1e-4
    rhos = [rho_schedule(t, 1.999) for t in range(1, 1001)]
    ok &= bool(np.all(np.diff(rhos) < 0))
    _report(5, "relaxation schedule values and monotonicity", ok)


# ---------------------------------------------------------------- criterion 6

def test_criterion_06_sparse_coding_exactness():
    t0 = time.perf_counter()
    ok = True

    def exhaustive(b, gamma):
        v = len(b)
        best = (np.inf, None)
        for r in range(v + 1):
            for support in itertools.combinations(range(v), r):
                z = np.zeros(v)
                z[list(support)] = b[list(support)]
                cost = float(np.sum((b - z) ** 2) + gamma ** 2 * r)
                if cost < best[0] - 1e-15:
                    best = (cost, z)
        return best

    # v = 4 through the full operator on an image of 100 disjoint patches
    rng = np.random.default_rng(606)
    k = 3
    gamma = 0.7
    mats4 = np.stack([np.eye(4) * 1.5 + 0.4 * rng.standard_normal((4, 4))
                      for _ in range(k)])
    union4 = TransformUnion(mats4)
    img = rng.standard_normal((20, 10))
    cfg4 = PatchConfig(2, 2)  # 10 x 5 = 50 disjoint patches
    patches = extract_patches(img, cfg4)
    state = sparse_code_and_cluster(img, union4, gamma, np.ones(patches.shape[1]), cfg4)
    for j in range(patches.shape[1]):
        costs, codes = [], []
        for kk in range(k):
            c, z = exhaustive(mats4[kk] @ patches[:, j], gamma)
            costs.append(c)
            codes.append(z)
        k_star = int(np.argmin(costs))
        ok &= state.labels[j] == k_star
        ok &= bool(np.allclose(state.z[:, j], codes[k_star], atol=1e-12))

    # v = 6 has no square 2D patch; check the per-vector coding rule
    mats6 = np.stack([np.eye(6) * 1.5 + 0.4 * rng.standard_normal((6, 6))
                      for _ in range(k)])
    for _ in range(50):
        b = rng.standard_normal(6) * 1.5
        per_k = []
        for kk in range(k):
            t = mats6[kk] @ b
            z = hard_threshold(t, gamma)
            per_k.append((float(np.sum((t - z) ** 2) + gamma ** 2 * np.count_nonzero(z)), z))
        k_hat = int(np.argmin([c for c, _ in per_k]))
        c_ex, z_ex = exhaustive(mats6[k_hat] @ b, gamma)
        ok &= abs(per_k[k_hat][0] - c_ex) <= 1e-12
        ok &= bool(np.allclose(per_k[k_hat][1], z_ex, atol=1e-12))
        for kk in range(k):
            c_other, _ = exhaustive(mats6[kk] @ b, gamma)
            ok &= per_k[k_hat][0] <= c_other + 1e-12
    elapsed = time.perf_counter() - t0
    _report(6, "joint coding/clustering equals exhaustive search",
            ok and elapsed < 30.0, f"{elapsed:.2f}s")


# ------------------------------------------------------- criteria 7 and 8

FOUR_ELLIPSE_64 = (
    Ellipse(0, 0, 105, 95, 0, 0.02),
    Ellipse(-35, 20, 24, 16, 0.4, 0.05),
    Ellipse(30, -25, 20, 26, 0.0, 0.016),
    Ellipse(25, 35, 14, 10, -0.3, 0.004),
)


@pytest.fixture(scope="module")
def run7():
    geom = SystemGeometry("parallel", n_detectors=96, n_views=180,
                          detector_spacing=2.6, angular_range=np.pi,
                          image_dims=(64, 64), pixel_spacing=(3.5, 3.5))
    model = SpModel(i0=3e3, sigma2=25.0)
    truth = make_phantom(FOUR_ELLIPSE_64, geom.image_dims, geom.pixel_spacing)
    sino = simulate_prelog(truth, model, geom, 11)
    l_t, w_t = post_log_convert(sino.ravel(), model)

    tp = extract_patches(truth, PatchConfig(8, 1))
    rng = np.random.Generator(np.random.Philox(key=1))
    sel = rng.choice(tp.shape[1], 3000, replace=False)
    sel.sort()
    union, _ = learn_transforms(tp[:, sel], 3, 4e-4, 0.031, 25, seed=0)

    x_fbp = fbp_reconstruct(l_t.reshape(geom.n_views, geom.n_detectors), geom)
    x0 = np.clip(x_fbp, 0, 0.1)
    cfg = ReconConfig(beta=1e4, gamma_c=4e-4, n_outer=50, n_inner=4, n_subsets=6, x_max=0.1)
    t0 = time.perf_counter()
    img, trace = spultra_reconstruct(sino, model, union, geom, cfg, x0, truth=truth)
    elapsed = time.perf_counter() - t0
    return img, trace, cfg, elapsed


def test_criterion_07_monotone_objective(run7):
    img, trace, cfg, elapsed = run7
    obj = np.array(trace.columns["objective"])
    mono = bool(np.all(np.diff(obj) <= 1e-6 * np.abs(obj[:-1])))
    coding = bool(np.all(obj[1:] <= np.array(trace.columns["objective_pre_coding"][1:])))
    box = img.min() >= 0 and img.max() <= cfg.x_max
    ok = mono and coding and box and elapsed < 180.0
    _report(7, "objective non-increasing (1e-6 slack), coding step exact, box held",
            ok, f"worst step {np.max(np.diff(obj) / np.abs(obj[:-1])):.1e}, {elapsed:.0f}s")


def test_criterion_08_iterate_difference_decay(run7):
    _, trace, _, _ = run7
    sn = trace.columns["step_norm"]
    ratio = sn[50] / sn[1]
    _report(8, "step norm at n=50 at most 5% of step norm at n=1",
            ratio <= 0.05, f"ratio {ratio:.4f}")


# ---------------------------------------------------------------- criterion 9

@pytest.fixture(scope="module")
def run9():
    geom = SystemGeometry("parallel", n_detectors=160, n_views=360,
                          detector_spacing=2.2, angular_range=np.pi,
                          image_dims=(128, 128), pixel_spacing=(2.7, 2.7))
    phantom = (
        Ellipse(0, 0, 130, 120, 0, 0.02),
        Ellipse(-45, 28, 28, 18, 0.4, 0.04),
        Ellipse(40, -32, 22, 29, 0.0, 0.016),
        Ellipse(32, 44, 16, 11, -0.3, 0.006),
        Ellipse(-36, -44, 14, 19, 0.8, 0.028),
        Ellipse(0, -8, 8, 13, 0.0, 0.024),
    )
    truth = make_phantom(phantom, geom.image_dims, geom.pixel_spacing)
    model = SpModel(i0=2e3, sigma2=25.0)
    t0 = time.perf_counter()
    sino = simulate_prelog(truth, model, geom, 21)
    l_t, w_t = post_log_convert(sino.ravel(), model)

    tp = extract_patches(truth, PatchConfig(8, 1))
    rng = np.random.Generator(np.random.Philox(key=1))
    sel = rng.choice(tp.shape[1], 8000, replace=False)
    sel.sort()
    union, _ = learn_transforms(tp[:, sel], 5, 4e-4, 0.031, 30, seed=0)

    x_fbp = fbp_reconstruct(l_t.reshape(geom.n_views, geom.n_detectors), geom)
    x_fbp = np.clip(x_fbp, 0, 0.1)
    cfg_ep = ReconConfig(beta=0, gamma_c=1, n_outer=1, n_inner=4, n_subsets=12, x_max=0.1,
                         ep=EpParams(beta_ep=3000.0, delta=10 * 0.02 / 1000,
                                     potential_kind="lange", iters=60))
    x_ep = pwls_ep_reconstruct(l_t, w_t, geom, cfg_ep, x_fbp)

    cfg = ReconConfig(beta=3e5, gamma_c=4e-4, n_outer=200, n_inner=4, n_subsets=12,
                      x_max=0.1, patch_stride=2)
    img_pw, tr_pw = pwls_ultra_reconstruct(l_t, w_t, union, geom, cfg, x_ep, truth=truth)
    img_sp, tr_sp = spultra_reconstruct(sino, model, union, geom, cfg, x_ep, truth=truth)
    elapsed = time.perf_counter() - t0

    hu = 1000.0 / 0.02
    rmse_ep = float(np.sqrt(np.mean((x_ep - truth) ** 2)) * hu)
    return rmse_ep, tr_pw.columns["rmse_vs_truth"][-1], tr_sp.columns["rmse_vs_truth"][-1], elapsed


def test_criterion_09_dose_trend_reproduction(run9):
    rmse_ep, rmse_pw, rmse_sp, elapsed = run9
    ordered = rmse_sp <= rmse_pw <= rmse_ep
    gap = rmse_pw - rmse_sp
    ok = ordered and gap > 0.5 and elapsed < 900.0
    _report(9, "RMSE ordering spultra <= pwls-ultra <= pwls-ep with gap > 0.5 HU",
            ok, f"EP {rmse_ep:.1f}, PWLS-ULTRA {rmse_pw:.1f}, SPULTRA {rmse_sp:.1f} HU, "
                f"{elapsed:.0f}s")


# --------------------------------------------------------------- criterion 10

def test_criterion_10_nonpositive_fraction_monotone():
    geom = SystemGeometry("parallel", n_detectors=96, n_views=90,
                          detector_spacing=4.0, angular_range=np.pi,
                          image_dims=(64, 64), pixel_spacing=(5.2, 5.2))
    truth = make_phantom((Ellipse(0, 0, 163.0, 163.0, 0, 0.02),), geom.image_dims,
                         geom.pixel_spacing)
    fracs = []
    for i0 in (1e4, 5e3, 3e3, 2e3):
        sino = simulate_prelog(truth, SpModel(i0=i0, sigma2=25.0), geom, 7)
        fracs.append(nonpositive_fraction(sino))
    ok = fracs[0] > 0 and all(b > a for a, b in zip(fracs, fracs[1:]))
    _report(10, "non-positive fraction strictly increases as dose drops", ok,
            "fractions " + ", ".join(f"{100 * f:.2f}%" for f in fracs))


# --------------------------------------------------------------- criterion 11

def test_criterion_11_transform_learning():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1111)
    patches = rng.standard_normal((16, 10000))
    union, trace = learn_transforms(patches, k=3, gamma_c=0.8, lambda0=1e-2,
                                    iters=50, seed=0)
    mono = bool(np.all(np.diff(trace) <= 1e-9 * np.maximum(1.0, np.abs(trace[:-1]))))
    nonsing = all(abs(np.linalg.det(union.transforms[k])) > 1e-12
                  for k in range(union.k))
    elapsed = time.perf_counter() - t0
    _report(11, "learning objective non-increasing over 50 rounds, transforms nonsingular",
            mono and nonsing and elapsed < 60.0, f"{elapsed:.1f}s")


# --------------------------------------------------------------- criterion 12

def test_criterion_12_metrics():
    rng = np.random.default_rng(1212)
    x = rng.random((16, 16)) * 0.04
    ok = ssim(x, x) == pytest.approx(1.0, abs=1e-12)
    mask = RoiMask(np.ones((16, 16), dtype=bool))
    ok &= rmse_roi(x, x, mask) == 0.0
    water = np.full((4, 4), 0.02)
    ok &= to_hu(water, 0.02)[0, 0] == pytest.approx(1000.0, abs=1e-12)
    a = rng.random((16, 16))
    b = a + 0.1 * rng.standard_normal((16, 16))
    dr = float(b.max() - b.min())
    ok &= abs(ssim(a, b, 8, dr)
              - brute_force_ssim(a, b, 8, dr)) <= 1e-12
    _report(12, "metric identities and SSIM oracle agreement", bool(ok))


# --------------------------------------------------------------- criterion 13

def test_criterion_13_pipeline_determinism(tmp_path):
    cfg_path = Path(__file__).resolve().parents[1] / "configs" / "waterdisk64.ini"
    cfg = parse_config(cfg_path)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run_pipeline(cfg.with_overrides(out_dir=out1), "all") == EXIT_OK
    assert run_pipeline(cfg.with_overrides(out_dir=out2), "all") == EXIT_OK
    names = ["x_true.spim", "sino_raw.spim", "transforms.ult", "x_fbp.spim",
             "x_pwls_ep.spim", "x_pwls_ultra.spim", "x_spultra.spim", "metrics.csv"]
    mismatched = [n for n in names
                  if (out1 / n).read_bytes() != (out2 / n).read_bytes()]
    text = (out1 / "metrics.csv").read_text()
    emits = all(f",{m},rmse_hu," in text for m in ("pwls-ep", "pwls-ultra", "spultra"))
    _report(13, "repeated 'all' runs produce byte-identical artifacts",
            not mismatched and emits,
            "all identical" if not mismatched else f"mismatch: {mismatched}")
