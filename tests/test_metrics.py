import numpy as np
import pytest

from spultra.metrics import (RoiMask, circle_mask, line_profile, rmse_roi,
                             roi_stats, ssim, to_hu)


def brute_force_ssim(a, b, window, dynamic_range):
    c1 = (0.01 * dynamic_range) ** 2
    c2 = (0.03 * dynamic_range) ** 2
    rows, cols = a.shape
    vals = []
    for i in range(rows - window + 1):
        for j in range(cols - window + 1):
            wa = a[i:i + window, j:j + window]
            wb = b[i:i + window, j:j + window]
            mu_a, mu_b = np.mean(wa), np.mean(wb)
            va = np.mean(wa * wa) - mu_a ** 2
            vb = np.mean(wb * wb) - mu_b ** 2
            cov = np.mean(wa * wb) - mu_a * mu_b
            vals.append(((2 * mu_a * mu_b + c1) * (2 * cov + c2))
                        / ((mu_a ** 2 + mu_b ** 2 + c1) * (va + vb + c2)))
    return float(np.mean(vals))


def test_to_hu_air_and_water():
    img = np.array([[0.0, 0.02], [0.04, 0.01]])
    hu = to_hu(img, mu_water=0.02)
    assert hu[0, 0] == 0.0
    assert hu[0, 1] == 1000.0
    assert np.allclose(to_hu(2 * img), 2 * hu)
    with pytest.raises(ValueError):
        to_hu(img, mu_water=0.0)


def test_rmse_identical_and_two_pixel():
    rng = np.random.default_rng(0)
    x = rng.random((6, 6)) * 0.05
    mask = RoiMask(np.ones((6, 6), dtype=bool))
    assert rmse_roi(x, x, mask) == 0.0

    # two-pixel ROI with HU errors (3, 4): rmse = 5/sqrt(2)
    mu_w = 0.02
    a = np.zeros((2, 2))
    b = a.copy()
    b[0, 0] = 3.0 * mu_w / 1000.0
    b[0, 1] = 4.0 * mu_w / 1000.0
    m = np.zeros((2, 2), dtype=bool)
    m[0, :] = True
    got = rmse_roi(a, b, RoiMask(m), mu_w)
    assert got == pytest.approx(5.0 / np.sqrt(2.0), rel=1e-12)


def test_rmse_constant_error_submask():
    mu_w = 0.02
    a = np.zeros((4, 4))
    b = np.full((4, 4), 7.0 * mu_w / 1000.0)
    m = np.zeros((4, 4), dtype=bool)
    m[1:3, 1:3] = True
    assert rmse_roi(a, b, RoiMask(m), mu_w) == pytest.approx(7.0, rel=1e-12)


def test_rmse_symmetry_and_empty_mask():
    rng = np.random.default_rng(1)
    a = rng.random((5, 5))
    b = rng.random((5, 5))
    mask = RoiMask(rng.random((5, 5)) > 0.5)
    assert rmse_roi(a, b, mask) == rmse_roi(b, a, mask)
    with pytest.raises(ValueError):
        RoiMask(np.zeros((5, 5), dtype=bool))


def test_ssim_identical_is_one():
    rng = np.random.default_rng(2)
    x = rng.random((16, 16))
    assert ssim(x, x) == pytest.approx(1.0, abs=1e-12)


def test_ssim_constant_shift_below_one():
    rng = np.random.default_rng(3)
    a = rng.random((16, 16))
    x = a
    y = a + 0.3
    assert ssim(y, x) < 1.0


def test_ssim_matches_windowed_oracle():
    rng = np.random.default_rng(4)
    a = rng.random((16, 16))
    b = a + 0.1 * rng.standard_normal((16, 16))
    dr = float(b.max() - b.min())
    got = ssim(a, b, window=8, dynamic_range=dr)
    expect = brute_force_ssim(a, b, 8, dr)
    assert got == pytest.approx(expect, abs=1e-12)


def test_ssim_symmetry():
    rng = np.random.default_rng(5)
    a = rng.random((12, 12))
    b = rng.random((12, 12))
    assert ssim(a, b, dynamic_range=1.0) == pytest.approx(
        ssim(b, a, dynamic_range=1.0), abs=1e-14)


def test_roi_stats_cases():
    img = np.array([[1.0, 2.0], [3.0, 9.0]])
    m = np.array([[True, True], [True, False]])
    mean, std = roi_stats(img, RoiMask(m))
    assert mean == pytest.approx(2.0)
    assert std == pytest.approx(np.sqrt(2.0 / 3.0), rel=1e-12)

    const = np.full((3, 3), 4.2)
    mean, std = roi_stats(const, RoiMask(np.ones((3, 3), dtype=bool)))
    assert (mean, std) == (pytest.approx(4.2), 0.0)

    single = np.zeros((3, 3), dtype=bool)
    single[1, 2] = True
    mean, std = roi_stats(img := np.arange(9.0).reshape(3, 3), RoiMask(single))
    assert (mean, std) == (5.0, 0.0)


def test_roi_stats_order_invariant():
    rng = np.random.default_rng(6)
    img = rng.random((6, 6))
    mask = rng.random((6, 6)) > 0.4
    m1, s1 = roi_stats(img, RoiMask(mask))
    # same mask, same result regardless of how it was built
    m2, s2 = roi_stats(img, RoiMask(mask.T.T))
    assert (m1, s1) == (m2, s2)


def test_line_profile():
    img = np.arange(12.0).reshape(3, 4)
    assert np.array_equal(line_profile(img, "row", 1), [4, 5, 6, 7])
    assert np.array_equal(line_profile(img, "col", 2), [2, 6, 10])
    assert len(line_profile(img, "row", 0)) == 4
    const = np.full((3, 4), 2.0)
    assert np.all(line_profile(const, "row", 2) == 2.0)
    with pytest.raises(ValueError):
        line_profile(img, "row", 3)
    with pytest.raises(ValueError):
        line_profile(img, "diag", 0)


def test_line_profile_commutes_with_hu():
    rng = np.random.default_rng(7)
    img = rng.random((5, 5)) * 0.04
    direct = line_profile(to_hu(img), "row", 2)
    after = line_profile(img, "row", 2) * (1000.0 / 0.02)
    assert np.allclose(direct, after, rtol=1e-15)


def test_circle_mask_geometry():
    m = circle_mask((9, 9), (1.0, 1.0), 0.0, 0.0, 2.0, "c")
    assert m.mask[4, 4]
    assert not m.mask[0, 0]
    assert m.label == "c"
