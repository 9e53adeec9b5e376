import numpy as np
import pytest

from spultra.errors import ConfigurationError
from spultra.geometry import forward_project
from spultra.sim import (POISSON_MEAN_MAX, Ellipse, PhantomSpec, make_phantom,
                         nonpositive_fraction, scale_dose, simulate_prelog)
from spultra.spstats import SpModel

from conftest import small_parallel


def test_phantom_empty_and_full():
    spec = PhantomSpec((8, 8), (1.0, 1.0), ())
    assert np.all(make_phantom(spec) == 0)

    big = PhantomSpec((8, 8), (1.0, 1.0), (Ellipse(0, 0, 100, 100, 0, 0.02),))
    assert np.all(make_phantom(big) == 0.02)


def test_phantom_overwrite_rule():
    spec = PhantomSpec((16, 16), (1.0, 1.0),
                       (Ellipse(0, 0, 6, 6, 0, 0.02), Ellipse(0, 0, 3, 3, 0, 0.05)))
    img = make_phantom(spec)
    assert img[8, 8] == 0.05
    assert img[8, 3] == 0.02   # in outer, not inner
    assert img[0, 0] == 0.0


def test_phantom_rotation():
    spec = PhantomSpec((32, 32), (1.0, 1.0),
                       (Ellipse(0, 0, 10, 2, np.pi / 2, 0.03),))
    img = make_phantom(spec)
    # semi-major axis rotated onto the y axis
    assert img[6, 15] == 0.03 or img[6, 16] == 0.03
    assert img[15, 3] == 0.0


def test_deterministic_mode_mean():
    geom = small_parallel()
    model = SpModel(i0=100.0, sigma2=25.0, s1=1.1, s2=0.01)
    truth = make_phantom(PhantomSpec(geom.image_dims, (1.0, 1.0),
                                     (Ellipse(0, 0, 3, 3, 0, 0.05),)))
    sino = simulate_prelog(truth, model, geom, 0, deterministic=True)
    assert type(sino) is np.ndarray and sino.dtype == np.float64
    assert sino.shape == (geom.n_views, geom.n_detectors)
    l = forward_project(truth, geom)
    assert np.allclose(sino, model.i0 * np.exp(-(model.s1 * l + model.s2 * l * l)))

    zero = make_phantom(PhantomSpec(geom.image_dims, (1.0, 1.0), ()))
    sino0 = simulate_prelog(zero, model, geom, 0, deterministic=True)
    assert np.allclose(sino0, model.i0)


@pytest.mark.parametrize("s2", [-1.0, -30.0])
def test_negative_s2_beyond_the_poisson_range_is_a_config_error(s2):
    geom = small_parallel()
    truth = make_phantom(PhantomSpec(geom.image_dims, (1.0, 1.0),
                                     (Ellipse(0, 0, 4, 4, 0, 1.0),)))
    model = SpModel(i0=1000.0, sigma2=25.0, s2=s2)
    l = forward_project(truth, geom)
    with np.errstate(over="ignore"):  # at s2 = -30 the largest mean overflows to inf
        peak = float(np.max(model.i0 * np.exp(-model.f(l))))
    assert not peak <= POISSON_MEAN_MAX
    # the noisy draw and its deterministic mean alike
    for deterministic in (False, True):
        with pytest.raises(ConfigurationError, match=r"^model\.s2: ") as err:
            simulate_prelog(truth, model, geom, 0, deterministic=deterministic)
        assert f"{peak:.6g}" in str(err.value)
        # a milder beam-hardening term stays within the sampler's range
        y = simulate_prelog(truth, SpModel(i0=1000.0, sigma2=25.0, s2=-0.1), geom,
                            0, deterministic=deterministic)
        assert np.all(np.isfinite(y))


def test_fixed_seed_reproducible_bytes():
    geom = small_parallel()
    model = SpModel(i0=1000.0, sigma2=25.0)
    truth = make_phantom(PhantomSpec(geom.image_dims, (1.0, 1.0),
                                     (Ellipse(0, 0, 3, 3, 0, 0.03),)))
    a = simulate_prelog(truth, model, geom, 42)
    b = simulate_prelog(truth, model, geom, 42)
    assert type(a) is np.ndarray and a.dtype == np.float64
    assert a.shape == (geom.n_views, geom.n_detectors)
    assert a.tobytes() == b.tobytes()
    c = simulate_prelog(truth, model, geom, 43)
    assert a.tobytes() != c.tobytes()


def test_simulated_mean_within_standard_errors():
    # empirical per-ray mean over many draws within 3 standard errors
    geom = small_parallel(rows=4, cols=4, n_det=5, n_views=2)
    model = SpModel(i0=500.0, sigma2=25.0)
    truth = make_phantom(PhantomSpec((4, 4), (1.0, 1.0),
                                     (Ellipse(0, 0, 2, 2, 0, 0.05),)))
    l = forward_project(truth, geom).ravel()
    mean = model.i0 * np.exp(-l)
    n = 100000
    sums = np.zeros(geom.n_rays)
    sums2 = np.zeros(geom.n_rays)
    for i in range(20):
        y = simulate_prelog(truth, model, geom, 1000 + i).ravel()
        sums += y
    # 20 sinograms is cheap; draw the rest from one long stream per ray
    gen = np.random.Generator(np.random.Philox(key=7))
    for ray in range(0, geom.n_rays, 3):
        draws = gen.poisson(mean[ray], n) + gen.normal(0, np.sqrt(model.sigma2), n)
        se = np.sqrt((mean[ray] + model.sigma2) / n)
        assert abs(draws.mean() - mean[ray]) <= 3.5 * se


def test_poisson_sampler_moments():
    gen = np.random.Generator(np.random.Philox(key=5))
    n = 1_000_000
    for lam in (0.5, 5.0, 50.0):
        draws = gen.poisson(lam, n).astype(np.float64)
        assert draws.mean() == pytest.approx(lam, rel=0.01)
        assert draws.var() == pytest.approx(lam, rel=0.01)


def test_shifted_variance_matches_mean():
    # shifting counts by the noise variance makes variance track the mean
    lam, sigma = 50.0, 5.0
    gen = np.random.Generator(np.random.Philox(key=11))
    n = 1_000_000
    y = gen.poisson(lam, n).astype(np.float64) + gen.normal(0, sigma, n)
    shifted = y + sigma ** 2
    assert shifted.var() == pytest.approx(shifted.mean(), rel=0.03)


def test_scale_dose_identity_and_mean():
    seed = 3
    y_std = np.full(2000, 400.0)
    same = scale_dose(y_std, 1.0, 0.0, seed, deterministic=True)
    assert np.array_equal(same, y_std)

    scaled = scale_dose(y_std, 8.0, 5.0, seed)
    assert scaled.mean() == pytest.approx(50.0, abs=3 * np.sqrt((50 + 25) / 2000))
    with pytest.raises(ValueError):
        scale_dose(y_std, 0.5, 1.0, seed)


def test_scale_dose_high_factor_produces_nonpositives():
    # strong dose reduction on strictly positive standard data yields a
    # nonzero share of non-positive raw values
    gen = np.random.Generator(np.random.Philox(key=2))
    y_std = gen.poisson(2000.0, 20000).astype(np.float64)
    assert np.all(y_std > 0)
    low = scale_dose(y_std, 200.0, 5.0, 4)
    frac = nonpositive_fraction(low)
    assert frac > 0.0
    assert frac < 0.5


def test_nonpositive_fraction_counting():
    assert nonpositive_fraction([1.0, 2.0, 3.0]) == 0.0
    assert nonpositive_fraction([1.0, -1.0, 0.0, 2.0]) == 0.5


def test_nonpositive_fraction_monotone_in_dose():
    # body-size water disk (~330 mm water-equivalent paths) so even the
    # highest dose yields a few non-positive measurements
    from spultra.geometry import SystemGeometry
    geom = SystemGeometry("parallel", n_detectors=96, n_views=90,
                          detector_spacing=4.0, angular_range=np.pi,
                          image_dims=(64, 64), pixel_spacing=(5.2, 5.2))
    truth = make_phantom(PhantomSpec((64, 64), (5.2, 5.2),
                                     (Ellipse(0, 0, 163.0, 163.0, 0, 0.02),)))
    fracs = []
    for i0 in (1e4, 5e3, 3e3, 2e3):
        model = SpModel(i0=i0, sigma2=25.0)
        sino = simulate_prelog(truth, model, geom, 7)
        fracs.append(nonpositive_fraction(sino))
    assert fracs[0] > 0
    assert all(b > a for a, b in zip(fracs, fracs[1:]))
