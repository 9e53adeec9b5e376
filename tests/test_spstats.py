import mpmath
import numpy as np
import pytest

from spultra.spstats import (SpModel, build_surrogate, likelihood_gradient,
                             neg_log_likelihood, optimum_curvature,
                             post_log_convert, second_derivative_at_zero,
                             surrogate_at, surrogate_gap)

from conftest import small_parallel


def h_scalar(l, y, model):
    u = model.i0 * np.exp(-(model.s1 * l + model.s2 * l * l)) + model.sigma2
    return u - y * np.log(u)


def test_model_validation():
    with pytest.raises(ValueError):
        SpModel(i0=-1.0)
    with pytest.raises(ValueError):
        SpModel(i0=100.0, sigma2=-1.0)
    with pytest.raises(ValueError):
        SpModel(i0=100.0, s1=0.0)


def test_nll_monotone_for_zero_counts():
    model = SpModel(i0=100.0, sigma2=25.0)
    ls = np.linspace(0, 6, 50)
    vals = [neg_log_likelihood([l], [0.0], model) for l in ls]
    assert np.all(np.diff(vals) < 0)


def test_nll_single_ray_value():
    # I0=100, sigma2=25, Y=125, l=0: h = 125 - 125*log(125)
    model = SpModel(i0=100.0, sigma2=25.0)
    got = neg_log_likelihood([0.0], [125.0], model)
    assert got == pytest.approx(125.0 - 125.0 * np.log(125.0), rel=1e-14)


def test_nll_matches_high_precision_sum():
    rng = np.random.default_rng(0)
    model = SpModel(i0=512.0, sigma2=10.0, s1=1.1, s2=0.01)
    l = rng.uniform(0, 5, 40)
    y = rng.uniform(0, 600, 40)
    got = neg_log_likelihood(l, y, model)
    with mpmath.workdps(50):
        total = mpmath.mpf(0)
        for li, yi in zip(l, y):
            u = mpmath.mpf(model.i0) * mpmath.e ** (-(model.s1 * mpmath.mpf(li)
                                                      + model.s2 * mpmath.mpf(li) ** 2)) \
                + model.sigma2
            total += u - yi * mpmath.log(u)
        expect = float(total)
    assert got == pytest.approx(expect, rel=1e-14)


def test_gradient_stationary_ray():
    model = SpModel(i0=100.0, sigma2=25.0)
    l = np.array([0.7])
    y = model.mean_counts(l)  # counts equal the mean: gradient factor vanishes
    assert likelihood_gradient(l, y, model)[0] == pytest.approx(0.0, abs=1e-14)


def test_gradient_closed_form_sigma_zero():
    # sigma2=0, f identity: h'(l) = Y - I0 e^{-l}; at I0=100, Y=50, l=0 -> -50
    model = SpModel(i0=100.0, sigma2=0.0)
    got = likelihood_gradient([0.0], [50.0], model)[0]
    assert got == pytest.approx(-50.0, rel=1e-14)


@pytest.mark.parametrize("seed", range(5))
def test_gradient_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    model = SpModel(i0=float(rng.uniform(50, 5000)), sigma2=float(rng.uniform(0, 100)),
                    s1=float(rng.uniform(0.5, 2.0)), s2=float(rng.uniform(0, 0.05)))
    for _ in range(4):
        l = float(rng.uniform(0.05, 6))
        y = float(rng.uniform(0, 2 * model.i0))
        step = 1e-5 * (1 + abs(l))
        fd = (h_scalar(l + step, y, model) - h_scalar(l - step, y, model)) / (2 * step)
        got = likelihood_gradient([l], [y], model)[0]
        assert got == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_second_derivative_at_zero_sigma_zero():
    # sigma2=0, f identity: h''(l) = I0 e^{-l}, so h''(0) = I0 for any Y
    model = SpModel(i0=100.0, sigma2=0.0)
    for y in (0.0, 17.0, 250.0):
        assert second_derivative_at_zero([y], model)[0] == pytest.approx(100.0, rel=1e-14)


def test_second_derivative_matches_finite_differences():
    rng = np.random.default_rng(4)
    for _ in range(10):
        model = SpModel(i0=float(rng.uniform(50, 2000)), sigma2=float(rng.uniform(0, 50)),
                        s1=float(rng.uniform(0.5, 2.0)), s2=float(rng.uniform(-0.02, 0.05)))
        y = float(rng.uniform(0, 2 * model.i0))
        step = 1e-4
        fd = (h_scalar(step, y, model) - 2 * h_scalar(0.0, y, model)
              + h_scalar(-step, y, model)) / step ** 2
        got = second_derivative_at_zero([y], model)[0]
        assert got == pytest.approx(fd, rel=1e-5, abs=1e-6)


def test_curvature_at_zero_expansion():
    model = SpModel(i0=100.0, sigma2=0.0)
    got = optimum_curvature([0.0], [42.0], model)[0]
    assert got == pytest.approx(100.0, rel=1e-14)


def test_curvature_zero_counts_closed_form():
    # Y=0, f identity: c(l) = 2(I0 - I0 e^{-l} - l I0 e^{-l}) / l^2, capped at I0
    model = SpModel(i0=100.0, sigma2=7.0)
    with mpmath.workdps(60):
        for ln in (0.3, 1.0, 4.0):
            i0 = mpmath.mpf(model.i0)
            expect = 2 * (i0 - i0 * mpmath.e ** (-ln) - ln * i0 * mpmath.e ** (-ln)) / ln ** 2
            expect = min(float(expect), model.i0)
            got = optimum_curvature([ln], [0.0], model)[0]
            assert got == pytest.approx(expect, rel=1e-12)


def test_curvature_bounds_random_grid():
    rng = np.random.default_rng(9)
    model = SpModel(i0=300.0, sigma2=25.0)
    l = rng.uniform(0, 8, 200)
    y = rng.uniform(0, 600, 200)
    c = optimum_curvature(l, y, model)
    cap = np.maximum(second_derivative_at_zero(y, model), 0.0)
    assert np.all(c > 0)
    assert np.all(c <= cap + 1e-12 * np.maximum(cap, 1.0) + 1e-18)


def test_build_surrogate_zero_shift_at_stationary_ray():
    geom = small_parallel()
    model = SpModel(i0=200.0, sigma2=25.0)
    rng = np.random.default_rng(2)
    x = rng.uniform(0, 0.02, geom.image_dims)
    from spultra.geometry import forward_project
    l_n = forward_project(x, geom).ravel()
    counts = model.mean_counts(l_n)  # every ray stationary
    surr = build_surrogate(x, counts, model, geom)
    assert np.allclose(surr.y_tilde, l_n, atol=1e-12)


@pytest.mark.parametrize("s2", [0.0, 0.05])
def test_surrogate_at_projection_matches_build_surrogate(s2):
    from spultra.geometry import system_matrix
    geom = small_parallel(rows=6, cols=7, n_det=10, n_views=9)
    model = SpModel(i0=300.0, sigma2=16.0, s2=s2)
    rng = np.random.default_rng(13)
    x = rng.uniform(0, 0.03, geom.n_pixels)
    counts = np.maximum(model.mean_counts(np.zeros(geom.n_rays))
                        + rng.normal(0, 30, geom.n_rays), 0.0)
    ref = build_surrogate(x.reshape(geom.image_dims),
                          counts, model, geom)
    surr = surrogate_at(system_matrix(geom) @ x, counts, model)
    for name in ("w", "d_h", "y_tilde", "l_n"):
        assert getattr(surr, name).tobytes() == getattr(ref, name).tobytes(), name


@pytest.mark.parametrize("s2", [0.0, 0.05])
def test_surrogate_at_takes_one_gradient(monkeypatch, s2):
    from spultra import spstats
    model = SpModel(i0=400.0, sigma2=9.0, s2=s2)
    rng = np.random.default_rng(21)
    l_n = np.concatenate([[0.0], rng.uniform(0.0, 3.0, 40)])
    counts = np.maximum(model.mean_counts(l_n) + rng.normal(0, 20, l_n.size), 0.0)
    calls, means = [], []
    # the one gradient evaluation also forms the only mean counts
    gradient_at = spstats._gradient_at
    monkeypatch.setattr(spstats, "_gradient_at",
                        lambda *args: calls.append(1) or gradient_at(*args))
    mean_counts = SpModel.mean_counts
    monkeypatch.setattr(SpModel, "mean_counts",
                        lambda *args: means.append(1) or mean_counts(*args))
    surr = surrogate_at(l_n, counts, model)
    assert len(calls) == 1 and not means
    assert surr.d_h.tobytes() == likelihood_gradient(l_n, counts, model).tobytes()
    assert surr.w.tobytes() == optimum_curvature(l_n, counts, model).tobytes()


def test_build_surrogate_gradient_matches_likelihood():
    geom = small_parallel(rows=6, cols=6, n_det=10, n_views=8)
    model = SpModel(i0=500.0, sigma2=25.0)
    rng = np.random.default_rng(8)
    x = rng.uniform(0, 0.02, geom.n_pixels)
    img = x.reshape(geom.image_dims)
    counts = np.maximum(model.mean_counts(np.zeros(geom.n_rays))
                        + rng.normal(0, 20, geom.n_rays), 0.0)
    surr = build_surrogate(img, counts, model, geom)

    from conftest import dense_system
    dense = dense_system(geom)
    grad_surr = dense.T @ (surr.w * (dense @ x - surr.y_tilde))

    # algebraically the surrogate gradient at the expansion point is A^T d_h
    grad_like = dense.T @ likelihood_gradient(dense @ x, counts, model)
    scale = np.max(np.abs(grad_like))
    assert np.max(np.abs(grad_surr - grad_like)) <= 1e-12 * scale

    # and it agrees with finite differences of the likelihood itself; the
    # FD oracle on the summed likelihood cannot do better than ~1e-6 relative
    for _ in range(5):
        d = rng.standard_normal(geom.n_pixels)
        d /= np.linalg.norm(d)
        eps = 3e-5
        lp = neg_log_likelihood(dense @ (x + eps * d), counts, model)
        lm = neg_log_likelihood(dense @ (x - eps * d), counts, model)
        fd = (lp - lm) / (2 * eps)
        assert grad_surr @ d == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_majorization_on_grid_no_bh():
    # 200 random single-ray instances with s2 = 0: the parabola stays above h
    rng = np.random.default_rng(123)
    grid = np.linspace(0.0, 10.0, 400)
    worst = -np.inf
    for _ in range(200):
        model = SpModel(i0=float(10 ** rng.uniform(2, 5)),
                        sigma2=float(rng.uniform(0, 100)))
        l_n = float(rng.uniform(0, 8))
        y = float(rng.uniform(0, 1.5 * (model.i0 + model.sigma2)))
        w = optimum_curvature([l_n], [y], model)
        d_h = likelihood_gradient([l_n], [y], model)
        from spultra.spstats import SurrogateState
        state = SurrogateState(w=w, d_h=d_h, y_tilde=np.array([l_n]) - d_h / w,
                               l_n=np.array([l_n]))
        worst = max(worst, surrogate_gap(state, [y], model, grid))
    assert worst <= 1e-9


def test_tangency_and_gradient_match_at_expansion_point():
    # gradient match through the shifted-data form: w*(l_n - y_tilde)
    # reproduces d_h up to rounding; the value match at the expansion point
    # holds by construction of the direct quadratic (checked on the grid by
    # the majorization test)
    rng = np.random.default_rng(77)
    for _ in range(50):
        model = SpModel(i0=float(10 ** rng.uniform(2, 5)),
                        sigma2=float(rng.uniform(0, 100)))
        l_n = float(rng.uniform(0, 8))
        y = float(rng.uniform(0, 1.5 * model.i0))
        w = optimum_curvature([l_n], [y], model)[0]
        d_h = likelihood_gradient([l_n], [y], model)[0]
        y_tilde = l_n - d_h / w
        grad_q = w * (l_n - y_tilde)
        assert grad_q == pytest.approx(d_h, rel=1e-12, abs=1e-300)
        h_n = h_scalar(l_n, y, model)
        q_n = h_n + d_h * (l_n - l_n) + 0.5 * w * (l_n - l_n) ** 2
        assert abs(q_n - h_n) <= 1e-9 * (1 + abs(h_n))


def test_post_log_identity_model():
    # I0=100, y=100, f identity: l=0; w = 1 * 100^2 / (100 + 25) = 80
    model = SpModel(i0=100.0, sigma2=25.0)
    l, w = post_log_convert([100.0], model)
    assert l[0] == pytest.approx(0.0, abs=1e-15)
    assert w[0] == pytest.approx(80.0, rel=1e-14)


def test_post_log_nonpositive_replaced():
    model = SpModel(i0=100.0, sigma2=25.0)
    l, w = post_log_convert([-3.0], model)
    assert l[0] == pytest.approx(np.log(1e7), rel=1e-12)
    assert w[0] > 0


def test_post_log_quadratic_zero_root():
    model = SpModel(i0=100.0, sigma2=25.0, s1=1.0, s2=0.1)
    l, _ = post_log_convert([100.0], model)
    assert l[0] == pytest.approx(0.0, abs=1e-12)


def test_post_log_quadratic_inverts_forward():
    # at s2 = 1e-12 the textbook root (-s1 + sqrt(disc)) / (2 s2) cancels to
    # a relative error of up to 3e-4
    for s2 in (0.02, 1e-12):
        model = SpModel(i0=1000.0, sigma2=0.0, s1=0.9, s2=s2)
        for l_true in (0.1, 1.0, 3.0):
            y = model.i0 * np.exp(-model.f(l_true))
            l, _ = post_log_convert([y], model)
            assert l[0] == pytest.approx(l_true, rel=1e-12)


def test_post_log_without_beam_hardening_is_log_over_s1():
    rng = np.random.default_rng(8)
    y = np.concatenate([rng.uniform(-5.0, 2e4, 5000), [0.0, 1e-300, 3000.0, 1e6]])
    for s1 in (1.0, 0.9, 1.37, 3e-3):
        model = SpModel(i0=3000.0, sigma2=25.0, s1=s1)
        l, _ = post_log_convert(y, model)
        want = np.log(model.i0 / np.where(y <= 0, 1e-5, y)) / s1
        assert l.tobytes() == want.tobytes()


def test_post_log_negative_discriminant_flagged():
    # s2 < 0 bends f downward; counts below the reachable minimum have no root
    model = SpModel(i0=100.0, sigma2=0.0, s1=1.0, s2=-0.1)
    # f max is s1^2/(4*0.1) = 2.5, so y < 100*exp(-2.5) is unreachable
    l, w = post_log_convert([1.0], model)
    assert l[0] == 0.0 and w[0] == 0.0


def test_surrogate_state_validation():
    from spultra.spstats import SurrogateState
    with pytest.raises(ValueError):
        SurrogateState(w=np.array([0.0]), d_h=np.zeros(1),
                       y_tilde=np.zeros(1), l_n=np.zeros(1))
    with pytest.raises(ValueError):
        SurrogateState(w=np.array([1.0]), d_h=np.zeros(1),
                       y_tilde=np.array([np.inf]), l_n=np.zeros(1))
