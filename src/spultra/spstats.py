"""Shifted-Poisson measurement model.

Per-ray negative log-likelihood terms have the form

    h(l) = (I0 exp(-f(l)) + sigma2) - Y log(I0 exp(-f(l)) + sigma2)

with a quadratic beam-hardening polynomial f(l) = s1*l + s2*l^2. The module
provides h, its derivatives, the optimum-curvature quadratic surrogates used
by the outer iterations, and the post-log conversion with statistical weights
that the PWLS baselines consume.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .geometry import ImageGrid, SystemGeometry, forward_project

log = logging.getLogger(__name__)

# keeps log() finite when sigma2 = 0 and the exponent underflows
_MEAN_FLOOR = 1e-300
# replacement for non-positive raw counts in the post-log path
_COUNT_FLOOR = 1e-5


@dataclass(frozen=True)
class SpModel:
    """Source intensity, electronic noise variance and beam-hardening coefficients."""

    i0: float
    sigma2: float = 25.0
    s1: float = 1.0
    s2: float = 0.0

    def __post_init__(self):
        if self.i0 <= 0:
            raise ValueError("i0 must be positive")
        if self.sigma2 < 0:
            raise ValueError("sigma2 must be nonnegative")
        if self.s1 <= 0:
            raise ValueError("s1 must be positive")

    def f(self, l):
        return self.s1 * l + self.s2 * l * l

    def f_dot(self, l):
        return self.s1 + 2.0 * self.s2 * l

    def mean_counts(self, l):
        """Expected shifted counts I0 exp(-f(l)) + sigma2."""
        return self.i0 * np.exp(-self.f(l)) + self.sigma2


@dataclass
class SurrogateState:
    """Per-ray quadratic surrogate of the likelihood around one expansion point.

    ``w`` holds the (floored, strictly positive) curvatures, ``d_h`` the
    likelihood gradient row, ``y_tilde`` the shifted data l_n - d_h / w and
    ``l_n`` the expansion point itself. All arrays are flat, view-major.
    """

    w: np.ndarray
    d_h: np.ndarray
    y_tilde: np.ndarray
    l_n: np.ndarray

    def __post_init__(self):
        if np.any(self.w <= 0):
            raise ValueError("surrogate curvatures must be strictly positive")
        if not np.isfinite(self.y_tilde).all():
            raise ValueError("shifted data must be finite")


def _as_rays(a):
    return np.asarray(a, dtype=np.float64).reshape(-1)


def neg_log_likelihood(l, counts, model: SpModel) -> float:
    """Sum over rays of h(l_i) for shifted counts ``counts``."""
    l = _as_rays(l)
    counts = _as_rays(counts)
    u = model.mean_counts(l)
    tiny = u < _MEAN_FLOOR
    if np.any(tiny & (counts > 0)):
        log.warning("mean underflow on %d rays; clamping inside log", int(np.sum(tiny)))
    u_safe = np.maximum(u, _MEAN_FLOOR)
    return float(np.sum(u - counts * np.log(u_safe)))


def likelihood_gradient(l, counts, model: SpModel) -> np.ndarray:
    """Per-ray derivative of h at l."""
    l = _as_rays(l)
    counts = _as_rays(counts)
    m = model.i0 * np.exp(-model.f(l))
    u_safe = np.maximum(m + model.sigma2, _MEAN_FLOOR)
    return m * model.f_dot(l) * (counts / u_safe - 1.0)


def second_derivative_at_zero(counts, model: SpModel) -> np.ndarray:
    """Exact h''(0), by the chain rule through the beam-hardening polynomial."""
    counts = _as_rays(counts)
    u0 = model.i0 + model.sigma2
    ratio = counts / u0 - 1.0
    return model.i0 * (2.0 * model.s2 - model.s1 ** 2) * ratio \
        + (model.i0 * model.s1) ** 2 * counts / u0 ** 2


def optimum_curvature(l_n, counts, model: SpModel) -> np.ndarray:
    """Smallest valid parabola curvatures at the expansion points ``l_n``.

    At l_n = 0 the curvature is [h''(0)]_+. For l_n > 0 the secant-based
    optimum value is used, capped by [h''(0)]_+ to avoid numerical blow-up
    at small l_n. Non-positive results are floored at a small positive value
    relative to the largest curvature so the diagonal stays invertible.
    """
    l_n = _as_rays(l_n)
    counts = _as_rays(counts)
    h0_dd = np.maximum(second_derivative_at_zero(counts, model), 0.0)

    u0 = model.i0 + model.sigma2
    h_at_0 = u0 - counts * np.log(u0)
    u_n = np.maximum(model.mean_counts(l_n), _MEAN_FLOOR)
    h_at_n = u_n - counts * np.log(u_n)
    d_h = likelihood_gradient(l_n, counts, model)

    c = h0_dd.copy()
    pos = l_n > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        secant = 2.0 * (h_at_0 - h_at_n + l_n * d_h) / (l_n * l_n)
    secant = np.where(np.isfinite(secant), secant, np.inf)
    c[pos] = np.minimum(np.maximum(secant[pos], 0.0), h0_dd[pos])

    scale = float(c.max()) if c.size else 0.0
    floor = 1e-12 * scale if scale > 0 else 1e-20
    return np.maximum(c, floor)


def build_surrogate(x_n: ImageGrid, counts, model: SpModel, geom: SystemGeometry) -> SurrogateState:
    """Quadratic surrogate of the likelihood at the current image."""
    return surrogate_at(forward_project(x_n, geom).ravel(), counts, model)


def surrogate_at(l_n, counts, model: SpModel) -> SurrogateState:
    """Quadratic surrogate of the likelihood at the line integrals ``l_n``.

    Tangency and gradient match at the expansion point hold by construction:
    the surrogate's gradient in l at l_n is w * (l_n - y_tilde) = d_h.
    """
    counts = _as_rays(counts)
    l_n = _as_rays(l_n)
    w = optimum_curvature(l_n, counts, model)
    d_h = likelihood_gradient(l_n, counts, model)
    y_tilde = l_n - d_h / w
    return SurrogateState(w=w, d_h=d_h, y_tilde=y_tilde, l_n=l_n)


def surrogate_gap(state: SurrogateState, counts, model: SpModel, l_grid) -> float:
    """Largest violation of h(l) <= q(l; l_n) over a grid of l values.

    Returns max over rays and grid points of h(l) - q(l; l_n); values <= 0
    mean the surrogate majorizes on the grid. Used as an assertion when
    s2 = 0 and as a reported diagnostic otherwise, where majorization is
    not theoretically established.
    """
    counts = _as_rays(counts)
    l_grid = np.asarray(l_grid, dtype=np.float64)
    u0 = np.maximum(model.mean_counts(state.l_n), _MEAN_FLOOR)
    h_n = u0 - counts * np.log(u0)
    worst = -np.inf
    for lv in l_grid:
        u = max(float(model.mean_counts(lv)), _MEAN_FLOOR)
        h = u - counts * np.log(u)
        q = h_n + state.d_h * (lv - state.l_n) + 0.5 * state.w * (lv - state.l_n) ** 2
        worst = max(worst, float(np.max(h - q)))
    return worst


def post_log_convert(y_raw, model: SpModel) -> tuple[np.ndarray, np.ndarray]:
    """Beam-hardening corrected line integrals and statistical weights.

    Non-positive counts are replaced by 1e-5 before the log. The quadratic
    s2*l^2 + s1*l = log(i0/y) is solved for the root continuous with l = t/s1;
    rays whose corrected value does not exist (negative discriminant) are
    flagged and get l = 0, w = 0.
    """
    y = _as_rays(y_raw)
    y_pos = np.where(y <= 0, _COUNT_FLOOR, y)
    t = np.log(model.i0 / y_pos)

    if model.s2 == 0.0:
        l = t / model.s1
        bad = np.zeros_like(l, dtype=bool)
    else:
        disc = model.s1 ** 2 + 4.0 * model.s2 * t
        bad = disc < 0
        root = (-model.s1 + np.sqrt(np.maximum(disc, 0.0))) / (2.0 * model.s2)
        l = np.where(bad, 0.0, root)
        if np.any(bad):
            log.warning("post-log conversion flagged %d rays (no real root)", int(bad.sum()))

    w = model.f_dot(l) ** 2 * y_pos ** 2 / (y_pos + model.sigma2)
    w[bad] = 0.0
    return l, w
