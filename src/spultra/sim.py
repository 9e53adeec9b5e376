"""Phantoms and pre-log measurement simulation.

Counts are drawn per ray as Poisson around the attenuated source intensity
plus additive Gaussian electronic noise. Draws come from a counter-based
generator (Philox) so a fixed seed reproduces the sinogram byte for byte.
A deterministic mode substitutes each distribution by its mean; tests and
cross-implementation checks rely on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .geometry import SystemGeometry, forward_project, pixel_centres
from .spstats import SpModel

# the largest mean numpy's Poisson sampler takes (it rejects means above about
# 9.2e18, the int64 range less a margin). A ray's mean count I0 exp(-f(l)) is
# at most I0 while f >= 0, but a negative s2 makes it grow on long rays.
POISSON_MEAN_MAX = 9e18


@dataclass(frozen=True)
class Ellipse:
    """Center (mm), semi-axes (mm), rotation (rad), attenuation (mm^-1)."""

    cx: float
    cy: float
    a: float
    b: float
    theta: float = 0.0
    mu: float = 0.02

    def __post_init__(self):
        if self.mu < 0:
            raise ValueError("attenuation must be nonnegative")
        if self.a <= 0 or self.b <= 0:
            raise ValueError("semi-axes must be positive")


@dataclass(frozen=True)
class PhantomSpec:
    """Canvas dimensions/spacing plus an ordered shape list; later shapes win."""

    dims: tuple[int, int]
    spacing: tuple[float, float] = (1.0, 1.0)
    shapes: tuple[Ellipse, ...] = ()


def make_phantom(spec: PhantomSpec) -> np.ndarray:
    """Rasterize the shapes into a ``spec.dims`` image; a pixel takes the value
    of the last shape covering its center."""
    xg, yg = pixel_centres(spec.dims, spec.spacing)
    img = np.zeros(spec.dims)
    for sh in spec.shapes:
        xr = (xg - sh.cx) * np.cos(sh.theta) + (yg - sh.cy) * np.sin(sh.theta)
        yr = -(xg - sh.cx) * np.sin(sh.theta) + (yg - sh.cy) * np.cos(sh.theta)
        inside = (xr / sh.a) ** 2 + (yr / sh.b) ** 2 <= 1.0
        img[inside] = sh.mu
    return img


def simulate_prelog(x_true: np.ndarray, model: SpModel, geom: SystemGeometry,
                    seed: int, deterministic: bool = False) -> np.ndarray:
    """Raw pre-log counts for the given true image, shape (n_views, n_detectors).

    Per ray the mean is the beam-hardened attenuated intensity (without the
    electronic shift). Non-positive outcomes are kept; downstream conversion
    decides how to handle them.
    """
    l = forward_project(x_true, geom).ravel()
    with np.errstate(over="ignore"):  # _draw reports an infinite mean
        mean = model.i0 * np.exp(-model.f(l))
    y = _draw(mean, np.sqrt(model.sigma2), seed, deterministic)
    return y.reshape(geom.n_views, geom.n_detectors)


def scale_dose(y_standard: np.ndarray, alpha_scale: float, sigma: float,
               seed: int, deterministic: bool = False) -> np.ndarray:
    """Synthesize a lower-dose scan from standard-dose raw counts by scaling
    the Poisson mean down by ``alpha_scale`` and adding electronic noise."""
    y_standard = np.asarray(y_standard, dtype=np.float64)
    if alpha_scale < 1:
        raise ValueError("alpha_scale must be >= 1")
    if np.any(y_standard < 0):
        raise ValueError("standard-dose counts must be nonnegative")
    return _draw(y_standard / alpha_scale, sigma, seed, deterministic)


def _draw(mean, sigma, seed: int, deterministic: bool) -> np.ndarray:
    """Poisson counts around ``mean`` plus Gaussian noise of standard deviation
    ``sigma`` when it is > 0, from the Philox stream keyed by ``seed``; a copy
    of ``mean`` in deterministic mode. In either mode a mean the sampler
    cannot take raises ConfigurationError."""
    peak = float(np.max(mean, initial=0.0))
    if not peak <= POISSON_MEAN_MAX:  # also NaN
        raise ConfigurationError(f"model.s2: the largest Poisson mean count is {peak:.6g}, "
                                 f"above the sampler's limit {POISSON_MEAN_MAX:g}")
    if deterministic:
        return mean.copy()
    gen = np.random.Generator(np.random.Philox(key=seed))
    y = gen.poisson(mean).astype(np.float64)
    if sigma > 0:
        y += gen.normal(0.0, sigma, size=y.shape)
    return y


def nonpositive_fraction(y) -> float:
    """count(y <= 0) / len(y)."""
    y = np.asarray(y, dtype=np.float64)
    return float(np.count_nonzero(y <= 0) / y.size)
