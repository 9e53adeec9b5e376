"""Phantoms and pre-log measurement simulation.

Counts are drawn per ray as Poisson around the attenuated source intensity
plus additive Gaussian electronic noise. Draws come from a counter-based
generator (Philox) so a fixed seed reproduces the sinogram byte for byte.
A deterministic mode substitutes each distribution by its mean; tests and
cross-implementation checks rely on it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .geometry import ImageGrid, Sinogram, SystemGeometry, forward_project, pixel_centres
from .spstats import SpModel

log = logging.getLogger(__name__)


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


@dataclass(frozen=True)
class RngSpec:
    """Seed of the counter-based (Philox) generator."""

    seed: int

    def make(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=self.seed))


def make_phantom(spec: PhantomSpec) -> ImageGrid:
    """Rasterize the shapes; a pixel takes the value of the last shape covering
    its center."""
    xg, yg = pixel_centres(spec.dims, spec.spacing)
    img = np.zeros(spec.dims)
    for sh in spec.shapes:
        xr = (xg - sh.cx) * np.cos(sh.theta) + (yg - sh.cy) * np.sin(sh.theta)
        yr = -(xg - sh.cx) * np.sin(sh.theta) + (yg - sh.cy) * np.cos(sh.theta)
        inside = (xr / sh.a) ** 2 + (yr / sh.b) ** 2 <= 1.0
        img[inside] = sh.mu
    return ImageGrid(img, spec.spacing)


def simulate_prelog(x_true: ImageGrid, model: SpModel, geom: SystemGeometry,
                    rng: RngSpec, deterministic: bool = False) -> Sinogram:
    """Raw pre-log counts for the given true image.

    Per ray the mean is the beam-hardened attenuated intensity (without the
    electronic shift). Non-positive outcomes are kept; downstream conversion
    decides how to handle them.
    """
    l = forward_project(x_true, geom).ravel()
    mean = model.i0 * np.exp(-model.f(l))
    if deterministic:
        y = mean.copy()
    else:
        gen = rng.make()
        y = gen.poisson(mean).astype(np.float64)
        if model.sigma2 > 0:
            y += gen.normal(0.0, np.sqrt(model.sigma2), size=y.shape)
    frac = float(np.mean(y <= 0))
    log.info("simulated %d rays, non-positive fraction %.4f%%", y.size, 100 * frac)
    return Sinogram(y.reshape(geom.n_views, geom.n_detectors))


def scale_dose(y_standard: np.ndarray, alpha_scale: float, sigma: float,
               rng: RngSpec, deterministic: bool = False) -> np.ndarray:
    """Synthesize a lower-dose scan from standard-dose raw counts by scaling
    the Poisson mean down by ``alpha_scale`` and adding electronic noise."""
    y_standard = np.asarray(y_standard, dtype=np.float64)
    if alpha_scale < 1:
        raise ValueError("alpha_scale must be >= 1")
    if np.any(y_standard < 0):
        raise ValueError("standard-dose counts must be nonnegative")
    mean = y_standard / alpha_scale
    if deterministic:
        return mean.copy()
    gen = rng.make()
    y = gen.poisson(mean).astype(np.float64)
    if sigma > 0:
        y += gen.normal(0.0, sigma, size=y.shape)
    return y


def nonpositive_fraction(y) -> float:
    """count(y <= 0) / len(y)."""
    y = np.asarray(y, dtype=np.float64)
    return float(np.count_nonzero(y <= 0) / y.size)
