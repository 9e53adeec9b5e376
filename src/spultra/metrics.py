"""Image quality metrics and reporting helpers.

Attenuation maps are converted to the shifted Hounsfield scale (air 0,
water 1000) for reporting. SSIM, ROI statistics and profiles operate on the
values they are given, so they can run in either unit system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import ImageGrid, pixel_centres

DEFAULT_MU_WATER = 0.02  # mm^-1


@dataclass
class RoiMask:
    mask: np.ndarray
    label: str = "roi"

    def __post_init__(self):
        self.mask = np.asarray(self.mask, dtype=bool)
        if not self.mask.any():
            raise ValueError("ROI mask must contain at least one pixel")


def circle_mask(dims, spacing, cx: float, cy: float, radius: float,
                label: str = "roi") -> RoiMask:
    xg, yg = pixel_centres(dims, spacing)
    return RoiMask((xg - cx) ** 2 + (yg - cy) ** 2 <= radius ** 2, label)


def to_hu(img: ImageGrid, mu_water: float = DEFAULT_MU_WATER) -> ImageGrid:
    """Shifted Hounsfield units: 1000 * mu / mu_water."""
    if mu_water <= 0:
        raise ValueError("mu_water must be positive")
    return ImageGrid(img.data * (1000.0 / mu_water), img.spacing)


def rmse_roi(xhat: ImageGrid, xtrue: ImageGrid, mask: RoiMask,
             mu_water: float = DEFAULT_MU_WATER) -> float:
    """Root mean square error over the ROI, in HU."""
    if xhat.dims != xtrue.dims:
        raise ValueError("image shapes differ")
    if mask.mask.shape != xhat.dims:
        raise ValueError("mask shape differs from images")
    d = (xhat.data - xtrue.data)[mask.mask] * (1000.0 / mu_water)
    return float(np.sqrt(np.mean(d * d)))


def ssim(xhat: ImageGrid, xtrue: ImageGrid, window: int = 8,
         dynamic_range: float | None = None) -> float:
    """Mean local structural similarity with a uniform sliding window.

    Stabilizers are (0.01 L)^2 and (0.03 L)^2 where L defaults to the truth
    image's value range. Local statistics use the population convention.
    """
    a = xhat.data
    b = xtrue.data
    if a.shape != b.shape:
        raise ValueError("image shapes differ")
    if window > min(a.shape):
        raise ValueError("window larger than image")
    if dynamic_range is None:
        dynamic_range = float(b.max() - b.min())
        if dynamic_range == 0:
            dynamic_range = 1.0
    c1 = (0.01 * dynamic_range) ** 2
    c2 = (0.03 * dynamic_range) ** 2

    win = (window, window)
    wa = np.lib.stride_tricks.sliding_window_view(a, win)
    wb = np.lib.stride_tricks.sliding_window_view(b, win)
    mu_a = wa.mean(axis=(-2, -1))
    mu_b = wb.mean(axis=(-2, -1))
    var_a = (wa * wa).mean(axis=(-2, -1)) - mu_a * mu_a
    var_b = (wb * wb).mean(axis=(-2, -1)) - mu_b * mu_b
    cov = (wa * wb).mean(axis=(-2, -1)) - mu_a * mu_b

    num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
    den = (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
    return float(np.mean(num / den))


def roi_stats(img: ImageGrid, mask: RoiMask) -> tuple[float, float]:
    """(mean, std) over the ROI in the image's units; std uses denominator N."""
    if mask.mask.shape != img.dims:
        raise ValueError("mask shape differs from image")
    vals = img.data[mask.mask]
    return float(vals.mean()), float(vals.std(ddof=0))


def line_profile(img: ImageGrid, axis: str, index: int) -> np.ndarray:
    """Pixel values along one row or column, in the image's units."""
    if axis == "row":
        if not 0 <= index < img.dims[0]:
            raise ValueError(f"row {index} out of range")
        return img.data[index, :].copy()
    if axis == "col":
        if not 0 <= index < img.dims[1]:
            raise ValueError(f"column {index} out of range")
        return img.data[:, index].copy()
    raise ValueError("axis must be 'row' or 'col'")
