"""Experiment configuration: INI sections with strict validation.

Parsing collects every problem (unknown keys, type errors, range violations)
and reports them together, each naming the offending ``section.key``.
Sections may be omitted; each pipeline stage checks that the sections it
needs are present.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, ValidationError
from .geometry import SystemGeometry
from .metrics import DEFAULT_MU_WATER, RoiMask, circle_mask
from .recon import EpParams, ReconConfig
from .sim import POISSON_MEAN_MAX, Ellipse
from .spstats import SpModel
from .ultra import PatchConfig

_REQUIRED = object()
# the signed 64-bit range: the seed becomes a Philox key word, and larger
# values overflow (from 2**64) or go through a lossy cast on the way
_SEED_BOUNDS = dict(minimum=0, maximum=2 ** 63 - 1)
# the coding threshold is squared (a Python float raises OverflowError past
# about 1.3e154), and the square is summed over patches and multiplied by beta
_GAMMA_C_MAX = 1e150
# the transform update floors the Gram eigenvalues at lambda0 ||X_k||^2 1e-15:
# from a lambda0 of about 1e-155 the learned transforms overflow within a few
# rounds (probed on a 16x16 copy of configs/waterdisk64.ini)
_LAMBDA0_MIN = 1e-100
# HU images are 1000 mu / mu_water, and SSIM multiplies fourth powers of them:
# at the lower bound an attenuation of 1 mm^-1 is 1e9 HU, and SSIM stays
# finite up to about 1e76 HU; from a mu_water of about 1e80 those products
# underflow and SSIM divides 0 by 0
_MU_WATER_BOUNDS = dict(minimum=1e-6, maximum=1e6)
# a scan past one turn repeats its views
_ANGULAR_RANGE_MAX = 2 * math.pi
# the filtered backprojection's ramp filter scales with 1 / detector_spacing
# and overflows at about 1e-300 mm
_DETECTOR_SPACING_MIN = 1e-6
# phantoms and ROI masks square pixel coordinates, which overflow at 1e300 mm
# pixels, and a run at 1e150 mm already ends with a non-finite image
_PIXEL_SPACING_MAX = 1e6
# s1 and I0 + sigma2 are squared as Python floats (OverflowError past about
# 1.3e154), and the post-log line integrals (about log(I0 / y) / s1) and
# their weights (which scale with s1^2) must stay finite at any I0 and s2
_S1_BOUNDS = dict(minimum=1e-6, maximum=1e6)
_SIGMA2_MAX = 1e150
# what the plain converters expect, for their error message
_EXPECTED = {int: "an integer", float: "a number"}


def _pair(conv):
    """A reader of two whitespace-separated values, each read by ``conv``."""
    def read(text):
        parts = text.split()
        if len(parts) != 2:
            raise ValueError(f"expected two values, got {text!r}")
        try:
            return conv(parts[0]), conv(parts[1])
        except ValueError:
            raise ValueError(f"could not parse {text!r}") from None
    return read


def _lines(text):
    """The stripped, non-blank lines of a multi-line value."""
    return [line.strip() for line in text.splitlines() if line.strip()]


@dataclass(frozen=True)
class LearningConfig:
    k: int
    patch: PatchConfig
    gamma_c: float
    lambda0: float
    iters: int = 50
    n_patches: int = 10000


@dataclass(frozen=True)
class MetricsConfig:
    mu_water: float = DEFAULT_MU_WATER
    rois: tuple = ()
    window: tuple[float, float] = (800.0, 1200.0)


@dataclass(frozen=True)
class IoConfig:
    out_dir: str
    seed: int = 0


@dataclass
class ExperimentConfig:
    geometry: SystemGeometry | None = None
    model: SpModel | None = None
    phantom: tuple[Ellipse, ...] | None = None  # drawn on the [geometry] grid
    learning: LearningConfig | None = None
    recon: ReconConfig | None = None
    metrics: MetricsConfig = MetricsConfig()
    io: IoConfig | None = None
    config_hash: str = ""

    def with_overrides(self, out_dir=None, seed=None) -> "ExperimentConfig":
        """A copy with ``[io]`` out_dir and seed replaced; without ``[io]``,
        an out_dir makes one and a seed alone leaves none. An out-of-range
        seed raises :class:`ValidationError`, as it would in the INI file."""
        if seed is not None:
            errors = []
            seed = _Section("io", {"seed": str(seed)}, errors).get("seed", int, **_SEED_BOUNDS)
            if errors:
                raise ValidationError(errors)
        cfg = ExperimentConfig(**self.__dict__)
        if self.io is not None or out_dir is not None:  # else there is no output directory
            io = self.io or IoConfig(out_dir=str(out_dir))
            cfg.io = replace(io, out_dir=str(out_dir) if out_dir is not None else io.out_dir,
                             seed=seed if seed is not None else io.seed)
        return cfg


class _Section:
    """Typed accessor over one INI section that records errors instead of raising."""

    def __init__(self, name, raw: dict, errors: list):
        self.name = name
        self.raw = dict(raw)
        self.errors = errors
        self.seen = set()

    def get(self, key, conv=str, default=_REQUIRED, *, minimum=None, maximum=None,
            above=None, choices=None):
        """``key`` read by ``conv``, ``default`` (unconverted) when absent, or
        None once the reason it is invalid is recorded. Every number read, each
        of a pair's too, must be finite and within the bounds; ``above`` is an
        exclusive minimum."""
        self.seen.add(key)
        if key not in self.raw:
            if default is _REQUIRED:
                self.errors.append(f"{self.name}.{key}: required key missing")
                return None
            return default
        text = self.raw[key]
        try:
            val = conv(text)
        except ValueError as err:
            self.errors.append(f"{self.name}.{key}: " + (
                f"expected {_EXPECTED[conv]}, got {text!r}" if conv in _EXPECTED else str(err)))
            return None
        for x in val if isinstance(val, tuple) else (val,):
            if isinstance(x, float) and not math.isfinite(x):
                problem = "must be a finite number"
            elif minimum is not None and x < minimum:
                problem = f"must be >= {minimum}"
            elif maximum is not None and x > maximum:
                problem = f"must be <= {maximum}"
            elif above is not None and x <= above:
                problem = f"must be > {above}"
            else:
                continue
            self.errors.append(f"{self.name}.{key}: {problem}, got {x}")
            return None
        if choices is not None and val not in choices:
            self.errors.append(f"{self.name}.{key}: must be one of {sorted(choices)}, got {val!r}")
            return None
        return val

    def finish(self):
        for key in self.raw:
            if key not in self.seen:
                self.errors.append(f"{self.name}.{key}: unknown key")


def roi_mask(roi, dims, spacing) -> RoiMask:
    """The mask of ``roi`` = (label, cx, cy, radius) on a ``dims`` image of
    ``spacing`` mm pixels; a ConfigurationError if it covers no pixel centre."""
    label, cx, cy, radius = roi
    try:
        return circle_mask(dims, spacing, cx, cy, radius, label)
    except ValueError:
        text = f"{label} {cx:g} {cy:g} {radius:g}"
        raise ConfigurationError(f"metrics.rois: circle covers no pixel centre of the "
                                 f"{tuple(dims)} image, got {text!r}") from None


def _learning_side(v, stride, geometry, errors: list):
    """The side of ``[learning]``'s patches of v pixels; None when v is absent,
    or once it is recorded why they do not tile the image of ``geometry`` in
    steps of ``stride`` (either not checked when None)."""
    if v is None:
        return None
    side, n_errors = math.isqrt(v), len(errors)
    if side * side != v:
        errors.append(f"learning.v: must be a perfect square (side^2), got {v}")
        return None
    if stride is not None and stride > side:
        errors.append(f"learning.stride: must be <= the patch side ({side}), got {stride}")
    if geometry is not None and side > min(geometry.image_dims):
        errors.append(f"learning.v: patch side {side} exceeds geometry.image_dims "
                      f"{geometry.image_dims}")
    return side if len(errors) == n_errors else None


_KNOWN_SECTIONS = ("geometry", "model", "phantom", "learning", "recon", "metrics", "io")


def parse_config(path) -> ExperimentConfig:
    """Parse and fully validate an experiment file; raises ValidationError with
    the complete list of problems found."""
    path = Path(path)
    text = path.read_text(encoding="utf-8")

    parser = configparser.ConfigParser(comment_prefixes=("#", ";"),
                                       inline_comment_prefixes=None,
                                       interpolation=None, strict=True)
    parser.optionxform = str  # keys are case sensitive
    try:
        parser.read_string(text, source=str(path))
    except configparser.DuplicateOptionError as err:
        raise ValidationError([f"{err.section}.{err.option}: duplicate key"]) from err
    except configparser.Error as err:
        raise ValidationError([str(err)]) from err

    errors: list[str] = []
    for section in parser.sections():
        if section not in _KNOWN_SECTIONS:
            errors.append(f"{section}: unknown section")

    cfg = ExperimentConfig()
    cfg.config_hash = hashlib.sha256(text.encode("utf-8")).hexdigest()

    if parser.has_section("geometry"):
        s = _Section("geometry", parser["geometry"], errors)
        g = dict(beam_kind=s.get("beam", str, "parallel", choices={"parallel", "fan"}),
                 n_detectors=s.get("n_detectors", int, minimum=1),
                 n_views=s.get("n_views", int, minimum=1),
                 detector_spacing=s.get("detector_spacing", float,
                                        minimum=_DETECTOR_SPACING_MIN),
                 angular_range=s.get("angular_range", float, np.pi, above=0.0,
                                     maximum=_ANGULAR_RANGE_MAX),
                 source_to_iso=s.get("source_to_iso", float, SystemGeometry.source_to_iso),
                 source_to_detector=s.get("source_to_detector", float,
                                          SystemGeometry.source_to_detector),
                 image_dims=s.get("image_dims", _pair(int), minimum=1),
                 pixel_spacing=s.get("pixel_spacing", _pair(float),
                                     SystemGeometry.pixel_spacing, above=0.0,
                                     maximum=_PIXEL_SPACING_MAX))
        s.finish()
        if None not in g.values():
            try:
                cfg.geometry = SystemGeometry(**g)
            except ConfigurationError as err:
                errors.append(f"geometry: {err}")

    if parser.has_section("model"):
        s = _Section("model", parser["model"], errors)
        m = dict(i0=s.get("I0", float, above=0.0, maximum=POISSON_MEAN_MAX),
                 sigma2=s.get("sigma2", float, SpModel.sigma2, minimum=0.0,
                              maximum=_SIGMA2_MAX),
                 s1=s.get("s1", float, SpModel.s1, **_S1_BOUNDS),
                 s2=s.get("s2", float, SpModel.s2))
        s.finish()
        if None not in m.values():
            cfg.model = SpModel(**m)

    if parser.has_section("phantom"):
        s = _Section("phantom", parser["phantom"], errors)
        lines = s.get("shapes", _lines)
        s.finish()
        shapes = []
        for line in lines or []:
            parts = line.split()
            if len(parts) != 6:
                errors.append(f"phantom.shapes: expected 6 values per line, got {line!r}")
                continue
            try:
                values = [float(p) for p in parts]
                if not all(map(math.isfinite, values)):
                    raise ValueError("values must be finite")
                shapes.append(Ellipse(*values))
            except ValueError as err:
                errors.append(f"phantom.shapes: {err} in {line!r}")
        if lines is not None:
            if not parser.has_section("geometry"):
                errors.append("phantom: requires a [geometry] section for the canvas")
            cfg.phantom = tuple(shapes)

    patch_side = None  # [learning]'s, which the learned transforms will have
    if parser.has_section("learning"):
        s = _Section("learning", parser["learning"], errors)
        lc = dict(k=s.get("K", int, minimum=1), v=s.get("v", int, minimum=1),
                  stride=s.get("stride", int, PatchConfig.stride, minimum=1),
                  gamma_c=s.get("gamma_c", float, above=0.0, maximum=_GAMMA_C_MAX),
                  lambda0=s.get("lambda0", float, minimum=_LAMBDA0_MIN),
                  iters=s.get("iters", int, LearningConfig.iters, minimum=1),
                  n_patches=s.get("n_patches", int, LearningConfig.n_patches, minimum=1))
        s.finish()
        stride = lc.pop("stride")
        patch_side = _learning_side(lc.pop("v"), stride, cfg.geometry, errors)
        if None not in (patch_side, stride, *lc.values()):
            cfg.learning = LearningConfig(patch=PatchConfig(patch_side, stride), **lc)

    if parser.has_section("metrics"):
        s = _Section("metrics", parser["metrics"], errors)
        mu = s.get("mu_water", float, MetricsConfig.mu_water, **_MU_WATER_BOUNDS)
        window = s.get("window", _pair(float), MetricsConfig.window)
        roi_lines = s.get("rois", _lines, MetricsConfig.rois)
        s.finish()
        if window is not None and not window[1] > window[0]:
            errors.append(f"metrics.window: must satisfy hi > lo, got {window[0]} {window[1]}")
            window = None
        rois = []
        for line in roi_lines:
            parts = line.split()
            if len(parts) != 4:
                errors.append(f"metrics.rois: expected 'label cx cy radius', got {line!r}")
                continue
            try:
                roi = (parts[0], float(parts[1]), float(parts[2]), float(parts[3]))
            except ValueError:
                errors.append(f"metrics.rois: could not parse {line!r}")
                continue
            if not all(map(math.isfinite, roi[1:])):
                errors.append(f"metrics.rois: values must be finite, got {line!r}")
                continue
            if not roi[3] > 0:
                errors.append(f"metrics.rois: radius must be > 0, got {line!r}")
                continue
            if cfg.geometry is not None:
                try:
                    roi_mask(roi, cfg.geometry.image_dims, cfg.geometry.pixel_spacing)
                except ConfigurationError as err:
                    errors.append(str(err))
                    continue
            rois.append(roi)
        if None not in (mu, window):
            cfg.metrics = MetricsConfig(mu_water=mu, rois=tuple(rois), window=window)

    if parser.has_section("recon"):
        s = _Section("recon", parser["recon"], errors)
        beta = s.get("beta", float, minimum=0.0)
        gamma_c = s.get("gamma_c", float, above=0.0, maximum=_GAMMA_C_MAX)
        n_outer = s.get("N", int, minimum=0)
        n_inner = s.get("P", int, ReconConfig.n_inner, minimum=1)
        n_sub = s.get("M", int, ReconConfig.n_subsets, minimum=1)
        if None not in (n_sub, cfg.geometry) and n_sub > cfg.geometry.n_views:
            errors.append(f"recon.M: must be <= geometry.n_views "
                          f"({cfg.geometry.n_views}), got {n_sub}")
            n_sub = None
        alpha = s.get("alpha", float, ReconConfig.alpha)
        x_max = s.get("x_max", float, ReconConfig.x_max, above=0.0)
        stride = s.get("stride", int, PatchConfig.stride, minimum=1)
        beta_ep = s.get("beta_ep", float, minimum=0.0)
        # in HU, where EpParams.delta is in mm^-1
        delta = s.get("delta", float, 100.0, above=0.0)
        potential = s.get("potential", str, EpParams.potential_kind,
                          choices={"lange", "hyperbola"})
        ep_iters = s.get("ep_iters", int, EpParams.iters, minimum=1)
        s.finish()
        if alpha is not None and not (1.0 <= alpha < 2.0):
            errors.append(f"recon.alpha: must satisfy 1 <= alpha < 2, got {alpha}")
            alpha = None
        if delta is not None:  # in mm^-1, where a few 1e-320 HU underflow to 0
            delta_hu, delta = delta, delta * cfg.metrics.mu_water / 1000.0
            if not delta > 0:
                errors.append(f"recon.delta: {delta_hu} HU is 0 mm^-1 at metrics.mu_water "
                              f"{cfg.metrics.mu_water}; must be larger")
                delta = None
        # stage_reconstruct checks the stride again, against the transforms
        if None not in (stride, patch_side) and stride > patch_side:
            errors.append(f"recon.stride: must be <= the patch side ({patch_side}), got {stride}")
        if None not in (beta, gamma_c, n_outer, n_inner, n_sub, alpha, x_max, stride, beta_ep,
                        delta, potential, ep_iters):
            ep = EpParams(beta_ep=beta_ep, delta=delta, potential_kind=potential, iters=ep_iters)
            try:
                cfg.recon = ReconConfig(beta=beta, gamma_c=gamma_c, n_outer=n_outer,
                                        n_inner=n_inner, n_subsets=n_sub, alpha=alpha,
                                        x_max=x_max, patch_stride=stride, ep=ep)
            except ConfigurationError as err:
                errors.append(f"recon: {err}")

    if parser.has_section("io"):
        s = _Section("io", parser["io"], errors)
        io = dict(out_dir=s.get("out_dir"), seed=s.get("seed", int, IoConfig.seed, **_SEED_BOUNDS))
        s.finish()
        if None not in io.values():
            cfg.io = IoConfig(**io)

    if errors:
        raise ValidationError(errors)
    return cfg
