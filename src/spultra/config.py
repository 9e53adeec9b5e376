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
            if (seed := _value("io", "seed", str(seed), errors)) is None:
                raise ValidationError(errors)
        cfg = ExperimentConfig(**self.__dict__)
        if self.io is not None or out_dir is not None:  # else there is no output directory
            io = self.io or IoConfig(out_dir=str(out_dir))
            cfg.io = replace(io, out_dir=str(out_dir) if out_dir is not None else io.out_dir,
                             seed=seed if seed is not None else io.seed)
        return cfg


# section -> INI key -> (the field its value fills, reader, default (unconverted)
# or _REQUIRED, bounds); the sections are read in this order. Every number
# read, each of a pair's too, must be finite and within its row's bounds:
# ``minimum``, ``maximum``, ``above`` (an exclusive minimum); a string must be
# one of ``choices``, and a multi-line value is bounded where its lines are read.
_REQUIRED = object()
_KEYS = {
    "geometry": {
        "beam": ("beam_kind", str, "parallel", dict(choices={"parallel", "fan"})),
        "n_detectors": ("n_detectors", int, _REQUIRED, dict(minimum=1)),
        "n_views": ("n_views", int, _REQUIRED, dict(minimum=1)),
        # the filtered backprojection's ramp filter scales with 1 / detector_spacing
        # and overflows at about 1e-300 mm
        "detector_spacing": ("detector_spacing", float, _REQUIRED, dict(minimum=1e-6)),
        # a scan past one turn repeats its views
        "angular_range": ("angular_range", float, np.pi, dict(above=0.0, maximum=2 * math.pi)),
        "source_to_iso": ("source_to_iso", float, SystemGeometry.source_to_iso, {}),
        "source_to_detector": ("source_to_detector", float,
                               SystemGeometry.source_to_detector, {}),
        "image_dims": ("image_dims", _pair(int), _REQUIRED, dict(minimum=1)),
        # phantoms and ROI masks square pixel coordinates, which overflow at 1e300
        # mm pixels, and a run at 1e150 mm already ends with a non-finite image
        "pixel_spacing": ("pixel_spacing", _pair(float), SystemGeometry.pixel_spacing,
                          dict(above=0.0, maximum=1e6)),
    },
    "model": {
        "I0": ("i0", float, _REQUIRED, dict(above=0.0, maximum=POISSON_MEAN_MAX)),
        # s1 and I0 + sigma2 are squared as Python floats (OverflowError past about
        # 1.3e154), and the post-log line integrals (about log(I0 / y) / s1) and
        # their weights (which scale with s1^2) must stay finite at any I0 and s2
        "sigma2": ("sigma2", float, SpModel.sigma2, dict(minimum=0.0, maximum=1e150)),
        "s1": ("s1", float, SpModel.s1, dict(minimum=1e-6, maximum=1e6)),
        "s2": ("s2", float, SpModel.s2, {}),
    },
    "phantom": {
        # each line's attenuation (mm^-1), as physical a bound as mu_water's and
        # s1's: learning from a truth image of 1e200 ends in a LinAlgError, and
        # the HU images of one of 1e100 overflow in to_hu and SSIM
        "shapes": ("phantom", _lines, _REQUIRED, dict(maximum=1e6)),
    },
    "learning": {  # v and stride fill the patch, as PatchConfig(sqrt(v), stride)
        "K": ("k", int, _REQUIRED, dict(minimum=1)),
        "v": ("v", int, _REQUIRED, dict(minimum=1)),
        "stride": ("stride", int, PatchConfig.stride, dict(minimum=1)),
        # the coding threshold is squared (a Python float raises OverflowError past
        # about 1.3e154), and the square is summed over patches and multiplied by beta
        "gamma_c": ("gamma_c", float, _REQUIRED, dict(above=0.0, maximum=1e150)),
        # the transform update floors the Gram eigenvalues at lambda0 ||X_k||^2 1e-15:
        # from a lambda0 of about 1e-155 the learned transforms overflow within a few
        # rounds (probed on a 16x16 copy of configs/waterdisk64.ini); at 1e300 and an
        # attenuation of 1e3, lambda0 ||X_k||^2 overflows and its product with eye(v)
        # turns the Gram matrix NaN (inf * 0)
        "lambda0": ("lambda0", float, _REQUIRED, dict(minimum=1e-100, maximum=1e100)),
        "iters": ("iters", int, LearningConfig.iters, dict(minimum=1)),
        "n_patches": ("n_patches", int, LearningConfig.n_patches, dict(minimum=1)),
    },
    "metrics": {
        # HU images are 1000 mu / mu_water, and SSIM multiplies fourth powers of
        # them: at the lower bound an attenuation of 1 mm^-1 is 1e9 HU, and SSIM
        # stays finite up to about 1e76 HU; from a mu_water of about 1e80 those
        # products underflow and SSIM divides 0 by 0
        "mu_water": ("mu_water", float, MetricsConfig.mu_water,
                     dict(minimum=1e-6, maximum=1e6)),
        "window": ("window", _pair(float), MetricsConfig.window, {}),
        "rois": ("rois", _lines, MetricsConfig.rois, {}),
    },
    "recon": {  # beta_ep, delta, potential and ep_iters fill the EpParams
        "beta": ("beta", float, _REQUIRED, dict(minimum=0.0)),
        "gamma_c": ("gamma_c", float, _REQUIRED, dict(above=0.0, maximum=1e150)),  # as learning's
        "N": ("n_outer", int, _REQUIRED, dict(minimum=0)),
        "P": ("n_inner", int, ReconConfig.n_inner, dict(minimum=1)),
        "M": ("n_subsets", int, ReconConfig.n_subsets, dict(minimum=1)),
        "alpha": ("alpha", float, ReconConfig.alpha, {}),
        "x_max": ("x_max", float, ReconConfig.x_max, dict(above=0.0)),
        "stride": ("patch_stride", int, ReconConfig.patch_stride, dict(minimum=1)),
        "beta_ep": ("beta_ep", float, _REQUIRED, dict(minimum=0.0)),
        # in HU, where EpParams.delta is in mm^-1
        "delta": ("delta", float, 100.0, dict(above=0.0)),
        "potential": ("potential_kind", str, EpParams.potential_kind,
                      dict(choices={"lange", "hyperbola"})),
        "ep_iters": ("iters", int, EpParams.iters, dict(minimum=1)),
    },
    "io": {
        "out_dir": ("out_dir", str, _REQUIRED, {}),
        # the signed 64-bit range: the seed becomes a Philox key word, and larger
        # values overflow (from 2**64) or go through a lossy cast on the way
        "seed": ("seed", int, IoConfig.seed, dict(minimum=0, maximum=2 ** 63 - 1)),
    },
}


def _problem(x, minimum=None, maximum=None, above=None, choices=None):
    """How the value ``x`` breaks its row's bounds, or None."""
    if not isinstance(x, (int, float)):  # a string, or a multi-line value's lines
        return None if choices is None or x in choices else f"must be one of {sorted(choices)}"
    if isinstance(x, float) and not math.isfinite(x):
        return "must be a finite number"
    if minimum is not None and x < minimum:
        return f"must be >= {minimum}"
    if maximum is not None and x > maximum:
        return f"must be <= {maximum}"
    if above is not None and x <= above:
        return f"must be > {above}"
    return None


def _value(section, key, text, errors: list):
    """``text`` read by the ``section.key`` row, or None once the reason it is
    invalid is recorded in ``errors``."""
    _, conv, _, bounds = _KEYS[section][key]
    try:
        val = conv(text)
    except ValueError as err:
        errors.append(f"{section}.{key}: " + (
            f"expected {_EXPECTED[conv]}, got {text!r}" if conv in _EXPECTED else str(err)))
        return None
    for x in val if isinstance(val, tuple) else (val,):
        if (problem := _problem(x, **bounds)) is not None:
            errors.append(f"{section}.{key}: {problem}, got {x!r}")
            return None
    return val


def _read(parser, section, errors: list) -> dict | None:
    """``section`` of ``parser`` read through its rows, None without it: field
    -> value, the row's default for an absent key, or None once the reason it
    is missing or invalid is recorded in ``errors``; the section's unknown keys
    are recorded after its known ones."""
    if not parser.has_section(section):
        return None
    raw, values = parser[section], {}
    for key, (field, _, default, _) in _KEYS[section].items():
        if key in raw:
            values[field] = _value(section, key, raw[key], errors)
        elif default is _REQUIRED:
            errors.append(f"{section}.{key}: required key missing")
            values[field] = None
        else:
            values[field] = default
    errors.extend(f"{section}.{key}: unknown key" for key in raw if key not in _KEYS[section])
    return values


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

    errors = [f"{section}: unknown section" for section in parser.sections()
              if section not in _KEYS]
    cfg = ExperimentConfig(config_hash=hashlib.sha256(text.encode("utf-8")).hexdigest())

    if (g := _read(parser, "geometry", errors)) is not None and None not in g.values():
        try:
            cfg.geometry = SystemGeometry(**g)
        except ConfigurationError as err:
            errors.append(f"geometry: {err}")

    if (m := _read(parser, "model", errors)) is not None and None not in m.values():
        cfg.model = SpModel(**m)

    if (ph := _read(parser, "phantom", errors)) is not None and ph["phantom"] is not None:
        shapes, bounds = [], _KEYS["phantom"]["shapes"][3]  # the attenuation's
        for line in ph["phantom"]:
            parts = line.split()
            if len(parts) != 6:
                errors.append(f"phantom.shapes: expected 6 values per line, got {line!r}")
                continue
            try:
                values = [float(p) for p in parts]
                if not all(map(math.isfinite, values)):
                    raise ValueError("values must be finite")
                if (problem := _problem(values[5], **bounds)) is not None:
                    raise ValueError(f"attenuation {problem}")
                shapes.append(Ellipse(*values))
            except ValueError as err:
                errors.append(f"phantom.shapes: {err} in {line!r}")
        if not parser.has_section("geometry"):
            errors.append("phantom: requires a [geometry] section for the canvas")
        cfg.phantom = tuple(shapes)

    patch_side = None  # [learning]'s, which the learned transforms will have
    if (lc := _read(parser, "learning", errors)) is not None:
        stride = lc.pop("stride")
        patch_side = _learning_side(lc.pop("v"), stride, cfg.geometry, errors)
        if None not in (patch_side, stride, *lc.values()):
            cfg.learning = LearningConfig(patch=PatchConfig(patch_side, stride), **lc)

    if (mc := _read(parser, "metrics", errors)) is not None:
        window = mc["window"]
        if window is not None and not window[1] > window[0]:
            errors.append(f"metrics.window: must satisfy hi > lo, got {window[0]} {window[1]}")
            window = None
        rois = []
        for line in mc["rois"]:
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
        if None not in (mc["mu_water"], window):
            cfg.metrics = MetricsConfig(mu_water=mc["mu_water"], rois=tuple(rois), window=window)

    if (rc := _read(parser, "recon", errors)) is not None:
        n_sub, alpha, delta = rc["n_subsets"], rc["alpha"], rc["delta"]
        if None not in (n_sub, cfg.geometry) and n_sub > cfg.geometry.n_views:
            errors.append(f"recon.M: must be <= geometry.n_views "
                          f"({cfg.geometry.n_views}), got {n_sub}")
            rc["n_subsets"] = None
        if alpha is not None and not (1.0 <= alpha < 2.0):
            errors.append(f"recon.alpha: must satisfy 1 <= alpha < 2, got {alpha}")
            rc["alpha"] = None
        if delta is not None:  # in mm^-1, where a few 1e-320 HU underflow to 0
            rc["delta"] = delta * cfg.metrics.mu_water / 1000.0
            if not rc["delta"] > 0:
                errors.append(f"recon.delta: {delta} HU is 0 mm^-1 at metrics.mu_water "
                              f"{cfg.metrics.mu_water}; must be larger")
                rc["delta"] = None
        # stage_reconstruct checks the stride again, against the transforms
        stride = rc["patch_stride"]
        if None not in (stride, patch_side) and stride > patch_side:
            errors.append(f"recon.stride: must be <= the patch side ({patch_side}), got {stride}")
        if None not in rc.values():
            ep = {f: rc.pop(f) for f in ("beta_ep", "delta", "potential_kind", "iters")}
            try:
                cfg.recon = ReconConfig(ep=EpParams(**ep), **rc)
            except ConfigurationError as err:
                errors.append(f"recon: {err}")

    if (io := _read(parser, "io", errors)) is not None and None not in io.values():
        cfg.io = IoConfig(**io)

    if errors:
        raise ValidationError(errors)
    return cfg
