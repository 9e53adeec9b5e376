"""Experiment configuration: INI sections with strict validation.

Parsing collects every problem (unknown keys, type errors, range violations)
and reports them together, each naming the offending ``section.key``.
Sections may be omitted; each pipeline stage checks that the sections it
needs are present.
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, ValidationError
from .geometry import SystemGeometry
from .metrics import circle_mask
from .recon import EpParams, ReconConfig
from .sim import Ellipse, PhantomSpec
from .spstats import SpModel
from .ultra import PatchConfig

_REQUIRED = object()
# the signed 64-bit range: the seed becomes a Philox key word, and larger
# values overflow (from 2**64) or go through a lossy cast on the way
_SEED_MAX = 2 ** 63 - 1


def _range_error(name, val, minimum=None, maximum=None) -> str | None:
    """The message for ``val`` outside ``[minimum, maximum]``, else ``None``."""
    if minimum is not None and val < minimum:
        return f"{name}: must be >= {minimum}, got {val}"
    if maximum is not None and val > maximum:
        return f"{name}: must be <= {maximum}, got {val}"
    return None


@dataclass(frozen=True)
class LearningConfig:
    k: int
    v: int
    gamma_c: float
    lambda0: float
    stride: int = 1
    iters: int = 50
    n_patches: int = 10000


@dataclass(frozen=True)
class MetricsConfig:
    mu_water: float = 0.02
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
    phantom: PhantomSpec | None = None
    learning: LearningConfig | None = None
    recon: ReconConfig | None = None
    metrics: MetricsConfig = MetricsConfig()
    io: IoConfig | None = None
    config_hash: str = ""

    def with_overrides(self, out_dir=None, seed=None) -> "ExperimentConfig":
        """A copy with ``[io]`` out_dir and seed replaced; an out-of-range seed
        raises :class:`ValidationError`, as it would in the INI file."""
        if seed is not None:
            err = _range_error("io.seed", int(seed), 0, _SEED_MAX)
            if err:
                raise ValidationError([err])
        cfg = ExperimentConfig(**self.__dict__)
        if self.io is not None and (out_dir is not None or seed is not None):
            cfg.io = replace(self.io,
                             out_dir=str(out_dir) if out_dir is not None else self.io.out_dir,
                             seed=int(seed) if seed is not None else self.io.seed)
        elif out_dir is not None or seed is not None:
            cfg.io = IoConfig(out_dir=str(out_dir or "."), seed=int(seed or 0))
        return cfg


class _Section:
    """Typed accessor over one INI section that records errors instead of raising."""

    def __init__(self, name, raw: dict, errors: list):
        self.name = name
        self.raw = dict(raw)
        self.errors = errors
        self.seen = set()

    def _fetch(self, key, default):
        self.seen.add(key)
        if key not in self.raw:
            if default is _REQUIRED:
                self.errors.append(f"{self.name}.{key}: required key missing")
                return None
            return default
        return self.raw[key]

    def _convert(self, key, text, conv, what):
        try:
            return conv(text)
        except (TypeError, ValueError):
            self.errors.append(f"{self.name}.{key}: expected {what}, got {text!r}")
            return None

    def get_int(self, key, default=_REQUIRED, minimum=None, maximum=None):
        text = self._fetch(key, default)
        if text is None or not isinstance(text, str):
            return text
        val = self._convert(key, text, int, "an integer")
        err = None if val is None else _range_error(f"{self.name}.{key}", val, minimum, maximum)
        if err:
            self.errors.append(err)
            return None
        return val

    def get_float(self, key, default=_REQUIRED, minimum=None, exclusive_min=None):
        text = self._fetch(key, default)
        if text is None or not isinstance(text, str):
            return text
        val = self._convert(key, text, float, "a number")
        if val is None:
            return None
        err = _range_error(f"{self.name}.{key}", val, minimum)
        if err:
            self.errors.append(err)
            return None
        if exclusive_min is not None and val <= exclusive_min:
            self.errors.append(f"{self.name}.{key}: must be > {exclusive_min}, got {val}")
            return None
        return val

    def get_str(self, key, default=_REQUIRED, choices=None):
        val = self._fetch(key, default)
        if val is None:
            return None
        if choices is not None and val not in choices:
            self.errors.append(f"{self.name}.{key}: must be one of {sorted(choices)}, got {val!r}")
            return None
        return val

    def get_pair(self, key, conv, default=_REQUIRED):
        text = self._fetch(key, default)
        if text is None or not isinstance(text, str):
            return text
        parts = text.split()
        if len(parts) != 2:
            self.errors.append(f"{self.name}.{key}: expected two values, got {text!r}")
            return None
        try:
            return (conv(parts[0]), conv(parts[1]))
        except ValueError:
            self.errors.append(f"{self.name}.{key}: could not parse {text!r}")
            return None

    def get_multiline(self, key, default=_REQUIRED):
        text = self._fetch(key, default)
        if text is None or not isinstance(text, str):
            return text
        return [line.strip() for line in text.splitlines() if line.strip()]

    def finish(self):
        for key in self.raw:
            if key not in self.seen:
                self.errors.append(f"{self.name}.{key}: unknown key")


def _patch_fits(section: str, v: int, stride: int, geometry, errors: list) -> bool:
    """Record why patches of side sqrt(v) stepped by ``stride`` cannot tile the
    image of ``geometry`` (skipped when None); True when they can."""
    side = int(round(np.sqrt(v)))
    fits = True
    if stride > side:
        errors.append(f"{section}.stride: must be <= the patch side ({side}), got {stride}")
        fits = False
    if geometry is not None and side > min(geometry.image_dims):
        errors.append(f"{section}.v: patch side {side} exceeds geometry.image_dims "
                      f"{geometry.image_dims}")
        fits = False
    return fits


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
        beam = s.get_str("beam", "parallel", choices={"parallel", "fan"})
        n_det = s.get_int("n_detectors", minimum=1)
        n_views = s.get_int("n_views", minimum=1)
        det_sp = s.get_float("detector_spacing", exclusive_min=0.0)
        ang = s.get_float("angular_range", str(np.pi), exclusive_min=0.0)
        dso = s.get_float("source_to_iso", "0")
        dsd = s.get_float("source_to_detector", "0")
        dims = s.get_pair("image_dims", int)
        spacing = s.get_pair("pixel_spacing", float, "1 1")
        s.finish()
        if None not in (beam, n_det, n_views, det_sp, ang, dso, dsd, dims, spacing):
            try:
                cfg.geometry = SystemGeometry(
                    beam_kind=beam, n_detectors=n_det, n_views=n_views,
                    detector_spacing=det_sp, angular_range=float(ang),
                    image_dims=tuple(dims), pixel_spacing=tuple(spacing),
                    source_to_iso=float(dso), source_to_detector=float(dsd))
            except ConfigurationError as err:
                errors.append(f"geometry: {err}")

    if parser.has_section("model"):
        s = _Section("model", parser["model"], errors)
        i0 = s.get_float("I0", exclusive_min=0.0)
        sigma2 = s.get_float("sigma2", "25", minimum=0.0)
        s1 = s.get_float("s1", "1", exclusive_min=0.0)
        s2 = s.get_float("s2", "0")
        s.finish()
        if None not in (i0, sigma2, s1, s2):
            cfg.model = SpModel(i0=i0, sigma2=float(sigma2), s1=float(s1), s2=float(s2))

    if parser.has_section("phantom"):
        s = _Section("phantom", parser["phantom"], errors)
        lines = s.get_multiline("shapes")
        s.finish()
        shapes = []
        for line in lines or []:
            parts = line.split()
            if len(parts) != 6:
                errors.append(f"phantom.shapes: expected 6 values per line, got {line!r}")
                continue
            try:
                cx, cy, a, b, th, mu = (float(p) for p in parts)
                shapes.append(Ellipse(cx, cy, a, b, th, mu))
            except ValueError as err:
                errors.append(f"phantom.shapes: {err} in {line!r}")
        if lines is not None:
            if cfg.geometry is None:
                errors.append("phantom: requires a [geometry] section for the canvas")
            else:
                cfg.phantom = PhantomSpec(dims=cfg.geometry.image_dims,
                                          spacing=cfg.geometry.pixel_spacing,
                                          shapes=tuple(shapes))

    learning_v = None
    if parser.has_section("learning"):
        s = _Section("learning", parser["learning"], errors)
        k = s.get_int("K", minimum=1)
        v = s.get_int("v", minimum=1)
        stride = s.get_int("stride", "1", minimum=1)
        gamma_c = s.get_float("gamma_c", exclusive_min=0.0)
        lambda0 = s.get_float("lambda0", exclusive_min=0.0)
        iters = s.get_int("iters", "50", minimum=1)
        n_patches = s.get_int("n_patches", "10000", minimum=1)
        s.finish()
        if v is not None and int(round(np.sqrt(v))) ** 2 != v:
            errors.append(f"learning.v: must be a perfect square (side^2), got {v}")
            v = None
        learning_v = v
        if None not in (v, stride) and not _patch_fits("learning", v, stride, cfg.geometry,
                                                       errors):
            v = None
        if None not in (k, v, stride, gamma_c, lambda0, iters, n_patches):
            cfg.learning = LearningConfig(k=k, v=v, gamma_c=gamma_c, lambda0=lambda0,
                                          stride=int(stride), iters=int(iters),
                                          n_patches=int(n_patches))

    mu_water = 0.02
    if parser.has_section("metrics"):
        s = _Section("metrics", parser["metrics"], errors)
        mu = s.get_float("mu_water", "0.02", exclusive_min=0.0)
        window = s.get_pair("window", float, "800 1200")
        roi_lines = s.get_multiline("rois", None)
        s.finish()
        if window is not None and not window[1] > window[0]:
            errors.append(f"metrics.window: must satisfy hi > lo, got {window[0]} {window[1]}")
            window = None
        rois = []
        for line in roi_lines or []:
            parts = line.split()
            if len(parts) != 4:
                errors.append(f"metrics.rois: expected 'label cx cy radius', got {line!r}")
                continue
            try:
                roi = (parts[0], float(parts[1]), float(parts[2]), float(parts[3]))
            except ValueError:
                errors.append(f"metrics.rois: could not parse {line!r}")
                continue
            if not roi[3] > 0:
                errors.append(f"metrics.rois: radius must be > 0, got {line!r}")
                continue
            if cfg.geometry is not None:
                try:
                    circle_mask(cfg.geometry.image_dims, cfg.geometry.pixel_spacing, *roi[1:])
                except ValueError:
                    errors.append(f"metrics.rois: circle covers no pixel centre of the "
                                  f"{cfg.geometry.image_dims} image, got {line!r}")
                    continue
            rois.append(roi)
        if None not in (mu, window):
            mu_water = float(mu)
            cfg.metrics = MetricsConfig(mu_water=mu_water, rois=tuple(rois),
                                        window=tuple(window))

    if parser.has_section("recon"):
        s = _Section("recon", parser["recon"], errors)
        beta = s.get_float("beta", minimum=0.0)
        gamma_c = s.get_float("gamma_c", exclusive_min=0.0)
        n_outer = s.get_int("N", minimum=0)
        n_inner = s.get_int("P", "4", minimum=1)
        n_sub = s.get_int("M", "1", minimum=1)
        if None not in (n_sub, cfg.geometry) and n_sub > cfg.geometry.n_views:
            errors.append(f"recon.M: must be <= geometry.n_views "
                          f"({cfg.geometry.n_views}), got {n_sub}")
            n_sub = None
        alpha = s.get_float("alpha", "1.999")
        x_max = s.get_float("x_max", "0.1", exclusive_min=0.0)
        v = s.get_int("v", None, minimum=1)
        stride = s.get_int("stride", "1", minimum=1)
        beta_ep = s.get_float("beta_ep", None, minimum=0.0)
        delta = s.get_float("delta", "100", exclusive_min=0.0)  # HU
        potential = s.get_str("potential", "hyperbola", choices={"lange", "hyperbola"})
        ep_iters = s.get_int("ep_iters", "50", minimum=1)
        s.finish()
        if alpha is not None and not (1.0 <= float(alpha) < 2.0):
            errors.append(f"recon.alpha: must satisfy 1 <= alpha < 2, got {alpha}")
            alpha = None
        # a v taken from [learning] was already checked against the image there
        v_geometry = cfg.geometry if v is not None else None
        if v is None:
            v = learning_v
        if v is None:
            errors.append("recon.v: required (or provide [learning].v)")
        elif int(round(np.sqrt(v))) ** 2 != v:
            errors.append(f"recon.v: must be a perfect square (side^2), got {v}")
            v = None
        if None not in (v, stride) and not _patch_fits("recon", v, stride, v_geometry, errors):
            v = None
        if None not in (beta, gamma_c, n_outer, n_inner, n_sub, alpha, x_max, v,
                        stride, delta, potential, ep_iters):
            ep = None
            if beta_ep is not None:
                ep = EpParams(beta_ep=beta_ep,
                              delta=float(delta) * mu_water / 1000.0,
                              potential_kind=potential, iters=int(ep_iters))
            try:
                patch = PatchConfig(patch_side=int(round(np.sqrt(v))), stride=int(stride))
                cfg.recon = ReconConfig(beta=beta, gamma_c=gamma_c, n_outer=int(n_outer),
                                        n_inner=int(n_inner), n_subsets=int(n_sub),
                                        alpha=float(alpha), x_max=float(x_max),
                                        patch=patch, ep=ep)
            except ConfigurationError as err:
                errors.append(f"recon: {err}")

    if parser.has_section("io"):
        s = _Section("io", parser["io"], errors)
        out_dir = s.get_str("out_dir")
        seed = s.get_int("seed", "0", minimum=0, maximum=_SEED_MAX)
        s.finish()
        if None not in (out_dir, seed):
            cfg.io = IoConfig(out_dir=out_dir, seed=int(seed))

    if errors:
        raise ValidationError(errors)
    return cfg
