"""Batch experiment orchestration: simulate, learn, reconstruct, evaluate.

Each stage reads and writes files under the configured output directory and
updates a manifest recording the config hash, seed, and checksums of the
deterministic artifacts (images, sinograms, transforms, metrics). Rerunning
with the same config and seed must reproduce those files byte for byte;
mismatches against an existing manifest are reported.
"""

from __future__ import annotations

import logging
from pathlib import Path

import numpy as np

from . import io as sio
from .config import ExperimentConfig, roi_mask
from .errors import ConfigurationError, NumericalError
from .metrics import RoiMask, rmse_roi, roi_stats, ssim, to_hu
from .recon import (fbp_reconstruct, pwls_ep_reconstruct, pwls_ultra_reconstruct,
                    spultra_reconstruct, union_patch)
from .sim import make_phantom, nonpositive_fraction, simulate_prelog
from .spstats import post_log_convert
from .ultra import extract_patches, learn_transforms, load_transforms, save_transforms

log = logging.getLogger(__name__)

METHODS = ("fbp", "pwls-ep", "pwls-ultra", "spultra")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_MISSING_INPUT = 2
EXIT_NUMERICAL = 3

# the post-log weights multiply each count's square by s1^2 (up to 1e12), so a
# count of 1e150 already overflows them at s1 = 1e6; no accepted config
# simulates a count near this bound: Poisson means are at most 9e18 and the
# electronic noise sigma at most 1e75
COUNT_MAX = 1e100


class MissingArtifact(FileNotFoundError):
    pass


def _method_slug(method: str) -> str:
    return method.replace("-", "_")


# the config sections each stage reads, in the order ``all`` runs the stages
_SECTIONS = {"simulate": ("geometry", "model", "phantom", "io"), "learn": ("learning", "io"),
             "reconstruct": ("geometry", "model", "recon", "io"), "evaluate": ("io",)}


def _require(cfg, *stages):
    """Raise unless ``cfg`` has every section that ``stages`` read."""
    missing = [s for s in dict.fromkeys(s for st in stages for s in _SECTIONS[st])
               if getattr(cfg, s) is None]
    if missing:
        raise ConfigurationError(f"config sections required for {', '.join(stages)}: "
                                 f"{missing}")


def _sino_spacing(geom):
    return (geom.angular_range / geom.n_views, geom.detector_spacing)


def _read_sized(path: Path, what: str, shape=None):
    """The 2D array and spacing in ``path``, all of it finite. An array of
    another shape than ``shape`` (when given) was left by a run of another
    config; a non-finite value or another rank means a corrupt file."""
    if not path.exists():
        raise MissingArtifact(f"{what} not found: {path}")
    data, spacing = sio.read_spim(path)
    if shape is not None and data.shape != tuple(shape):
        raise ConfigurationError(
            f"{path} holds an array of shape {data.shape} but the config expects "
            f"{tuple(shape)}; it is left over from another config, so rerun the "
            f"stage that writes it or use another io.out_dir")
    if data.ndim != 2 or not np.isfinite(data).all():
        problem = "a non-finite value" if data.ndim == 2 else f"a {data.ndim}-D array"
        raise ConfigurationError(f"{path} holds {problem}; rerun the stage that writes it")
    return data, spacing


def _write_image(out: Path, name: str, img: np.ndarray, cfg: ExperimentConfig) -> dict:
    """Write ``<name>.spim`` and its ``.pgm`` preview; the artifact entry."""
    path = out / f"{name}.spim"
    sio.write_spim(path, img, cfg.geometry.pixel_spacing)
    sio.write_pgm(out / f"{name}.pgm", to_hu(img, cfg.metrics.mu_water), cfg.metrics.window)
    return {path.name: path}


def stage_simulate(cfg: ExperimentConfig, out: Path, deterministic: bool) -> dict:
    _require(cfg, "simulate")
    truth = make_phantom(cfg.phantom, cfg.geometry.image_dims, cfg.geometry.pixel_spacing)
    artifacts = _write_image(out, "x_true", truth, cfg)

    sino = simulate_prelog(truth, cfg.model, cfg.geometry, cfg.io.seed,
                           deterministic=deterministic)
    sio.write_spim(out / "sino_raw.spim", sino, _sino_spacing(cfg.geometry))
    log.info("non-positive fraction: %.4f%%", 100 * nonpositive_fraction(sino))
    return {**artifacts, "sino_raw.spim": out / "sino_raw.spim"}


def stage_learn(cfg: ExperimentConfig, out: Path) -> dict:
    _require(cfg, "learn")
    truth_path = out / "x_true.spim"
    truth, _ = _read_sized(truth_path, "training image (run 'simulate' first)")
    lc = cfg.learning
    if lc.patch.patch_side > min(truth.shape):
        raise ConfigurationError(f"learning.v: patch side {lc.patch.patch_side} exceeds the "
                                 f"{truth.shape} image in {truth_path}")
    patches = extract_patches(truth, lc.patch)
    n_avail = patches.shape[1]
    rng = np.random.Generator(np.random.Philox(key=[cfg.io.seed, 1]))
    if n_avail > lc.n_patches:
        sel = rng.choice(n_avail, size=lc.n_patches, replace=False)
        sel.sort()
        patches = patches[:, sel]
    union, trace = learn_transforms(patches, lc.k, lc.gamma_c, lc.lambda0,
                                    lc.iters, seed=cfg.io.seed)
    save_transforms(out / "transforms.ult", union)
    sio.write_csv(out / "learn_trace.csv", ("iter", "objective"), enumerate(trace, start=1))
    return {"transforms.ult": out / "transforms.ult"}


def _fbp(cfg: ExperimentConfig, l_tilde) -> np.ndarray:
    """Filtered backprojection of the flat line integrals ``l_tilde``."""
    geom = cfg.geometry
    return fbp_reconstruct(l_tilde.reshape(geom.n_views, geom.n_detectors), geom)


def _reconstruct_ep(cfg: ExperimentConfig, l_tilde, w_stat) -> np.ndarray:
    geom = cfg.geometry
    if geom.beam_kind == "parallel":  # the solver clips the start to the box
        x0 = _fbp(cfg, l_tilde)
    else:  # the edge-preserving problem is strictly convex, so a zero start is fine
        x0 = np.zeros(geom.image_dims)
    return pwls_ep_reconstruct(l_tilde, w_stat, geom, cfg.recon, x0)


def stage_reconstruct(cfg: ExperimentConfig, out: Path, method: str) -> dict:
    _require(cfg, "reconstruct")
    if method not in METHODS:
        raise ConfigurationError(f"unknown method {method!r}; choose from {METHODS}")
    geom = cfg.geometry
    sino_path = out / "sino_raw.spim"
    y_raw, _ = _read_sized(sino_path, "raw sinogram (run 'simulate' first)",
                           (geom.n_views, geom.n_detectors))
    if y_raw.max() > COUNT_MAX:
        raise ConfigurationError(f"{sino_path} holds a count of {y_raw.max():g}, above "
                                 f"{COUNT_MAX:g}; rerun the stage that writes it")
    l_tilde, w_stat = post_log_convert(y_raw.ravel(), cfg.model)

    truth = None
    truth_path = out / "x_true.spim"
    if truth_path.exists():
        truth, _ = _read_sized(truth_path, "truth", geom.image_dims)

    slug = _method_slug(method)
    trace_path = out / f"trace_{slug}.csv"
    artifacts = {}

    try:
        if method == "fbp":
            img = _fbp(cfg, l_tilde)
        elif method == "pwls-ep":
            img = _reconstruct_ep(cfg, l_tilde, w_stat)
        else:
            tr_path = out / "transforms.ult"
            if not tr_path.exists():
                raise MissingArtifact(f"transform file not found (run 'learn' first): {tr_path}")
            union = load_transforms(tr_path)
            union_patch(union, geom.image_dims, cfg.recon.patch_stride, str(tr_path))
            ep_path = out / "x_pwls_ep.spim"
            if ep_path.exists():  # the PWLS-EP initializer, cached on disk
                x0, _ = _read_sized(ep_path, "edge-preserving initializer", geom.image_dims)
            else:
                x0 = _reconstruct_ep(cfg, l_tilde, w_stat)
                artifacts = _write_image(out, "x_pwls_ep", x0, cfg)
            if method == "spultra":
                img, trace = spultra_reconstruct(y_raw, cfg.model, union, geom, cfg.recon, x0,
                                                 truth=truth, mu_water=cfg.metrics.mu_water)
            else:
                img, trace = pwls_ultra_reconstruct(l_tilde, w_stat, union, geom, cfg.recon,
                                                    x0, truth=truth,
                                                    mu_water=cfg.metrics.mu_water)
            trace.to_csv(trace_path)
    except NumericalError as err:
        where = ""
        if err.trace is not None:  # replaces the trace of any earlier complete run
            err.trace.to_csv(trace_path)
            where = (f" in outer iteration {len(err.trace.columns['iter'])}"
                     f" (partial trace in {trace_path.name})")
        log.error("%s: numerical abort%s: %s", method, where, err)
        raise

    return {**artifacts, **_write_image(out, f"x_{slug}", img, cfg)}


def _eval_rois(cfg: ExperimentConfig, dims, spacing) -> list[RoiMask]:
    # without [geometry] validation could not check that each circle covers a pixel
    return [RoiMask(np.ones(dims, dtype=bool), "all"),
            *(roi_mask(roi, dims, spacing) for roi in cfg.metrics.rois)]


def stage_evaluate(cfg: ExperimentConfig, out: Path) -> dict:
    _require(cfg, "evaluate")
    # the spacing stored with the truth, since [geometry] may be absent here
    truth, spacing = _read_sized(out / "x_true.spim", "truth (run 'simulate' first)",
                                 cfg.geometry.image_dims if cfg.geometry else None)
    rois = _eval_rois(cfg, truth.shape, spacing)
    mu_water = cfg.metrics.mu_water
    hu_truth = to_hu(truth, mu_water)
    run_id = f"{cfg.config_hash[:8]}-s{cfg.io.seed}"

    rows = []
    found = False
    for method in METHODS:
        slug = _method_slug(method)
        path = out / f"x_{slug}.spim"
        if not path.exists():
            continue
        found = True
        img, _ = _read_sized(path, method, truth.shape)
        hu_img = to_hu(img, mu_water)
        rows.append((run_id, method, "rmse_hu", rois[0].label,
                     rmse_roi(img, truth, rois[0], mu_water)))
        # the default 8-pixel window, shrunk to fit images narrower than it
        rows.append((run_id, method, "ssim", rois[0].label,
                     ssim(hu_img, hu_truth, window=min(8, *truth.shape))))
        for roi in rois:
            mean, std = roi_stats(hu_img, roi)
            rows.append((run_id, method, "roi_mean_hu", roi.label, mean))
            rows.append((run_id, method, "roi_std_hu", roi.label, std))
    if not found:
        raise MissingArtifact("no reconstructed images found (run 'reconstruct' first)")

    sio.write_csv(out / "metrics.csv", ("run_id", "method", "metric", "roi_label", "value"), rows)
    return {"metrics.csv": out / "metrics.csv"}


def _methods(cfg: ExperimentConfig, method: str | None) -> list[str]:
    """``method`` alone, or by default every method the geometry allows; a
    ConfigurationError for FBP asked for on a fan beam."""
    fan = cfg.geometry.beam_kind == "fan"
    if method == "fbp" and fan:
        raise ConfigurationError("geometry.beam: method fbp needs parallel-beam data, "
                                 "got 'fan'")
    if method:
        return [method]
    if fan:
        log.info("skipping fbp: filtered backprojection needs parallel-beam data")
        return [m for m in METHODS if m != "fbp"]
    return list(METHODS)


def run_pipeline(cfg: ExperimentConfig, subcommand: str, method: str | None = None,
                 deterministic: bool = False) -> int:
    """Execute one stage (or the whole chain) and return a process exit code.
    The sections every stage reads, and the methods the geometry allows, are
    checked before the first stage runs."""
    if subcommand != "all" and subcommand not in _SECTIONS:
        log.error("unknown subcommand %r", subcommand)
        return EXIT_ERROR
    stages = list(_SECTIONS) if subcommand == "all" else [subcommand]
    try:
        _require(cfg, *stages)
        methods = _methods(cfg, method) if "reconstruct" in stages else []
    except ConfigurationError as err:
        log.error("%s", err)
        return EXIT_ERROR
    out = Path(cfg.io.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        log.error("io.out_dir: cannot create %s: %s", out, err.strerror or err)
        return EXIT_ERROR

    try:
        artifacts = {}
        for stage in stages:
            if stage == "simulate":
                artifacts.update(stage_simulate(cfg, out, deterministic))
            elif stage == "learn":
                artifacts.update(stage_learn(cfg, out))
            elif stage == "reconstruct":
                for m in methods:
                    artifacts.update(stage_reconstruct(cfg, out, m))
            else:
                artifacts.update(stage_evaluate(cfg, out))
        _update_manifest(cfg, out, artifacts)
    except MissingArtifact as err:
        log.error("%s", err)
        return EXIT_MISSING_INPUT
    except NumericalError:  # stage_reconstruct has logged it
        return EXIT_NUMERICAL
    except ConfigurationError as err:
        log.error("%s", err)
        return EXIT_ERROR
    except OSError as err:
        log.error("io.out_dir: cannot write %s: %s", err.filename or out, err.strerror or err)
        return EXIT_ERROR
    return EXIT_OK


def _update_manifest(cfg: ExperimentConfig, out: Path, artifacts: dict):
    manifest_path = out / "manifest.json"
    old = {}
    if manifest_path.exists():
        try:
            old = sio.read_manifest(manifest_path)
        except ConfigurationError as err:
            log.warning("%s; writing a fresh manifest", err)
    digests = {name: sio.sha256_file(path) for name, path in artifacts.items()}
    if old.get("config_hash") == cfg.config_hash and old.get("seed") == cfg.io.seed:
        recorded = old.get("environment", {})
        changed = [f"{key} ({recorded[key]} -> {val})"
                   for key, val in sio.run_environment().items()
                   if key in recorded and recorded[key] != val]
        if changed:
            log.warning("environment differs from the previous identical run, so "
                        "artifacts may differ: %s", ", ".join(changed))
        previous = old.get("artifacts", {})
        for name, digest in digests.items():
            if name in previous and previous[name] != digest:
                log.warning("artifact %s differs from the manifest of a previous "
                            "identical run", name)
        digests = {**previous, **digests}
    sio.write_manifest(manifest_path, cfg.config_hash, cfg.io.seed, digests)
