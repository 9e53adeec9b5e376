"""One workload run in a fresh process: set-up, the pipeline stages, output checks.

Started by ``run.py`` with the working directory set to an empty run
directory that holds the generated config; the config's ``[io] out_dir`` is
the relative path ``out``, so the config text (and with it the run id written
into ``metrics.csv``) is the same for every run of one seed. The result is
written as JSON to ``--result``.

    python3 workload.py --src SRC --config CONFIG --spawned T --trace 0 \
        --run-id r0 --result result.json
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from tracing import Tracer

# artifacts whose bytes must repeat for a fixed seed and BLAS thread count
DETERMINISTIC = ("x_true.spim", "sino_raw.spim", "transforms.ult", "x_fbp.spim",
                 "x_pwls_ep.spim", "x_pwls_ultra.spim", "x_spultra.spim", "metrics.csv")
MONOTONE_SLACK = 1e-6  # relative, as in acceptance criterion 7
TRACED_METHODS = ("pwls-ultra", "spultra")  # the methods that write a ConvergenceTrace
# A timed stage shorter than this is re-run in an untraced run until its
# samples add up to it: on a shared host one half-second sample is mostly noise.
SAMPLE_BUDGET_S = 1.5


def _mib(nbytes: float) -> float:
    return nbytes / 2 ** 20


def _max_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_trace(path: Path) -> dict:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    obj = np.array([float(r["objective"]) for r in rows])
    iter_ms = [float(r["wall_ms"]) for r in rows if r["wall_ms"]]
    steps = np.diff(obj)
    return {"outer_iter_ms": iter_ms,
            "final_objective": float(obj[-1]),
            "objective_monotone": bool(np.all(steps <= MONOTONE_SLACK * np.abs(obj[:-1]))),
            "worst_rel_step": float(np.max(steps / np.abs(obj[:-1]))) if steps.size else 0.0}


def check_outputs(out: Path, methods, x_max: float, io) -> tuple[list[str], dict]:
    """Check the run's artifacts; return the failures found and what was read."""
    failures = []
    rmse = {}
    with open(out / "metrics.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            if row["metric"] == "rmse_hu" and row["roi_label"] == "all":
                rmse[row["method"]] = float(row["value"])
    for method in methods:
        if not math.isfinite(rmse.get(method, math.nan)):
            failures.append(f"metrics.csv has no finite rmse_hu for {method}")

    traces = {}
    for method in methods:
        slug = method.replace("-", "_")
        data, _ = io.read_spim(out / f"x_{slug}.spim")
        if not np.isfinite(data).all():
            failures.append(f"x_{slug}.spim is not finite")
        # FBP is linear and deliberately unclipped; the iterative methods keep the box
        elif method != "fbp" and (data.min() < 0.0 or data.max() > x_max):
            failures.append(f"x_{slug}.spim leaves [0, {x_max}]: "
                            f"[{data.min():.3g}, {data.max():.3g}]")
        if method not in TRACED_METHODS:
            continue
        trace_path = out / f"trace_{slug}.csv"
        if not trace_path.exists():
            failures.append(f"{trace_path.name} is missing")
            continue
        traces[method] = _read_trace(trace_path)
        if not traces[method]["objective_monotone"]:
            failures.append(f"{method} objective rises by "
                            f"{traces[method]['worst_rel_step']:.2e} relative")

    return failures, {"rmse_hu": rmse, "traces": traces, "digests": _digests(out)}


def _digests(out: Path) -> dict:
    return {name: _sha256(out / name) for name in DETERMINISTIC if (out / name).exists()}


def resample_short_stages(cfg, out: Path, pipeline, tracer: Tracer) -> None:
    """Re-run each timed stage on the run's own inputs until its samples add
    up to SAMPLE_BUDGET_S; the tracer records every call as one sample."""
    stages = {"pipeline.stage_learn": lambda: pipeline.stage_learn(cfg, out)}
    for method in ("pwls-ep", "pwls-ultra", "spultra"):
        stages[f"pipeline.stage_reconstruct.{method}"] = \
            lambda m=method: pipeline.stage_reconstruct(cfg, out, m)
    for name, rerun in stages.items():
        while sum(tracer.durations(name)) < SAMPLE_BUDGET_S:
            rerun()


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas_name": blas.get("name"),
            "blas_version": blas.get("version"),
            "blas_threads": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory holding the spultra package")
    parser.add_argument("--config", required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() of the parent just before it started us")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-id", required=True, help="tag written into every span")
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    sys.path.insert(0, args.src)
    import spultra
    from spultra import config, geometry, io, pipeline

    if not Path(spultra.__file__).resolve().is_relative_to(Path(args.src).resolve()):
        raise SystemExit(f"spultra imported from {spultra.__file__}, not from {args.src}")

    cfg = config.parse_config(args.config)
    tracer = Tracer(args.run_id)
    tracer.install_stages(pipeline)
    if args.trace:
        tracer.install_layers(spultra)

    t0 = time.perf_counter()
    matrix = geometry.system_matrix(cfg.geometry)  # fills the lru_cache the stages reuse
    matrix_s = time.perf_counter() - t0
    setup_s = time.monotonic() - args.spawned
    assembly_rss = _max_rss_mib()

    t_wall = time.perf_counter()
    code = pipeline.run_pipeline(cfg, "all")
    wall_s = time.perf_counter() - t_wall
    peak_rss = _max_rss_mib()

    out = Path(cfg.io.out_dir)
    bytes_written = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    failures = [f"run_pipeline('all') exited {code}"] if code != 0 else []
    found = {}
    if not failures:
        more, found = check_outputs(out, pipeline.METHODS, cfg.recon.x_max, io)
        failures += more
    if not failures and not args.trace:
        resample_short_stages(cfg, out, pipeline, tracer)
        changed = sorted(k for k, v in _digests(out).items() if found["digests"].get(k) != v)
        if changed:
            failures.append(f"re-running the short stages changed {changed}")

    summary = tracer.summary()
    if args.trace:
        tracer.write("spans.jsonl")
    result = {
        "failures": failures,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mib": peak_rss,
        "stage_samples": {name: tracer.durations(name) for name in summary["per_name"]
                          if name.startswith("pipeline.")},
        "geometry": {"system_matrix_s": matrix_s, "nnz": int(matrix.nnz),
                     "mib": _mib(matrix.data.nbytes + matrix.indices.nbytes
                                 + matrix.indptr.nbytes),
                     "assembly_peak_rss_mib": assembly_rss},
        "bytes_written": bytes_written,
        "trace": summary if args.trace else None,
        "environment": environment(),
        **found,
    }
    Path(args.result).write_text(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
