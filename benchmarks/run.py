"""Reconstruction benchmark: run one workload repeatedly, check it, report metrics.

Each workload run is a fresh Python process (``workload.py``) with BLAS pinned
to one thread. Runs follow one another (a closed loop, no concurrency) until
the next one, at the mean run length so far, would end after ``--seconds``; at
least two runs are made so that the artifacts of two runs of one seed can be
compared byte for byte. A stage time is the median over the samples of every
run; a short stage gives several samples per run (``workload.py``).

    python3 benchmarks/run.py --workload dose128 --seed 1 --seconds 60 --trace 0

With ``--trace 0`` every run is untraced and the end-to-end metrics are
reported; with ``--trace 1`` the first run is untraced and the others are
traced, and the per-layer metrics come from the traced runs. The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--blas-sweep`` instead makes one run with one
BLAS thread and one with the machine default, and reports how they differ.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "work"
PINNED_BLAS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
MIN_RUNS = 2
LAST_START_S = 150.0  # no run starts later than this, so the process ends within 180 s
DEADLINE_S = 175.0


@dataclass(frozen=True)
class Workload:
    config: str  # relative to the checkout root; run through run_pipeline(cfg, "all")
    rmse_ordered: bool = False  # require spultra <= pwls-ultra <= pwls-ep


WORKLOADS = {
    "waterdisk64-all": Workload("configs/waterdisk64.ini"),
    "dose128": Workload("benchmarks/configs/dose128.ini", rmse_ordered=True),
}

# Each end-to-end metric's samples in one run's result. A stage time has one
# sample per call: short stages are re-run (workload.SAMPLE_BUDGET_S), and the
# metric is the median over the samples of every run.
END_TO_END = {
    "setup_s": lambda r: [r["setup_s"]],
    "wall_s": lambda r: [r["wall_s"]],
    "learn_s": lambda r: r["stage_samples"]["pipeline.stage_learn"],
    "pwls_ep_s": lambda r: r["stage_samples"]["pipeline.stage_reconstruct.pwls-ep"],
    "pwls_ultra_s": lambda r: r["stage_samples"]["pipeline.stage_reconstruct.pwls-ultra"],
    "spultra_s": lambda r: r["stage_samples"]["pipeline.stage_reconstruct.spultra"],
    "peak_rss_mib": lambda r: [r["peak_rss_mib"]],
    "pwls_ep_rmse_hu": lambda r: [r["rmse_hu"]["pwls-ep"]],
    "pwls_ultra_rmse_hu": lambda r: [r["rmse_hu"]["pwls-ultra"]],
    "spultra_rmse_hu": lambda r: [r["rmse_hu"]["spultra"]],
}


def per_layer_value(name: str, r: dict) -> float:
    """One per-layer metric of a traced run's result ``r``."""
    tr, geo = r["trace"], r["geometry"]
    fixed = {
        "geometry.system_matrix.s": geo["system_matrix_s"],
        "geometry.system_matrix.nnz": geo["nnz"],
        "geometry.system_matrix.mib": geo["mib"],
        "geometry.assembly_peak_rss_mib": geo["assembly_peak_rss_mib"],
        "ultra.labels_changed_frac": tr["labels_changed"] / max(tr["labels_base"], 1),
        "sim.nonpositive_frac": tr["nonpositive_frac"],
        "pipeline.bytes_written": r["bytes_written"],
        "trace.wall_s": r["wall_s"],
    }
    if name in fixed:
        return float(fixed[name])
    m = re.fullmatch(r"recon\.([a-z-]+)\.(outer_iter_ms\.p50|outer_iter_ms\.n|"
                     r"final_objective|objective_monotone)", name)
    if m:
        t = r["traces"][m.group(1)]
        field = m.group(2)
        if field == "outer_iter_ms.p50":
            return statistics.median(t["outer_iter_ms"])
        if field == "outer_iter_ms.n":
            return float(len(t["outer_iter_ms"]))
        return float(t[field])
    span, _, field = name.rpartition(".")
    return float(tr["per_name"].get(span, {}).get(field, 0.0))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def highest_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples above it."""
    n = len(values)
    if n < 20:
        return None
    pct = 100 * (n - 10) // n
    ordered = sorted(values)
    return pct, ordered[max(0, math.ceil(pct / 100 * n) - 1)]


# -- environment ---------------------------------------------------------------

def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def host_environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    llc = None
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    if cache.is_dir():
        levels = [(int(_read(f"{d}/level") or 0), _read(f"{d}/size"))
                  for d in cache.glob("index*")]
        if levels:
            level, size = max(levels)
            llc = f"L{level} {size}"
    return {"git_commit": commit or "unknown (not a git checkout)", "nproc": os.cpu_count(),
            "cpu_model": cpu, "last_level_cache": llc}


# -- running -------------------------------------------------------------------

def generated_config(workload: Workload, seed: int) -> str:
    """The workload's INI with [io] pointing at ./out and the benchmark's seed."""
    text = (ROOT / workload.config).read_text()
    text, n_out = re.subn(r"(?m)^out_dir\s*=.*$", "out_dir = out", text)
    text, n_seed = re.subn(r"(?m)^seed\s*=.*$", f"seed = {seed}", text)
    if (n_out, n_seed) != (1, 1):
        raise SystemExit(f"{workload.config}: expected one [io] out_dir and one seed line")
    return text


def run_once(workload: Workload, config: Path, run_dir: Path, traced: bool,
             env: dict, timeout: float) -> tuple[dict | None, str | None]:
    """Start one workload process and wait for it; return (result, failure)."""
    run_dir.mkdir(parents=True)
    result_path = run_dir / "result.json"
    spawned = time.monotonic()
    cmd = [sys.executable, str(BENCH / "workload.py"), "--src", str(ROOT / "src"),
           "--config", str(config), "--spawned", repr(spawned),
           "--trace", str(int(traced)), "--run-id", run_dir.name,
           "--result", str(result_path)]
    with open(run_dir / "log.txt", "w") as log:
        try:
            proc = subprocess.run(cmd, cwd=run_dir, env=env, stdout=log,
                                  stderr=subprocess.STDOUT, timeout=timeout)
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            return None, f"timed out after {timeout:.0f} s"
    if not result_path.exists():
        return None, f"exit code {proc.returncode} without a result (see {run_dir}/log.txt)"
    result = json.loads(result_path.read_text())
    if result["failures"]:
        return result, "; ".join(result["failures"])
    if proc.returncode != 0:
        return result, f"exit code {proc.returncode}"
    return result, None


def cross_check(workload: Workload, runs: list[dict]) -> None:
    """Checks that need more than one run, or the workload's expectations."""
    good = [r for r in runs if r["failure"] is None]
    for r in good:
        res = r["result"]
        if workload.rmse_ordered:
            e = res["rmse_hu"]
            if not e["spultra"] <= e["pwls-ultra"] <= e["pwls-ep"]:
                r["failure"] = (f"RMSE order broken: spultra {e['spultra']:.3f}, "
                                f"pwls-ultra {e['pwls-ultra']:.3f}, pwls-ep {e['pwls-ep']:.3f} HU")
    good = [r for r in runs if r["failure"] is None]
    if good:
        ref = good[0]["result"]["digests"]
        for r in good[1:]:
            diff = sorted(k for k in set(ref) | set(r["result"]["digests"])
                          if ref.get(k) != r["result"]["digests"].get(k))
            if diff:
                r["failure"] = f"artifacts differ from run {good[0]['name']}: {diff}"


def fresh_work_dir(name: str, seed: int, label: str) -> tuple[Path, Path]:
    """Empty ``benchmarks/work/<label>`` and write the generated config into it."""
    work = WORK / label
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = work / "config.ini"
    config.write_text(generated_config(WORKLOADS[name], seed))
    return work, config


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    workload = WORKLOADS[name]
    work, config = fresh_work_dir(name, seed, name)
    env = {**os.environ, **PINNED_BLAS}

    runs = []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        expected = statistics.mean(r["duration"] for r in runs) if runs else 0.0
        if len(runs) >= MIN_RUNS and elapsed + expected > seconds:
            break
        if runs and elapsed + expected > LAST_START_S:
            break
        traced = trace and len(runs) > 0
        label = f"r{len(runs)}{'-traced' if traced else ''}"
        t0 = time.monotonic()
        result, failure = run_once(workload, config, work / label, traced, env,
                                   DEADLINE_S - elapsed)
        runs.append({"name": label, "traced": traced, "result": result,
                     "failure": failure, "duration": time.monotonic() - t0})
    cross_check(workload, runs)
    return runs


def blas_sweep(name: str, seed: int) -> int:
    """One run with one BLAS thread and one with the machine default (informational)."""
    workload = WORKLOADS[name]
    work, config = fresh_work_dir(name, seed, f"{name}-blas-sweep")
    default_env = {k: v for k, v in os.environ.items() if k not in PINNED_BLAS}
    found = {}
    for label, env in (("blas1", {**os.environ, **PINNED_BLAS}), ("blas-default", default_env)):
        result, failure = run_once(workload, config, work / label, False, env, DEADLINE_S)
        if result is None or failure:
            print(f"{label}: failed: {failure}", file=sys.stderr)
            return 1
        found[label] = result
    one, dflt = found["blas1"], found["blas-default"]
    summary = {
        "workload": name, "seed": seed, "nproc": os.cpu_count(),
        "wall_s_blas1": one["wall_s"], "wall_s_default": dflt["wall_s"],
        "rmse_hu_blas1": one["rmse_hu"], "rmse_hu_default": dflt["rmse_hu"],
        "rmse_differs": one["rmse_hu"] != dflt["rmse_hu"],
        "artifacts_differing": sorted(k for k in one["digests"]
                                      if one["digests"][k] != dflt["digests"].get(k)),
    }
    print(json.dumps(summary))
    return 0


def summarize(name: str, seed: int, runs: list[dict], trace: bool,
              spec: dict) -> tuple[dict, dict]:
    """Print the report; return the metrics for the final JSON line and each
    metric's per-run values."""
    good = [r for r in runs if r["failure"] is None]
    untraced = [r["result"] for r in good if not r["traced"]]
    traced = [r["result"] for r in good if r["traced"]]
    attempted, failed = len(runs), len(runs) - len(good)
    print(f"workload {name}, seed {seed}: {attempted} runs attempted, {failed} failed "
          f"(failed_frac {failed / attempted:.3f} ratio)")
    for r in runs:
        kind = "traced" if r["traced"] else "untraced"
        status = "ok" if r["failure"] is None else f"FAILED: {r['failure']}"
        print(f"  run {r['name']} ({kind}, {r['duration']:.2f} s): {status}")

    metrics, per_run = {}, {}
    source, table = (traced, spec["per_layer"]) if trace else (untraced, spec["end_to_end"])
    print(f"{'metric':44s} {'unit':6s} {'median':>14s} {'q1':>14s} {'q3':>14s}  n  "
          f"({'traced' if trace else 'untraced'} runs)")
    for m in table:
        if trace and m["name"] == "trace.overhead_s":
            values = [statistics.median(t["wall_s"] for t in traced)
                      - statistics.median(u["wall_s"] for u in untraced)]
        elif trace:
            values = [per_layer_value(m["name"], r) for r in source]
        else:
            values = [v for r in source for v in END_TO_END[m["name"]](r)]
        q1, med, q3 = quartiles(values)
        metrics[m["name"]] = {"value": med, "unit": m["unit"]}
        per_run[m["name"]] = values
        print(f"{m['name']:44s} {m['unit']:6s} {med:14.6g} {q1:14.6g} {q3:14.6g} {len(values):2d}")
    if trace:
        report_trace(traced, untraced)
    return metrics, per_run


def report_trace(traced: list[dict], untraced: list[dict]) -> None:
    """Per-stage breakdown of the first traced run, with the bases of every share."""
    r = traced[0]
    per, within = r["trace"]["per_name"], r["trace"]["within_stage"]
    wall_t = statistics.median(t["wall_s"] for t in traced)
    wall_u = statistics.median(u["wall_s"] for u in untraced)
    print(f"tracing overhead: traced wall_s {wall_t:.3f} s - untraced wall_s {wall_u:.3f} s "
          f"= {wall_t - wall_u:+.3f} s ({100 * (wall_t - wall_u) / wall_u:+.1f}% of untraced)")
    print("self time per callable (whole run):")
    for span, rec in sorted(per.items(), key=lambda kv: -kv[1]["self_s"]):
        extra = (f", {rec['gb_computed']:.2f} GB streamed (computed from CSR sizes, not measured)"
                 if "gb_computed" in rec else "")
        print(f"  {span:44s} calls {rec['calls']:6d}  total {rec['s']:8.3f} s  "
              f"self {rec['self_s']:8.3f} s{extra}")
    for stage, names in within.items():
        base = names[stage]
        print(f"inside {stage} ({base:.3f} s traced):")
        for span, secs in sorted(names.items(), key=lambda kv: -kv[1]):
            if span != stage:
                print(f"  {span:44s} {secs:8.3f} s = {100 * secs / base:5.1f}% of the stage")
    for method, t in r["traces"].items():
        pct = highest_percentile(t["outer_iter_ms"])
        tail = f", p{pct[0]} {pct[1]:.1f} ms" if pct else " (fewer than 20 samples, no tail)"
        print(f"{method}: outer iteration p50 {statistics.median(t['outer_iter_ms']):.1f} ms"
              f"{tail}, n {len(t['outer_iter_ms'])}")
    tr = r["trace"]
    print(f"labels changed: {tr['labels_changed']} of {tr['labels_base']} patch codings "
          "after the first coding of each method")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--blas-sweep", action="store_true",
                        help="compare one BLAS thread with the machine default instead")
    args = parser.parse_args()

    missing = [p for p in ("src/spultra/__init__.py", WORKLOADS[args.workload].config,
                           "BENCHMARK.json") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a spultra checkout, missing {missing}", file=sys.stderr)
        return 2
    if args.blas_sweep:
        return blas_sweep(args.workload, args.seed)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    good = [r for r in runs if r["failure"] is None]
    if not any(r["traced"] == bool(args.trace) for r in good) \
            or (args.trace and not any(not r["traced"] for r in good)):
        for r in runs:
            print(f"run {r['name']} failed: {r['failure']}", file=sys.stderr)
        print("error: no successful run to report", file=sys.stderr)
        return 1

    metrics, per_run = summarize(args.workload, args.seed, runs, bool(args.trace), spec)
    env = {**host_environment(), **good[0]["result"]["environment"]}
    print("environment: " + json.dumps(env))
    (WORK / args.workload / "report.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "trace": args.trace,
         "environment": env, "metrics": metrics, "per_run_values": per_run,
         "runs": [{k: r[k] for k in ("name", "traced", "failure", "duration")} for r in runs]},
        indent=1))
    failed = len(runs) - len(good)
    print(json.dumps({"correct": failed == 0, "attempted": len(runs), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
