"""The benchmark's tracer against the library it wraps.

``benchmarks/tracing.Tracer`` replaces library callables by the names their
callers look them up under (``recon.compute_kappa``, ``recon.build_surrogate``,
``SubsetSystem.sub`` and so on). A refactor that renames or removes one of
them breaks ``benchmarks/run.py --trace 1`` without failing any library
test, so this test installs the tracer and runs a short pipeline with it.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

from conftest import with_recon_stride

ROOT = Path(__file__).resolve().parents[1]

# the layer spans each pipeline stage must record in a traced ``all`` run; the
# tracer also wraps names that ``recon`` keeps importable but never calls
# (``recon.build_surrogate``, ``recon.regularizer_value``,
# ``recon.extract_patches``, ``recon.accumulate_patches``), and installing it
# checks that those names exist
_ULTRA = ("geometry.compute_kappa", "recon.SubsetSystem.init",
          "recon.SubsetSystem.subset_gradient", "recon.SubsetSystem.gram_diag",
          "recon.UltraQuadReg.grad", "recon.os_lalm_image_update",
          "ultra.sparse_code_and_cluster", "ultra.regularizer_majorizer_diag")
STAGE_SPANS = {
    "pipeline.stage_simulate": ("sim.simulate_prelog", "geometry.forward_project",
                                "sim.nonpositive_fraction"),
    "pipeline.stage_learn": ("ultra.learn_transforms",),
    "pipeline.stage_reconstruct.fbp": ("recon.fbp_reconstruct", "spstats.post_log_convert"),
    "pipeline.stage_reconstruct.pwls-ep": (
        "geometry.compute_kappa", "recon.SubsetSystem.init",
        "recon.SubsetSystem.subset_gradient", "recon.SubsetSystem.gram_diag",
        "recon.EdgePreservingReg.grad", "recon.os_lalm_image_update"),
    "pipeline.stage_reconstruct.pwls-ultra": _ULTRA,
    "pipeline.stage_reconstruct.spultra": _ULTRA + ("spstats.neg_log_likelihood",),
    "pipeline.stage_evaluate": (),
}

# The tracer is single-threaded (one span list, one stack), so the script
# also lists each traced call made off the main thread; two usable CPUs let
# ULTRA's stride-2 gradient run on the worker thread on any host.
SCRIPT = """
import json, os, sys, threading
sys.path[:0] = [sys.argv[1], sys.argv[2]]
os.sched_getaffinity = lambda pid: {0, 1}
import spultra
from spultra import config, pipeline
from tracing import Tracer

class ThreadCheckingTracer(Tracer):
    off_main = []

    def wrap(self, name, fn, **hooks):
        traced = super().wrap(name, fn, **hooks)

        def checked(*args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                self.off_main.append(fn.__qualname__)
            return traced(*args, **kwargs)

        return checked

tracer = ThreadCheckingTracer("test")
tracer.install_stages(pipeline)
tracer.install_layers(spultra)
code = pipeline.run_pipeline(config.parse_config(sys.argv[3]), "all")
print(json.dumps({"code": code, "off_main": tracer.off_main,
                  "threads": sorted(t.name for t in threading.enumerate()),
                  **tracer.summary()}))
"""


def _one_iteration_config(tmp_path, stride) -> Path:
    text = with_recon_stride((ROOT / "configs" / "waterdisk64.ini").read_text(), stride)
    for key, value in (("iters", "1"), ("N", "1"), ("ep_iters", "1"),
                       ("out_dir", str(tmp_path / "out"))):
        text, n = re.subn(rf"(?m)^{key}\s*=.*$", f"{key} = {value}", text)
        assert n == 1, key
    path = tmp_path / "one_iteration.ini"
    path.write_text(text)
    return path


def _traced_all(tmp_path, stride=1) -> dict:
    """The summary of a traced one-iteration ``all`` at recon stride ``stride``."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "benchmarks"), str(ROOT / "src"),
         str(_one_iteration_config(tmp_path, stride))],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr[-4000:]
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["code"] == 0
    assert summary["off_main"] == []
    return summary


def test_tracer_wraps_live_library_names(tmp_path):
    summary = _traced_all(tmp_path)
    within = summary["within_stage"]
    assert sorted(within) == sorted(STAGE_SPANS)
    missing = {stage: [name for name in names if name not in within[stage]]
               for stage, names in STAGE_SPANS.items()}
    assert missing == {stage: [] for stage in STAGE_SPANS}
    # the subset-gradient probe reads the subset blocks through SubsetSystem.sub
    assert summary["per_name"]["recon.SubsetSystem.subset_gradient"]["gb_computed"] > 0


def test_traced_calls_stay_on_the_main_thread_at_stride_2(tmp_path):
    # the worker thread computes the stride-2 ULTRA gradients; grad hands
    # them back on the main thread, so every traced call is made there
    summary = _traced_all(tmp_path, stride=2)
    assert "spultra-grad_0" in summary["threads"]
    within = summary["within_stage"]
    for stage in ("pipeline.stage_reconstruct.pwls-ultra", "pipeline.stage_reconstruct.spultra"):
        assert [name for name in STAGE_SPANS[stage] if name not in within[stage]] == []
