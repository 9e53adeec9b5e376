import shutil
import subprocess
import sys

import numpy as np
import pytest

from spultra.config import parse_config
from spultra.io import read_manifest, read_spim
from spultra.pipeline import EXIT_ERROR, EXIT_MISSING_INPUT, EXIT_OK, run_pipeline

CONFIG = """
[geometry]
beam = parallel
n_detectors = 48
n_views = 30
detector_spacing = 2.0
image_dims = 32 32
pixel_spacing = 3.0 3.0

[model]
I0 = 10000
sigma2 = 25

[phantom]
shapes =
    0 0 40 40 0 0.02
    -10 6 9 6 0.5 0.032

[learning]
K = 2
v = 16
stride = 1
gamma_c = 0.0008
lambda0 = 0.031
iters = 8
n_patches = 500

[recon]
beta = 20000
gamma_c = 0.0004
N = 4
P = 2
M = 3
x_max = 0.1
stride = 2
beta_ep = 500
delta = 10
potential = lange
ep_iters = 15

[metrics]
mu_water = 0.02
rois =
    center 0 0 20

[io]
out_dir = PLACEHOLDER
seed = 7
"""


def write_config(tmp_path, out_dir):
    p = tmp_path / "exp.ini"
    p.write_text(CONFIG.replace("PLACEHOLDER", str(out_dir)))
    return p


def test_all_pipeline_end_to_end(tmp_path):
    out = tmp_path / "run"
    cfg = parse_config(write_config(tmp_path, out))
    assert run_pipeline(cfg, "all") == EXIT_OK
    for name in ("x_true.spim", "sino_raw.spim", "transforms.ult", "x_fbp.spim",
                 "x_pwls_ep.spim", "x_pwls_ultra.spim", "x_spultra.spim",
                 "trace_spultra.csv", "trace_pwls_ultra.csv", "metrics.csv",
                 "manifest.json", "x_true.pgm"):
        assert (out / name).exists(), name

    text = (out / "metrics.csv").read_text()
    for method in ("fbp", "pwls-ep", "pwls-ultra", "spultra"):
        assert f",{method},rmse_hu," in text

    manifest = read_manifest(out / "manifest.json")
    assert manifest["seed"] == 7
    assert "metrics.csv" in manifest["artifacts"]


def test_reconstruct_without_simulate_exits_2(tmp_path):
    out = tmp_path / "empty"
    cfg = parse_config(write_config(tmp_path, out))
    assert run_pipeline(cfg, "reconstruct", method="fbp") == EXIT_MISSING_INPUT


def test_ultra_method_without_learn_exits_2(tmp_path):
    out = tmp_path / "partial"
    cfg = parse_config(write_config(tmp_path, out))
    assert run_pipeline(cfg, "simulate") == EXIT_OK
    assert run_pipeline(cfg, "reconstruct", method="spultra") == EXIT_MISSING_INPUT


def test_evaluate_without_recon_exits_2(tmp_path):
    out = tmp_path / "noimg"
    cfg = parse_config(write_config(tmp_path, out))
    assert run_pipeline(cfg, "simulate") == EXIT_OK
    assert run_pipeline(cfg, "evaluate") == EXIT_MISSING_INPUT


def test_stagewise_matches_all(tmp_path):
    out_a = tmp_path / "a"
    cfg_a = parse_config(write_config(tmp_path, out_a))
    assert run_pipeline(cfg_a, "all") == EXIT_OK

    out_b = tmp_path / "b"
    cfg_b = cfg_a.with_overrides(out_dir=out_b)
    assert run_pipeline(cfg_b, "simulate") == EXIT_OK
    assert run_pipeline(cfg_b, "learn") == EXIT_OK
    for m in ("fbp", "pwls-ep", "pwls-ultra", "spultra"):
        assert run_pipeline(cfg_b, "reconstruct", method=m) == EXIT_OK
    assert run_pipeline(cfg_b, "evaluate") == EXIT_OK

    for name in ("x_true.spim", "sino_raw.spim", "x_spultra.spim", "x_pwls_ultra.spim"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_rerun_byte_identical(tmp_path):
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    cfg = parse_config(write_config(tmp_path, out1))
    assert run_pipeline(cfg, "all") == EXIT_OK
    cfg2 = cfg.with_overrides(out_dir=out2)
    assert run_pipeline(cfg2, "all") == EXIT_OK
    names = ["x_true.spim", "sino_raw.spim", "transforms.ult", "x_fbp.spim",
             "x_pwls_ep.spim", "x_pwls_ultra.spim", "x_spultra.spim", "metrics.csv"]
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_rerun_same_dir_verifies_against_manifest(tmp_path, caplog):
    out = tmp_path / "same"
    cfg = parse_config(write_config(tmp_path, out))
    assert run_pipeline(cfg, "simulate") == EXIT_OK
    manifest_before = (out / "manifest.json").read_text()
    with caplog.at_level("WARNING"):
        assert run_pipeline(cfg, "simulate") == EXIT_OK
    assert not [r for r in caplog.records if "differs" in r.message]
    assert (out / "manifest.json").read_text() == manifest_before


def test_seed_changes_artifacts(tmp_path):
    out1 = tmp_path / "s1"
    out2 = tmp_path / "s2"
    cfg = parse_config(write_config(tmp_path, out1))
    assert run_pipeline(cfg, "simulate") == EXIT_OK
    cfg2 = cfg.with_overrides(out_dir=out2, seed=8)
    assert run_pipeline(cfg2, "simulate") == EXIT_OK
    a = read_spim(out1 / "sino_raw.spim")[0]
    b = read_spim(out2 / "sino_raw.spim")[0]
    assert not np.array_equal(a, b)


def test_deterministic_noise_flag(tmp_path):
    out = tmp_path / "det"
    cfg = parse_config(write_config(tmp_path, out))
    assert run_pipeline(cfg, "simulate", deterministic=True) == EXIT_OK
    sino = read_spim(out / "sino_raw.spim")[0]
    # mean counts are smooth and strictly positive in deterministic mode
    assert np.all(sino > 0)


def test_cli_subprocess_smoke(tmp_path):
    out = tmp_path / "cli"
    cfg_path = write_config(tmp_path, out)
    base = [sys.executable, "-m", "spultra.cli"]
    r = subprocess.run(base + ["simulate", "--config", str(cfg_path)],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    r = subprocess.run(base + ["evaluate", "--config", str(cfg_path)],
                       capture_output=True, text=True)
    assert r.returncode == EXIT_MISSING_INPUT

    r = subprocess.run(base + ["reconstruct", "--config", str(cfg_path),
                               "--method", "fbp"], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert (out / "x_fbp.spim").exists()

    bad = tmp_path / "bad.ini"
    bad.write_text("[recon]\nalpha = 2.0\n")
    r = subprocess.run(base + ["simulate", "--config", str(bad)],
                       capture_output=True, text=True)
    assert r.returncode == 1
    assert "alpha" in r.stderr


def test_cli_out_and_seed_override(tmp_path):
    out = tmp_path / "o1"
    override = tmp_path / "o2"
    cfg_path = write_config(tmp_path, out)
    base = [sys.executable, "-m", "spultra.cli"]
    r = subprocess.run(base + ["simulate", "--config", str(cfg_path),
                               "--out", str(override), "--seed", "99"],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert (override / "sino_raw.spim").exists()
    assert not out.exists()
    manifest = read_manifest(override / "manifest.json")
    assert manifest["seed"] == 99


def test_recon_v_mismatch_with_transforms_exits_1(tmp_path, caplog):
    out = tmp_path / "vmis"
    cfg = parse_config(write_config(tmp_path, out))
    assert run_pipeline(cfg, "simulate") == EXIT_OK
    assert run_pipeline(cfg, "learn") == EXIT_OK  # learns v = 16
    p = tmp_path / "v9.ini"
    p.write_text(CONFIG.replace("PLACEHOLDER", str(out))
                 .replace("[recon]\n", "[recon]\nv = 9\n"))
    cfg9 = parse_config(p)
    assert cfg9.recon.patch.v == 9
    with caplog.at_level("ERROR"):
        assert run_pipeline(cfg9, "reconstruct", method="pwls-ultra") == EXIT_ERROR
    assert any("recon.v" in r.message for r in caplog.records)
    assert not (out / "x_pwls_ultra.spim").exists()


def test_rerun_in_other_environment_warns(tmp_path, caplog, monkeypatch):
    out = tmp_path / "env"
    cfg = parse_config(write_config(tmp_path, out))
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    assert run_pipeline(cfg, "simulate") == EXIT_OK
    env = read_manifest(out / "manifest.json")["environment"]
    assert env["OPENBLAS_NUM_THREADS"] == "1" and env["MKL_NUM_THREADS"] is None
    assert env["numpy"] == np.__version__
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    with caplog.at_level("WARNING"):
        assert run_pipeline(cfg, "simulate") == EXIT_OK
    warned = [r.message for r in caplog.records if "environment differs" in r.message]
    assert len(warned) == 1 and "OPENBLAS_NUM_THREADS (1 -> 2)" in warned[0]
    assert "OMP_NUM_THREADS" not in warned[0] and "numpy" not in warned[0]


@pytest.mark.parametrize("text", ['{"config_hash": "x", "se', '[1, 2]',
                                  '{"artifacts": ["x_true.spim"]}'])
def test_corrupt_manifest_is_replaced(tmp_path, caplog, text):
    out = tmp_path / "corrupt"
    out.mkdir()
    (out / "manifest.json").write_text(text)
    cfg = parse_config(write_config(tmp_path, out))
    with caplog.at_level("WARNING"):
        assert run_pipeline(cfg, "simulate") == EXIT_OK
    warned = [r.message for r in caplog.records if r.levelname == "WARNING"]
    assert len(warned) == 1 and str(out / "manifest.json") in warned[0]
    manifest = read_manifest(out / "manifest.json")
    assert manifest["config_hash"] == cfg.config_hash
    assert sorted(manifest["artifacts"]) == ["sino_raw.spim", "x_true.spim"]


def test_cli_out_dir_that_is_a_file_exits_1(tmp_path):
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory")
    cfg_path = write_config(tmp_path, tmp_path / "unused")
    r = subprocess.run([sys.executable, "-m", "spultra.cli", "simulate",
                        "--config", str(cfg_path), "--out", str(blocker)],
                       capture_output=True, text=True)
    assert r.returncode == EXIT_ERROR
    assert f"io.out_dir: cannot create {blocker}: " in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("kind", ["directory", "not utf-8"])
def test_cli_unreadable_config_exits_1(tmp_path, kind):
    if kind == "directory":
        cfg_path = tmp_path / "conf.d"
        cfg_path.mkdir()
    else:
        cfg_path = tmp_path / "latin1.ini"
        cfg_path.write_bytes("[io]\nout_dir = caf\xe9\n".encode("latin-1"))
    r = subprocess.run([sys.executable, "-m", "spultra.cli", "simulate",
                        "--config", str(cfg_path)], capture_output=True, text=True)
    assert r.returncode == EXIT_ERROR
    assert f"error: cannot read config {cfg_path}: " in r.stderr
    assert "Traceback" not in r.stderr


def test_cli_artifact_write_error_exits_1(tmp_path):
    out = tmp_path / "blocked"
    (out / "x_true.spim").mkdir(parents=True)
    cfg_path = write_config(tmp_path, out)
    r = subprocess.run([sys.executable, "-m", "spultra.cli", "simulate",
                        "--config", str(cfg_path)], capture_output=True, text=True)
    assert r.returncode == EXIT_ERROR
    assert f"io.out_dir: cannot write {out / 'x_true.spim'}: " in r.stderr
    assert "Traceback" not in r.stderr
    assert not (out / "manifest.json").exists()


FAN = """
[geometry]
beam = fan
n_detectors = 40
n_views = 36
detector_spacing = 2.0
angular_range = 6.283185307179586
image_dims = 16 16
pixel_spacing = 3.0 3.0
source_to_iso = 200
source_to_detector = 300
"""


def test_all_on_fan_beam_skips_fbp(tmp_path, caplog):
    out = tmp_path / "fan"
    text = CONFIG.replace("PLACEHOLDER", str(out)).replace("N = 4", "N = 1")
    p = tmp_path / "fan.ini"
    p.write_text(FAN + text[text.index("[model]"):])
    cfg = parse_config(p)
    assert cfg.geometry.beam_kind == "fan" and cfg.recon.n_outer == 1
    with caplog.at_level("INFO"):
        assert run_pipeline(cfg, "all") == EXIT_OK
    assert sum("skipping fbp" in r.message for r in caplog.records) == 1
    assert not (out / "x_fbp.spim").exists()
    text = (out / "metrics.csv").read_text()
    assert ",fbp," not in text
    for method in ("pwls-ep", "pwls-ultra", "spultra"):
        assert f",{method},rmse_hu," in text
    with caplog.at_level("ERROR"):
        assert run_pipeline(cfg, "all", method="fbp") == EXIT_ERROR
    assert any("parallel-beam" in r.message for r in caplog.records)


def _quick(text: str) -> str:
    return (text.replace("N = 4", "N = 1").replace("ep_iters = 15", "ep_iters = 2")
            .replace("iters = 8", "iters = 2"))


# the same experiment on a smaller image and a narrower detector
RESIZED = _quick(CONFIG).replace("image_dims = 32 32", "image_dims = 24 24") \
    .replace("n_detectors = 48", "n_detectors = 40")


@pytest.fixture(scope="module")
def stale_run(tmp_path_factory):
    """A finished ``all`` run of CONFIG, whose artifacts are 32x32 images and
    30x48 sinograms."""
    root = tmp_path_factory.mktemp("stale")
    p = root / "exp.ini"
    p.write_text(_quick(CONFIG).replace("PLACEHOLDER", str(root / "run")))
    assert run_pipeline(parse_config(p), "all") == EXIT_OK
    return root / "run"


def _resized_over(stale_run, tmp_path):
    out = tmp_path / "run"
    shutil.copytree(stale_run, out)
    p = tmp_path / "resized.ini"
    p.write_text(RESIZED.replace("PLACEHOLDER", str(out)))
    return parse_config(p), out


def _fails_on(cfg, caplog, name, *args, **kwargs):
    with caplog.at_level("ERROR"):
        assert run_pipeline(cfg, *args, **kwargs) == EXIT_ERROR
    assert any(name in r.message and "left over from another config" in r.message
               for r in caplog.records), [r.message for r in caplog.records]


@pytest.mark.parametrize("method", ["fbp", "pwls-ep", "pwls-ultra", "spultra"])
def test_stale_sinogram_of_another_shape_exits_1(stale_run, tmp_path, caplog, method):
    cfg, _ = _resized_over(stale_run, tmp_path)
    _fails_on(cfg, caplog, "sino_raw.spim", "reconstruct", method=method)


@pytest.mark.parametrize("method", ["pwls-ultra", "spultra"])
def test_stale_initializer_of_another_shape_exits_1(stale_run, tmp_path, caplog, method):
    cfg, out = _resized_over(stale_run, tmp_path)
    assert run_pipeline(cfg, "simulate") == EXIT_OK
    _fails_on(cfg, caplog, "x_pwls_ep.spim", "reconstruct", method=method)
    assert read_spim(out / f"x_{method.replace('-', '_')}.spim")[0].shape == (32, 32)


def test_stale_truth_of_another_shape_exits_1(stale_run, tmp_path, caplog):
    cfg, _ = _resized_over(stale_run, tmp_path)
    _fails_on(cfg, caplog, "x_true.spim", "evaluate")


def test_stale_reconstruction_of_another_shape_exits_1(stale_run, tmp_path, caplog):
    cfg, _ = _resized_over(stale_run, tmp_path)
    assert run_pipeline(cfg, "simulate") == EXIT_OK
    _fails_on(cfg, caplog, "x_fbp.spim", "evaluate")


def test_all_on_image_narrower_than_ssim_window(tmp_path):
    out = tmp_path / "tiny"
    text = _quick(CONFIG).replace("image_dims = 32 32", "image_dims = 6 6") \
        .replace("n_detectors = 48", "n_detectors = 10").replace("n_views = 30", "n_views = 12")
    p = tmp_path / "tiny.ini"
    p.write_text(text.replace("PLACEHOLDER", str(out)))
    cfg = parse_config(p)
    assert cfg.geometry.image_dims == (6, 6) and cfg.recon.patch.v == 16
    assert run_pipeline(cfg, "all") == EXIT_OK
    text = (out / "metrics.csv").read_text()
    for method in ("fbp", "pwls-ep", "pwls-ultra", "spultra"):
        assert f",{method},ssim," in text
