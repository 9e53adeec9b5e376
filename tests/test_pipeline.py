import csv
import json
import re
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest

from spultra.config import parse_config
from spultra.errors import ValidationError
from spultra.io import read_manifest, read_spim, sha256_file, write_spim
from spultra.pipeline import (EXIT_ERROR, EXIT_MISSING_INPUT, EXIT_NUMERICAL, EXIT_OK, METHODS,
                              run_pipeline)
from spultra import recon
from spultra.ultra import initial_transform

from conftest import assert_clean_stderr, run_cli

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

    # neither half-step of an outer iteration raises the objective: the image
    # update within the 1e-6 slack of the monotone checks, the coding step exactly
    for method in ("pwls_ultra", "spultra"):
        with open(out / f"trace_{method}.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == cfg.recon.n_outer + 1
        assert rows[0]["objective_pre_coding"] == ""
        for prev, row in zip(rows, rows[1:]):
            before, pre = float(prev["objective"]), float(row["objective_pre_coding"])
            assert pre <= before + 1e-6 * abs(before)
            assert float(row["objective"]) <= pre


def test_reconstruct_without_simulate_exits_2(tmp_path):
    out = tmp_path / "empty"
    cfg = parse_config(write_config(tmp_path, out))
    assert run_pipeline(cfg, "reconstruct", method="fbp") == EXIT_MISSING_INPUT


def test_ultra_method_without_learn_exits_2(tmp_path):
    out = tmp_path / "partial"
    cfg = parse_config(write_config(tmp_path, out))
    assert run_pipeline(cfg, "simulate") == EXIT_OK
    assert run_pipeline(cfg, "reconstruct", method="spultra") == EXIT_MISSING_INPUT


@pytest.mark.parametrize("method", ["pwls-ultra", "spultra"])
def test_ultra_method_records_the_initializer_it_writes(tmp_path, method):
    out = tmp_path / "init"
    p = tmp_path / "quick.ini"
    p.write_text(_quick(CONFIG).replace("PLACEHOLDER", str(out)))
    cfg = parse_config(p)
    assert run_pipeline(cfg, "simulate") == EXIT_OK
    assert run_pipeline(cfg, "learn") == EXIT_OK
    assert run_pipeline(cfg, "reconstruct", method=method) == EXIT_OK
    digests = read_manifest(out / "manifest.json")["artifacts"]
    assert digests["x_pwls_ep.spim"] == sha256_file(out / "x_pwls_ep.spim")
    # a rerun reads the cached initializer and keeps its entry
    assert run_pipeline(cfg, "reconstruct", method=method) == EXIT_OK
    assert read_manifest(out / "manifest.json")["artifacts"] == digests


def test_evaluate_without_recon_exits_2(tmp_path):
    out = tmp_path / "noimg"
    cfg = parse_config(write_config(tmp_path, out))
    assert run_pipeline(cfg, "simulate") == EXIT_OK
    assert run_pipeline(cfg, "evaluate") == EXIT_MISSING_INPUT


def test_stagewise_matches_all(tmp_path):
    out_a = tmp_path / "a"
    cfg_a = parse_config(write_config(tmp_path, out_a))
    assert run_pipeline(cfg_a, "all") == EXIT_OK
    names = sorted(f.name for f in out_a.iterdir())
    assert "x_fbp.spim" in names

    # one method at a time, and reconstruct's default: the methods all runs
    for out, methods in ((tmp_path / "b", METHODS), (tmp_path / "c", [None])):
        cfg = cfg_a.with_overrides(out_dir=out)
        assert run_pipeline(cfg, "simulate") == EXIT_OK
        assert run_pipeline(cfg, "learn") == EXIT_OK
        for m in methods:
            assert run_pipeline(cfg, "reconstruct", method=m) == EXIT_OK
        assert run_pipeline(cfg, "evaluate") == EXIT_OK
        assert sorted(f.name for f in out.iterdir()) == names
        for name in names:
            if not name.startswith("trace_"):  # the traces hold wall-clock times
                assert (out_a / name).read_bytes() == (out / name).read_bytes(), (out, name)


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


def test_rerun_warns_once_per_changed_artifact(tmp_path, caplog):
    out = tmp_path / "tampered"
    cfg = parse_config(write_config(tmp_path, out))
    assert run_pipeline(cfg, "simulate") == EXIT_OK
    manifest = out / "manifest.json"
    data = read_manifest(manifest)
    data["artifacts"]["sino_raw.spim"] = "0" * 64
    manifest.write_text(json.dumps(data))
    with caplog.at_level("WARNING"):
        assert run_pipeline(cfg, "simulate") == EXIT_OK
    warned = [r.message for r in caplog.records if "differs" in r.message]
    assert len(warned) == 1 and "sino_raw.spim" in warned[0]
    assert read_manifest(manifest)["artifacts"]["sino_raw.spim"] == \
        sha256_file(out / "sino_raw.spim")
    # under another seed the recorded digests are not compared
    manifest.write_text(json.dumps(data))
    caplog.clear()
    with caplog.at_level("WARNING"):
        assert run_pipeline(cfg.with_overrides(seed=8), "simulate") == EXIT_OK
    assert not [r for r in caplog.records if "differs" in r.message]


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
    r = run_cli("simulate", "--config", str(cfg_path))
    assert r.returncode == 0, r.stderr
    assert_clean_stderr(r)
    r = run_cli("evaluate", "--config", str(cfg_path))
    assert r.returncode == EXIT_MISSING_INPUT
    assert_clean_stderr(r)

    r = run_cli("reconstruct", "--config", str(cfg_path), "--method", "fbp")
    assert r.returncode == 0, r.stderr
    assert_clean_stderr(r)
    assert (out / "x_fbp.spim").exists()

    bad = tmp_path / "bad.ini"
    bad.write_text("[recon]\nalpha = 2.0\n")
    r = run_cli("simulate", "--config", str(bad))
    assert r.returncode == 1
    assert_clean_stderr(r)
    assert "alpha" in r.stderr


def test_cli_out_and_seed_override(tmp_path):
    out = tmp_path / "o1"
    override = tmp_path / "o2"
    cfg_path = write_config(tmp_path, out)
    r = run_cli("simulate", "--config", str(cfg_path), "--out", str(override),
                "--seed", "99")
    assert r.returncode == 0, r.stderr
    assert_clean_stderr(r)
    assert (override / "sino_raw.spim").exists()
    assert not out.exists()
    manifest = read_manifest(override / "manifest.json")
    assert manifest["seed"] == 99


@pytest.mark.parametrize("where", ["ini", "cli"])
@pytest.mark.parametrize("seed, msg", [("-3", "must be >= 0"),
                                       ("18446744073709551616", "must be <= 9223372036854775807")])
def test_cli_seed_out_of_range_exits_1(tmp_path, where, seed, msg):
    out = tmp_path / "seed"
    cfg_path = write_config(tmp_path, out)
    extra = []
    if where == "ini":
        text = cfg_path.read_text()
        assert "seed = 7" in text
        cfg_path.write_text(text.replace("seed = 7", f"seed = {seed}"))
    else:
        extra = ["--seed", seed]
    r = run_cli("all", "--config", str(cfg_path), *extra)
    assert r.returncode == EXIT_ERROR
    assert f"io.seed: {msg}, got {seed}" in r.stderr
    assert_clean_stderr(r)
    assert not out.exists()


def test_cli_seed_without_io_section_exits_1(tmp_path):
    cfg_path = tmp_path / "noio.ini"
    cfg_path.write_text(CONFIG[:CONFIG.index("[io]")])
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    r = run_cli("simulate", "--config", str(cfg_path), "--seed", "3", cwd=cwd)
    assert _one_error(r, EXIT_ERROR) == "ERROR spultra.pipeline: config has no [io] section"
    assert list(cwd.iterdir()) == []


@pytest.mark.parametrize("line, bad, msg", [
    ("I0 = 10000", "I0 = inf", "model.I0: must be a finite number, got inf"),
    ("image_dims = 32 32", "image_dims = -3 64", "geometry.image_dims: must be >= 1, got -3"),
    ("gamma_c = 0.0008", "gamma_c = 1e300", "learning.gamma_c: must be <= 1e+150, got 1e+300"),
    ("gamma_c = 0.0004", "gamma_c = 1e300", "recon.gamma_c: must be <= 1e+150, got 1e+300"),
    ("mu_water = 0.02", "mu_water = 1e-200", "metrics.mu_water: must be >= 1e-06, got 1e-200"),
    ("mu_water = 0.02", "mu_water = 1e-100", "metrics.mu_water: must be >= 1e-06, got 1e-100"),
    ("mu_water = 0.02", "mu_water = 1e300", "metrics.mu_water: must be <= 1000000.0, got 1e+300"),
    ("detector_spacing = 2.0", "detector_spacing = 1e-300",
     "geometry.detector_spacing: must be >= 1e-06, got 1e-300"),
    ("detector_spacing = 2.0", "detector_spacing = 2.0\nangular_range = 1e300",
     "geometry.angular_range: must be <= 6.283185307179586, got 1e+300"),
    # rejected before the ROI check squares the pixel coordinates
    ("pixel_spacing = 3.0 3.0", "pixel_spacing = 1e300 1e300",
     "geometry.pixel_spacing: must be <= 1000000.0, got 1e+300"),
])
def test_cli_invalid_number_exits_1_before_any_stage(tmp_path, line, bad, msg):
    out = tmp_path / "bad"
    cfg_path = write_config(tmp_path, out)
    text = cfg_path.read_text()
    assert line in text
    cfg_path.write_text(text.replace(line, bad))
    r = run_cli("all", "--config", str(cfg_path))
    assert r.returncode == EXIT_ERROR
    assert msg in r.stderr
    assert_clean_stderr(r)
    assert not out.exists()


def test_cli_negative_s2_beyond_the_poisson_range_exits_1(tmp_path):
    out = tmp_path / "s2"
    cfg_path = write_config(tmp_path, out)
    text = cfg_path.read_text()
    assert "sigma2 = 25\n" in text
    cfg_path.write_text(text.replace("sigma2 = 25\n", "sigma2 = 25\ns2 = -20\n"))
    # the noisy draw and its deterministic mean alike
    for flags in ([], ["--deterministic-noise"]):
        r = run_cli("simulate", "--config", str(cfg_path), *flags)
        assert r.returncode == EXIT_ERROR
        assert_clean_stderr(r)
        # log lines only: no traceback and no numpy overflow warning
        assert all(line.startswith(("INFO ", "ERROR ")) for line in r.stderr.splitlines())
        errors = [line for line in r.stderr.splitlines() if line.startswith("ERROR")]
        assert len(errors) == 1
        assert errors[0].startswith("ERROR spultra.pipeline: model.s2: the largest Poisson "
                                    "mean count is ")
        assert not (out / "sino_raw.spim").exists()


def test_cli_malformed_artifact_header_exits_1(tmp_path):
    out = tmp_path / "hdr"
    cfg_path = write_config(tmp_path, out)
    assert run_cli("simulate", "--config", str(cfg_path)).returncode == EXIT_OK
    sino = out / "sino_raw.spim"
    raw = bytearray(sino.read_bytes())
    raw[12:20] = (4_000_000_000).to_bytes(4, "little") * 2  # dims 4e9 x 4e9
    sino.write_bytes(bytes(raw))
    r = run_cli("reconstruct", "--config", str(cfg_path), "--method", "fbp")
    assert r.returncode == EXIT_ERROR
    assert_clean_stderr(r)
    errors = [line for line in r.stderr.splitlines() if line.startswith("ERROR")]
    assert len(errors) == 1
    assert errors[0].startswith(f"ERROR spultra.pipeline: {sino}: SPIM payload truncated: "
                                "expected 128000000000000000000 bytes")


def _one_iteration_waterdisk64(tmp_path, **values) -> Path:
    """``configs/waterdisk64.ini`` with one iteration of every loop, writing
    under ``tmp_path/out``, and the keys of ``values`` set to their values."""
    text = (Path(__file__).resolve().parents[1] / "configs" / "waterdisk64.ini").read_text()
    values = {"iters": "1", "N": "1", "ep_iters": "1", "out_dir": str(tmp_path / "out"),
              **values}
    for key, value in values.items():
        text, n = re.subn(rf"(?m)^{key}\s*=.*$", f"{key} = {value}", text)
        assert n == 1, key
    path = tmp_path / "one_iteration.ini"
    path.write_text(text)
    return path


def _nan_gradient(reg: str) -> str:
    """Child-process code that makes the regularizer class ``reg`` return a
    NaN gradient: no accepted config overflows an inner step any more."""
    return (f"import numpy as np\nfrom spultra import recon\n"
            f"recon.{reg}.grad = lambda self, x: np.full_like(x, np.nan)")


@pytest.mark.parametrize("reg, method", [("UltraQuadReg", "pwls-ultra"),
                                         ("EdgePreservingReg", "pwls-ep")])
def test_cli_numerical_abort_exits_3_and_names_the_method(tmp_path, reg, method):
    r = run_cli("all", "--config", str(_one_iteration_waterdisk64(tmp_path)),
                prelude=_nan_gradient(reg))
    assert r.returncode == EXIT_NUMERICAL
    assert_clean_stderr(r)  # the abort is reported by its log line only
    errors = [line for line in r.stderr.splitlines() if line.startswith("ERROR")]
    assert len(errors) == 1
    assert errors[0].startswith(f"ERROR spultra.pipeline: {method}: numerical abort")
    out = tmp_path / "out"
    assert not (out / f"x_{method.replace('-', '_')}.spim").exists()
    # the method's own trace file, and no other
    traces = sorted(p.name for p in out.glob("trace*.csv"))
    if method == "pwls-ultra":
        assert "in outer iteration 1 (partial trace in trace_pwls_ultra.csv)" in errors[0]
        assert traces == ["trace_pwls_ultra.csv"]
        lines = (out / "trace_pwls_ultra.csv").read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("0,")
    else:
        assert traces == []


@pytest.mark.parametrize("key, value", [("angular_range", "6.283185307179586"),
                                        ("detector_spacing", "1e-6"), ("mu_water", "1e6"),
                                        ("pixel_spacing", "1e6 1e6")])
def test_cli_run_at_a_geometry_or_metrics_bound_is_clean(tmp_path, key, value):
    path = _one_iteration_waterdisk64(tmp_path, **{key: value})
    if key == "pixel_spacing":  # the ROIs, given in mm, cover no centre of 1 km pixels
        path.write_text(re.sub(r"(?m)^rois =\n(    .*\n)+", "", path.read_text()))
    r = run_cli("all", "--config", str(path))
    assert r.returncode == EXIT_OK, r.stderr
    assert_clean_stderr(r)
    assert (tmp_path / "out" / "metrics.csv").exists()


@pytest.fixture(scope="module")
def waterdisk64_before_ultra(tmp_path_factory):
    """The output directory of a one-iteration ``configs/waterdisk64.ini``
    run after simulation, learning and PWLS-EP: all that ULTRA reads."""
    root = tmp_path_factory.mktemp("waterdisk64")
    cfg = parse_config(_one_iteration_waterdisk64(root))
    for stage, method in (("simulate", None), ("learn", None), ("reconstruct", "pwls-ep")):
        assert run_pipeline(cfg, stage, method=method) == EXIT_OK
    return root / "out"


def _pwls_ultra_on_scaled_dct(before_ultra, tmp_path, scale: str, **values):
    """``reconstruct --method pwls-ultra``, with the config keys of ``values``
    set to their values, on a copy of ``before_ultra`` whose ``transforms.ult``
    holds three DCTs times ``scale``; the run and that file."""
    out = tmp_path / "out"
    shutil.copytree(before_ultra, out)
    ult = out / "transforms.ult"
    omegas = float(scale) * np.stack([initial_transform(64)] * 3)
    ult.write_bytes(b"ULTR" + struct.pack("<II", 3, 64) + omegas.astype("<f8").tobytes())
    return run_cli("reconstruct", "--config",
                   str(_one_iteration_waterdisk64(tmp_path, **values)),
                   "--method", "pwls-ultra"), ult


@pytest.mark.parametrize("scale", ["nan", "inf", "1e200", "1e150"])
def test_cli_transforms_out_of_range_exit_1_naming_the_file(waterdisk64_before_ultra,
                                                            tmp_path, scale):
    r, ult = _pwls_ultra_on_scaled_dct(waterdisk64_before_ultra, tmp_path, scale)
    assert_clean_stderr(r)
    errors = [line for line in r.stderr.splitlines() if line.startswith("ERROR")]
    if scale == "1e150":  # ||O||_F^2 = 64e300 is finite, and the run is clean
        assert r.returncode == EXIT_OK, r.stderr
        assert errors == []
    else:
        assert r.returncode == EXIT_ERROR
        assert len(errors) == 1
        assert errors[0].startswith(f"ERROR spultra.pipeline: {ult}: transform 0 has a ")


def _one_error(r, code) -> str:
    """The one ERROR line of a clean CLI run that exited with ``code``."""
    assert r.returncode == code, r.stderr
    assert_clean_stderr(r)
    errors = [line for line in r.stderr.splitlines() if line.startswith("ERROR")]
    assert len(errors) == 1, r.stderr
    return errors[0]


@pytest.mark.parametrize("key, value, method", [("beta", "1e308", "pwls-ultra"),
                                                ("beta_ep", "1e308", "pwls-ep"),
                                                ("beta", "1e300", "pwls-ultra"),
                                                ("beta_ep", "1e300", "pwls-ep")])
def test_cli_majorizer_overflow_exits_1_naming_the_key(tmp_path, key, value, method):
    r = run_cli("all", "--config", str(_one_iteration_waterdisk64(tmp_path, **{key: value})),
                "--method", method)
    if value == "1e300":  # the diagonal stays finite, and the run is clean
        assert r.returncode == EXIT_OK, r.stderr
        assert_clean_stderr(r)
    else:
        assert _one_error(r, EXIT_ERROR).startswith(
            f"ERROR spultra.pipeline: recon.{key}: {float(value):g} makes the regularizer's "
            "diagonal majorizer overflow")
        assert not (tmp_path / "out" / f"x_{method.replace('-', '_')}.spim").exists()


@pytest.mark.parametrize("scale", ["1e151", "1e152", "1e153"])
def test_cli_transforms_whose_majorizer_overflows_exit_1(waterdisk64_before_ultra, tmp_path,
                                                         scale):
    # ||O||_F^2 is finite, but 2 beta ||O^T O||_2 times the patch coverage is not
    r, _ = _pwls_ultra_on_scaled_dct(waterdisk64_before_ultra, tmp_path, scale)
    assert _one_error(r, EXIT_ERROR).startswith(
        "ERROR spultra.pipeline: recon.beta: 30000 makes the regularizer's diagonal "
        "majorizer overflow")


@pytest.mark.parametrize("scale", ["1e152", "1e153"])
def test_cli_transforms_whose_operator_overflows_at_a_tiny_beta_exit_1(
        waterdisk64_before_ultra, tmp_path, scale):
    # beta scales the majorizer down to a finite one, but not the Gram
    # eigenvalue times the patch coverage, which bounds the entries of H
    r, _ = _pwls_ultra_on_scaled_dct(waterdisk64_before_ultra, tmp_path, scale, beta="1e-300")
    if scale == "1e152":  # that bound is finite, and the run is clean
        assert r.returncode == EXIT_OK, r.stderr
        assert_clean_stderr(r)
    else:
        assert _one_error(r, EXIT_ERROR) == (
            "ERROR spultra.pipeline: the learned transforms are too large: their largest "
            "Gram eigenvalue times the patch coverage overflows")


def test_partial_trace_replaces_a_complete_one(stale_run, tmp_path, caplog, monkeypatch):
    out = tmp_path / "run"
    shutil.copytree(stale_run, out)
    trace = out / "trace_pwls_ultra.csv"
    assert len(trace.read_text().splitlines()) == 3  # the header and iterations 0 and 1
    p = tmp_path / "abort.ini"
    p.write_text(_quick(CONFIG).replace("PLACEHOLDER", str(out)))
    monkeypatch.setattr(recon.UltraQuadReg, "grad", lambda self, x: np.full_like(x, np.nan))
    with caplog.at_level("ERROR"):
        assert run_pipeline(parse_config(p), "reconstruct", method="pwls-ultra") \
            == EXIT_NUMERICAL
    assert [r.message.split(":")[0] for r in caplog.records] == ["pwls-ultra"]
    assert len(trace.read_text().splitlines()) == 2


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
    r = run_cli("simulate", "--config", str(cfg_path), "--out", str(blocker))
    assert r.returncode == EXIT_ERROR
    assert f"io.out_dir: cannot create {blocker}: " in r.stderr
    assert_clean_stderr(r)


@pytest.mark.parametrize("kind", ["directory", "not utf-8"])
def test_cli_unreadable_config_exits_1(tmp_path, kind):
    if kind == "directory":
        cfg_path = tmp_path / "conf.d"
        cfg_path.mkdir()
    else:
        cfg_path = tmp_path / "latin1.ini"
        cfg_path.write_bytes("[io]\nout_dir = caf\xe9\n".encode("latin-1"))
    r = run_cli("simulate", "--config", str(cfg_path))
    assert r.returncode == EXIT_ERROR
    assert f"error: cannot read config {cfg_path}: " in r.stderr
    assert_clean_stderr(r)


def test_cli_artifact_write_error_exits_1(tmp_path):
    out = tmp_path / "blocked"
    (out / "x_true.spim").mkdir(parents=True)
    cfg_path = write_config(tmp_path, out)
    r = run_cli("simulate", "--config", str(cfg_path))
    assert r.returncode == EXIT_ERROR
    assert f"io.out_dir: cannot write {out / 'x_true.spim'}: " in r.stderr
    assert_clean_stderr(r)
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


def _fails_on(cfg, caplog, name, *args, why="left over from another config", **kwargs):
    with caplog.at_level("ERROR"):
        assert run_pipeline(cfg, *args, **kwargs) == EXIT_ERROR
    errors = [r.message for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and name in errors[0] and why in errors[0], errors


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


def _corrupted(stale_run, tmp_path, name, value):
    """The config of a copy of ``stale_run`` whose ``name`` holds ``value``
    in one entry."""
    out = tmp_path / "run"
    shutil.copytree(stale_run, out)
    data, spacing = read_spim(out / name)
    data.flat[data.size // 2] = value
    write_spim(out / name, data, spacing)
    p = tmp_path / "exp.ini"
    p.write_text(_quick(CONFIG).replace("PLACEHOLDER", str(out)))
    return parse_config(p)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name, stage, method", [
    *[("sino_raw.spim", "reconstruct", m) for m in METHODS],
    ("x_true.spim", "evaluate", None),
    ("x_pwls_ep.spim", "reconstruct", "pwls-ultra"),
    ("x_pwls_ep.spim", "reconstruct", "spultra"),
    ("x_fbp.spim", "evaluate", None),
])
def test_non_finite_artifact_exits_1_naming_the_file(stale_run, tmp_path, caplog, value, name,
                                                      stage, method):
    cfg = _corrupted(stale_run, tmp_path, name, value)
    _fails_on(cfg, caplog, f"{tmp_path / 'run' / name} holds a non-finite value", stage,
              method=method, why="rerun the stage that writes it")


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("count", ["1e160", "1e100"])
def test_cli_count_above_the_bound_exits_1_naming_the_file(stale_run, tmp_path, count, method):
    _corrupted(stale_run, tmp_path, "sino_raw.spim", float(count))
    p = tmp_path / "exp.ini"  # at the largest s1 the weights scale with s1^2 = 1e12
    p.write_text(p.read_text().replace("sigma2 = 25", "sigma2 = 25\ns1 = 1e6"))
    r = run_cli("reconstruct", "--config", str(p), "--method", method)
    if count == "1e100":  # the bound itself runs clean
        assert r.returncode == EXIT_OK, r.stderr
        assert_clean_stderr(r)
    else:
        assert _one_error(r, EXIT_ERROR) == (
            f"ERROR spultra.pipeline: {tmp_path / 'run' / 'sino_raw.spim'} holds a count of "
            "1e+160, above 1e+100; rerun the stage that writes it")


def test_cli_roi_outside_the_image_without_geometry_exits_1(stale_run, tmp_path):
    msg = ("metrics.rois: circle covers no pixel centre of the (32, 32) image, "
           "got 'far 5000 5000 1'")
    p = tmp_path / "rois.ini"
    p.write_text(f"[metrics]\nrois = far 5000 5000 1\n\n[io]\nout_dir = {stale_run}\n")
    r = run_cli("evaluate", "--config", str(p))
    assert _one_error(r, EXIT_ERROR) == f"ERROR spultra.pipeline: {msg}"
    # the wording validation uses when [geometry] is present
    p.write_text(_quick(CONFIG).replace("center 0 0 20", "far 5000 5000 1"))
    with pytest.raises(ValidationError) as err:
        parse_config(p)
    assert err.value.errors == [msg]


def test_training_image_of_another_rank_exits_1(stale_run, tmp_path, caplog):
    cfg = _corrupted(stale_run, tmp_path, "x_true.spim", 0.0)
    write_spim(tmp_path / "run" / "x_true.spim", np.zeros(16), (1.0,))
    _fails_on(cfg, caplog, "x_true.spim holds a 1-D array", "learn",
              why="rerun the stage that writes it")


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
