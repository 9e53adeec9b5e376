import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spultra.geometry import SystemGeometry, forward_project

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(*args, prelude=None):
    """``python -m spultra.cli *args`` in a child process that imports the
    package from this checkout's ``src``, with stdout and stderr captured.
    ``prelude``, when given, is Python code the child runs before the CLI
    (a fault planted by the test)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = ["-m", "spultra.cli"] if prelude is None else \
        ["-c", f"{prelude}\nimport sys\nfrom spultra.cli import main\nsys.exit(main())"]
    return subprocess.run([sys.executable, *cmd, *args], capture_output=True, text=True,
                          env=env)


def assert_clean_stderr(run):
    """A CLI run reported through its log lines only: no traceback and no
    numpy (or other) warning on stderr."""
    assert "Traceback" not in run.stderr and "Warning" not in run.stderr, run.stderr


def small_parallel(rows=8, cols=8, n_det=12, n_views=10):
    return SystemGeometry("parallel", n_detectors=n_det, n_views=n_views,
                          detector_spacing=1.0, angular_range=np.pi,
                          image_dims=(rows, cols), pixel_spacing=(1.0, 1.0))


def small_fan(rows=8, cols=8, n_det=16, n_views=12):
    return SystemGeometry("fan", n_detectors=n_det, n_views=n_views,
                          detector_spacing=1.2, angular_range=2 * np.pi,
                          image_dims=(rows, cols), pixel_spacing=(1.0, 1.0),
                          source_to_iso=30.0, source_to_detector=60.0)


def dense_system(geom):
    """Dense system matrix assembled column by column through forward_project."""
    cols = np.zeros((geom.n_rays, geom.n_pixels))
    for j in range(geom.n_pixels):
        basis = np.zeros(geom.n_pixels)
        basis[j] = 1.0
        img = basis.reshape(geom.image_dims)
        cols[:, j] = forward_project(img, geom).ravel()
    return cols


@pytest.fixture(params=["parallel", "fan"])
def small_geom(request):
    return small_parallel() if request.param == "parallel" else small_fan()
