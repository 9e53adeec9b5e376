import os
import re
import subprocess
import sys
from pathlib import Path

from conftest import SRC

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    blocks = re.findall(r"(?ms)^```python\n(.*?)^```", README.read_text())
    assert len(blocks) == 1
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    r = subprocess.run([sys.executable, "-c", blocks[0]], capture_output=True, text=True,
                       env=env)
    assert r.returncode == 0, r.stderr
    assert re.search(r"(?m)^final RMSE \(HU\): ", r.stdout), r.stdout
