import math
import os
import re
import subprocess
import sys
from pathlib import Path

from spultra.config import _KEYS

from conftest import SRC, assert_clean_stderr

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    blocks = re.findall(r"(?ms)^```python\n(.*?)^```", README.read_text())
    assert len(blocks) == 1
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    r = subprocess.run([sys.executable, "-c", blocks[0]], capture_output=True, text=True,
                       env=env)
    assert r.returncode == 0, r.stderr
    assert_clean_stderr(r)
    assert re.search(r"(?m)^final RMSE \(HU\): ", r.stdout), r.stdout


def _readme_bounds():
    """``section.key`` -> bounds, as the Configuration section's table of
    bounds states them."""
    section = README.read_text().split("\n## Configuration\n")[1].split("\n## ")[0]
    named = {"2 pi": 2 * math.pi, "2^63 - 1": 2 ** 63 - 1}
    kinds = {">=": "minimum", "<=": "maximum", ">": "above"}
    stated = {}
    for key, cell in re.findall(r"(?m)^\| `(\w+\.\w+)` \| ([^|]*?) \|", section):
        if cell.startswith("one of "):
            stated[key] = {"choices": set(re.findall(r"`(\w+)`", cell))}
            continue
        stated[key] = {}
        for item in cell.split(", "):
            op, value = item.split(" ", 1)
            stated[key][kinds[op]] = named[value] if value in named else float(value)
    return stated


def test_readme_states_every_bound_of_the_key_table():
    bounded = {f"{section}.{key}": bounds for section, keys in _KEYS.items()
               for key, (_, _, _, bounds) in keys.items() if bounds}
    assert _readme_bounds() == bounded
