import csv
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spultra.errors import ConfigurationError
from spultra.io import (read_manifest, read_spim, sha256_file, write_csv, write_manifest,
                        write_pgm, write_spim)
from spultra.ultra import TransformUnion, load_transforms, save_transforms


def test_spim_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    data = rng.standard_normal((5, 7))
    path = tmp_path / "img.spim"
    write_spim(path, data, (0.5, 1.25))
    back, spacing = read_spim(path)
    assert np.array_equal(back, data)
    assert spacing == (0.5, 1.25)


def test_spim_header_layout(tmp_path):
    path = tmp_path / "img.spim"
    write_spim(path, np.zeros((2, 3)), (1.0, 2.0))
    raw = path.read_bytes()
    assert raw[:4] == b"SPIM"
    version, ndims = struct.unpack("<II", raw[4:12])
    assert (version, ndims) == (1, 2)
    dims = struct.unpack("<II", raw[12:20])
    assert dims == (2, 3)
    spacing = struct.unpack("<dd", raw[20:36])
    assert spacing == (1.0, 2.0)
    assert len(raw) == 36 + 6 * 8


def test_spim_rejects_garbage(tmp_path):
    path = tmp_path / "bad.spim"
    path.write_bytes(b"JUNKxxxx")
    with pytest.raises(ConfigurationError):
        read_spim(path)


def test_spim_byte_determinism(tmp_path):
    data = np.linspace(0, 1, 12).reshape(3, 4)
    p1, p2 = tmp_path / "a.spim", tmp_path / "b.spim"
    write_spim(p1, data, (1.0, 1.0))
    write_spim(p2, data.copy(), (1.0, 1.0))
    assert p1.read_bytes() == p2.read_bytes()


def test_pgm_export(tmp_path):
    img = np.array([[700.0, 800.0], [1000.0, 1300.0]])
    path = tmp_path / "img.pgm"
    write_pgm(path, img, window=(800.0, 1200.0))
    raw = path.read_bytes()
    header, pixels = raw.split(b"65535\n", 1)
    assert header.startswith(b"P5\n2 2\n")
    vals = np.frombuffer(pixels, dtype=">u2").reshape(2, 2)
    assert vals[0, 0] == 0          # below window
    assert vals[0, 1] == 0          # at low edge
    assert vals[1, 0] == 32768      # mid window
    assert vals[1, 1] == 65535      # above window
    with pytest.raises(ConfigurationError):
        write_pgm(path, img, window=(100.0, 100.0))


# The three CSV writers that ``write_csv`` replaced, as they were: the
# convergence trace (``iter`` as is, every other column formatted), the
# learning trace (``iter`` as is, the objective formatted) and the metrics
# table (four text columns, the value formatted).
def _fmt(v):
    return "" if v is None else f"{v:.17g}"


def _old_trace_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        for row in rows:
            wr.writerow([row[0], *map(_fmt, row[1:])])


def _old_learn_csv(path, values):
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["iter", "objective"])
        for i, val in enumerate(values):
            wr.writerow([i + 1, f"{val:.17g}"])


def _old_metrics_csv(path, rows):
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["run_id", "method", "metric", "roi_label", "value"])
        for row in rows:
            wr.writerow([*row[:4], f"{row[4]:.17g}"])


_NUMBERS = [0.1, np.float64(1 / 3), -0.0, 1e-300, np.float64(-2.5e17), 12.0, 1e22,
            np.float64(np.pi), 7, 0]


def _same_bytes(tmp_path, old, new):
    old(tmp_path / "old.csv")
    new(tmp_path / "new.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_write_csv_matches_the_trace_writer(tmp_path):
    header = ("iter", "objective", "step_norm", "labels_changed", "nonzero_frac")
    rows = [(0, 10.0, None, None, None),
            (1, np.float64(9.25), 0.1, 41, np.float64(0.125)),
            (2, -0.0, 1e-300, 0, 1e-300),
            (3, *_NUMBERS[4:8])]
    _same_bytes(tmp_path, lambda p: _old_trace_csv(p, header, rows),
                lambda p: write_csv(p, header, rows))


def test_write_csv_matches_the_learning_writer(tmp_path):
    values = np.array([float(v) for v in _NUMBERS])
    _same_bytes(tmp_path, lambda p: _old_learn_csv(p, values),
                lambda p: write_csv(p, ("iter", "objective"), enumerate(values, start=1)))


def test_write_csv_matches_the_metrics_writer(tmp_path):
    rows = [("abc-s1", "pwls-ep", "rmse_hu", "all", v) for v in _NUMBERS]
    rows.append(("abc-s1", "fbp", "roi_mean_hu", "odd, \"label\"", np.float64(-1e-300)))
    _same_bytes(tmp_path, lambda p: _old_metrics_csv(p, rows),
                lambda p: write_csv(p, ("run_id", "method", "metric", "roi_label", "value"),
                                    rows))


def test_manifest_round_trip(tmp_path):
    f = tmp_path / "artifact.bin"
    f.write_bytes(b"hello")
    digest = sha256_file(f)
    manifest = tmp_path / "manifest.json"
    write_manifest(manifest, "cafe", 7, {"artifact.bin": digest})
    data = read_manifest(manifest)
    assert data["config_hash"] == "cafe" and data["seed"] == 7
    assert data["artifacts"] == {"artifact.bin": digest}


@pytest.mark.parametrize("text", [
    '{"config_hash": "x", "se',        # truncated
    "",                                # empty
    '["config_hash", "x"]',            # JSON, but not an object
    '"manifest"',
    "null",
    '{"config_hash": "x", "seed": 1, "environment": ["numpy"]}',
    '{"config_hash": "x", "seed": 1, "artifacts": "x.spim"}',
    '{"config_hash": "x", "seed": 1, "artifacts": null}',
])
def test_malformed_manifest_rejected(tmp_path, text):
    path = tmp_path / "manifest.json"
    path.write_text(text)
    with pytest.raises(ConfigurationError, match="manifest"):
        read_manifest(path)


def test_binary_manifest_rejected(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_bytes(b"\xff\xfe\x00garbage")
    with pytest.raises(ConfigurationError, match="manifest"):
        read_manifest(path)


def test_interrupted_manifest_write_keeps_previous_manifest(tmp_path, monkeypatch):
    path = tmp_path / "manifest.json"
    write_manifest(path, "cafe", 7, {"a.spim": "0" * 64})
    before = path.read_text()
    write_text = Path.write_text

    def write_half_then_stop(self, text, *args, **kwargs):
        write_text(self, text[:len(text) // 2], *args, **kwargs)
        raise KeyboardInterrupt

    monkeypatch.setattr(Path, "write_text", write_half_then_stop)
    with pytest.raises(KeyboardInterrupt):
        write_manifest(path, "beef", 8, {"b.spim": "1" * 64})
    monkeypatch.undo()
    assert path.read_text() == before
    assert read_manifest(path)["config_hash"] == "cafe"


# headers that ask for more bytes than any file holds: the payload size
# overflowed int64, or the read would have to allocate it first
MALFORMED = {
    "spim dims 4e9 x 4e9": (read_spim, b"SPIM" + struct.pack("<II2I2d", 1, 2, 4_000_000_000,
                                                             4_000_000_000, 1.0, 1.0)),
    "spim ndims 3e9": (read_spim, b"SPIM" + struct.pack("<II", 1, 3_000_000_000)),
    "ult K = v = 4e9": (load_transforms, b"ULTR" + struct.pack("<II", 4_000_000_000,
                                                               4_000_000_000)),
    "ult v = 100000": (load_transforms, b"ULTR" + struct.pack("<II", 3, 100_000)),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_header_is_a_truncated_file(tmp_path, case):
    reader, header = MALFORMED[case]
    path = tmp_path / "malformed"
    path.write_bytes(header + bytes(64))
    with pytest.raises(ConfigurationError, match="truncated: expected .* bytes, got "):
        reader(path)


@settings(deadline=None)
@given(data=st.data())
def test_every_truncated_prefix_rejected(tmp_path_factory, data):
    tmp = tmp_path_factory.mktemp("trunc")
    spim, ultr = tmp / "img.spim", tmp / "t.ult"
    write_spim(spim, np.arange(12.0).reshape(3, 4), (0.5, 1.5))
    save_transforms(ultr, TransformUnion(np.stack([np.eye(4), 2 * np.eye(4)])))
    for path, reader in ((spim, read_spim), (ultr, load_transforms)):
        raw = path.read_bytes()
        cut = data.draw(st.integers(0, len(raw) - 1), label=path.suffix)
        short = tmp / ("short" + path.suffix)
        short.write_bytes(raw[:cut])
        with pytest.raises(ConfigurationError):
            reader(short)
