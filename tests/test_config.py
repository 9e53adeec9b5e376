import configparser
import io
import math
import warnings

import numpy as np
import pytest

from spultra.config import _KEYS, IoConfig, parse_config
from spultra.errors import ValidationError
from spultra.metrics import ssim, to_hu
from spultra.recon import ReconConfig
from spultra.sim import POISSON_MEAN_MAX, Ellipse
from spultra.spstats import post_log_convert, second_derivative_at_zero
from spultra.ultra import PatchConfig

MINIMAL = """
[geometry]
n_detectors = 12
n_views = 8
detector_spacing = 1.0
image_dims = 8 8

[model]
I0 = 1000

[io]
out_dir = out
"""


def write(tmp_path, text):
    p = tmp_path / "exp.ini"
    p.write_text(text)
    return p


def test_minimal_config_defaults(tmp_path):
    cfg = parse_config(write(tmp_path, MINIMAL))
    assert cfg.geometry.beam_kind == "parallel"
    assert cfg.geometry.angular_range == pytest.approx(np.pi)
    assert cfg.geometry.pixel_spacing == (1.0, 1.0)
    assert cfg.model.sigma2 == 25.0
    assert cfg.model.s1 == 1.0 and cfg.model.s2 == 0.0
    assert cfg.io.seed == 0
    assert cfg.metrics.mu_water == 0.02
    assert cfg.recon is None and cfg.learning is None
    assert len(cfg.config_hash) == 64


def test_misspelled_key_named(tmp_path):
    text = MINIMAL + "\n[recon]\nbeta = 1\ngamma_C = 0.1\nN = 5\nbeta_ep = 1\n"
    with pytest.raises(ValidationError) as err:
        parse_config(write(tmp_path, text))
    assert any("recon.gamma_C" in e and "unknown" in e for e in err.value.errors)


def test_alpha_upper_bound_rejected(tmp_path):
    text = MINIMAL + "\n[recon]\nbeta = 1\ngamma_c = 0.1\nN = 5\nbeta_ep = 1\nalpha = 2.0\n"
    with pytest.raises(ValidationError) as err:
        parse_config(write(tmp_path, text))
    assert any("recon.alpha" in e for e in err.value.errors)
    ok = MINIMAL + "\n[recon]\nbeta = 1\ngamma_c = 0.1\nN = 5\nbeta_ep = 1\nalpha = 1.999\n"
    cfg = parse_config(write(tmp_path, ok))
    assert cfg.recon.alpha == 1.999


def test_all_errors_reported_together(tmp_path):
    text = """
[geometry]
n_detectors = -3
n_views = 8
detector_spacing = nope
image_dims = 8 8
bogus = 1

[model]
I0 = 1000

[io]
out_dir = out
"""
    with pytest.raises(ValidationError) as err:
        parse_config(write(tmp_path, text))
    joined = "\n".join(err.value.errors)
    assert "geometry.n_detectors" in joined
    assert "geometry.detector_spacing" in joined
    assert "geometry.bogus" in joined


def test_duplicate_key_rejected(tmp_path):
    text = MINIMAL + "\n[learning]\nK = 2\nK = 3\nv = 16\ngamma_c = 0.1\nlambda0 = 0.1\n"
    with pytest.raises(ValidationError) as err:
        parse_config(write(tmp_path, text))
    assert any("duplicate" in e for e in err.value.errors)


def test_unknown_section_rejected(tmp_path):
    text = MINIMAL + "\n[extras]\nfoo = 1\n"
    with pytest.raises(ValidationError) as err:
        parse_config(write(tmp_path, text))
    assert any("extras" in e for e in err.value.errors)


def test_missing_required_key_named(tmp_path):
    text = """
[geometry]
n_views = 8
detector_spacing = 1.0
image_dims = 8 8

[io]
out_dir = out
"""
    with pytest.raises(ValidationError) as err:
        parse_config(write(tmp_path, text))
    assert any("geometry.n_detectors" in e and "missing" in e for e in err.value.errors)


def test_phantom_requires_geometry(tmp_path):
    text = """
[phantom]
shapes =
    0 0 4 4 0 0.02

[io]
out_dir = out
"""
    with pytest.raises(ValidationError) as err:
        parse_config(write(tmp_path, text))
    assert any("phantom" in e and "geometry" in e for e in err.value.errors)


def test_fan_geometry_constraint(tmp_path):
    text = """
[geometry]
beam = fan
n_detectors = 12
n_views = 8
detector_spacing = 1.0
image_dims = 8 8
source_to_iso = 50
source_to_detector = 40

[io]
out_dir = out
"""
    with pytest.raises(ValidationError) as err:
        parse_config(write(tmp_path, text))
    assert any("geometry" in e for e in err.value.errors)


def test_recon_takes_the_patch_side_from_the_transforms(tmp_path):
    text = MINIMAL + """
[learning]
K = 2
v = 16
gamma_c = 0.1
lambda0 = 0.1

[recon]
beta = 1
gamma_c = 0.05
N = 3
beta_ep = 10
stride = 2
"""
    cfg = parse_config(write(tmp_path, text))
    assert cfg.learning.patch == PatchConfig(4, 1)
    # the reconstruction's patch side is that of the transforms it is given
    assert cfg.recon.patch_stride == 2 and "patch" not in ReconConfig.__dataclass_fields__


def test_ep_delta_converted_from_hu(tmp_path):
    text = MINIMAL + """
[recon]
beta = 1
gamma_c = 0.05
N = 3
beta_ep = 10
delta = 10
"""
    cfg = parse_config(write(tmp_path, text))
    # 10 HU at mu_water=0.02 is 10 * 0.02 / 1000 mm^-1
    assert cfg.recon.ep.delta == pytest.approx(2e-4)
    assert cfg.recon.ep.potential_kind == "hyperbola"


def test_bundled_config_parses():
    from pathlib import Path
    cfg = parse_config(Path(__file__).resolve().parents[1] / "configs" / "waterdisk64.ini")
    assert cfg.geometry.image_dims == (64, 64)
    assert len(cfg.phantom) == 4 and cfg.phantom[1] == Ellipse(-35, 20, 24, 16, 0.4, 0.05)
    assert cfg.learning.k == 3
    assert cfg.recon.n_subsets == 6
    assert cfg.io.seed == 11
    assert [r[0] for r in cfg.metrics.rois] == ["center", "bone", "soft"]


def test_overrides(tmp_path):
    cfg = parse_config(write(tmp_path, MINIMAL))
    cfg2 = cfg.with_overrides(out_dir="elsewhere", seed=99)
    assert cfg2.io.out_dir == "elsewhere" and cfg2.io.seed == 99
    assert cfg.io.out_dir == "out" and cfg.io.seed == 0
    # without [io] an out_dir makes one, and a seed alone leaves none
    noio = parse_config(write(tmp_path, MINIMAL.replace("[io]\nout_dir = out\n", "")))
    assert noio.with_overrides(seed=3).io is None
    assert noio.with_overrides(out_dir="o", seed=3).io == IoConfig(out_dir="o", seed=3)


@pytest.mark.parametrize("seed, msg", [
    ("-3", "io.seed: must be >= 0, got -3"),
    ("9223372036854775808", "io.seed: must be <= 9223372036854775807, got 9223372036854775808"),
])
def test_seed_out_of_range_rejected(tmp_path, seed, msg):
    with pytest.raises(ValidationError) as ei:
        parse_config(write(tmp_path, MINIMAL + f"seed = {seed}\n"))
    assert ei.value.errors == [msg]
    cfg = parse_config(write(tmp_path, MINIMAL + "seed = 9223372036854775807\n"))
    assert cfg.io.seed == 2 ** 63 - 1
    with pytest.raises(ValidationError) as ei:
        cfg.with_overrides(seed=int(seed))
    assert ei.value.errors == [msg]
    with pytest.raises(ValidationError):
        parse_config(write(tmp_path, MINIMAL.replace("[io]\nout_dir = out\n", ""))) \
            .with_overrides(out_dir="o", seed=int(seed))


def test_more_subsets_than_views_rejected(tmp_path):
    # MINIMAL has 8 views; 9 subsets would leave one of them empty
    recon = "\n[recon]\nbeta = 1\ngamma_c = 0.05\nN = 3\nbeta_ep = 1\nM = {}\n"
    with pytest.raises(ValidationError) as err:
        parse_config(write(tmp_path, MINIMAL + recon.format(9)))
    assert any(e.startswith("recon.M:") and "n_views" in e for e in err.value.errors)
    cfg = parse_config(write(tmp_path, MINIMAL + recon.format(8)))
    assert cfg.recon.n_subsets == 8


LEARNING = "\n[learning]\nK = 2\nv = 16\nstride = {}\ngamma_c = 0.1\nlambda0 = 0.1\n"


def test_stride_longer_than_patch_side_rejected(tmp_path):
    with pytest.raises(ValidationError) as err:
        parse_config(write(tmp_path, MINIMAL + LEARNING.format(5)))
    assert [e for e in err.value.errors if e.startswith("learning.")] \
        == ["learning.stride: must be <= the patch side (4), got 5"]
    recon = "\n[recon]\nbeta = 1\ngamma_c = 0.05\nN = 3\nbeta_ep = 1\nstride = 5\n"
    with pytest.raises(ValidationError) as err:
        parse_config(write(tmp_path, MINIMAL + LEARNING.format(1) + recon))
    assert err.value.errors == ["recon.stride: must be <= the patch side (4), got 5"]
    cfg = parse_config(write(tmp_path, MINIMAL + LEARNING.format(4)))
    assert cfg.learning.patch == PatchConfig(4, 4)


def test_patch_larger_than_image_rejected(tmp_path):
    small = MINIMAL.replace("image_dims = 8 8", "image_dims = 3 6")
    with pytest.raises(ValidationError) as err:
        parse_config(write(tmp_path, small + LEARNING.format(1)))
    assert err.value.errors == ["learning.v: patch side 4 exceeds geometry.image_dims (3, 6)"]
    cfg = parse_config(write(tmp_path, small + LEARNING.format(1).replace("v = 16", "v = 9")))
    assert cfg.learning.patch == PatchConfig(3, 1)


VALID = MINIMAL + LEARNING.format(1) + """
[recon]
beta = 1
gamma_c = 0.05
N = 3
beta_ep = 10

[metrics]

[phantom]
shapes =
    0 0 3 3 0 0.02
"""


def with_value(section, key, value):
    """``VALID`` with ``key = value`` set in ``[section]``."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    parser.read_string(VALID)
    parser[section][key] = value
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


_FINITE = "must be a finite number, got"
# (section, key, value, the one error expected); the geometry cases also check
# that an invalid [geometry] section does not add a phantom error to its own
INVALID_NUMBERS = [
    ("model", "I0", "nan", f"model.I0: {_FINITE} nan"),
    ("model", "I0", "inf", f"model.I0: {_FINITE} inf"),
    ("model", "I0", "1e19", "model.I0: must be <= 9e+18, got 1e+19"),
    ("model", "sigma2", "nan", f"model.sigma2: {_FINITE} nan"),
    ("model", "sigma2", "1e300", "model.sigma2: must be <= 1e+150, got 1e+300"),
    ("model", "s1", "1e300", "model.s1: must be <= 1000000.0, got 1e+300"),
    ("model", "s1", "1e154", "model.s1: must be <= 1000000.0, got 1e+154"),
    ("model", "s1", "1e-300", "model.s1: must be >= 1e-06, got 1e-300"),
    ("model", "s1", "0", "model.s1: must be >= 1e-06, got 0.0"),
    ("learning", "lambda0", "inf", f"learning.lambda0: {_FINITE} inf"),
    ("learning", "lambda0", "1e-300", "learning.lambda0: must be >= 1e-100, got 1e-300"),
    ("learning", "lambda0", "0", "learning.lambda0: must be >= 1e-100, got 0.0"),
    ("recon", "beta", "nan", f"recon.beta: {_FINITE} nan"),
    ("recon", "x_max", "inf", f"recon.x_max: {_FINITE} inf"),
    ("recon", "x_max", "nan", f"recon.x_max: {_FINITE} nan"),
    ("recon", "delta", "inf", f"recon.delta: {_FINITE} inf"),
    # delta * mu_water / 1000 underflows to 0 mm^-1
    ("recon", "delta", "1e-320",
     "recon.delta: 1e-320 HU is 0 mm^-1 at metrics.mu_water 0.02; must be larger"),
    ("metrics", "mu_water", "inf", f"metrics.mu_water: {_FINITE} inf"),
    ("metrics", "mu_water", "1e-200", "metrics.mu_water: must be >= 1e-06, got 1e-200"),
    ("metrics", "mu_water", "1e-100", "metrics.mu_water: must be >= 1e-06, got 1e-100"),
    ("metrics", "mu_water", "0", "metrics.mu_water: must be >= 1e-06, got 0.0"),
    ("metrics", "mu_water", "1e300", "metrics.mu_water: must be <= 1000000.0, got 1e+300"),
    ("learning", "gamma_c", "1e300", "learning.gamma_c: must be <= 1e+150, got 1e+300"),
    ("recon", "gamma_c", "1e300", "recon.gamma_c: must be <= 1e+150, got 1e+300"),
    ("geometry", "detector_spacing", "nan", f"geometry.detector_spacing: {_FINITE} nan"),
    ("geometry", "detector_spacing", "1e-300",
     "geometry.detector_spacing: must be >= 1e-06, got 1e-300"),
    ("geometry", "angular_range", "inf", f"geometry.angular_range: {_FINITE} inf"),
    ("geometry", "angular_range", "1e300",
     f"geometry.angular_range: must be <= {2 * math.pi}, got 1e+300"),
    ("geometry", "pixel_spacing", "inf 3.5", f"geometry.pixel_spacing: {_FINITE} inf"),
    ("geometry", "pixel_spacing", "nan 3.5", f"geometry.pixel_spacing: {_FINITE} nan"),
    ("geometry", "pixel_spacing", "0 3.5", "geometry.pixel_spacing: must be > 0.0, got 0.0"),
    ("geometry", "pixel_spacing", "1e300 1e300",
     "geometry.pixel_spacing: must be <= 1000000.0, got 1e+300"),
    ("geometry", "pixel_spacing", "3.5 -1",
     "geometry.pixel_spacing: must be > 0.0, got -1.0"),
    ("geometry", "image_dims", "0 64", "geometry.image_dims: must be >= 1, got 0"),
    ("geometry", "image_dims", "-3 64", "geometry.image_dims: must be >= 1, got -3"),
]


@pytest.mark.parametrize("section,key,value,msg", INVALID_NUMBERS,
                         ids=["-".join(case[:3]) for case in INVALID_NUMBERS])
def test_non_finite_or_out_of_range_number_rejected(tmp_path, section, key, value, msg):
    parse_config(write(tmp_path, VALID))
    with pytest.raises(ValidationError) as err:
        parse_config(write(tmp_path, with_value(section, key, value)))
    assert err.value.errors == [msg]


def test_i0_bound_is_a_mean_the_poisson_sampler_takes(tmp_path):
    cfg = parse_config(write(tmp_path, with_value("model", "I0", repr(POISSON_MEAN_MAX))))
    assert cfg.model.i0 == POISSON_MEAN_MAX
    np.random.default_rng(0).poisson(POISSON_MEAN_MAX)  # numpy raises from about 9.2e18


def test_gamma_c_and_mu_water_bounds_keep_the_arithmetic_finite(tmp_path):
    text = with_value("recon", "gamma_c", "1e150").replace("gamma_c = 0.1", "gamma_c = 1e150")
    text = text.replace("[metrics]", "[metrics]\nmu_water = 1e-6")
    cfg = parse_config(write(tmp_path, text))
    assert cfg.learning.gamma_c == cfg.recon.gamma_c == 1e150
    assert math.isfinite(cfg.recon.gamma_c ** 2 * 1e6)  # raises OverflowError past ~1.3e154
    assert cfg.metrics.mu_water == 1e-6
    # SSIM of HU images of an attenuation map up to 1 mm^-1, with no warning
    rng = np.random.default_rng(0)
    truth = rng.random((16, 16))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = ssim(to_hu(truth + 0.1 * rng.random((16, 16)), 1e-6),
                     to_hu(truth, 1e-6))
    assert 0.0 < value < 1.0


@pytest.mark.parametrize("s1", ["1e-6", "1e6"])
def test_s1_and_sigma2_bounds_keep_the_arithmetic_finite(tmp_path, s1):
    text = with_value("model", "s1", s1).replace(
        "I0 = 1000", f"I0 = {POISSON_MEAN_MAX!r}\nsigma2 = 1e150")
    model = parse_config(write(tmp_path, text)).model
    assert (model.i0, model.sigma2, model.s1) == (POISSON_MEAN_MAX, 1e150, float(s1))
    # the squares that raised OverflowError past ~1.3e154, and the post-log
    # line integrals and weights of counts from zero to I0, with no warning
    counts = np.array([0.0, 1.0, 1e3, POISSON_MEAN_MAX])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        curvature = second_derivative_at_zero(counts, model)
        l, w = post_log_convert(counts, model)
    assert np.isfinite(curvature).all() and np.isfinite(l).all() and np.isfinite(w).all()


@pytest.mark.parametrize("shape", ["0 0 3 3 0 nan", "0 0 inf 3 0 0.02"])
def test_non_finite_shape_rejected(tmp_path, shape):
    with pytest.raises(ValidationError) as err:
        parse_config(write(tmp_path, MINIMAL + f"\n[phantom]\nshapes =\n    {shape}\n"))
    assert err.value.errors == [f"phantom.shapes: values must be finite in {shape!r}"]


@pytest.mark.parametrize("window,shown", [("1200 800", "1200.0 800.0"),
                                          ("1000 1000", "1000.0 1000.0"),
                                          ("nan 1000", None)])
def test_metrics_window_must_increase(tmp_path, window, shown):
    # caught when the config is read, not after the truth image is written;
    # a NaN bound (shown None) fails as a non-finite number before any ordering
    error = (f"metrics.window: must satisfy hi > lo, got {shown}" if shown
             else "metrics.window: must be a finite number, got nan")
    with pytest.raises(ValidationError) as err:
        parse_config(write(tmp_path, MINIMAL + f"\n[metrics]\nwindow = {window}\n"))
    assert [e for e in err.value.errors if e.startswith("metrics.")] == [error]


@pytest.mark.parametrize("roi,reason", [
    ("outside 900 900 5", "covers no pixel centre"),
    ("between 0.2 0.2 0.1", "covers no pixel centre"),  # pixel centres sit at +-0.5, +-1.5, ...
    ("negative 0 0 -12", "radius must be > 0"),
    ("flat 0 0 0", "radius must be > 0"),
    ("everything 0 0 inf", "values must be finite"),
])
def test_metrics_roi_must_cover_a_pixel(tmp_path, roi, reason):
    text = MINIMAL + f"\n[metrics]\nrois =\n    center 0 0 2\n    {roi}\n"
    with pytest.raises(ValidationError) as err:
        parse_config(write(tmp_path, text))
    bad = [e for e in err.value.errors if e.startswith("metrics.")]
    assert len(bad) == 1 and bad[0].startswith("metrics.rois: ") and reason in bad[0]
    assert repr(roi) in bad[0]


def test_metrics_roi_covering_one_pixel_accepted(tmp_path):
    text = MINIMAL + "\n[metrics]\nrois =\n    one 0.5 0.5 0.1\n"
    assert parse_config(write(tmp_path, text)).metrics.rois == (("one", 0.5, 0.5, 0.1),)


# a config that stays valid with any one key at either end of its bounds: a
# 1-pixel patch fits a 1x1 image, the default M = 1 fits a 1-view scan, the fan
# distances wait for beam = fan, and at the largest mu_water a delta just above
# 0 HU is still above 0 mm^-1
AT_BOUNDS = VALID.replace("v = 16", "v = 1") \
    .replace("image_dims = 8 8", "image_dims = 8 8\nsource_to_iso = 50\nsource_to_detector = 100") \
    .replace("[metrics]", "[metrics]\nmu_water = 1e6")


def _bound_cases():
    """(section, key, accepted values, [(rejected value, problem)]) for each
    row of the key table that has a bound: a number at its bound and just
    past it (an exclusive bound the other way round), each choice and one
    that is not."""
    for section, keys in _KEYS.items():
        for key, (_, _, _, bounds) in keys.items():
            ok, bad = [], []
            for kind, bound in bounds.items():
                if kind == "choices":
                    ok += sorted(bound)
                    bad.append(("bogus", f"must be one of {sorted(bound)}"))
                    continue
                sign = -1 if kind == "minimum" else 1
                past = bound + sign if isinstance(bound, int) \
                    else math.nextafter(bound, sign * math.inf)
                if kind == "above":  # an exclusive minimum
                    ok.append(past)
                    bad.append((bound, f"must be > {bound}"))
                else:
                    ok.append(bound)
                    bad.append((past, f"must be {'>=' if sign < 0 else '<='} {bound}"))
            if bounds:
                yield section, key, ok, bad


BOUND_CASES = list(_bound_cases())


def _with_bound_value(section, key, value):
    """``AT_BOUNDS`` with ``section.key`` set to ``value`` (twice for a pair,
    as the attenuation of a shape line): the value's text and the config."""
    text = value if isinstance(value, str) else repr(value)
    if key in ("image_dims", "pixel_spacing"):
        text = f"{text} {text}"
    elif key == "shapes":
        text = f"0 0 3 3 0 {text}"
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    parser.read_string(AT_BOUNDS)
    parser[section][key] = text
    buf = io.StringIO()
    parser.write(buf)
    return text, buf.getvalue()


@pytest.mark.parametrize("section,key,ok,bad", BOUND_CASES,
                         ids=[f"{case[0]}.{case[1]}" for case in BOUND_CASES])
def test_every_bound_in_the_key_table_accepts_its_end_and_rejects_past_it(tmp_path, section,
                                                                          key, ok, bad):
    parse_config(write(tmp_path, AT_BOUNDS))
    for value in ok:
        parse_config(write(tmp_path, _with_bound_value(section, key, value)[1]))
    for value, problem in bad:
        text, config = _with_bound_value(section, key, value)
        with pytest.raises(ValidationError) as err:
            parse_config(write(tmp_path, config))
        # a shape line is bounded in its attenuation and named in full
        msg = f"phantom.shapes: attenuation {problem} in {text!r}" if key == "shapes" \
            else f"{section}.{key}: {problem}, got {value!r}"
        assert err.value.errors == [msg]

