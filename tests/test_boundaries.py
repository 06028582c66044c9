"""A fault table for the six verbs: each row sets one float or count key of a small config
to an extreme value and runs every verb in process through ``cli.main``, ``localize`` with
and without ``--dict``.

Whatever the value, a verb exits 0, 2 or 3, and raises no warning. On exit 2 or 3 it
prints exactly one ``error: `` line and leaves no ``--out`` file; on exit 0 no output
holds a ``nan`` or ``inf`` token. ``localize`` reads the measurement that ``simulate``
wrote for the same row, and ``--dict`` the file that ``dict`` wrote.

``compare`` also runs over one row per value of each numeric key of ``architectures[i]``,
for a virtual and a physical aperture, alone and after the other kind, with and without
``--out``.

Two keys that meet in one expression of the echo model have their own table, under the
same invariants: ``plan.f_max_hz`` with a target coordinate or a grid bound (the phase
4 pi f R / c), a reflectivity, ``plan.f_min_hz`` or ``dispersion.theta_max_deg`` with
``antenna.length_m`` (the gain), and ``plan.n_points`` with each grid count (the
dictionary's size). ``plan.f_max_hz`` with ``antenna.length_m`` give the narrowest
beamwidth the antenna gain divides by, and have rows of their own.
"""

import json
import re
import warnings

import pytest

from sweepsense import cli

# M = 8, a 3^3 grid around the one target at (0, 0, 3) m, 1.2 cm antenna
BASE = {
    "plan": {"f_min_hz": 60e9, "f_max_hz": 66e9, "n_points": 8},
    "dispersion": {"kind": "linear_sine", "theta_max_deg": 60.0},
    "antenna": {"length_m": 0.012, "two_way": True},
    "scene": {"targets": [{"x_m": 0.0, "y_m": 0.0, "z_m": 3.0}], "snr_db": "noiseless",
              "seed": 7},
    "grid": {"x_min_m": -0.25, "x_max_m": 0.25, "nx": 3, "y_min_m": -0.25, "y_max_m": 0.25,
             "ny": 3, "z_min_m": 2.75, "z_max_m": 3.25, "nz": 3},
    "architectures": [{"name": "FaA-Single", "rf_chains": 1, "physical_size_m": 0.12,
                       "bandwidth_hz": 6e9, "n_samples": 128, "aperture_kind": "virtual",
                       "f_ref_hz": 63e9, "power_mw": 850.0, "cost_usd": 55.0,
                       "fov_deg": 60.0, "eta_reference": 926.0}],
}

FLOAT_KEYS = (
    "plan.f_min_hz", "plan.f_max_hz", "antenna.length_m", "dispersion.theta_max_deg",
    *(f"grid.{a}_{end}_m" for a in "xyz" for end in ("min", "max")),
    *(f"scene.targets[0].{name}"
      for name in ("x_m", "y_m", "z_m", "alpha_re", "alpha_im", "alpha_x_re", "alpha_x_im",
                   "alpha_y_re", "alpha_y_im")),
    "scene.snr_db",
)
LARGEST = 1.7976931348623157e308
FLOATS = (0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-300, -1e-300, 1e300, LARGEST,
          -LARGEST, -1.0, 1e-30, 1e30, 1e154, 1e200)
# Counts are at most 10 or at least 2**60: numpy would allocate a count between lazily,
# and could exhaust the memory.
COUNT_KEYS = ("plan.n_points", "grid.nx", "grid.ny", "grid.nz", "scene.seed")
COUNTS = {"0": 0, "1": 1, "2": 2, "10": 10, "-1": -1, "2**60": 2**60, "2**63-1": 2**63 - 1,
          "2**63": 2**63, "2**64": 2**64, "10**400": 10**400}
ROWS = [
    *(pytest.param(key, value, id=f"{key}-{value!r}") for key in FLOAT_KEYS for value in FLOATS),
    *(pytest.param(key, value, id=f"{key}-{label}")
      for key in COUNT_KEYS for label, value in COUNTS.items()),
]

# name, then the verb and its flags other than --config and --out, in run order
RUNS = (
    ("meas", "simulate"),
    ("dict", "dict"),
    ("localize", "localize --measurement {meas}"),
    ("localize-dict", "localize --measurement {meas} --dict {dict}"),
    ("probe", "probe --span 1.0 --steps 11"),
    ("compare", "compare"),
    ("sweep", "sweep --snr noiseless,-10,0,30 --trials 3"),
)

NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


def configured(tmp_path, cfg, settings: dict):
    """The path of a copy of ``cfg`` with each key of ``settings`` (such as
    'scene.targets[0].x_m') set to its value."""
    cfg = json.loads(json.dumps(cfg))
    for key, value in settings.items():
        *path, name = (int(part) if part.isdigit() else part for part in re.findall(r"\w+", key))
        section = cfg
        for part in path:
            section = section[part]
        section[name] = value
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    return config


def run_cleanly(capsys, argv, out, run: str) -> int:
    """``cli.main(argv)``'s exit code, once the table's invariants hold for it: ``out`` is
    its --out file, or None when it writes to the standard streams alone."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main(argv)
    stdout, stderr = capsys.readouterr()
    assert [str(w.message) for w in caught] == [], run
    assert rc in (0, 2, 3), run
    if rc:
        assert re.fullmatch(r"error: [^\n]*\n", stderr), (run, stderr)
        assert stdout == "", run
        assert out is None or not out.exists(), run
    else:
        for text in (out.read_text() if out else "", stdout, stderr):
            assert not NON_FINITE.search(text), (run, NON_FINITE.search(text))
    return rc


def verb_runs(tmp_path, settings: dict):
    """(name, argv, --out path) of each of RUNS on BASE with ``settings``."""
    config = configured(tmp_path, BASE, settings)
    outs = {name: tmp_path / f"{name}.out" for name, _ in RUNS}
    for name, command in RUNS:
        argv = [*command.format(**outs).split(), "--config", str(config), "--out", str(outs[name])]
        yield name, argv, outs[name]


def run_every_verb(tmp_path, capsys, settings: dict) -> list[int]:
    """Run each of RUNS on BASE with ``settings`` under the table's invariants; return
    their exit codes."""
    return [run_cleanly(capsys, argv, out, f"{name}: {settings!r}")
            for name, argv, out in verb_runs(tmp_path, settings)]


def every_verb_exits_2(tmp_path, capsys, settings: dict, error: str) -> None:
    """Run each of RUNS on BASE with ``settings``: each exits 2 with the one stderr line
    ``error: {error}``, writes no --out file and raises no warning."""
    for name, argv, out in verb_runs(tmp_path, settings):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(argv) == 2, name
        assert [str(w.message) for w in caught] == [], name
        assert capsys.readouterr() == ("", f"error: {error}\n"), name
        assert not out.exists(), name


@pytest.mark.parametrize("key, value", ROWS)
def test_every_verb_exits_0_2_or_3_cleanly(tmp_path, capsys, key, value):
    run_every_verb(tmp_path, capsys, {key: value})


# The one-key table's extremes that are valid alone, for each pair of keys
PAIR_FLOATS = (1e-300, 1e-30, 1e154, 1e200, 1e300, LARGEST)
PAIR_COUNTS = (1, 2, 10, 2**60, 2**63 - 1)  # at most 10 or at least 2**60, as in COUNTS
PAIRS = [
    *(("plan.f_max_hz", PAIR_FLOATS, other, PAIR_FLOATS)
      for other in ("scene.targets[0].z_m", "scene.targets[0].x_m", "grid.z_max_m")),
    ("scene.targets[0].alpha_re", PAIR_FLOATS, "antenna.length_m", PAIR_FLOATS),
    ("plan.f_min_hz", PAIR_FLOATS, "antenna.length_m", PAIR_FLOATS),
    ("dispersion.theta_max_deg", (1e-300, 1e-30, 1e-10, 45.0, 89.999999), "antenna.length_m",
     PAIR_FLOATS),
    *(("plan.n_points", PAIR_COUNTS, f"grid.n{a}", PAIR_COUNTS) for a in "xyz"),
]
PAIR_ROWS = [pytest.param({key: value, other: other_value}, id=f"{key}-{value!r}-{other}-"
                          f"{other_value!r}")
             for key, values, other, other_values in PAIRS
             for value in values for other_value in other_values]


@pytest.mark.parametrize("settings", PAIR_ROWS)
def test_every_verb_exits_0_2_or_3_cleanly_at_a_key_pair(tmp_path, capsys, settings):
    run_every_verb(tmp_path, capsys, settings)


# A virtual and a physical aperture. Each row sets one key of the last spec of a config
# that holds that spec alone, or the other aperture's spec and then it.
APERTURES = {
    "virtual": BASE["architectures"][0],
    "physical": {"name": "1T3R-MIMO", "rf_chains": 4, "physical_size_m": 0.12,
                 "bandwidth_hz": 6e9, "n_samples": 4, "aperture_kind": "physical",
                 "f_ref_hz": 60e9, "power_mw": 1600.0, "cost_usd": 100.0, "fov_deg": 60.0,
                 "eta_reference": 58.0},
}
ARCHITECTURE_FLOAT_KEYS = ("physical_size_m", "bandwidth_hz", "f_ref_hz", "power_mw", "cost_usd",
                           "fov_deg", "eta_reference")
ARCHITECTURE_COUNT_KEYS = ("rf_chains", "n_samples")
ARCHITECTURE_ROWS = [
    *(pytest.param(key, value, id=f"{key}-{value!r}")
      for key in ARCHITECTURE_FLOAT_KEYS for value in FLOATS),
    *(pytest.param(key, value, id=f"{key}-{label}")
      for key in ARCHITECTURE_COUNT_KEYS for label, value in COUNTS.items()),
]


def architecture_configs(tmp_path, kind: str, key: str, value):
    """(run name, i, config path) for a config of the ``kind`` aperture's spec alone, and
    one of the other kind's spec and then it, with ``key`` of that spec, architectures[i],
    set to ``value``."""
    (other,) = (spec for k, spec in APERTURES.items() if k != kind)
    for name, specs in (("alone", [APERTURES[kind]]), ("second", [other, APERTURES[kind]])):
        i = len(specs) - 1
        key_i = f"architectures[{i}].{key}"
        config = configured(tmp_path, {"architectures": specs}, {key_i: value})
        yield f"{kind} {name}: {key_i} = {value!r}", i, config


@pytest.mark.parametrize("key, value", ARCHITECTURE_ROWS)
def test_compare_exits_cleanly_at_every_architecture_value(tmp_path, capsys, key, value):
    out = tmp_path / "report.json"
    for kind in APERTURES:
        for run, _, config in architecture_configs(tmp_path, kind, key, value):
            run_cleanly(capsys, ["compare", "--config", str(config)], None, run)
            run_cleanly(capsys, ["compare", "--config", str(config), "--out", str(out)], out, run)
            out.unlink(missing_ok=True)


@pytest.mark.parametrize("kind, key, value, metric", [
    # c/2B is 1.5e308 m, and in cm it overflows
    ("virtual", "bandwidth_hz", 1e-300, "range_resolution_m in cm (dR_cm)"),
    ("physical", "bandwidth_hz", 1e-300, "range_resolution_m in cm (dR_cm)"),
    # the aperture is M c / (2 f_ref) for a virtual one and the size for a physical one
    ("virtual", "f_ref_hz", 1e-296, "effective_aperture_m in mm (D_eff_mm)"),
    ("physical", "physical_size_m", 2e305, "effective_aperture_m in mm (D_eff_mm)"),
])
def test_a_text_table_cell_that_overflows_exits_2_naming_its_metric(
    tmp_path, capsys, kind, key, value, metric
):
    out = tmp_path / "report.json"
    for run, i, config in architecture_configs(tmp_path, kind, key, value):
        for args in ([], ["--out", str(out)]):
            assert cli.main(["compare", "--config", str(config), *args]) == 2, run
            assert capsys.readouterr() == ("", f"error: architectures[{i}]: derived {metric} is "
                                               "inf, not a finite number\n"), run
            assert not out.exists(), run


def test_a_physical_fov_whose_radians_underflow_exits_2_naming_the_cell_volume(
    tmp_path, capsys
):
    # radians(5e-324) is 0, so the other plane's factor 2 tan(fov) is 0; 1e-310 is not
    out = tmp_path / "report.json"
    for run, i, config in architecture_configs(tmp_path, "physical", "fov_deg", 5e-324):
        for args in ([], ["--out", str(out)]):
            assert cli.main(["compare", "--config", str(config), *args]) == 2, run
            assert capsys.readouterr() == ("", f"error: architectures[{i}]: derived "
                                               "cell_volume_m3 is 0.0, not a number > 0\n"), run
            assert not out.exists(), run
    for run, _, config in architecture_configs(tmp_path, "physical", "fov_deg", 1e-310):
        assert cli.main(["compare", "--config", str(config)]) == 0, run
        assert capsys.readouterr().err == "", run


@pytest.mark.parametrize("f_max_hz, length_m, width", [
    (1e200, 1e154, "0.0"),  # c/(f_max L) underflows to 0
    (66e9, LARGEST, "2.5267437927023e-311"),  # subnormal
    (66e9, 5e-324, "inf"),  # c/f_max over a subnormal length overflows
], ids=["zero", "subnormal", "infinite"])
def test_a_beamwidth_that_is_not_a_normal_double_exits_2_naming_both_keys(
    tmp_path, capsys, f_max_hz, length_m, width
):
    every_verb_exits_2(
        tmp_path, capsys, {"plan.f_max_hz": f_max_hz, "antenna.length_m": length_m},
        f"antenna: plan.f_max_hz = {f_max_hz!r} and antenna.length_m = {length_m!r} give a "
        f"narrowest beamwidth c/(f_max L) of {width} rad, which is not a normal double")


@pytest.mark.parametrize("settings, point", [
    ({"grid.z_min_m": 1e-200}, "(0.0, 0.0, 1e-200)"),
    ({"grid.z_min_m": 5e-324}, "(0.0, 0.0, 5e-324)"),
    # x's samples miss 0, but by so little that x^2 underflows too
    ({"grid.x_min_m": -1e-200, "grid.x_max_m": 2e-200, "grid.nx": 2, "grid.z_min_m": 1e-200},
     "(-1e-200, 0.0, 1e-200)"),
    ({"grid.x_min_m": -3e-200, "grid.x_max_m": 1e-200, "grid.nx": 3, "grid.z_min_m": 1e-200},
     "(-1e-200, 0.0, 1e-200)"),
], ids=["z-1e-200", "z-5e-324", "x-two-samples", "x-three-samples"])
def test_a_grid_point_whose_range_underflows_exits_2_naming_it(tmp_path, capsys, settings,
                                                                point):
    # x^2 + y^2 + z^2 is 0 at that point, so the dictionary could not be built
    every_verb_exits_2(tmp_path, capsys, settings,
                       f"grid: position {point} needs z > 0 and a finite nonzero range")


def test_a_grid_whose_samples_miss_the_origin_keeps_working(tmp_path, capsys):
    # x is -1 or 1, so each grid point's range is about 1 or more
    settings = {"grid.x_min_m": -1.0, "grid.x_max_m": 1.0, "grid.nx": 2, "grid.z_min_m": 1e-200}
    assert run_every_verb(tmp_path, capsys, settings) == [0] * len(RUNS)
