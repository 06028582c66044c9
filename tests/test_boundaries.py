"""A fault table for the six verbs: each row sets one float or count key of a small config
to an extreme value and runs every verb in process through ``cli.main``, ``localize`` with
and without ``--dict``.

Whatever the value, a verb exits 0, 2 or 3, and raises no warning. On exit 2 or 3 it
prints exactly one ``error: `` line and leaves no ``--out`` file; on exit 0 no output
holds a ``nan`` or ``inf`` token. ``localize`` reads the measurement that ``simulate``
wrote for the same row, and ``--dict`` the file that ``dict`` wrote.

Two keys that meet in one expression have their own rows: ``plan.f_max_hz`` with
``antenna.length_m`` give the narrowest beamwidth the antenna gain divides by.
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


@pytest.mark.parametrize("key, value", ROWS)
def test_every_verb_exits_0_2_or_3_cleanly(tmp_path, capsys, key, value):
    cfg = json.loads(json.dumps(BASE))
    *path, name = (int(part) if part.isdigit() else part for part in re.findall(r"\w+", key))
    section = cfg
    for part in path:
        section = section[part]
    section[name] = value
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    outs = {name: tmp_path / f"{name}.out" for name, _ in RUNS}
    for name, command in RUNS:
        argv = [*command.format(**outs).split(), "--config", str(config), "--out", str(outs[name])]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main(argv)
        stdout, stderr = capsys.readouterr()
        run = f"{name}: {key} = {value!r}"
        assert [str(w.message) for w in caught] == [], run
        assert rc in (0, 2, 3), run
        if rc:
            assert re.fullmatch(r"error: [^\n]*\n", stderr), (run, stderr)
            assert stdout == "", run
            assert not outs[name].exists(), run
        else:
            for text in (outs[name].read_text(), stdout, stderr):
                assert not NON_FINITE.search(text), (run, NON_FINITE.search(text))


@pytest.mark.parametrize("f_max_hz, length_m, width", [
    (1e200, 1e154, "0.0"),  # c/(f_max L) underflows to 0
    (66e9, LARGEST, "2.5267437927023e-311"),  # subnormal
    (66e9, 5e-324, "inf"),  # c/f_max over a subnormal length overflows
], ids=["zero", "subnormal", "infinite"])
def test_a_beamwidth_that_is_not_a_normal_double_exits_2_naming_both_keys(
    tmp_path, capsys, f_max_hz, length_m, width
):
    cfg = json.loads(json.dumps(BASE))
    cfg["plan"]["f_max_hz"] = f_max_hz
    cfg["antenna"]["length_m"] = length_m
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    outs = {name: tmp_path / f"{name}.out" for name, _ in RUNS}
    for name, command in RUNS:
        argv = [*command.format(**outs).split(), "--config", str(config), "--out", str(outs[name])]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(argv) == 2, name
        stdout, stderr = capsys.readouterr()
        assert [str(w.message) for w in caught] == [], name
        assert stdout == "", name
        assert stderr == (
            f"error: antenna: plan.f_max_hz = {f_max_hz!r} and antenna.length_m = {length_m!r} "
            f"give a narrowest beamwidth c/(f_max L) of {width} rad, which is not a normal "
            "double\n"), name
        assert not outs[name].exists(), name
