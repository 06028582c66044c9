"""A fault table for the six verbs: each row sets one float key of a small config to an
extreme value and runs every verb in process through ``cli.main``, ``localize`` with and
without ``--dict``.

Whatever the value, a verb exits 0, 2 or 3, and raises no warning. On exit 2 or 3 it
prints exactly one ``error: `` line and leaves no ``--out`` file; on exit 0 no output
holds a ``nan`` or ``inf`` token. ``localize`` reads the measurement that ``simulate``
wrote for the same row, and ``--dict`` the file that ``dict`` wrote.
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

KEYS = ("plan.f_min_hz", "plan.f_max_hz", "antenna.length_m")
LARGEST = 1.7976931348623157e308
VALUES = (0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-300, -1e-300, 1e300, LARGEST,
          -LARGEST, -1.0)

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


@pytest.mark.parametrize("value", VALUES, ids=repr)
@pytest.mark.parametrize("key", KEYS)
def test_every_verb_exits_0_2_or_3_cleanly(tmp_path, capsys, key, value):
    section, name = key.split(".")
    cfg = json.loads(json.dumps(BASE))
    cfg[section][name] = value
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
