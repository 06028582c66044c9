"""End-to-end CLI behavior: configs, verbs, exit codes, determinism."""

import argparse
import codecs
import hashlib
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy._core._exceptions import _ArrayMemoryError

from sweepsense import cli, fingerprint, synth
from sweepsense.archcomp import ArchitectureSpec
from sweepsense.core import FrequencyPlan, NoiseConfig, Scene, Target
from sweepsense.dispersion import LinearSineDispersion
from sweepsense.fingerprint import (
    CHUNK_ROWS,
    PositionGrid,
    build_dictionary,
    localize,
    normalize,
)
from sweepsense.synth import AntennaModel, derive_seeds, echo, simulate_measurement

ROOT = Path(__file__).resolve().parents[1]


def base_config(**overrides):
    cfg = {
        "plan": {"f_min_hz": 60e9, "f_max_hz": 66e9, "n_points": 32},
        "dispersion": {"kind": "linear_sine", "theta_max_deg": 60.0},
        "antenna": {"length_m": 0.012, "two_way": True},
        "scene": {
            "targets": [{"x_m": 0.0, "y_m": 0.0, "z_m": 3.0, "alpha_re": 1.0, "alpha_im": 0.0}],
            "snr_db": "noiseless",
            "seed": 7,
        },
        "grid": {
            "x_min_m": -0.25, "x_max_m": 0.25, "nx": 3,
            "y_min_m": -0.25, "y_max_m": 0.25, "ny": 3,
            "z_min_m": 2.75, "z_max_m": 3.25, "nz": 3,
        },
        "architectures": [
            {
                "name": "FaA-Single", "rf_chains": 1, "physical_size_m": 0.12,
                "bandwidth_hz": 6e9, "n_samples": 128, "aperture_kind": "virtual",
                "f_ref_hz": 63e9, "power_mw": 850.0, "cost_usd": 55.0,
                "fov_deg": 60.0, "eta_reference": 926.0,
            },
            {
                "name": "FaA-Dual", "rf_chains": 2, "physical_size_m": 0.12,
                "bandwidth_hz": 6e9, "n_samples": 64, "aperture_kind": "virtual",
                "f_ref_hz": 63e9, "power_mw": 1400.0, "cost_usd": 90.0,
                "fov_deg": 60.0, "eta_reference": 231.0,
            },
            {
                "name": "1T3R-MIMO", "rf_chains": 4, "physical_size_m": 0.12,
                "bandwidth_hz": 6e9, "n_samples": 4, "aperture_kind": "physical",
                "f_ref_hz": 60e9, "power_mw": 1600.0, "cost_usd": 100.0,
                "fov_deg": 60.0, "eta_reference": 58.0,
            },
        ],
    }
    cfg.update(overrides)
    return cfg


@pytest.fixture
def config_path(tmp_path):
    def write(cfg, name="config.json"):
        path = tmp_path / name
        path.write_text(json.dumps(cfg))
        return str(path)

    return write


class TestSimulate:
    def test_writes_expected_rows(self, tmp_path, config_path):
        out = tmp_path / "meas.csv"
        rc = cli.main(["simulate", "--config", config_path(base_config()), "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "m,f_hz,theta_deg,sx_re,sx_im,sy_re,sy_im"
        assert len(lines) == 1 + 32

    def test_full_plan_row_count(self, tmp_path, config_path):
        cfg = base_config()
        cfg["plan"]["n_points"] = 128
        out = tmp_path / "meas.csv"
        assert cli.main(["simulate", "--config", config_path(cfg), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1 + 128

    def test_empty_scene_noiseless_all_zero(self, tmp_path, config_path):
        cfg = base_config()
        cfg["scene"]["targets"] = []
        out = tmp_path / "meas.csv"
        assert cli.main(["simulate", "--config", config_path(cfg), "--out", str(out)]) == 0
        for line in out.read_text().splitlines()[1:]:
            cells = line.split(",")
            assert all(float(v) == 0.0 for v in cells[3:])

    def test_byte_identical_reruns_with_noise(self, tmp_path, config_path):
        cfg = base_config()
        cfg["scene"]["snr_db"] = 5.0
        path = config_path(cfg)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["simulate", "--config", path, "--out", str(out1)]) == 0
        assert cli.main(["simulate", "--config", path, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_override_changes_noise(self, tmp_path, config_path):
        cfg = base_config()
        cfg["scene"]["snr_db"] = 5.0
        path = config_path(cfg)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        cli.main(["simulate", "--config", path, "--out", str(out1)])
        cli.main(["simulate", "--config", path, "--out", str(out2), "--seed", "123"])
        assert out1.read_bytes() != out2.read_bytes()

    def test_noisy_bytes_are_pinned(self, tmp_path, config_path):
        # A change to noise keying, stream draws or the SNR rule moves this digest.
        cfg = base_config(plan={"f_min_hz": 60e9, "f_max_hz": 66e9, "n_points": 128})
        cfg["scene"].update(snr_db=-3.0, seed=2**63 + 1)
        cfg["scene"]["targets"].append({"x_m": -0.2, "y_m": 0.1, "z_m": 2.5, "alpha_im": 0.4})
        out = tmp_path / "meas.csv"
        assert cli.main(["simulate", "--config", config_path(cfg), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "e10bff0092220fd261ca35004826168b34dd9ddba4e2d86a247db6bfda1edb8e"
        )

    def test_unknown_key_exits_2(self, tmp_path, config_path, capsys):
        cfg = base_config()
        cfg["plan"]["bogus"] = 1
        rc = cli.main(["simulate", "--config", config_path(cfg), "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "bogus" in capsys.readouterr().err

    def test_unknown_section_exits_2(self, tmp_path, config_path):
        cfg = base_config()
        cfg["extra_section"] = {}
        rc = cli.main(["simulate", "--config", config_path(cfg), "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_missing_section_exits_2(self, tmp_path, config_path):
        cfg = base_config()
        del cfg["scene"]
        rc = cli.main(["simulate", "--config", config_path(cfg), "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_invalid_json_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        rc = cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    @pytest.mark.parametrize("data, message", [
        (None, "cannot read config {}: [Errno 2] No such file or directory"),
        (b"[1, 2]", "{}: top level must be a JSON object"),
        pytest.param(b'{\n  "plan": "\x93"\n}',
                     "{}: line 2: not UTF-8 text: byte 0x93 at column 12", id="byte-0x93"),
        pytest.param(b'{"plan": "\xe2\x80"}',
                     "{}: line 1: not UTF-8 text: byte 0xe2 at column 11", id="cut-sequence"),
        pytest.param(b"[" * 100_000 + b"]" * 100_000,
                     "{}: invalid JSON: arrays or objects nested too deeply", id="deep"),
        pytest.param(b'{"plan": {"n_points": ' + b"9" * 4301 + b"}}",
                     "{}: invalid JSON: Exceeds the limit (4300 digits) for integer string conversion",
                     id="long-int"),
    ])
    def test_unreadable_or_non_object_config_exits_2(self, tmp_path, capsys, data, message):
        path = tmp_path / "config.json"
        if data is not None:
            path.write_bytes(data)
        out = tmp_path / "x.csv"
        assert cli.main(["simulate", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message.format(path)}")
        assert not out.exists()

    def test_config_is_read_as_utf8_in_a_c_locale(self, tmp_path):
        # a C locale without UTF-8 mode would decode a text file as ASCII
        cfg = base_config()
        cfg["architectures"][0]["name"] = "FaA\u2013Single"  # an en dash
        path, out = tmp_path / "config.json", tmp_path / "x.csv"
        path.write_bytes(json.dumps(cfg, ensure_ascii=False).encode("utf-8"))
        run = subprocess.run(
            [sys.executable, "-m", "sweepsense.cli", "simulate", "--config", str(path),
             "--out", str(out)],
            capture_output=True, text=True,
            env={**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONPATH": str(ROOT / "src")},
        )
        assert (run.returncode, run.stderr) == (0, "")
        assert out.read_text().startswith("m,")


class TestLocalizeFlow:
    def test_on_grid_target_recovered(self, tmp_path, config_path, capsys):
        path = config_path(base_config())
        meas = tmp_path / "meas.csv"
        assert cli.main(["simulate", "--config", path, "--out", str(meas)]) == 0
        out = tmp_path / "loc.json"
        rc = cli.main(
            ["localize", "--config", path, "--measurement", str(meas), "--out", str(out)]
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["estimate"] == pytest.approx([0.0, 0.0, 3.0], abs=1e-12)
        assert payload["score"] == pytest.approx(1.0, abs=1e-9)
        assert payload["dictionary_size"] == 27
        assert payload["grid_index"] == 13  # center of the 3x3x3 grid

    def test_exported_dictionary_reused(self, tmp_path, config_path):
        # grid x = linspace(-0.3, 0.3, 7) holds values that 10 printed digits round
        cfg = base_config()
        cfg["grid"].update(x_min_m=-0.3, x_max_m=0.3, nx=7)
        x = float(np.linspace(-0.3, 0.3, 7)[5])
        assert float(f"{x:.9e}") != x  # 0.19999999999999996 prints as 0.2
        cfg["scene"]["targets"][0]["x_m"] = x
        path = config_path(cfg)
        meas = tmp_path / "meas.csv"
        dict_csv = tmp_path / "dict.csv"
        cli.main(["simulate", "--config", path, "--out", str(meas)])
        assert cli.main(["dict", "--config", path, "--out", str(dict_csv)]) == 0
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        cli.main(["localize", "--config", path, "--measurement", str(meas), "--out", str(out1)])
        cli.main(
            [
                "localize", "--config", path, "--measurement", str(meas),
                "--dict", str(dict_csv), "--out", str(out2),
            ]
        )
        assert json.loads(out1.read_text())["estimate"] == [x, 0.0, 3.0]
        assert out2.read_bytes() == out1.read_bytes()  # the config's dictionary, not the file's

    def test_dictionary_of_another_grid_exits_2_naming_its_line(
        self, tmp_path, config_path, capsys
    ):
        path = config_path(base_config())
        meas, dict_csv = tmp_path / "meas.csv", tmp_path / "dict.csv"
        cli.main(["simulate", "--config", path, "--out", str(meas)])
        assert cli.main(["dict", "--config", path, "--out", str(dict_csv)]) == 0
        other = base_config()
        other["grid"]["z_max_m"] = 3.3  # same size and M, z 2.75-3.3 m
        out = tmp_path / "loc.json"
        rc = cli.main(["localize", "--config", config_path(other, "other.json"),
                       "--measurement", str(meas), "--dict", str(dict_csv), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {dict_csv}: line 11: expected z = 3.025 (from the config), got 3\n"
        )
        assert not out.exists()

    def test_dictionary_of_another_point_count_exits_2(self, tmp_path, config_path, capsys):
        path = config_path(base_config())
        dict_csv = tmp_path / "dict.csv"
        assert cli.main(["dict", "--config", path, "--out", str(dict_csv)]) == 0
        smaller = base_config()
        smaller["plan"]["n_points"] = 16
        smaller_path = config_path(smaller, "small.json")
        meas = tmp_path / "meas.csv"
        cli.main(["simulate", "--config", smaller_path, "--out", str(meas)])
        rc = cli.main(["localize", "--config", smaller_path, "--measurement", str(meas),
                       "--dict", str(dict_csv), "--out", str(tmp_path / "x.json")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {dict_csv}: line 1: has 32 frequency points but the plan expects 16\n"
        )

    def test_dict_with_invalid_antenna_exits_2(self, tmp_path, config_path, capsys):
        path = config_path(base_config())
        meas, dict_csv = tmp_path / "meas.csv", tmp_path / "dict.csv"
        cli.main(["simulate", "--config", path, "--out", str(meas)])
        assert cli.main(["dict", "--config", path, "--out", str(dict_csv)]) == 0
        out = tmp_path / "loc.json"
        rc = cli.main(["localize", "--config",
                       config_path(base_config(antenna={"length_m": -1.0}), "bad.json"),
                       "--measurement", str(meas), "--dict", str(dict_csv), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == "error: antenna: antenna length must be positive\n"
        assert not out.exists()

    def test_dict_without_grid_section_exits_2(self, tmp_path, config_path, capsys):
        path = config_path(base_config())
        meas, dict_csv = tmp_path / "meas.csv", tmp_path / "dict.csv"
        cli.main(["simulate", "--config", path, "--out", str(meas)])
        assert cli.main(["dict", "--config", path, "--out", str(dict_csv)]) == 0
        cfg = base_config()
        del cfg["grid"]
        out = tmp_path / "loc.json"
        rc = cli.main(["localize", "--config", config_path(cfg, "nogrid.json"),
                       "--measurement", str(meas), "--dict", str(dict_csv), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == "error: config is missing the required 'grid' section\n"
        assert not out.exists()

    def test_m_mismatch_exits_2(self, tmp_path, config_path, capsys):
        path = config_path(base_config())
        meas = tmp_path / "meas.csv"
        cli.main(["simulate", "--config", path, "--out", str(meas)])
        smaller = base_config()
        smaller["plan"]["n_points"] = 16
        rc = cli.main(
            [
                "localize", "--config", config_path(smaller, "small.json"),
                "--measurement", str(meas), "--out", str(tmp_path / "x.json"),
            ]
        )
        assert rc == 2

    def test_malformed_measurement_names_line(self, tmp_path, config_path, capsys):
        path = config_path(base_config())
        meas = tmp_path / "meas.csv"
        cli.main(["simulate", "--config", path, "--out", str(meas)])
        lines = meas.read_text().splitlines()
        lines[5] = "oops"
        meas.write_text("\n".join(lines) + "\n")
        rc = cli.main(
            ["localize", "--config", path, "--measurement", str(meas),
             "--out", str(tmp_path / "x.json")]
        )
        assert rc == 2
        assert "line 6" in capsys.readouterr().err

    def test_degenerate_measurement_exits_3(self, tmp_path, config_path):
        cfg = base_config()
        cfg["scene"]["targets"] = []
        path = config_path(cfg)
        meas = tmp_path / "zeros.csv"
        cli.main(["simulate", "--config", path, "--out", str(meas)])
        rc = cli.main(
            ["localize", "--config", path, "--measurement", str(meas),
             "--out", str(tmp_path / "x.json")]
        )
        assert rc == 3


class TestProbe:
    def test_range_probe_mechanics(self, tmp_path, config_path, capsys):
        path = config_path(base_config())
        out = tmp_path / "probe.csv"
        rc = cli.main(
            ["probe", "--config", path, "--axis", "range", "--span", "0.2",
             "--steps", "41", "--out", str(out)]
        )
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["offset_unit"] == "m"
        lines = out.read_text().splitlines()
        assert lines[0] == "offset,similarity"
        assert len(lines) == 42
        offsets = [float(l.split(",")[0]) for l in lines[1:]]
        sims = [float(l.split(",")[1]) for l in lines[1:]]
        mid = offsets.index(min(offsets, key=abs))
        assert sims[mid] == pytest.approx(1.0, abs=1e-12)

    def test_azimuth_probe_reports_degrees_and_radians(self, tmp_path, config_path, capsys):
        path = config_path(base_config())
        out = tmp_path / "probe.csv"
        rc = cli.main(
            ["probe", "--config", path, "--axis", "azimuth", "--span", "30.0",
             "--steps", "121", "--out", str(out)]
        )
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["offset_unit"] == "deg"
        if summary["half_power_width"] is not None:
            assert summary["half_power_width_rad"] == pytest.approx(
                math.radians(summary["half_power_width"]), rel=1e-9
            )
        offsets = [float(l.split(",")[0]) for l in out.read_text().splitlines()[1:]]
        assert max(offsets) == pytest.approx(30.0, rel=1e-9)

    def test_csv_on_stdout_leaves_the_summary_to_stderr(self, tmp_path, config_path, capsys):
        path = config_path(base_config())
        flags = ["--axis", "range", "--span", "0.2", "--steps", "21"]
        assert cli.main(["probe", "--config", path, *flags]) == 0
        captured = capsys.readouterr()
        assert cli.main(["probe", "--config", path, *flags, "--out", str(tmp_path / "p.csv")]) == 0
        assert captured.out == (tmp_path / "p.csv").read_text()
        body = np.loadtxt(io.StringIO(captured.out), delimiter=",", skiprows=1)
        assert captured.out.startswith("offset,similarity\n") and body.shape == (21, 2)
        assert json.loads(captured.err) == json.loads(capsys.readouterr().out)

    @pytest.mark.parametrize("length_m", [0.012, 0.12])
    def test_elevation_probe_on_boresight_is_the_azimuth_one(self, tmp_path, config_path,
                                                             length_m):
        # At p0 = (0, 0, 3) the model is symmetric under swapping x and y, which swaps the
        # azimuth and elevation rotations and the two channels, whose mean is the similarity.
        path = config_path(base_config(antenna={"length_m": length_m, "two_way": True}))
        csv = {}
        for axis in ("azimuth", "elevation"):
            csv[axis] = tmp_path / f"{axis}.csv"
            assert cli.main(["probe", "--config", path, "--axis", axis, "--p0", "0,0,3",
                             "--span", "5.0", "--steps", "201", "--out", str(csv[axis])]) == 0
        assert csv["azimuth"].read_bytes() == csv["elevation"].read_bytes()

    @pytest.mark.parametrize("axis, side", [("azimuth", 0), ("elevation", 1)])
    def test_zero_norm_row_exits_3_naming_its_position(self, tmp_path, config_path, capsys,
                                                        axis, side):
        # an 89 deg turn leaves the 12 cm antenna's beam: the first row has a zero-norm channel
        path = config_path(base_config(antenna={"length_m": 0.12, "two_way": True}))
        out = tmp_path / "probe.csv"
        assert cli.main(["probe", "--config", path, "--axis", axis, "--span", "89",
                         "--steps", "3", "--out", str(out)]) == 3
        captured = capsys.readouterr()
        found = re.fullmatch(r"error: probe position 0 at \((\S+), (\S+), (\S+)\) has a "
                             r"zero-norm channel\n", captured.err)
        expected = [0.0, 0.0, 3.0 * math.cos(math.radians(89))]
        expected[side] = -3.0 * math.sin(math.radians(89))
        assert found and [float(v) for v in found.groups()] == pytest.approx(expected, rel=1e-12)
        assert "rad" not in captured.err and captured.out == "" and not out.exists()

    def test_bad_axis_exits_2(self, tmp_path, config_path):
        rc = cli.main(
            ["probe", "--config", config_path(base_config()), "--axis", "spiral",
             "--span", "1.0", "--out", str(tmp_path / "x.csv")]
        )
        assert rc == 2

    def test_negative_vectors_in_space_and_equals_form(self, tmp_path, config_path, capsys):
        path = config_path(base_config())
        runs = []
        for name, vector_flags in (
            ("space", ["--p0", "-0.1,0,3", "--axis", "-0.3,0.2,1.0"]),
            ("equals", ["--p0=-0.1,0,3", "--axis=-0.3,0.2,1.0"]),
        ):
            out = tmp_path / f"{name}.csv"
            rc = cli.main(["probe", "--config", path, *vector_flags, "--span", "0.2",
                           "--steps", "21", "--out", str(out)])
            assert rc == 0
            runs.append((out.read_bytes(), capsys.readouterr().out))
        assert runs[0] == runs[1]
        assert json.loads(runs[0][1])["p0_m"] == [-0.1, 0.0, 3.0]


class TestCompare:
    def test_report_rows_and_echo(self, tmp_path, config_path, capsys):
        out = tmp_path / "report.json"
        rc = cli.main(["compare", "--config", config_path(base_config()), "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        names = [r["name"] for r in payload["rows"]]
        assert names == ["FaA-Single", "FaA-Dual", "1T3R-MIMO"]
        assert payload["rows"][0]["eta_reference"] == 926.0
        assert payload["rows"][0]["eta_computed"] == pytest.approx(533.3333, rel=1e-6)
        assert payload["r_query_m"] == 3.0
        assert all(r["cell_volume_m3"] > 0 for r in payload["rows"])
        assert "FaA-Single" in capsys.readouterr().out

    def test_report_bytes_are_pinned(self, tmp_path, config_path, capsys):
        # A change to a report key, a closed form or the text table moves these digests.
        out = tmp_path / "report.json"
        assert cli.main(["compare", "--config", config_path(base_config()), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "8c4fcf9a799b45b3ac8cf7f01e59f3afd285208a0e5efb4f72276e6ca9520683"
        )
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
            "7068494cdb1063b4ad1424458beadd4ae18832eb5e3fccaabc890aeb1bbffb99"
        )

    def test_json_on_stdout_leaves_the_text_to_stderr(self, tmp_path, config_path, capsys):
        path = config_path(base_config())
        assert cli.main(["compare", "--config", path, "--out", "-"]) == 0
        captured = capsys.readouterr()
        assert cli.main(["compare", "--config", path, "--out", str(tmp_path / "r.json")]) == 0
        assert json.loads(captured.out) == json.loads((tmp_path / "r.json").read_text())
        assert captured.err == capsys.readouterr().out
        assert "FaA-Single" in captured.err

    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_eta_reference_must_be_positive(self, tmp_path, config_path, capsys, value):
        cfg = base_config()
        cfg["architectures"][1]["eta_reference"] = value
        out = tmp_path / "report.json"
        assert cli.main(["compare", "--config", config_path(cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: architectures[1]: eta_reference must be > 0\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("edits, message", [
        ({"0.f_ref_hz": 1e-300}, "architectures[0]: derived effective_aperture_m is inf"),
        ({"1.physical_size_m": 1e-310}, "architectures[1]: derived eta_computed is inf"),
        ({"2.bandwidth_hz": 1e-320}, "architectures[2]: derived range_resolution_m is inf"),
        ({"0.physical_size_m": 1e-300, "1.physical_size_m": 1e300},
         "architectures: eta_ratios_computed 'FaA-Single/FaA-Dual' is inf"),
    ])
    def test_non_finite_metric_exits_2_naming_it(self, tmp_path, config_path, capsys,
                                                 edits, message):
        cfg = base_config()
        for path, value in edits.items():
            _edit(cfg["architectures"], path, value)
        out = tmp_path / "report.json"
        assert cli.main(["compare", "--config", config_path(cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}, not a finite number\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("edits, message", [
        # the physical array's angular resolution underflows
        ({"2.f_ref_hz": 1e300, "2.physical_size_m": 1e300},
         "architectures[2]: derived angular_resolution_rad is 0.0"),
        # chains x size overflows, so the efficiency underflows
        ({"1.physical_size_m": 1e308}, "architectures[1]: derived eta_computed is 0.0"),
        # 2B overflows, so the range resolution underflows
        ({"0.bandwidth_hz": 1e308}, "architectures[0]: derived range_resolution_m is 0.0"),
    ])
    def test_metric_that_underflows_exits_2_naming_it(self, tmp_path, config_path, capsys,
                                                      edits, message):
        cfg = base_config()
        for path, value in edits.items():
            _edit(cfg["architectures"], path, value)
        out = tmp_path / "report.json"
        assert cli.main(["compare", "--config", config_path(cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}, not a number > 0\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("names, key, pair, earlier", [
        # two architectures of one name give 'A/A' twice, and 'A/B' would drop a ratio
        (["A", "A", "B"], "A/A", "1]/architectures[0", "0]/architectures[1"),
        # 'A/B' over 'C' and 'A' over 'B/C' both print as 'A/B/C'
        (["A/B", "C", "A", "B/C"], "A/B/C", "2]/architectures[3", "0]/architectures[1"),
    ], ids=["repeated-name", "slashed-names"])
    @pytest.mark.parametrize("out", [None, "report.json"])
    def test_repeated_ratio_key_exits_2_naming_both_pairs(self, tmp_path, config_path, capsys,
                                                          names, key, pair, earlier, out):
        cfg = base_config()
        arch = cfg["architectures"]
        cfg["architectures"] = [{**arch[i % len(arch)], "name": name}
                                for i, name in enumerate(names)]
        flags = [] if out is None else ["--out", str(tmp_path / out)]
        assert cli.main(["compare", "--config", config_path(cfg), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"error: architectures: architectures[{pair}] repeats the "
                                f"efficiency ratio key '{key}' of architectures[{earlier}]\n")
        assert captured.out == ""
        assert not (tmp_path / "report.json").exists()

    def test_json_output_is_standard(self):
        with pytest.raises(ValueError, match="not JSON compliant"):
            cli._json_dumps({"width": math.inf})

    def test_missing_architectures_exits_2(self, tmp_path, config_path):
        cfg = base_config()
        del cfg["architectures"]
        rc = cli.main(["compare", "--config", config_path(cfg), "--out", str(tmp_path / "x.json")])
        assert rc == 2


class TestSweep:
    def test_csv_shape_and_noiseless_zero(self, tmp_path, config_path):
        cfg = base_config()
        out = tmp_path / "sweep.csv"
        rc = cli.main(
            ["sweep", "--config", config_path(cfg), "--snr", "noiseless,20",
             "--trials", "3", "--out", str(out)]
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "snr_db,rmse_m,trials"
        assert len(lines) == 3
        noiseless_row = lines[1].split(",")
        assert noiseless_row[0] == "noiseless"
        assert float(noiseless_row[1]) == 0.0
        assert noiseless_row[2] == "3"

    def test_first_half_errors_stable_when_doubling_trials(self):
        plan = FrequencyPlan(60e9, 66e9, 32)
        model = LinearSineDispersion.for_plan(plan)
        antenna = AntennaModel(length=0.012)
        scene = Scene(
            targets=(Target((0.0, 0.0, 3.0)),), noise=NoiseConfig(snr_db=None, seed=5)
        )
        grid = PositionGrid((-0.25, 0.25), (-0.25, 0.25), (2.75, 3.25), 3, 3, 3)
        short = cli.run_sweep(plan, model, antenna, scene, grid, [0.0], trials=4)
        long = cli.run_sweep(plan, model, antenna, scene, grid, [0.0], trials=8)
        assert long[0].errors[:4] == short[0].errors

    def test_worker_count_does_not_change_results(self):
        plan = FrequencyPlan(60e9, 66e9, 32)
        model = LinearSineDispersion.for_plan(plan)
        antenna = AntennaModel(length=0.012)
        scene = Scene(
            targets=(Target((0.0, 0.0, 3.0)),), noise=NoiseConfig(snr_db=None, seed=5)
        )
        grid = PositionGrid((-0.25, 0.25), (-0.25, 0.25), (2.75, 3.25), 3, 3, 3)
        serial = cli.run_sweep(plan, model, antenna, scene, grid, [-5.0, 10.0], trials=6)
        threaded = cli.run_sweep(
            plan, model, antenna, scene, grid, [-5.0, 10.0], trials=6, workers=4
        )
        for a, b in zip(serial, threaded):
            assert a.errors == b.errors
            assert a.rmse == b.rmse

    @pytest.mark.parametrize("n, last, passes", [
        # 729 rows: every batch is held, and one pass scores them at the end
        (9, 1, [[1, 64, 64, 1, 64, 64, 1]]),
        # 27 rows: each batch of 64 starts a pass, with the batches held before it
        (3, 5, [[1, 64], [64], [5, 64], [64], [5]]),
    ], ids=["9^3", "3^3"])
    def test_trials_equal_one_at_a_time_localization(self, monkeypatch, n, last, passes):
        plan = FrequencyPlan(60e9, 66e9, 32)
        model = LinearSineDispersion.for_plan(plan)
        antenna = AntennaModel(length=0.012)
        scene = Scene(
            targets=(Target((0.125, -0.25, 3.0), 0.7 - 0.3j),), noise=NoiseConfig(seed=5)
        )
        grid = PositionGrid((-0.5, 0.5), (-0.5, 0.5), (2.0, 4.0), n, n, n)
        batch = cli.SWEEP_BATCH
        trials = 2 * batch + last  # three score batches a noisy point
        scored = []

        def counting(blocks, dictionary, dict_path=None):
            scored.append([len(block) for block in blocks])
            return fingerprint.localize_batch(blocks, dictionary, dict_path)

        monkeypatch.setattr(cli, "localize_batch", counting)
        snrs = [None, -10.0, 10.0]
        points = cli.run_sweep(plan, model, antenna, scene, grid, snrs, trials)
        assert batch == 64 and scored == passes
        dictionary = build_dictionary(grid, plan, model, antenna)
        truth = np.asarray(scene.targets[0].position)
        for k, (snr, point) in enumerate(zip(snrs, points)):
            expected = []
            for t in range(trials):
                noise = NoiseConfig(snr, derive_seeds(scene.noise.seed, [(k, t)])[0])
                meas = simulate_measurement(Scene(scene.targets, noise), plan, model, antenna)
                dx, dy, dz = localize(meas, dictionary).position - truth
                expected.append(float(np.hypot(np.hypot(dx, dy), dz)))
            assert point.errors == tuple(expected)
        assert points[0].rmse < points[1].rmse and len(set(points[1].errors)) > 1

    @pytest.mark.parametrize("token", ["nan", "-inf", "inf"])
    def test_non_finite_snr_exits_2_naming_it(self, tmp_path, config_path, capsys, token):
        rc = cli.main(
            ["sweep", "--config", config_path(base_config()), "--snr", f"0,{token}",
             "--trials", "2", "--out", str(tmp_path / "x.csv")]
        )
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: --snr: '{token}' is not 'noiseless' or a finite number of dB, "
            f"got '0,{token}'\n"
        )
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("snr", [math.nan, -math.inf, math.inf])
    def test_library_rejects_non_finite_snr(self, snr):
        plan = FrequencyPlan(60e9, 66e9, 8)
        model = LinearSineDispersion.for_plan(plan)
        scene = Scene(targets=(Target((0.0, 0.0, 3.0)),))
        grid = PositionGrid((0.0, 0.0), (0.0, 0.0), (3.0, 3.0), 1, 1, 1)
        with pytest.raises(ValueError, match="finite"):
            cli.run_sweep(plan, model, AntennaModel(), scene, grid, [0.0, snr], 1)

    def test_library_rejects_trials_below_one(self):
        plan = FrequencyPlan(60e9, 66e9, 8)
        model = LinearSineDispersion.for_plan(plan)
        scene = Scene(targets=(Target((0.0, 0.0, 3.0)),))
        grid = PositionGrid((0.0, 0.0), (0.0, 0.0), (3.0, 3.0), 1, 1, 1)
        with pytest.raises(ValueError, match="^trials must be >= 1$"):
            cli.run_sweep(plan, model, AntennaModel(), scene, grid, [None], 0)

    def test_sweep_without_targets_exits_2(self, tmp_path, config_path, capsys):
        cfg = base_config()
        cfg["scene"]["targets"] = []
        rc = cli.main(
            ["sweep", "--config", config_path(cfg), "--snr", "0",
             "--trials", "2", "--out", str(tmp_path / "x.csv")]
        )
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: sweep needs at least one target as ground truth\n"
        )

    @pytest.mark.parametrize("target, grid, rmse", [
        # every error is about 1e154: the sum of their squares overflows
        ({"z_m": 1e154}, {}, "1.000000000e+154"),
        # the truth and the one grid point are 1.8e154 apart: each error's squares overflow
        ({"y_m": -9e153, "z_m": 9e153},
         {"x_min_m": 0.0, "x_max_m": 0.0, "nx": 1, "y_min_m": 9e153, "y_max_m": 9e153, "ny": 1,
          "z_min_m": 9e153, "z_max_m": 9e153, "nz": 1}, "1.800000000e+154"),
    ], ids=["rmse", "error"])
    def test_errors_whose_squares_overflow_give_a_finite_rmse(
        self, tmp_path, config_path, target, grid, rmse
    ):
        cfg = base_config()
        cfg["scene"]["targets"][0].update(target)
        cfg["grid"].update(grid)
        out = tmp_path / "sweep.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["sweep", "--config", config_path(cfg), "--snr", "noiseless,0",
                             "--trials", "3", "--out", str(out)]) == 0
        assert [str(w.message) for w in caught] == []
        assert out.read_text() == (
            f"snr_db,rmse_m,trials\nnoiseless,{rmse},3\n0.000000000e+00,{rmse},3\n"
        )

    def test_distances_are_each_entrys_norm(self, monkeypatch):
        # the bench's small and large grids, and one whose corners lie 1.8e154 m apart
        grids = [PositionGrid((-0.5, 0.5), (-0.5, 0.5), (2.0, 4.0), n, n, n) for n in (9, 21)]
        grids.append(PositionGrid((0.0, 0.0), (-9e153, 9e153), (9e153, 9e153), 1, 2, 1))
        rng = np.random.default_rng(5)
        truths = [*rng.uniform([-0.6, -0.6, 1.9], [0.6, 0.6, 4.1], (4, 3)), (0.5, -0.5, 2.0),
                  (0.0, 0.0, 1e154), (0.0, -9e153, 9e153)]
        plan = FrequencyPlan(60e9, 66e9, 8)
        model = LinearSineDispersion.for_plan(plan)
        # trial t of a noisy point draws no noise and is scored as grid index t
        monkeypatch.setattr(cli, "noise", lambda seeds, sigma, m: synth.noise(seeds, 0.0, m))
        trial = None  # counts the trials of one sweep

        def every_index(blocks, dictionary):
            return [(np.array([next(trial) for _ in block]), None) for block in blocks]

        monkeypatch.setattr(cli, "localize_batch", every_index)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for grid in grids:
                positions = grid.points()
                for truth in truths:
                    trial = itertools.count()
                    scene = Scene(targets=(Target(tuple(truth)),))
                    [point] = cli.run_sweep(plan, model, AntennaModel(length=0.012), scene,
                                            grid, [0.0], grid.size)
                    expected = [float(np.hypot(np.hypot(x, y), z)) for x, y, z in positions - truth]
                    assert point.errors == tuple(expected)
        assert [str(w.message) for w in caught] == []
        # the squares of (0, 1.8e154, 0) overflow, and hypot squares none of them
        assert point.errors == (0.0, 1.8e154)

    def test_degenerate_trial_exits_3(self, tmp_path, config_path, capsys):
        # x = 50 m at z = 1 m is far outside the 12 cm antenna's 60 deg scan:
        # its x-channel gain underflows to zero, a runtime failure like localize's
        cfg = base_config(antenna={"length_m": 0.12, "two_way": True})
        cfg["scene"]["targets"] = [{"x_m": 50.0, "y_m": 0.0, "z_m": 1.0}]
        out = tmp_path / "x.csv"
        rc = cli.main(["sweep", "--config", config_path(cfg), "--snr", "noiseless",
                       "--trials", "1", "--out", str(out)])
        assert rc == 3
        assert capsys.readouterr().err == (
            "error: trial 0 of SNR point 0 has a zero-norm channel\n"
        )
        assert not out.exists()

    @pytest.fixture
    def normalized(self, monkeypatch):
        """Row counts of the trial blocks the sweep normalizes, and so scores."""
        rows = []

        def counting(s, describe):
            rows.append(len(s))
            return normalize(s, describe)

        monkeypatch.setattr(cli, "normalize", counting)
        return rows

    def test_zero_sigma_point_scores_one_trial(self, tmp_path, config_path, normalized):
        out = tmp_path / "sweep.csv"
        rc = cli.main(["sweep", "--config", config_path(base_config()), "--snr", "noiseless,10",
                       "--trials", "500", "--out", str(out)])
        assert rc == 0
        assert normalized[0] == 1 and sum(normalized[1:]) == 500
        assert out.read_text().splitlines()[1] == "noiseless,0.000000000e+00,500"

    def test_zero_power_scene_scores_trial_0_once_and_exits_3(
        self, tmp_path, config_path, capsys, normalized
    ):
        # zero reflectivity: sigma is 0 at any SNR, and every trial is degenerate
        cfg = base_config()
        cfg["scene"]["targets"][0].update(alpha_re=0.0, alpha_im=0.0)
        rc = cli.main(["sweep", "--config", config_path(cfg), "--snr", "10",
                       "--trials", "300", "--out", str(tmp_path / "x.csv")])
        assert rc == 3
        assert capsys.readouterr().err == "error: trial 0 of SNR point 0 has a zero-norm channel\n"
        assert normalized == [1]

    def test_output_bytes_are_pinned(self, tmp_path, config_path):
        # A change to noise keying, stream draws or scoring moves these bytes.
        cfg = base_config(plan={"f_min_hz": 60e9, "f_max_hz": 66e9, "n_points": 16})
        cfg["grid"].update(nx=5, ny=5, nz=5)
        cfg["scene"]["targets"][0].update(x_m=0.125, alpha_re=0.7, alpha_im=-0.3)
        out = tmp_path / "sweep.csv"
        rc = cli.main(["sweep", "--config", config_path(cfg), "--snr", "noiseless,-10,0,10",
                       "--trials", "30", "--seed", "11", "--out", str(out)])
        assert rc == 0
        assert out.read_bytes() == (
            b"snr_db,rmse_m,trials\n"
            b"noiseless,0.000000000e+00,30\n"
            b"-1.000000000e+01,3.219407295e-01,30\n"
            b"0.000000000e+00,1.369306394e-01,30\n"
            b"1.000000000e+01,0.000000000e+00,30\n"
        )

    def test_multi_batch_bytes_are_pinned(self, tmp_path, config_path):
        # A change to how a batch's trial seeds or noise streams are keyed moves this digest.
        cfg = base_config()
        cfg["grid"].update(nx=5, ny=5, nz=5)
        cfg["scene"]["targets"][0].update(x_m=0.125, alpha_re=0.7, alpha_im=-0.3)
        trials = 2 * cli.SWEEP_BATCH + 2  # three score batches, the last of two
        out = tmp_path / "sweep.csv"
        rc = cli.main(["sweep", "--config", config_path(cfg), "--snr=-10,0",
                       "--trials", str(trials), "--seed", str(2**64 - 1), "--out", str(out)])
        assert rc == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "ae4f5938f9e1b3de428b0787f1f00cc8b2acd70bf32de2f56b26a8810bfe3913"
        )

    def test_bench_shaped_sweep_bytes_are_pinned(self, tmp_path, config_path):
        # The mc-sweep shape: a 9^3 grid, M=32, the 1.2 cm antenna, one off-grid truth and
        # 6 SNR points of 500 trials. A change to noise keying, scoring or the miss and RMSE
        # rule moves this digest.
        cfg = base_config()
        cfg["grid"].update(x_min_m=-0.5, x_max_m=0.5, nx=9, y_min_m=-0.5, y_max_m=0.5, ny=9,
                           z_min_m=2.0, z_max_m=4.0, nz=9)
        cfg["scene"]["targets"][0].update(x_m=0.13, y_m=-0.21, z_m=2.87, alpha_re=0.7,
                                          alpha_im=-0.3)
        out = tmp_path / "sweep.csv"
        rc = cli.main(["sweep", "--config", config_path(cfg), "--snr", "noiseless,-10,0,10,20,30",
                       "--trials", "500", "--out", str(out)])
        assert rc == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "a7dc36c1cefa10ad5722b78bbf8c5079e9d8871082a3b80b17d54fffd355d332"
        )

    def test_probe_and_dictionary_bytes_are_pinned(self, tmp_path, config_path, capsys):
        # A change to the echo kernel, the normalisation or the CSV writer
        # moves these digests. The 12 cm, M=128 probe spans three echo chunks,
        # and about half of its two-way gain exponents lie below ln of the smallest
        # normal double, about -708.4, where the gain is +0.0.
        cfg = base_config(plan={"f_min_hz": 60e9, "f_max_hz": 66e9, "n_points": 128},
                          antenna={"length_m": 0.12, "two_way": True})
        out = tmp_path / "probe.csv"
        steps = 2101
        assert steps > 2 * CHUNK_ROWS
        rc = cli.main(["probe", "--config", config_path(cfg), "--axis", "azimuth",
                       "--p0=0.1,0,3", "--span", "40", "--steps", str(steps), "--out", str(out)])
        assert rc == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "18facb6afebcc14c9f3eb9b3ca043ce56ea719fd1d7a81defb23d5402a6ac2d8"
        )
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
            "efac7313f04f75a1acbe7bd1f5120d5c77bcb8151b4548913d067780d8cd96f0"
        )
        cfg["plan"]["n_points"] = 32
        out = tmp_path / "dict.csv"
        assert cli.main(["dict", "--config", config_path(cfg), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "802243b0b379c352642a42d491bf8606600942043573cd1f8d52225424243edf"
        )

    def test_wide_dictionary_and_measurement_bytes_are_pinned(self, tmp_path, config_path):
        # A change to the echo kernel or the CSV writer moves these digests.
        # The 12 cm, M=128 antenna's gain wings reach +0.0 in both files; the dictionary
        # still prints 84 subnormal cells, each a product of normal factors.
        cfg = base_config(plan={"f_min_hz": 60e9, "f_max_hz": 66e9, "n_points": 128},
                          antenna={"length_m": 0.12, "two_way": True})
        cfg["grid"].update(nx=9, ny=9, nz=9)
        path = config_path(cfg)
        digests = {}
        for verb in ("dict", "simulate"):
            out = tmp_path / f"{verb}.csv"
            assert cli.main([verb, "--config", path, "--out", str(out)]) == 0
            digests[verb] = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digests == {
            "dict": "919a50c1db183bc038038218c290fe210544355ac57bd12b5c67a738c8f050ec",
            "simulate": "97ac5f2954edc092412e5e5379310668015c7b08eb5978252ba0a1bdc364ae34",
        }


class TestWorkersFlag:
    def test_library_rejects_workers_below_one(self):
        plan = FrequencyPlan(60e9, 66e9, 8)
        model = LinearSineDispersion.for_plan(plan)
        scene = Scene(targets=(Target((0.0, 0.0, 3.0)),))
        grid = PositionGrid((0.0, 0.0), (0.0, 0.0), (3.0, 3.0), 1, 1, 1)
        with pytest.raises(ValueError, match="workers"):
            cli.run_sweep(plan, model, AntennaModel(), scene, grid, [None], 1, workers=0)

    def test_dictionary_rejects_workers_below_one(self):
        plan = FrequencyPlan(60e9, 66e9, 8)
        grid = PositionGrid((0.0, 0.0), (0.0, 0.0), (3.0, 3.0), 1, 1, 1)
        with pytest.raises(ValueError, match="^workers must be >= 1, got 0$"):
            build_dictionary(grid, plan, LinearSineDispersion.for_plan(plan), AntennaModel(),
                             workers=0)


class TestDegenerateDictionary:
    def test_point_outside_field_of_view_named(self, tmp_path, config_path, capsys):
        # x = 50 m at z = 1 m sits 89 deg off boresight, far beyond the 60 deg
        # scan: the 12 cm antenna's x-channel gain underflows to zero there.
        cfg = base_config(antenna={"length_m": 0.12, "two_way": True})
        cfg["grid"] = {
            "x_min_m": 0.0, "x_max_m": 50.0, "nx": 2,
            "y_min_m": 0.0, "y_max_m": 0.0, "ny": 1,
            "z_min_m": 1.0, "z_max_m": 1.0, "nz": 1,
        }
        rc = cli.main(["dict", "--config", config_path(cfg), "--out", str(tmp_path / "d.csv")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "grid index 1" in err
        assert "(50.0, 0.0, 1.0)" in err
        assert not (tmp_path / "d.csv").exists()

    def test_point_outside_the_beam_in_a_later_chunk_leaves_no_file(
        self, tmp_path, config_path, capsys
    ):
        # dict prints each chunk of rows as it is built: the file of the rows before the
        # failing one is removed again
        cfg = base_config(antenna={"length_m": 0.12, "two_way": True})
        cfg["grid"] = {
            "x_min_m": 0.0, "x_max_m": 20.0, "nx": 1001,
            "y_min_m": 0.0, "y_max_m": 0.0, "ny": 1,
            "z_min_m": 1.0, "z_max_m": 1.0, "nz": 1,
        }
        out = tmp_path / "d.csv"
        assert cli.main(["dict", "--config", config_path(cfg), "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "error: grid index 338 at position (6.76, 0.0, 1.0) has a zero-norm channel\n"
        )
        assert 338 > CHUNK_ROWS
        assert not out.exists()

    def test_point_outside_the_beam_in_a_later_chunk_keeps_an_existing_file(
        self, tmp_path, config_path, capsys
    ):
        # the rows are written to a new file, which replaces the old one only on success
        cfg = base_config(antenna={"length_m": 0.12, "two_way": True})
        cfg["grid"] = {
            "x_min_m": 0.0, "x_max_m": 20.0, "nx": 1001,
            "y_min_m": 0.0, "y_max_m": 0.0, "ny": 1,
            "z_min_m": 1.0, "z_max_m": 1.0, "nz": 1,
        }
        path = config_path(cfg)
        out = tmp_path / "d.csv"
        out.write_bytes(b"earlier output\n")
        before = sorted(os.listdir(tmp_path))
        assert cli.main(["dict", "--config", path, "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("error: grid index 338 ")
        assert out.read_bytes() == b"earlier output\n"
        assert sorted(os.listdir(tmp_path)) == before


class TestExtremeMagnitudes:
    @pytest.mark.parametrize("verb, edit, args, where, position", [
        ("simulate", ("scene.targets.0.z_m", 1e200), [], "scene.targets[0]",
         "(0.0, 0.0, 1e+200)"),
        ("sweep", ("scene.targets.0.z_m", 1e200), ["--snr", "0"], "scene.targets[0]",
         "(0.0, 0.0, 1e+200)"),
        ("dict", ("grid.z_max_m", 1e200), [], "grid", "(-0.25, -0.25, 1e+200)"),
        ("probe", None, ["--span", "1.0", "--p0=0,0,1e200"], "probe geometry",
         "(0.0, 0.0, 1e+200)"),
        # the first offset along a direction axis: x = -1e300 at the reference's y and z
        ("probe", None, ["--axis", "1,0,0", "--span", "1e300"], "probe geometry",
         "(-1e+300, 0.0, 3.0)"),
    ], ids=["simulate-edit0-args0-scene.targets[0]", "sweep-edit1-args1-scene.targets[0]",
            "dict-edit2-args2-grid", "probe-None-args3-probe geometry", "probe-direction-axis"])
    def test_range_overflow_exits_2_writing_nothing(
        self, tmp_path, config_path, capsys, verb, edit, args, where, position
    ):
        # |p| = 1e200: x^2 + y^2 + z^2 overflows a double; the first such position is named
        cfg = base_config()
        if edit:
            _edit(cfg, *edit)
        out = tmp_path / "out"
        assert cli.main([verb, "--config", config_path(cfg), *args, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: {where}: position {position} needs z > 0 and a finite nonzero range\n"
        )
        assert captured.out == ""
        assert not out.exists()

    def test_an_axis_of_count_1_ignores_its_far_bound(self, config_path, capsys):
        # x's only sample is x_min, so x_max = 1e200 lies outside the grid
        def dict_stdout(x_max):
            cfg = base_config()
            cfg["grid"].update(nx=1, x_max_m=x_max)
            assert cli.main(["dict", "--config", config_path(cfg)]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            return captured.out

        assert dict_stdout(1e200) == dict_stdout(base_config()["grid"]["x_min_m"])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("verb, args", [
        ("simulate", []),
        ("sweep", ["--snr", "noiseless,10", "--trials", "3"]),
    ])
    def test_echo_overflow_exits_3_writing_nothing(self, tmp_path, config_path, capsys, verb,
                                                   args):
        # two co-located targets of reflectivity 1e308: their superposed echo overflows
        cfg = base_config()
        cfg["scene"]["targets"][0]["alpha_re"] = 1e308
        cfg["scene"]["targets"].append(cfg["scene"]["targets"][0])
        out = tmp_path / "out"
        assert cli.main([verb, "--config", config_path(cfg), *args, "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.err == (
            "error: the scene's echo is not finite: a reflectivity is too large or NaN\n"
        )
        assert captured.out == ""
        assert not out.exists()

    # 4 pi f R / c overflows at the largest double's frequency
    PHASE_OVERFLOWS_AT_MAX = {"f_min_hz": 60e9, "f_max_hz": 1.7976931348623157e308,
                              "n_points": 32}

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("verb, args", [
        ("simulate", []),
        ("sweep", ["--snr", "noiseless,10", "--trials", "3"]),
    ])
    def test_echo_phase_overflow_exits_3_naming_the_target(self, tmp_path, config_path, capsys,
                                                          verb, args):
        # every reflectivity is 1
        cfg = base_config(plan=self.PHASE_OVERFLOWS_AT_MAX)
        out = tmp_path / "out"
        assert cli.main([verb, "--config", config_path(cfg), *args, "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.err == (
            "error: position (0.0, 0.0, 3.0): the echo phase 4 pi f R / c is not finite "
            "for the plan's frequencies\n"
        )
        assert captured.out == ""
        assert not out.exists()

    # centers 3e306 and 6e306 Hz: 4 pi f R / c overflows at f[1] for R = 3 m, while the
    # carrier's coarse and fine tables (f[0] and one step) stay finite
    PHASE_OVERFLOWS_AT_F1 = {"f_min_hz": 1.5e306, "f_max_hz": 7.5e306, "n_points": 2}

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("verb, plan, position", [
        ("dict", PHASE_OVERFLOWS_AT_MAX, "(-0.25, -0.25, 2.75)"),
        ("localize", PHASE_OVERFLOWS_AT_MAX, "(-0.25, -0.25, 2.75)"),
        ("localize --dict", PHASE_OVERFLOWS_AT_MAX, "(-0.25, -0.25, 2.75)"),
        ("probe", PHASE_OVERFLOWS_AT_MAX, "(0.0, 0.0, 3.0)"),
        ("simulate", PHASE_OVERFLOWS_AT_F1, "(0.0, 0.0, 3.0)"),
        ("dict", PHASE_OVERFLOWS_AT_F1, "(-0.25, -0.25, 2.75)"),
        ("localize", PHASE_OVERFLOWS_AT_F1, "(-0.25, -0.25, 2.75)"),
        ("localize --dict", PHASE_OVERFLOWS_AT_F1, "(-0.25, -0.25, 2.75)"),
        ("probe", PHASE_OVERFLOWS_AT_F1, "(0.0, 0.0, 3.0)"),
        ("sweep", PHASE_OVERFLOWS_AT_F1, "(0.0, 0.0, 3.0)"),
    ], ids=["dict", "localize", "localize-dict", "probe", "at-f1-simulate", "at-f1-dict",
            "at-f1-localize", "at-f1-localize-dict", "at-f1-probe", "at-f1-sweep"])
    def test_echo_phase_overflow_exits_3_naming_the_row_and_the_phase(
        self, tmp_path, config_path, capsys, verb, plan, position
    ):
        # every verb names the first position whose phase overflows, as echo does
        verb, *flags = verb.split()
        args = _verb_args(verb, tmp_path, config_path)
        if flags:
            base_dict = tmp_path / "base_dict.csv"
            assert cli.main(["dict", "--config", config_path(base_config(), "base.json"),
                             "--out", str(base_dict)]) == 0
            args += [*flags, str(base_dict)]
        out = tmp_path / "out"
        assert cli.main([verb, "--config", config_path(base_config(plan=plan)), *args,
                         "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: position {position}: the echo phase 4 pi f R / c is not finite for the "
            "plan's frequencies\n"
        )
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("verb, snr, code, err", [
        ("simulate", -4000, 3, "error: the measurement at SNR -4000.0 dB is not finite\n"),
        ("sweep", -4000, 3, "error: trial 0 of SNR point 0 has a sample that is not finite\n"),
        # 10^308.2 times the scene's power is still a double
        ("simulate", -3082, 0, ""),
        ("sweep", -3082, 0, ""),
    ], ids=["simulate-4000", "sweep-4000", "simulate-3082", "sweep-3082"])
    def test_snr_whose_noise_power_overflows_exits_3(self, tmp_path, config_path, capsys,
                                                     verb, snr, code, err):
        cfg = base_config()
        cfg["scene"]["snr_db"] = snr
        args = ["--snr", str(snr), "--trials", "3"] if verb == "sweep" else []
        out = tmp_path / "out"
        assert cli.main([verb, "--config", config_path(cfg), *args, "--out", str(out)]) == code
        captured = capsys.readouterr()
        assert captured.err == err
        assert captured.out == ""
        assert out.exists() == (code == 0)

    @pytest.mark.parametrize("verb, edit, args, err", [
        # the gain exponent overflows to -inf: the channel is zero at every frequency
        ("dict", ("plan.f_max_hz", 1e200), [],
         "error: grid index 0 at position (-0.25, -0.25, 2.75) has a zero-norm channel\n"),
        ("localize", ("antenna.length_m", 1e154), None,
         "error: grid index 0 at position (-0.25, -0.25, 2.75) has a zero-norm channel\n"),
        # a reflectivity near the largest double: its noisy trial overflows
        ("sweep", ("scene.targets.0.alpha_re", 1.7e308),
         ["--snr", "noiseless,-10", "--trials", "3"],
         "error: trial 0 of SNR point 1 has a sample that is not finite\n"),
    ], ids=["dict-f_max", "localize-length", "sweep-alpha"])
    def test_expected_overflow_warns_nothing_and_exits_3(
        self, tmp_path, config_path, capsys, verb, edit, args, err
    ):
        cfg = base_config()
        _edit(cfg, *edit)
        if args is None:
            args = _verb_args(verb, tmp_path, config_path)
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main([verb, "--config", config_path(cfg), *args, "--out", str(out)]) == 3
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == err
        assert not out.exists()

    @pytest.mark.parametrize("verb, function, args", [
        ("dict", "dictionary_text", []),
        ("probe", "ambiguity_probe", ["--span", "1.0"]),
        ("sweep", "noise", ["--snr", "0", "--trials", "2"]),
    ])
    def test_memory_failure_exits_3_with_one_line(self, tmp_path, config_path, capsys,
                                                  monkeypatch, verb, function, args):
        # the error numpy raises for plan.n_points 10**12; no memory is requested
        error = _ArrayMemoryError((27, 2 * 10**12), np.dtype(np.complex128))

        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, function, fail)
        out = tmp_path / "out"
        assert cli.main([verb, "--config", config_path(base_config()), *args,
                         "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.err == (
            "error: Unable to allocate 786. TiB for an array with shape (27, 2000000000000) "
            "and data type complex128\n"
        )
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("alpha", [1e200, 1e-170])
    def test_reflectivity_scale_is_divided_out(self, tmp_path, config_path, alpha):
        # the sums of squares behind the noise power and the unit norms overflow or underflow
        cfg = base_config(plan={"f_min_hz": 60e9, "f_max_hz": 66e9, "n_points": 16})
        cfg["grid"].update(nx=5, ny=5, nz=5)
        cfg["scene"]["targets"][0].update(x_m=0.25, alpha_re=alpha)
        path = config_path(cfg)
        sweep = tmp_path / "sweep.csv"
        assert cli.main(["sweep", "--config", path, "--snr", "noiseless,30", "--trials", "20",
                         "--out", str(sweep)]) == 0
        assert sweep.read_text().splitlines()[1:] == [
            "noiseless,0.000000000e+00,20", "3.000000000e+01,0.000000000e+00,20"
        ]
        meas, loc = tmp_path / "meas.csv", tmp_path / "loc.json"
        assert cli.main(["simulate", "--config", path, "--out", str(meas)]) == 0
        assert cli.main(["localize", "--config", path, "--measurement", str(meas),
                         "--out", str(loc)]) == 0
        payload = json.loads(loc.read_text())
        assert payload["estimate"] == [0.25, 0.0, 3.0]
        assert payload["score"] == pytest.approx(1.0, abs=1e-12)


class TestLookupDispersionConfig:
    def test_lookup_table_via_config(self, tmp_path, config_path):
        table = tmp_path / "disp.csv"
        table.write_text("frequency_hz,angle_deg\n60e9,-60\n63e9,0\n66e9,60\n")
        cfg = base_config()
        cfg["dispersion"] = {"kind": "lookup_table", "table_path": "disp.csv"}
        out = tmp_path / "meas.csv"
        rc = cli.main(["simulate", "--config", config_path(cfg), "--out", str(out)])
        assert rc == 0

    @pytest.mark.parametrize("verb, args", [
        ("simulate", []), ("dict", []), ("localize", ["--measurement", "m.csv"]),
        ("probe", ["--span", "1.0"]), ("sweep", ["--snr", "0", "--trials", "2"]),
    ])
    def test_plan_outside_the_table_band_exits_2(self, tmp_path, config_path, capsys,
                                                 verb, args):
        # the table covers 60-65 GHz, the plan's 32 points 60-66 GHz
        (tmp_path / "disp.csv").write_text("frequency_hz,angle_deg\n60e9,-60\n65e9,60\n")
        cfg = base_config(dispersion={"kind": "lookup_table", "table_path": "disp.csv"})
        out = tmp_path / "out"
        rc = cli.main([verb, "--config", config_path(cfg), *args, "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: dispersion: frequency outside calibrated band [6e+10, 6.5e+10] Hz\n"
        )
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("rows, line, rule", [
        ("60e9,-60\n66e9,0\n63e9,60\n", 4, "lookup frequencies must be strictly increasing"),
        ("63e9,0\n", 2, "need matching 1-D frequency/angle arrays with >= 2 rows"),
        ("60e9,-60\n63e9,10\n66e9,5\n", 4, "lookup angles must be strictly increasing"),
        ("60e9,-60\n\n66e9,90\n", 4, "lookup angles must lie within (-90, 90) degrees"),
        ("60e9,-90\n66e9,0\n66e9,60\n", 2, "lookup angles must lie within (-90, 90) degrees"),
    ], ids=["falling-frequency", "one-row", "falling-angle", "90-degrees", "first-bad-row"])
    def test_table_rule_names_the_file_and_line(self, tmp_path, config_path, capsys,
                                                rows, line, rule):
        table = tmp_path / "disp.csv"
        table.write_text("frequency_hz,angle_deg\n" + rows)
        cfg = base_config(dispersion={"kind": "lookup_table", "table_path": "disp.csv"})
        out = tmp_path / "meas.csv"
        assert cli.main(["simulate", "--config", config_path(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: dispersion: {table}: line {line}: {rule}\n")
        assert not out.exists()

    def test_missing_table_exits_2(self, tmp_path, config_path):
        cfg = base_config()
        cfg["dispersion"] = {"kind": "lookup_table", "table_path": "nope.csv"}
        rc = cli.main(
            ["simulate", "--config", config_path(cfg), "--out", str(tmp_path / "x.csv")]
        )
        assert rc == 2


class TestConfigBoundary:
    @pytest.mark.parametrize(
        "section, key, constant",
        [("scene", "snr_db", "NaN"), ("plan", "f_max_hz", "Infinity"),
         ("plan", "f_min_hz", "-Infinity")],
    )
    def test_non_finite_constant_exits_2_naming_it(
        self, tmp_path, config_path, capsys, section, key, constant
    ):
        cfg = base_config()
        cfg[section][key] = "@"
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg).replace('"@"', constant))
        rc = cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert f"non-finite number {constant}" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("verb, text, repeated, key", [
        ("simulate", '"grid": {', '"scene": {}, "grid": {', "scene"),
        ("simulate", '"n_points": 32', '"n_points": 8, "n_points": 16', "n_points"),
        ("simulate", '"z_m": 3.0', '"z_m": 3.0, "z_m": 2.5', "z_m"),
        ("compare", '"rf_chains": 2', '"rf_chains": 2, "rf_chains": 3', "rf_chains"),
    ], ids=["section", "section key", "target key", "architecture key"])
    def test_duplicate_key_exits_2_naming_it(self, tmp_path, capsys, verb, text, repeated, key):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(base_config()).replace(text, repeated, 1))
        out = tmp_path / "out"
        assert cli.main([verb, "--config", str(path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}: duplicate key '{key}'\n"
        assert captured.out == ""
        assert not out.exists()

    def test_chirp_section_rejected(self, tmp_path, config_path, capsys):
        cfg = base_config(chirp={"duration_s": -1.0, "bogus_key": 3})
        rc = cli.main(["simulate", "--config", config_path(cfg), "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "unknown section(s) ['chirp']" in capsys.readouterr().err


DELETE = object()


def _edit(cfg, path, value):
    """Set cfg's value at a dotted path, or remove it with DELETE; integer parts index lists."""
    *parents, last = [int(p) if p.isdigit() else p for p in path.split(".")]
    for p in parents:
        cfg = cfg[p]
    if value is DELETE:
        del cfg[last]
    else:
        cfg[last] = value


# verb, config path, value (or DELETE), expected message
MALFORMED = [
    ("simulate", "plan.bogus", 1, "section 'plan': unknown key(s) ['bogus']"),
    ("simulate", "plan.n_points", DELETE, "section 'plan': missing key(s) ['n_points']"),
    ("dict", "grid", [1, 2], "section 'grid' must be a JSON object"),
    ("simulate", "scene.targets", [3], "section 'scene.targets[0]' must be a JSON object"),
    ("compare", "architectures.1.bogus", 1,
     "section 'architectures[1]': unknown key(s) ['bogus']"),
    ("simulate", "dispersion", {"theta_max_deg": 60.0}, "dispersion: missing 'kind'"),
    ("simulate", "dispersion.kind", "spline", "dispersion: unknown kind 'spline'"),
    ("simulate", "plan.f_min_hz", "60e9",
     "section 'plan': key 'f_min_hz' must be a finite number"),
    ("simulate", "scene.targets.0.alpha_im", True,
     "section 'scene.targets[0]': key 'alpha_im' must be a finite number"),
    ("simulate", "plan.n_points", 32.0, "section 'plan': key 'n_points' must be an integer"),
    ("simulate", "scene.seed", False, "section 'scene': key 'seed' must be an integer"),
    ("simulate", "antenna.two_way", 1, "section 'antenna': key 'two_way' must be a boolean"),
    ("compare", "architectures.0.aperture_kind", 1,
     "section 'architectures[0]': key 'aperture_kind' must be a string"),
    ("compare", "architectures.0.name", None,
     "section 'architectures[0]': key 'name' must be a string"),
    ("compare", "architectures.1.observability", 7,
     "section 'architectures[1]': key 'observability' must be a string"),
    ("compare", "architectures.2.noise_rejection", ["High"],
     "section 'architectures[2]': key 'noise_rejection' must be a string"),
    ("simulate", "dispersion", {"kind": "lookup_table", "table_path": 5},
     "section 'dispersion': key 'table_path' must be a string"),
    # JSON spells a lone surrogate with a \u escape; UTF-8 cannot encode it
    pytest.param("compare", "architectures.0.name", "\ud800",
                 "section 'architectures[0]': key 'name' holds a lone surrogate (a JSON \\u "
                 "escape), which UTF-8 cannot encode", id="compare-name-lone-surrogate"),
    ("simulate", "scene.targets", {}, "section 'scene': key 'targets' must be a list"),
    *(("simulate", "scene.snr_db", snr, "section 'scene': key 'snr_db' must be a finite number")
      for snr in (True, False, "loud", None, [5.0])),
    ("simulate", "plan.f_min_hz", 67e9, "plan: need 0 < f_min < f_max"),
    ("dict", "grid.nx", 0, "grid: grid counts must all be >= 1"),
    ("dict", "grid.x_min_m", 1.0, "grid: x_range must satisfy lo <= hi"),
    ("simulate", "antenna.length_m", 0, "antenna: antenna length must be positive"),
    ("simulate", "scene.targets.0.z_m", -1.0,
     "scene.targets[0]: position (0.0, 0.0, -1.0) needs z > 0 and a finite nonzero range"),
    ("simulate", "scene.seed", -1, "scene: seed must fit in an unsigned 64-bit integer"),
    ("simulate", "dispersion.theta_max_deg", 95.0, "dispersion: need -pi/2 < theta_min"),
    ("compare", "architectures.2.fov_deg", 90.0, "architectures[2]: fov_deg must lie in (0, 90)"),
]

# Every section a config holds is checked under every verb: one invalid value per section.
INVALID_SECTIONS = [
    ("plan.n_points", 0, "plan: n_points must be >= 1, got 0"),
    ("dispersion.theta_max_deg", 95.0, "dispersion: need -pi/2 < theta_min"),
    ("antenna.length_m", 0, "antenna: antenna length must be positive"),
    ("scene.targets.0.z_m", -1.0,
     "scene.targets[0]: position (0.0, 0.0, -1.0) needs z > 0 and a finite nonzero range"),
    ("grid.nx", 0, "grid: grid counts must all be >= 1"),
    ("architectures.0.rf_chains", "x",
     "section 'architectures[0]': key 'rf_chains' must be an integer"),
    # a dispersion model is built for the plan, so it cannot be read without one
    ("plan", DELETE, "config is missing the required 'plan' section"),
]
VERBS = ("simulate", "dict", "localize", "probe", "compare", "sweep")
MALFORMED += [
    row for row in ((verb, *case) for verb in VERBS for case in INVALID_SECTIONS)
    if row not in MALFORMED
]
# a name is one cell of compare's report line and one side of a ratio key
MALFORMED += [pytest.param(verb, "architectures.1.name", name,
                           f"architectures[1]: name must be a non-empty printable string, got "
                           f"{name!r}", id=f"{verb}-architecture-name-{label}")
              for verb in VERBS for name, label in (("", "empty"), ("A\nB", "newline"))]
MALFORMED.append(("compare", "dispersion", {"kind": "lookup_table", "table_path": "nope.csv"},
                  "dispersion: [Errno 2] No such file or directory"))
MALFORMED += [("compare", "architectures", value, "architectures: must be a non-empty list")
              for value in ([], {})]
# a JSON integer too large for a double
MALFORMED += [pytest.param("compare", f"architectures.{i}.{key}", 10**400,
                           f"architectures[{i}]: {key} must be at most 1.7976931348623157e+308, "
                           "the largest double", id=f"compare-{key}-10**400")
              for i, key in enumerate(("rf_chains", "n_samples"))]
# a count larger than any numpy array size, in a section every verb parses
MAX_COUNT = int(np.iinfo(np.intp).max)
MALFORMED += [pytest.param(verb, path, value,
                           f"section '{path.split('.')[0]}': key '{path.split('.')[1]}' must be "
                           f"an integer of at most {MAX_COUNT}", id=f"{verb}-{path}-{label}")
              for verb, path in [*((verb, "plan.n_points") for verb in VERBS),
                                 *(("dict", f"grid.n{a}") for a in "xyz"), ("compare", "grid.nx")]
              for value, label in ((10**400, "10**400"), (MAX_COUNT + 1, "intp-max+1"))]
# a count whose array numpy cannot size: the plan's (n_points,) frequency grid of doubles, or
# with base_config()'s 3 x 3 other counts and M = 32, the (nx·ny·nz, 2·n_points) complex
# entries; no count here is one numpy could allocate
PLAN_TOO_BIG = "section 'plan': key 'n_points' gives a frequency grid larger than numpy can size"
GRID_TOO_BIG = ("section 'grid': keys 'nx', 'ny', 'nz' with plan key 'n_points' give dictionary "
                "entries larger than numpy can size")
MALFORMED += [pytest.param(verb, "plan.n_points", value, PLAN_TOO_BIG,
                           id=f"{verb}-plan.n_points-{label}")
              for verb in VERBS
              for value, label in ((MAX_COUNT, "intp-max"), (MAX_COUNT // 8 + 1, "grid-bytes"))]
MALFORMED += [pytest.param(verb, path, value, GRID_TOO_BIG, id=f"{verb}-{path}-{label}")
              for verb in VERBS for path in ("grid.nx", "grid.nz")
              for value, label in ((MAX_COUNT, "intp-max"),
                                   (MAX_COUNT // (9 * 64 * 16) + 1, "entry-bytes"))]


def _verb_args(verb, tmp_path, config_path):
    """The flags other than --config and --out with which ``verb`` runs on base_config()."""
    if verb == "localize":
        meas = tmp_path / "meas.csv"
        base = config_path(base_config(), "base.json")
        assert cli.main(["simulate", "--config", base, "--out", str(meas)]) == 0
        return ["--measurement", str(meas)]
    return {"probe": ["--span", "1.0", "--steps", "3"],
            "sweep": ["--snr", "0", "--trials", "2"]}.get(verb, [])


class TestConfigReader:
    @pytest.mark.parametrize("verb", VERBS)
    def test_base_config_runs_under_every_verb(self, tmp_path, config_path, verb):
        out = tmp_path / "out"
        args = _verb_args(verb, tmp_path, config_path)
        assert cli.main([verb, "--config", config_path(base_config()), *args,
                         "--out", str(out)]) == 0
        assert out.exists()

    @pytest.mark.parametrize("verb, path, value, message", MALFORMED)
    def test_malformed_config_exits_2_with_message(
        self, tmp_path, config_path, capsys, verb, path, value, message
    ):
        cfg = base_config()
        _edit(cfg, path, value)
        out = tmp_path / "out"
        args = _verb_args(verb, tmp_path, config_path)
        assert cli.main([verb, "--config", config_path(cfg), *args, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert f"error: {message}" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_every_optional_key_parses_to_the_expected_objects(self, tmp_path):
        cfg = base_config(
            plan={"f_min_hz": 60000000000, "f_max_hz": 66e9, "n_points": 16},
            dispersion={"kind": "linear_sine", "theta_max_deg": 45, "theta_min_deg": -30.0},
            antenna={"length_m": 0.05, "two_way": False},
        )
        cfg["scene"] = {
            "targets": [
                {"x_m": 0.1, "y_m": -0.2, "z_m": 3, "alpha_re": 2, "alpha_im": -1.0,
                 "alpha_x_re": 0.5, "alpha_y_im": 0.25},
                {"x_m": 0, "y_m": 0, "z_m": 2.5, "alpha_x_im": 1.5, "alpha_y_re": -1},
            ],
            "snr_db": 5,
            "seed": 11,
        }
        cfg["architectures"][0].update(observability="Low", noise_rejection="Medium")
        plan = cli.parse_plan(cfg["plan"])
        assert plan == FrequencyPlan(60e9, 66e9, 16)
        assert type(plan.f_min) is float
        model = cli.parse_dispersion(cfg["dispersion"], plan, tmp_path / "config.json")
        assert model == LinearSineDispersion(60e9, 66e9, math.radians(-30.0), math.radians(45.0))
        assert cli.parse_antenna(cfg["antenna"], None) == AntennaModel(length=0.05, two_way=False)
        assert cli.parse_antenna({}, plan) == AntennaModel(length=0.12, two_way=True)
        scene = cli.parse_scene(cfg["scene"], None)
        assert scene == Scene(
            targets=(
                Target((0.1, -0.2, 3.0), refl_x=0.5 - 1j, refl_y=2 + 0.25j),
                Target((0.0, 0.0, 2.5), refl_x=1 + 1.5j, refl_y=-1 + 0j),
            ),
            noise=NoiseConfig(snr_db=5.0, seed=11),
        )
        assert type(scene.noise.snr_db) is float
        assert cli.parse_scene(cfg["scene"], seed_override=3).noise == NoiseConfig(5.0, 3)
        cfg["scene"]["snr_db"] = "noiseless"
        assert cli.parse_scene(cfg["scene"], None).noise == NoiseConfig(None, 11)
        assert cli.parse_grid(cfg["grid"], plan) == PositionGrid(
            (-0.25, 0.25), (-0.25, 0.25), (2.75, 3.25), 3, 3, 3
        )
        specs = cli.parse_architectures(cfg["architectures"])
        assert specs[0] == ArchitectureSpec(
            name="FaA-Single", rf_chains=1, physical_size_m=0.12, bandwidth_hz=6e9,
            n_samples=128, aperture_kind="virtual", f_ref_hz=63e9, power_mw=850.0,
            cost_usd=55.0, fov_deg=60.0, eta_reference=926.0, observability="Low",
            noise_rejection="Medium",
        )
        assert [s.name for s in specs] == ["FaA-Single", "FaA-Dual", "1T3R-MIMO"]
        assert specs[1].observability is None and specs[1].noise_rejection is None

    def test_architecture_kinds_are_the_spec_annotations(self):
        # a JSON integer is read as the float the annotation asks for, `float | None` too
        entry = dict(base_config()["architectures"][2], physical_size_m=1, eta_reference=58)
        spec, = cli.parse_architectures([entry])
        assert type(spec.physical_size_m) is float and type(spec.eta_reference) is float

    def test_lookup_table_dispersion_parses_relative_to_the_config(self, tmp_path):
        (tmp_path / "disp.csv").write_text("frequency_hz,angle_deg\n60e9,-60\n66e9,30\n")
        cfg = base_config(dispersion={"kind": "lookup_table", "table_path": "disp.csv"})
        model = cli.parse_dispersion(cfg["dispersion"], cli.parse_plan(cfg["plan"]),
                                     tmp_path / "config.json")
        np.testing.assert_array_equal(model.frequencies, [60e9, 66e9])
        np.testing.assert_array_equal(model.angles, np.radians([-60.0, 30.0]))


    @pytest.mark.parametrize(
        "verb, path, section",
        [
            ("simulate", "scene.targets.0.alpha_re", "scene.targets[0]"),
            ("simulate", "plan.f_max_hz", "plan"),
            ("simulate", "antenna.length_m", "antenna"),
            ("dict", "grid.x_max_m", "grid"),
            ("compare", "architectures.0.power_mw", "architectures[0]"),
            ("simulate", "scene.snr_db", "scene"),
        ],
    )
    def test_overflowing_number_exits_2_naming_section_and_key(
        self, tmp_path, capsys, verb, path, section
    ):
        # JSON 1e400 is a valid number that parses to inf.
        cfg = base_config()
        _edit(cfg, path, "@")
        config = tmp_path / "config.json"
        config.write_text(json.dumps(cfg).replace('"@"', "1e400"))
        out = tmp_path / "out"
        assert cli.main([verb, "--config", str(config), "--out", str(out)]) == 2
        key = path.rsplit(".", 1)[1]
        assert f"section '{section}': key '{key}' must be a finite number" in (
            capsys.readouterr().err
        )
        assert not out.exists()


class TestReadmeConfig:
    def test_documented_config_runs_under_every_verb(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme[readme.index("### Config file"):]
        start = section.index("```json\n") + len("```json\n")
        config = tmp_path / "config.json"
        config.write_text(section[start:section.index("```", start)])
        meas, dict_csv = tmp_path / "meas.csv", tmp_path / "dict.csv"
        runs = [
            ["simulate", "--out", str(meas)],
            ["dict", "--out", str(dict_csv)],
            ["localize", "--measurement", str(meas), "--out", str(tmp_path / "loc.json")],
            ["localize", "--measurement", str(meas), "--dict", str(dict_csv),
             "--out", str(tmp_path / "loc_dict.json")],
            ["probe", "--span", "5.0", "--steps", "11", "--out", str(tmp_path / "curve.csv")],
            ["compare", "--out", str(tmp_path / "report.json")],
            ["sweep", "--snr", "noiseless,10", "--trials", "3", "--out", str(tmp_path / "s.csv")],
        ]
        for argv in runs:
            assert cli.main([argv[0], "--config", str(config), *argv[1:]]) == 0, argv[0]


class TestCompareQueryRange:
    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_cli_exits_2_naming_the_flag(self, tmp_path, config_path, capsys, value):
        out = tmp_path / "report.json"
        rc = cli.main(["compare", "--config", config_path(base_config()),
                       f"--r-query={value}", "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert "error: --r-query: " in captured.err
        assert captured.out == ""
        assert not out.exists()


# The arguments a verb needs besides --config and --out.
REQUIRED = {"simulate": [], "probe": ["--span", "1.0"], "sweep": ["--snr", "0", "--trials", "2"]}

# verb, flag, a value its parser type rejects
BAD_FLAGS = [
    *(("probe", "--span", v) for v in ("nan", "inf", "0", "-1")),
    *(("probe", "--p0", v) for v in ("0,0,inf", "1,2", "a,b,c")),
    *(("probe", "--axis", v) for v in ("nan,0,1", "0,0,0", "spiral")),
    # their norm underflows to 0 and overflows to inf
    *(("probe", "--axis", v) for v in ("1e-200,1e-200,0", "1e200,1e200,0")),
    *(("probe", "--steps", v) for v in ("2", "x", "1" + "0" * 40, str(MAX_COUNT + 1))),
    *(("sweep", "--trials", v) for v in ("0", "1" + "0" * 40, str(MAX_COUNT + 1))),
    # counts whose arrays numpy cannot size: the probe's (steps, 3) positions and the
    # sweep's (trials,) errors, doubles both
    *(("probe", "--steps", str(v)) for v in (MAX_COUNT, MAX_COUNT // 24 + 1)),
    *(("sweep", "--trials", str(v)) for v in (MAX_COUNT, MAX_COUNT // 8 + 1)),
    *(("sweep", "--snr", v) for v in ("0,nan", "0,,1")),
    *(("simulate", "--seed", v) for v in ("-1", str(2**64))),
    # no directory to write it in, no name, a directory
    *(("simulate", "--out", v) for v in ("no-such-dir/s.csv", "", ".")),
]

# verb, arguments at the edge of what the parser types accept
EDGE_FLAGS = [
    ("probe", ["--steps", "3"]),
    ("probe", ["--p0", "-0.1,0,3", "--axis", "-0.3,0.2,1.0"]),
    ("probe", ["--p0=-0.1,0,3", "--axis=-0.3,0.2,1.0"]),
    ("sweep", ["--trials", "1"]),
    ("sweep", ["--snr", "noiseless"]),
    ("simulate", ["--seed", "0"]),
    ("simulate", ["--seed", str(2**64 - 1)]),
]

# verb -> every option its parser declares, besides -h/--help
FLAG_SURFACE = {
    "simulate": {"--config", "--out", "--seed"},
    "dict": {"--config", "--out"},
    "localize": {"--config", "--out", "--measurement", "--dict"},
    "probe": {"--config", "--out", "--p0", "--axis", "--span", "--steps"},
    "compare": {"--config", "--out", "--r-query"},
    "sweep": {"--config", "--out", "--seed", "--snr", "--trials"},
}


class TestFlags:
    @pytest.mark.parametrize("verb, flag, value", BAD_FLAGS)
    def test_bad_value_exits_2_naming_flag_and_value(
        self, tmp_path, config_path, capsys, verb, flag, value
    ):
        out = tmp_path / "out"
        rc = cli.main([verb, "--config", config_path(base_config()), *REQUIRED[verb],
                       f"{flag}={value}", "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {flag}: ")
        assert captured.err.endswith(f", got '{value}'\n")
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("verb, flag, most, arrays", [
        ("probe", "--steps", MAX_COUNT // 24, "3 to 384307168202282325, the most (steps, 3) "
                                              "positions"),
        ("sweep", "--trials", MAX_COUNT // 8, "1 to 1152921504606846975, the most (trials,) "
                                              "errors"),
    ])
    def test_count_numpy_cannot_size_exits_2_before_a_file_is_read(
        self, tmp_path, capsys, verb, flag, most, arrays
    ):
        # the largest count is parsed, and not run: numpy could not allocate its arrays
        argv = [verb, "--config", str(tmp_path / "absent.json"), *REQUIRED[verb][:2]]
        assert getattr(cli.build_parser().parse_args([*argv, flag, str(most)]),
                       flag[2:]) == most
        assert cli.main([*argv, flag, str(most + 1)]) == 2
        assert capsys.readouterr().err == (
            f"error: {flag}: must be an integer from {arrays} numpy can size, got '{most + 1}'\n"
        )

    @pytest.mark.parametrize("verb, args", EDGE_FLAGS)
    def test_edge_value_is_accepted(self, tmp_path, config_path, verb, args):
        cfg = base_config()
        cfg["scene"]["snr_db"] = 5.0
        out = tmp_path / "out"
        rc = cli.main([verb, "--config", config_path(cfg), *REQUIRED[verb], *args,
                       "--out", str(out)])
        assert rc == 0
        assert out.exists()

    # -1e308 dB scales the noise past the largest double: the sweep names the trial, exit 3
    @pytest.mark.parametrize("value, code", [("-10,0", 0), ("-1e308", 3), ("-10,noiseless", 0)])
    def test_snr_list_starting_negative_in_space_and_equals_form(
        self, tmp_path, config_path, capsys, value, code
    ):
        path = config_path(base_config())
        runs = []
        for snr_flags in (["--snr", value], [f"--snr={value}"]):
            rc = cli.main(["sweep", "--config", path, *snr_flags, "--trials", "3"])
            runs.append((rc, capsys.readouterr()))
        assert runs[0] == runs[1]
        assert runs[0][0] == code

    @pytest.mark.parametrize("axis", ["range", "0,0,1", "-0.3,0.2,1.0"])
    @pytest.mark.parametrize("span", ["1e308", "8.98846567431158e307", "1.7976931348623157e308"])
    def test_span_whose_offsets_overflow_exits_2(
        self, tmp_path, config_path, capsys, axis, span
    ):
        out = tmp_path / "curve.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main(["probe", "--config", config_path(base_config()), "--axis", axis,
                           "--span", span, "--steps", "11", "--out", str(out)])
        assert [str(w.message) for w in caught] == []
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err == (f"error: --span: {float(span)!r} m puts the offsets -span to "
                                "span inf m apart, more than a double holds\n")
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("axis, span", [
        ("range", "8.988465674311579e307"),  # the largest span whose 2 * span is finite
        ("azimuth", "1.7976931348623157e308"),  # an angle in rad is finite at any span
    ])
    def test_span_below_the_overflow_reaches_the_probe(
        self, tmp_path, config_path, capsys, axis, span
    ):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main(["probe", "--config", config_path(base_config()), "--axis", axis,
                           "--span", span, "--steps", "11", "--out", str(tmp_path / "c.csv")])
        assert [str(w.message) for w in caught] == []
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: probe geometry: position ")

    def test_each_verb_declares_only_the_flags_it_reads(self):
        (verbs,) = (a.choices for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
        declared = {
            name: {opt for a in p._actions for opt in a.option_strings} - {"-h", "--help"}
            for name, p in verbs.items()
        }
        assert declared == FLAG_SURFACE

    @pytest.mark.parametrize("verb, flag", [("dict", "--workers"), ("probe", "--seed")])
    def test_removed_flag_exits_2(self, tmp_path, config_path, capsys, verb, flag):
        out = tmp_path / "out"
        argv = [verb, "--config", config_path(base_config()), *REQUIRED.get(verb, []),
                flag, "1", "--out", str(out)]
        assert cli.main(argv) == 2
        assert capsys.readouterr() == ("", f"error: unrecognized arguments: {flag} 1\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--config", "x.json", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
        ([], "the following arguments are required: command"),
        (["simulate"], "the following arguments are required: --config"),
    ])
    def test_parse_error_exits_2_with_one_line(self, capsys, argv, message):
        assert cli.main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "-h"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: sweepsense simulate ")

    @pytest.mark.parametrize("out", ["absent/s.csv", "."])
    def test_bad_out_exits_2_before_the_config_is_read(self, tmp_path, capsys, out):
        path = str(tmp_path / out)
        assert cli.main(["dict", "--config", str(tmp_path / "absent.json"), "--out", path]) == 2
        assert capsys.readouterr() == ("", "error: --out: must be '-' or a file path in a "
                                           f"directory that exists, got '{path}'\n")


def through_fifo(tmp_path, data: bytes, run):
    """``run(fifo)`` while a thread writes ``data`` into a new FIFO. Both run
    in threads that must end within 10 s, so a second open of the FIFO,
    which would wait for a writer forever, fails the test."""
    fifo = tmp_path / "input.fifo"
    os.mkfifo(fifo)
    result = []
    threads = [threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True),
               threading.Thread(target=lambda: result.append(run(fifo)), daemon=True)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)
    return result[0]


class TestMeasurementBoundary:
    def localize(self, tmp_path, config, meas):
        return cli.main(["localize", "--config", config, "--measurement", str(meas),
                         "--out", str(tmp_path / "loc.json")])

    def simulated(self, tmp_path, config):
        meas = tmp_path / "meas.csv"
        assert cli.main(["simulate", "--config", config, "--out", str(meas)]) == 0
        return meas

    def test_duplicated_m_exits_2(self, tmp_path, config_path, capsys):
        path = config_path(base_config())
        meas = self.simulated(tmp_path, path)
        lines = meas.read_text().splitlines()
        lines[5] = "3" + lines[5][1:]  # m = 4 relabelled as a second m = 3
        meas.write_text("\n".join(lines) + "\n")
        assert self.localize(tmp_path, path, meas) == 2
        assert capsys.readouterr().err == (
            f"error: {meas}: line 6: expected m = 4 (from the config), got 3\n"
        )

    def test_other_band_exits_2(self, tmp_path, config_path, capsys):
        other = base_config()
        other["plan"]["f_max_hz"] = 65e9
        meas = self.simulated(tmp_path, config_path(other, "other.json"))
        assert self.localize(tmp_path, config_path(base_config()), meas) == 2
        assert "line 2: expected f_hz = 6.009375e+10 (from the config), got 6.0078125e+10\n" \
            in capsys.readouterr().err

    def test_bad_line_after_blank_line_named(self, tmp_path, config_path, capsys):
        path = config_path(base_config())
        meas = self.simulated(tmp_path, path)
        lines = meas.read_text().splitlines()
        lines[5] = "oops"  # physical line 6, line 7 once the blank line is in
        lines.insert(2, "")
        meas.write_text("\n".join(lines) + "\n")
        assert self.localize(tmp_path, path, meas) == 2
        assert "line 7: expected 7 fields, got 1" in capsys.readouterr().err

    def test_fifo_with_a_bad_key_cell_exits_2_naming_the_line(
        self, tmp_path, config_path, capsys
    ):
        path = config_path(base_config())
        meas = self.simulated(tmp_path, path)
        lines = meas.read_text().splitlines()
        lines[5] = "3" + lines[5][1:]
        rc = through_fifo(tmp_path, ("\n".join(lines) + "\n").encode(),
                          lambda fifo: self.localize(tmp_path, path, fifo))
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'input.fifo'}: line 6: expected m = 4 (from the config), got 3\n")

    @pytest.mark.parametrize("cell, message", [
        ("nan", "line 4: field 7 is not a finite number: 'nan'"),
        ("1e400", "line 4: field 7 is not a finite number: '1e400'"),
        (" abc ", "line 4: field 7 is not a finite number: 'abc'"),
        (None, "no data rows after line 1"),
    ], ids=["nan", "overflow", "text", "header-only"])
    def test_unreadable_cell_exits_2_naming_it(self, tmp_path, config_path, capsys,
                                               cell, message):
        path = config_path(base_config())
        meas = self.simulated(tmp_path, path)
        lines = meas.read_text().splitlines()
        if cell is None:
            del lines[1:]
        else:
            lines[3] = ",".join(lines[3].split(",")[:6] + [cell])
        meas.write_text("\n".join(lines) + "\n")
        assert self.localize(tmp_path, path, meas) == 2
        assert capsys.readouterr() == ("", f"error: {meas}: {message}\n")
        assert not (tmp_path / "loc.json").exists()

    @pytest.mark.parametrize("line", [1, 3])
    def test_non_utf8_file_names_path_and_line(self, tmp_path, config_path, capsys, line):
        path = config_path(base_config())
        meas = self.simulated(tmp_path, path)
        if line == 1:
            meas.write_bytes(np.random.default_rng(0).bytes(300))
        else:
            lines = meas.read_bytes().split(b"\n")
            lines[2] = b"\x93" + lines[2]
            meas.write_bytes(b"\n".join(lines))
        assert self.localize(tmp_path, path, meas) == 2
        assert f"{meas}: line {line}: not UTF-8 text" in capsys.readouterr().err

    @pytest.mark.parametrize("reuse_dict", [False, True])
    def test_theta_off_the_dispersion_model_exits_2(
        self, tmp_path, config_path, capsys, reuse_dict
    ):
        path = config_path(base_config())
        meas = self.simulated(tmp_path, path)
        lines = meas.read_text().splitlines()
        for i in range(1, len(lines)):
            cells = lines[i].split(",")
            cells[2] = "0.000000000e+00"
            lines[i] = ",".join(cells)
        meas.write_text("\n".join(lines) + "\n")
        extra = []
        if reuse_dict:
            assert cli.main(["dict", "--config", path, "--out", str(tmp_path / "d.csv")]) == 0
            extra = ["--dict", str(tmp_path / "d.csv")]
        rc = cli.main(["localize", "--config", path, "--measurement", str(meas), *extra,
                       "--out", str(tmp_path / "loc.json")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {meas}: line 2: expected theta_deg = -57.03068274 (from the config), got 0\n"
        )


class TestDictionaryCheck:
    """localize --dict checks the file against the dictionary the config builds."""

    def prepared(self, tmp_path, config_path):
        path = config_path(base_config())
        meas, own = tmp_path / "meas.csv", tmp_path / "own.csv"
        assert cli.main(["simulate", "--config", path, "--out", str(meas)]) == 0
        assert cli.main(["dict", "--config", path, "--out", str(own)]) == 0
        return path, meas, own

    @staticmethod
    def localize(tmp_path, path, meas, dict_csv=None):
        """Exit code and output bytes (None if no output) of localize."""
        out = tmp_path / "loc.json"
        out.unlink(missing_ok=True)
        extra = [] if dict_csv is None else ["--dict", str(dict_csv)]
        rc = cli.main(["localize", "--config", path, "--measurement", str(meas), *extra,
                       "--out", str(out)])
        return rc, out.read_bytes() if out.exists() else None

    @staticmethod
    def edited(path, edit):
        """A copy of the file at ``path`` with its lines passed through ``edit``."""
        lines = path.read_text().splitlines()
        edit(lines)
        copy = path.with_name("edited.csv")
        copy.write_text("\n".join(lines) + "\n")
        return copy

    @pytest.mark.parametrize("edit", [
        lambda cfg: cfg["antenna"].update(length_m=0.024),
        lambda cfg: cfg["dispersion"].update(theta_max_deg=45.0),
        lambda cfg: cfg["plan"].update(f_max_hz=65e9),
    ], ids=["antenna-length", "scan-angle", "band"])
    def test_dictionary_of_another_config_exits_2_naming_a_line(
        self, tmp_path, config_path, capsys, edit
    ):
        path, meas, _ = self.prepared(tmp_path, config_path)
        other = base_config()
        edit(other)  # the same grid and M
        foreign = tmp_path / "foreign.csv"
        assert cli.main(["dict", "--config", config_path(other, "other.json"),
                         "--out", str(foreign)]) == 0
        capsys.readouterr()
        assert self.localize(tmp_path, path, meas, foreign) == (2, None)
        err = capsys.readouterr().err
        assert re.fullmatch(fr"error: {re.escape(str(foreign))}: line \d+: expected (re|im)_\d+ = "
                            r"\S+ \(from the config\), got \S+\n", err), err

    def changed_cell(self, own):
        """The file ``own`` with entry cell im_1 of line 5 moved by 1e-6, and that line."""
        def move(lines):
            cells = lines[4].split(",")
            cells[9] = f"{float(cells[9]) + 1e-6:.9e}"
            lines[4] = ",".join(cells)

        lines = own.read_text().splitlines()
        return self.edited(own, move), lines[4].split(",")[9]

    def test_changed_entry_cell_exits_2_naming_line_and_column(
        self, tmp_path, config_path, capsys
    ):
        path, meas, own = self.prepared(tmp_path, config_path)
        changed, cell = self.changed_cell(own)
        assert self.localize(tmp_path, path, meas, changed) == (2, None)
        assert capsys.readouterr().err.startswith(
            f"error: {changed}: line 5: expected im_1 = {float(cell):.10g} (from the config), "
            f"got {float(cell) + 1e-6:.10g}")

    @pytest.mark.parametrize("edit", [
        None,
        lambda lines: lines.insert(7, ""),
        lambda lines: lines.__setitem__(3, lines[3].replace("e", "E")),
    ], ids=["own", "blank-line", "respelled"])
    @pytest.mark.parametrize("crlf", [False, True])
    def test_files_of_the_same_cells_give_the_in_memory_output(
        self, tmp_path, config_path, edit, crlf
    ):
        path, meas, own = self.prepared(tmp_path, config_path)
        dict_csv = self.edited(own, edit or (lambda lines: None))
        if crlf:
            dict_csv.write_bytes(dict_csv.read_bytes().replace(b"\n", b"\r\n"))
        assert (edit is None and not crlf) == (dict_csv.read_bytes() == own.read_bytes())
        rc, out = self.localize(tmp_path, path, meas)
        assert rc == 0
        assert self.localize(tmp_path, path, meas, dict_csv) == (0, out)
        assert self.localize(tmp_path, path, meas, own) == (0, out)

    def test_grid_outside_the_beam_exits_3_with_or_without_dict(
        self, tmp_path, config_path, capsys
    ):
        _, meas, own = self.prepared(tmp_path, config_path)
        cfg = base_config(antenna={"length_m": 0.12, "two_way": True})
        cfg["grid"] = {
            "x_min_m": 0.0, "x_max_m": 50.0, "nx": 2,  # 89 deg off boresight at x = 50 m
            "y_min_m": 0.0, "y_max_m": 0.0, "ny": 1,
            "z_min_m": 1.0, "z_max_m": 1.0, "nz": 1,
        }
        path = config_path(cfg, "wide.json")
        capsys.readouterr()
        errors = []
        for dict_csv in (None, own):
            assert self.localize(tmp_path, path, meas, dict_csv) == (3, None)
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert "grid index 1" in errors[0] and "(50.0, 0.0, 1.0)" in errors[0]

    def test_dictionary_errors_come_first_then_the_files(self, tmp_path, config_path, capsys):
        # The rows are built while the file is compared and the measurement scored, yet the
        # order of errors is that of building the dictionary first: a grid point outside the
        # beam exits 3 whatever the measurement and the file, and a dictionary file of other
        # bytes is judged before the measurement.
        path, meas, own = self.prepared(tmp_path, config_path)
        changed, _ = self.changed_cell(own)
        empty = base_config()
        empty["scene"]["targets"] = []
        zero = tmp_path / "zero.csv"  # read, but with a zero-norm channel: exit 3
        assert cli.main(["simulate", "--config", config_path(empty, "empty.json"),
                         "--out", str(zero)]) == 0
        unreadable = tmp_path / "unreadable.csv"
        unreadable.write_text("m,f_hz\n")
        missing = tmp_path / "missing.csv"
        wide = base_config(antenna={"length_m": 0.12, "two_way": True})
        wide["grid"] = {
            "x_min_m": 0.0, "x_max_m": 50.0, "nx": 2,  # 89 deg off boresight at x = 50 m
            "y_min_m": 0.0, "y_max_m": 0.0, "ny": 1,
            "z_min_m": 1.0, "z_max_m": 1.0, "nz": 1,
        }
        wide_path = config_path(wide, "wide.json")
        capsys.readouterr()
        for m in (meas, zero, unreadable, missing):
            for dict_csv in (None, own, changed, missing):
                assert self.localize(tmp_path, wide_path, m, dict_csv) == (3, None)
                assert capsys.readouterr().err == (
                    "error: grid index 1 at position (50.0, 0.0, 1.0) has a zero-norm channel\n")
        for m in (zero, unreadable, missing):
            assert self.localize(tmp_path, path, m, changed) == (2, None)
            assert capsys.readouterr().err.startswith(f"error: {changed}: line 5: expected im_1 = ")
        assert self.localize(tmp_path, path, zero, own) == (3, None)
        assert capsys.readouterr().err == "error: measurement has a zero-norm channel\n"

    def test_file_of_other_bytes_is_judged_against_entries_built_again(
        self, tmp_path, config_path, monkeypatch
    ):
        path, meas, own = self.prepared(tmp_path, config_path)
        crlf = tmp_path / "crlf.csv"
        crlf.write_bytes(own.read_bytes().replace(b"\n", b"\r\n"))
        built = []

        def counted(positions, *args, **kwargs):
            built.append(len(positions))
            return echo(positions, *args, **kwargs)

        monkeypatch.setattr(fingerprint, "echo", counted)
        for dict_csv, rows in ((None, 27), (own, 27), (crlf, 2 * 27)):
            built.clear()
            assert self.localize(tmp_path, path, meas, dict_csv)[0] == 0
            assert sum(built) == rows

    def test_unreadable_measurement_still_builds_each_row_once_per_pass(
        self, tmp_path, config_path, monkeypatch, capsys
    ):
        # the rows, and the --dict file, are checked before the measurement's error is raised
        path, _, own = self.prepared(tmp_path, config_path)
        crlf = tmp_path / "crlf.csv"
        crlf.write_bytes(own.read_bytes().replace(b"\n", b"\r\n"))
        missing = tmp_path / "missing.csv"
        built = []

        def counted(positions, *args, **kwargs):
            built.append(len(positions))
            return echo(positions, *args, **kwargs)

        monkeypatch.setattr(fingerprint, "echo", counted)
        capsys.readouterr()
        for dict_csv, rows in ((None, 27), (own, 27), (crlf, 2 * 27)):
            built.clear()
            assert self.localize(tmp_path, path, missing, dict_csv) == (2, None)
            assert sum(built) == rows
            assert capsys.readouterr().err == (
                f"error: [Errno 2] No such file or directory: '{missing}'\n")

    def test_fifo_of_the_own_dictionary_gives_the_in_memory_output(self, tmp_path, config_path):
        path, meas, own = self.prepared(tmp_path, config_path)
        rc, out = self.localize(tmp_path, path, meas)
        assert rc == 0
        got = through_fifo(tmp_path, own.read_bytes(),
                                lambda fifo: self.localize(tmp_path, path, meas, fifo))
        assert got == (0, out)

    def test_fifo_with_a_changed_cell_exits_2_naming_the_line(
        self, tmp_path, config_path, capsys
    ):
        path, meas, own = self.prepared(tmp_path, config_path)
        changed, _ = self.changed_cell(own)
        got = through_fifo(tmp_path, changed.read_bytes(),
                                lambda fifo: self.localize(tmp_path, path, meas, fifo))
        assert got == (2, None)
        assert capsys.readouterr().err.startswith(
            f"error: {tmp_path / 'input.fifo'}: line 5: expected im_1 = ")


class TestDictionaryBoundary:
    def test_reversed_rows_exit_2(self, tmp_path, config_path, capsys):
        cfg = base_config()
        cfg["grid"].update(nx=3, ny=1, nz=2)
        path = config_path(cfg)
        meas, dict_csv = tmp_path / "meas.csv", tmp_path / "dict.csv"
        cli.main(["simulate", "--config", path, "--out", str(meas)])
        assert cli.main(["dict", "--config", path, "--out", str(dict_csv)]) == 0
        lines = dict_csv.read_text().splitlines()
        dict_csv.write_text("\n".join(lines[:1] + lines[:0:-1]) + "\n")
        rc = cli.main(["localize", "--config", path, "--measurement", str(meas),
                       "--dict", str(dict_csv), "--out", str(tmp_path / "loc.json")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {dict_csv}: line 2: expected ix = 0 (from the config), got 2\n"
        )


class TestByteOrderMark:
    """A CSV input that starts with a UTF-8 byte-order mark reads as it does without one."""

    @pytest.mark.parametrize("marked", ["measurement", "dict", "lookup-table"])
    def test_marked_input_gives_the_same_estimate(self, tmp_path, config_path, capsys, marked):
        table = tmp_path / "disp.csv"
        table.write_text("frequency_hz,angle_deg\n60e9,-60\n63e9,0\n66e9,60\n")
        path = config_path(base_config(dispersion={"kind": "lookup_table",
                                                   "table_path": "disp.csv"}))
        meas, dict_csv = tmp_path / "meas.csv", tmp_path / "dict.csv"
        assert cli.main(["simulate", "--config", path, "--out", str(meas)]) == 0
        assert cli.main(["dict", "--config", path, "--out", str(dict_csv)]) == 0
        argv = ["localize", "--config", path, "--measurement", str(meas), "--dict", str(dict_csv)]
        assert cli.main([*argv, "--out", str(tmp_path / "plain.json")]) == 0
        file = {"measurement": meas, "dict": dict_csv, "lookup-table": table}[marked]
        file.write_bytes(codecs.BOM_UTF8 + file.read_bytes())
        assert cli.main([*argv, "--out", str(tmp_path / "marked.json")]) == 0
        assert (tmp_path / "marked.json").read_bytes() == (tmp_path / "plain.json").read_bytes()
        assert capsys.readouterr() == ("", "")

    def test_bad_line_of_a_marked_measurement_is_named(self, tmp_path, config_path, capsys):
        path = config_path(base_config())
        meas = tmp_path / "meas.csv"
        assert cli.main(["simulate", "--config", path, "--out", str(meas)]) == 0
        lines = meas.read_text().splitlines()
        lines[4] = ",".join(lines[4].split(",")[:6] + ["x"])
        meas.write_bytes(codecs.BOM_UTF8 + ("\n".join(lines) + "\n").encode())
        rc = cli.main(["localize", "--config", path, "--measurement", str(meas),
                       "--out", str(tmp_path / "loc.json")])
        assert rc == 2
        assert capsys.readouterr() == (
            "", f"error: {meas}: line 5: field 7 is not a finite number: 'x'\n")


# verb, its flags other than --config and --out ({meas} and {dict} name localize's inputs),
# and whether it prints side text: the probe summary, the compare table
OUTPUTS = [
    ("simulate", "", False),
    ("dict", "", False),
    ("localize", "--measurement {meas}", False),
    ("localize", "--measurement {meas} --dict {dict}", False),
    ("probe", "--span 1.0 --steps 11", True),
    ("compare", "", True),
    ("sweep", "--snr noiseless,0 --trials 3", False),
]


class TestOutputRule:
    @pytest.mark.parametrize("verb, flags, side", OUTPUTS, ids=[
        "simulate", "dict", "localize", "localize-dict", "probe", "compare", "sweep"])
    def test_file_bytes_are_the_stdout_of_out_dash(self, tmp_path, config_path, capsys,
                                                   verb, flags, side):
        path = config_path(base_config())
        inputs = {"meas": tmp_path / "meas.csv", "dict": tmp_path / "dict.csv"}
        for name, made_by in (("meas", "simulate"), ("dict", "dict")):
            assert cli.main([made_by, "--config", path, "--out", str(inputs[name])]) == 0
        argv = [verb, "--config", path, *flags.format(**inputs).split()]
        capsys.readouterr()
        out = tmp_path / "out"
        assert cli.main([*argv, "--out", str(out)]) == 0
        to_file = capsys.readouterr()
        assert cli.main([*argv, "--out", "-"]) == 0
        to_stdout = capsys.readouterr()
        assert to_stdout.out.encode() == out.read_bytes()
        # the side text is on stdout with a file, and on stderr when the output takes stdout
        assert to_file.err == ""
        assert to_file.out == to_stdout.err
        assert bool(to_file.out) == side
        if verb == "compare":  # with no --out it prints its table alone
            assert cli.main(argv) == 0
            assert capsys.readouterr() == (to_file.out, "")


    def test_out_of_the_longest_name_the_directory_allows(self, tmp_path, config_path):
        # the new file beside it must not need a longer name than the path's own
        out = tmp_path / ("o" * os.pathconf(tmp_path, "PC_NAME_MAX"))
        assert cli.main(["simulate", "--config", config_path(base_config()), "--out", str(out)]) == 0
        assert out.read_text().startswith("m,")
        assert sorted(p.name for p in tmp_path.iterdir() if p.suffix == ".tmp") == []

    @pytest.mark.parametrize("target", ["symlink", "fifo", "devnull"])
    def test_out_that_is_not_a_regular_file_is_written_in_place(self, tmp_path, config_path,
                                                                 target):
        path = config_path(base_config())
        argv = ["simulate", "--config", path, "--out"]
        assert cli.main([*argv, str(tmp_path / "meas.csv")]) == 0
        expected = (tmp_path / "meas.csv").read_bytes()
        if target == "symlink":
            real, link = tmp_path / "real.csv", tmp_path / "link.csv"
            real.write_text("old\n")
            link.symlink_to(real)
            assert cli.main([*argv, str(link)]) == 0
            assert link.is_symlink() and real.read_bytes() == expected
        elif target == "fifo":
            fifo, got = tmp_path / "out.fifo", []
            os.mkfifo(fifo)
            reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
            reader.start()
            assert cli.main([*argv, str(fifo)]) == 0
            reader.join(timeout=10)
            assert got == [expected]
        else:
            assert cli.main([*argv, os.devnull]) == 0
        assert sorted(p.name for p in tmp_path.iterdir() if p.suffix == ".tmp") == []


class TestStreamedDictionary:
    def test_verbs_hold_a_chunk_of_rows_not_the_dictionary(self, tmp_path, config_path):
        # 9 x 9 x 64 positions at M = 128: the entries take 21 MB, a chunk of 256 rows 1 MB,
        # and the sweep's 101 trial fingerprints 0.4 MB.
        # (At 9^3 one chunk is a third of the entries, so it could not show the difference.)
        cfg = base_config(plan={"f_min_hz": 60e9, "f_max_hz": 66e9, "n_points": 128},
                          antenna={"length_m": 0.12, "two_way": True})
        cfg["grid"].update(nx=9, ny=9, nz=64)
        path = config_path(cfg)
        entries_bytes = 9 * 9 * 64 * (2 * 128) * 16
        meas, dict_csv = tmp_path / "meas.csv", tmp_path / "dict.csv"
        assert cli.main(["simulate", "--config", path, "--out", str(meas)]) == 0
        localize = ["localize", "--config", path, "--measurement", str(meas),
                    "--out", str(tmp_path / "loc.json")]
        runs = {"dict": ["dict", "--config", path, "--out", str(dict_csv)],
                "localize": localize, "localize --dict": [*localize, "--dict", str(dict_csv)],
                "sweep": ["sweep", "--config", path, "--snr", "noiseless,10", "--trials", "100",
                          "--out", str(tmp_path / "sweep.csv")]}
        assert cli.main(runs["dict"]) == 0  # tables built on first use are not counted
        peaks = {}
        for name, argv in runs.items():
            tracemalloc.start()
            try:
                assert cli.main(argv) == 0
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert max(peaks.values()) < entries_bytes / 4, peaks
