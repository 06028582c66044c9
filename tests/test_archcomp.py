"""Architecture-comparison metrics and report assembly."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sweepsense.archcomp import (
    ArchitectureSpec,
    NonFiniteMetricError,
    RatioKeyError,
    angular_resolution_mimo,
    angular_resolution_virtual,
    compare,
    default_architectures,
    effective_aperture,
    efficiency,
    range_resolution,
    resolution_cell_volume,
)
from sweepsense.core import SPEED_OF_LIGHT


def edited(spec: ArchitectureSpec, **changes) -> ArchitectureSpec:
    """A new spec with the fields of ``spec``, ``changes`` replacing some of them."""
    fields = {name: getattr(spec, name) for name in ArchitectureSpec.__annotations__}
    return ArchitectureSpec(**{**fields, **changes})


class TestRangeResolution:
    def test_six_gigahertz(self):
        # c / (2 * 6 GHz) = 0.0249827 m, within 0.1% of the round 2.5 cm
        assert range_resolution(6e9) == pytest.approx(0.024982704833, rel=1e-9)
        assert abs(range_resolution(6e9) - 0.025) / 0.025 < 1e-3

    def test_half_c_bandwidth_gives_one_meter(self):
        assert range_resolution(SPEED_OF_LIGHT / 2) == pytest.approx(1.0, rel=1e-15)

    def test_three_gigahertz(self):
        assert range_resolution(3e9) == pytest.approx(0.049965409667, rel=1e-9)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            range_resolution(0.0)


class TestEffectiveAperture:
    def test_128_points_at_63ghz(self):
        # 128 * (c / 63 GHz) / 2 = 304.55 mm
        assert effective_aperture(128, 63e9) == pytest.approx(0.30455106844, rel=1e-9)

    def test_64_points_at_63ghz(self):
        assert effective_aperture(64, 63e9) == pytest.approx(0.15227553422, rel=1e-9)

    def test_unit_wavelength(self):
        assert effective_aperture(2, SPEED_OF_LIGHT) == pytest.approx(1.0, rel=1e-15)


class TestAngularResolution:
    def test_virtual_is_two_over_n(self):
        d = effective_aperture(128, 63e9)
        theta = angular_resolution_virtual(63e9, d)
        assert theta == pytest.approx(2.0 / 128.0, rel=1e-12)
        assert math.degrees(theta) == pytest.approx(0.8952465549, rel=1e-9)

    def test_virtual_64(self):
        d = effective_aperture(64, 63e9)
        assert math.degrees(angular_resolution_virtual(63e9, d)) == pytest.approx(
            1.7904931098, rel=1e-9
        )

    @given(f=st.floats(1e9, 1e12), n=st.integers(1, 4096))
    @settings(max_examples=100, deadline=None)
    def test_virtual_frequency_independent(self, f, n):
        theta = angular_resolution_virtual(f, effective_aperture(n, f))
        assert theta == pytest.approx(2.0 / n, rel=1e-12)

    def test_aperture_equal_wavelength_is_one_radian(self):
        assert angular_resolution_virtual(SPEED_OF_LIGHT, 1.0) == pytest.approx(1.0)

    def test_mimo_at_60ghz(self):
        # (c/60 GHz) / (0.12 * sqrt(3)) = 0.0240396 rad = 1.3774 deg
        theta = angular_resolution_mimo(60e9, 0.12)
        assert theta == pytest.approx(0.024039618934, rel=1e-9)
        assert math.degrees(theta) == pytest.approx(1.377368706, rel=1e-9)

    def test_mimo_identity_scale(self):
        length = SPEED_OF_LIGHT / math.sqrt(3.0)
        assert angular_resolution_mimo(1.0, length) == pytest.approx(1.0, rel=1e-12)

    def test_mimo_at_63ghz(self):
        assert angular_resolution_mimo(63e9, 0.12) == pytest.approx(
            (SPEED_OF_LIGHT / 63e9) / (0.12 * math.sqrt(3.0)), rel=1e-12
        )


class TestCellVolume:
    def test_faa_single_cell(self):
        v = resolution_cell_volume(2 / 128, 2 / 128, range_resolution(6e9), 3.0)
        assert v == pytest.approx(5.489363855e-05, rel=1e-9)

    def test_faa_dual_cell(self):
        v = resolution_cell_volume(2 / 64, 2 / 64, range_resolution(6e9), 3.0)
        assert v == pytest.approx(2.195745542e-04, rel=1e-9)

    def test_unit_cell(self):
        assert resolution_cell_volume(1.0, 1.0, 1.0, 1.0) == 1.0


class TestEfficiency:
    def test_printed_fraction_values(self):
        # the published table's own fraction inputs
        assert efficiency(0.0157, 1, 0.12) == pytest.approx(530.7855626, rel=1e-9)
        assert efficiency(0.0314, 2, 0.12) == pytest.approx(132.6963907, rel=1e-9)
        assert efficiency(0.0244, 4, 0.12) == pytest.approx(85.38251366, rel=1e-9)

    def test_identity(self):
        assert efficiency(1.0, 1, 1.0) == 1.0

    @given(
        theta=st.floats(1e-4, 1.0),
        chains=st.integers(1, 16),
        length=st.floats(1e-3, 10.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_scaling_laws(self, theta, chains, length):
        base = efficiency(theta, chains, length)
        assert efficiency(theta, chains, 2 * length) == pytest.approx(base / 2, rel=1e-12)
        assert efficiency(2 * theta, chains, length) == pytest.approx(base / 2, rel=1e-12)
        assert efficiency(theta, 2 * chains, length) == pytest.approx(base / 2, rel=1e-12)


class TestCompare:
    @pytest.mark.parametrize("r_query", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_query_range_not_finite_and_positive(self, r_query):
        with pytest.raises(ValueError, match="finite and positive"):
            compare(list(default_architectures()), r_query=r_query)

    def test_default_trio_rows(self):
        report = compare(list(default_architectures()))
        assert [r.name for r in report.rows] == ["FaA-Single", "FaA-Dual", "1T3R-MIMO"]
        single, dual, mimo = report.rows
        assert single.range_resolution_m == pytest.approx(0.024982704833, rel=1e-9)
        assert single.effective_aperture_m == pytest.approx(0.30455106844, rel=1e-9)
        assert single.angular_resolution_deg == pytest.approx(0.8952465549, rel=1e-9)
        assert single.eta_computed == pytest.approx(533.3333333, rel=1e-9)
        assert single.eta_reference == 926.0
        assert single.eta_consistent is False
        assert single.power_mw == 850.0 and single.cost_usd == 55.0
        assert dual.effective_aperture_m == pytest.approx(0.15227553422, rel=1e-9)
        assert dual.angular_resolution_deg == pytest.approx(1.7904931098, rel=1e-9)
        assert mimo.angular_resolution_deg == pytest.approx(1.377368706, rel=1e-9)
        assert mimo.effective_aperture_m == 0.12

    def test_mimo_cell_uses_fov_limited_axis(self):
        report = compare(list(default_architectures()), r_query=3.0)
        mimo = report.rows[2]
        theta = angular_resolution_mimo(60e9, 0.12)
        expected = (theta * 3.0) * (2 * 3.0 * math.tan(math.radians(60.0))) * (
            range_resolution(6e9)
        )
        assert mimo.cell_volume_m3 == pytest.approx(expected, rel=1e-12)
        assert mimo.cell_volume_m3 == pytest.approx(1.872406622e-02, rel=1e-9)

    def test_reference_ratios(self):
        report = compare(list(default_architectures()))
        assert report.eta_ratios_reference["FaA-Single/1T3R-MIMO"] == pytest.approx(
            926 / 58, rel=1e-12
        )
        assert report.eta_ratios_reference["FaA-Dual/1T3R-MIMO"] == pytest.approx(
            231 / 58, rel=1e-12
        )

    def test_single_spec_has_no_ratios(self):
        report = compare([default_architectures()[0]])
        assert len(report.rows) == 1
        assert report.eta_ratios_computed == {}
        assert report.eta_ratios_reference == {}

    def test_rows_recomputable_from_operations(self):
        spec = default_architectures()[0]
        row = compare([spec]).rows[0]
        d = effective_aperture(spec.n_samples, spec.f_ref_hz)
        theta = angular_resolution_virtual(spec.f_ref_hz, d)
        assert row.angular_resolution_rad == pytest.approx(theta, rel=1e-12)
        assert row.eta_computed == pytest.approx(
            efficiency(theta, spec.rf_chains, spec.physical_size_m), rel=1e-12
        )
        assert row.cell_volume_m3 == pytest.approx(
            resolution_cell_volume(theta, theta, range_resolution(spec.bandwidth_hz), 3.0),
            rel=1e-12,
        )

    def test_distinct_names_give_every_ordered_pair_its_ratio_in_row_order(self):
        specs = [edited(spec, name=name)
                 for spec, name in zip(default_architectures(), ["A/B", "C", "A"])]
        report = compare(specs)
        assert list(report.eta_ratios_computed) == ["A/B/C", "A/B/A", "C/A/B", "C/A", "A/A/B",
                                                    "A/C"]
        assert report.eta_ratios_computed["A/B/C"] == (report.rows[0].eta_computed
                                                       / report.rows[1].eta_computed)

    @pytest.mark.parametrize("names, message", [
        # two specs of one name give 'A/A' twice; 'A/B' over 'C' and 'A' over 'B/C' agree
        (["A", "A", "B"], "architectures[1]/architectures[0] repeats the efficiency ratio key "
                          "'A/A' of architectures[0]/architectures[1]"),
        (["A/B", "C", "A", "B/C"], "architectures[2]/architectures[3] repeats the efficiency "
                                   "ratio key 'A/B/C' of architectures[0]/architectures[1]"),
    ])
    def test_repeated_ratio_key_raises_naming_both_pairs(self, names, message):
        trio = default_architectures()
        specs = [edited(trio[i % 3], name=name) for i, name in enumerate(names)]
        with pytest.raises(RatioKeyError) as exc:
            compare(specs)
        assert str(exc.value) == f"architectures: {message}"

    def test_two_equal_specs_of_one_name_are_still_two_pairs(self):
        spec = default_architectures()[0]
        with pytest.raises(RatioKeyError, match=r"^architectures: architectures\[1\]/"
                                                r"architectures\[0\] repeats "):
            compare([spec, spec])

    def test_missing_reference_leaves_flag_unset(self):
        spec = ArchitectureSpec(
            name="bare",
            rf_chains=1,
            physical_size_m=0.12,
            bandwidth_hz=6e9,
            n_samples=16,
            aperture_kind="virtual",
            f_ref_hz=63e9,
            power_mw=100.0,
            cost_usd=10.0,
            fov_deg=60.0,
        )
        row = compare([spec]).rows[0]
        assert row.eta_reference is None
        assert row.eta_consistent is None

    def test_to_dict_and_text(self):
        report = compare(list(default_architectures()))
        payload = report.to_dict()
        assert {r["name"] for r in payload["rows"]} == {
            "FaA-Single",
            "FaA-Dual",
            "1T3R-MIMO",
        }
        text = report.to_text()
        assert "FaA-Single" in text and "eta_ref" in text
        assert "disagrees with the formula" in text

    def test_qualitative_strings_pass_through(self):
        report = compare(list(default_architectures()))
        assert report.rows[0].observability == "Low"
        assert report.rows[2].noise_rejection == "High"

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            compare([])

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            ArchitectureSpec(
                name="bad",
                rf_chains=0,
                physical_size_m=0.12,
                bandwidth_hz=6e9,
                n_samples=4,
                aperture_kind="virtual",
                f_ref_hz=63e9,
                power_mw=1.0,
                cost_usd=1.0,
                fov_deg=60.0,
            )


NAN = math.nan


@pytest.mark.parametrize("make, message", [
    (lambda: range_resolution(NAN), "bandwidth must be positive"),
    (lambda: range_resolution(math.inf), "bandwidth must be positive"),
    (lambda: effective_aperture(0, 63e9), "sample count must be >= 1"),
    (lambda: effective_aperture(128, NAN), "reference frequency must be positive"),
    (lambda: effective_aperture(128, 0.0), "reference frequency must be positive"),
    (lambda: angular_resolution_virtual(63e9, NAN), "aperture must be positive"),
    (lambda: angular_resolution_virtual(63e9, 0.0), "aperture must be positive"),
    (lambda: angular_resolution_mimo(60e9, NAN), "array length must be positive"),
    (lambda: angular_resolution_mimo(60e9, -1.0), "array length must be positive"),
    (lambda: resolution_cell_volume(NAN, 1.0, 1.0, 1.0), "cell factors must all be positive"),
    (lambda: resolution_cell_volume(1.0, 1.0, 1.0, 0.0), "cell factors must all be positive"),
    (lambda: efficiency(NAN, 1, 0.12), "efficiency inputs must all be positive"),
    (lambda: efficiency(0.01, 0, 0.12), "efficiency inputs must all be positive"),
    (lambda: efficiency(0.01, 1, NAN), "efficiency inputs must all be positive"),
])
def test_closed_forms_reject_nan_and_nonpositive_inputs(make, message):
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == message


REAL_RANGE = "physical_size_m, bandwidth_hz and f_ref_hz must be finite and positive"


@pytest.mark.parametrize("field, value, message", [
    *((field, value, REAL_RANGE) for field in ("physical_size_m", "bandwidth_hz", "f_ref_hz")
      for value in (NAN, math.inf, 0.0)),
    ("n_samples", 0, "n_samples must be >= 1"),
    ("aperture_kind", "hybrid", "aperture_kind must be 'virtual' or 'physical'"),
    ("fov_deg", NAN, "fov_deg must lie in (0, 90)"),
    ("eta_reference", NAN, "eta_reference must be > 0"),
    ("eta_reference", math.inf, "power_mw, cost_usd and eta_reference must be finite"),
    ("power_mw", NAN, "power_mw, cost_usd and eta_reference must be finite"),
    ("cost_usd", -math.inf, "power_mw, cost_usd and eta_reference must be finite"),
    *(pytest.param(field, 10**400,
                   f"{field} must be at most 1.7976931348623157e+308, the largest double",
                   id=f"{field}-10**400") for field in ("rf_chains", "n_samples")),
])
def test_spec_rejects_values_out_of_range(field, value, message):
    with pytest.raises(ValueError) as exc:
        edited(default_architectures()[0], **{field: value})
    assert str(exc.value) == message


def test_compare_of_a_nan_size_raises_the_range_message():
    with pytest.raises(ValueError, match=f"^{REAL_RANGE}$"):
        compare([edited(default_architectures()[0], physical_size_m=NAN)])


@pytest.mark.parametrize("edits, message", [
    ({0: {"f_ref_hz": 1e-300}}, "architectures[0]: derived effective_aperture_m is inf"),
    ({1: {"physical_size_m": 1e-310}}, "architectures[1]: derived eta_computed is inf"),
    ({2: {"bandwidth_hz": 1e-320}}, "architectures[2]: derived range_resolution_m is inf"),
    # the earlier field of a row is named, before a closed form is given it
    ({0: {"bandwidth_hz": 1e-320, "f_ref_hz": 1e-300}},
     "architectures[0]: derived range_resolution_m is inf"),
    ({2: {"f_ref_hz": 1e-300}}, "architectures[2]: derived angular_resolution_rad is inf"),
    ({2: {"f_ref_hz": 1e-299, "physical_size_m": 1.0}},
     "architectures[2]: derived angular_resolution_deg is inf"),
    ({0: {"physical_size_m": 1e-300}, 1: {"physical_size_m": 1e300}},
     "architectures: eta_ratios_computed 'FaA-Single/FaA-Dual' is inf"),
    ({0: {"eta_reference": 1e300}, 1: {"eta_reference": 1e-300}},
     "architectures: eta_ratios_reference 'FaA-Single/FaA-Dual' is inf"),
])
def test_compare_raises_at_the_first_metric_that_is_not_finite(edits, message):
    specs = [edited(spec, **edits.get(i, {})) for i, spec in enumerate(default_architectures())]
    with pytest.raises(NonFiniteMetricError) as exc:
        compare(specs)
    assert isinstance(exc.value, ValueError)
    assert str(exc.value) == f"{message}, not a finite number"


@pytest.mark.parametrize("edits, message", [
    ({2: {"f_ref_hz": 1e300, "physical_size_m": 1e300}},
     "architectures[2]: derived angular_resolution_rad is 0.0"),
    ({1: {"physical_size_m": 1e308}}, "architectures[1]: derived eta_computed is 0.0"),
    ({0: {"bandwidth_hz": 1e308}}, "architectures[0]: derived range_resolution_m is 0.0"),
    ({0: {"n_samples": 10**300}}, "architectures[0]: derived cell_volume_m3 is 0.0"),
    ({0: {"eta_reference": 1e-300}, 1: {"eta_reference": 1e300}},
     "architectures: eta_ratios_reference 'FaA-Single/FaA-Dual' is 0.0"),
])
def test_compare_raises_at_the_first_metric_that_underflows(edits, message):
    specs = [edited(spec, **edits.get(i, {})) for i, spec in enumerate(default_architectures())]
    with pytest.raises(NonFiniteMetricError) as exc:
        compare(specs)
    assert str(exc.value) == f"{message}, not a number > 0"
