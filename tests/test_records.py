"""Every immutable record type: construction, equality, hashing, repr, pickling.

The expected reprs are the strings the frozen dataclasses these types once were
printed, so a change of the record base shows here first.
"""

import ast
import copy
import pickle
from pathlib import Path

import numpy as np
import pytest

from sweepsense import cli
from sweepsense.archcomp import ArchitectureRow, ArchitectureSpec, ComparisonReport
from sweepsense.cli import SweepPoint
from sweepsense.core import (
    ChirpConfig,
    FrequencyPlan,
    Measurement,
    NoiseConfig,
    Scene,
    Target,
)
from sweepsense.dispersion import LinearSineDispersion, LookupTableDispersion
from sweepsense.fingerprint import (
    AmbiguityCurve,
    Dictionary,
    Fingerprint,
    LocalizationResult,
    PositionGrid,
    build_fingerprint,
)
from sweepsense.synth import AntennaModel

SRC = Path(__file__).resolve().parents[1] / "src" / "sweepsense"

PLAN = FrequencyPlan(60e9, 66e9, 2)
LINEAR = LinearSineDispersion(60e9, 66e9, -0.5, 0.5)
GRID = PositionGrid((-0.1, 0.1), (-0.1, 0.1), (2.0, 3.0), 2, 2, 2)
SPEC = {"name": "FaA", "rf_chains": 1, "physical_size_m": 0.12, "bandwidth_hz": 6e9,
        "n_samples": 128, "aperture_kind": "virtual", "f_ref_hz": 63e9, "power_mw": 850.0,
        "cost_usd": 55.0, "fov_deg": 60.0, "eta_reference": 926.0, "observability": "Low",
        "noise_rejection": "Medium"}
ROW = {"name": "FaA", "rf_chains": 1, "physical_size_m": 0.12, "aperture_kind": "virtual",
       "range_resolution_m": 0.025, "effective_aperture_m": 0.3,
       "angular_resolution_rad": 0.016, "angular_resolution_deg": 0.9, "cell_volume_m3": 1e-5,
       "eta_computed": 520.0, "eta_reference": 926.0, "eta_consistent": False,
       "power_mw": 850.0, "cost_usd": 55.0, "observability": "Low", "noise_rejection": None}

# (record type, every field in annotation order, one field changed)
RECORDS = [
    (FrequencyPlan, {"f_min": 60e9, "f_max": 66e9, "n_points": 2}, {"n_points": 3}),
    (ChirpConfig, {"duration": 100e-6, "guard": 5e-6, "slope": 4.6875e11, "n_samples": 64,
                   "sample_rate": 1e6}, {"n_samples": 32}),
    (Target, {"position": (0.0, 0.0, 3.0), "refl_x": 1 + 0j, "refl_y": 0.5j}, {"refl_y": 1j}),
    (NoiseConfig, {"snr_db": 10.0, "seed": 7}, {"seed": 8}),
    (Scene, {"targets": (Target((0.0, 0.0, 3.0)),), "noise": NoiseConfig(10.0, 7)},
     {"targets": ()}),
    (Measurement, {"plan": PLAN, "s_x": np.array([1.0, 2j]), "s_y": np.array([3.0, 4.0])},
     {"s_y": np.array([3.0, 5.0])}),
    (LinearSineDispersion, {"f_min": 60e9, "f_max": 66e9, "theta_min": -0.5, "theta_max": 0.5},
     {"theta_max": 0.6}),
    (LookupTableDispersion, {"frequencies": np.array([60e9, 66e9]),
                             "angles": np.array([-0.5, 0.5])}, {"angles": np.array([-0.5, 0.6])}),
    (AntennaModel, {"length": 0.12, "two_way": True}, {"two_way": False}),
    (Fingerprint, {"vector": np.array([0.6, 0.8j, 1.0, 0.0]), "plan": PLAN},
     {"vector": np.array([0.8, 0.6j, 1.0, 0.0])}),
    (PositionGrid, {"x_range": (-0.1, 0.1), "y_range": (-0.1, 0.1), "z_range": (2.0, 3.0),
                    "nx": 2, "ny": 2, "nz": 2}, {"nz": 3}),
    (Dictionary, {"grid": GRID, "plan": PLAN, "model": LINEAR, "antenna": AntennaModel()},
     {"antenna": AntennaModel(0.03)}),
    (LocalizationResult, {"position": np.array([0.0, 0.1, 3.0]), "score": 0.9, "index": 4},
     {"index": 5}),
    (AmbiguityCurve, {"similarities": np.array([0.5, 1.0, 0.5]), "width": 1.0},
     {"width": None}),
    (ArchitectureSpec, SPEC, {"eta_reference": None}),
    (ArchitectureRow, ROW, {"eta_consistent": True}),
    (ComparisonReport, {"r_query_m": 3.0, "rows": (ArchitectureRow(**ROW),),
                        "eta_ratios_computed": {"FaA/FaA": 1.0}, "eta_ratios_reference": {}},
     {"eta_ratios_reference": {"FaA/FaA": 1.0}}),
    (SweepPoint, {"snr_db": None, "rmse": 0.5, "errors": (0.0, 1.0)}, {"snr_db": 10.0}),
]

_PLAN = "FrequencyPlan(f_min=60000000000.0, f_max=66000000000.0, n_points=2)"
_ROW = ("ArchitectureRow(name='FaA', rf_chains=1, physical_size_m=0.12, aperture_kind='virtual', "
        "range_resolution_m=0.025, effective_aperture_m=0.3, angular_resolution_rad=0.016, "
        "angular_resolution_deg=0.9, cell_volume_m3=1e-05, eta_computed=520.0, "
        "eta_reference=926.0, eta_consistent=False, power_mw=850.0, cost_usd=55.0, "
        "observability='Low', noise_rejection=None)")
REPRS = {
    FrequencyPlan: _PLAN,
    ChirpConfig: "ChirpConfig(duration=0.0001, guard=5e-06, slope=468750000000.0, n_samples=64, "
                 "sample_rate=1000000.0)",
    Target: "Target(position=(0.0, 0.0, 3.0), refl_x=(1+0j), refl_y=0.5j)",
    NoiseConfig: "NoiseConfig(snr_db=10.0, seed=7)",
    Scene: "Scene(targets=(Target(position=(0.0, 0.0, 3.0), refl_x=(1+0j), refl_y=(1+0j)),), "
           "noise=NoiseConfig(snr_db=10.0, seed=7))",
    Measurement: f"Measurement(plan={_PLAN})",
    LinearSineDispersion: "LinearSineDispersion(f_min=60000000000.0, f_max=66000000000.0, "
                          "theta_min=-0.5, theta_max=0.5)",
    LookupTableDispersion: "LookupTableDispersion(frequencies=array([6.0e+10, 6.6e+10]), "
                           "angles=array([-0.5,  0.5]))",
    AntennaModel: "AntennaModel(length=0.12, two_way=True)",
    Fingerprint: f"Fingerprint(plan={_PLAN})",
    PositionGrid: "PositionGrid(x_range=(-0.1, 0.1), y_range=(-0.1, 0.1), z_range=(2.0, 3.0), "
                  "nx=2, ny=2, nz=2)",
    Dictionary: "Dictionary(grid=PositionGrid(x_range=(-0.1, 0.1), y_range=(-0.1, 0.1), "
                f"z_range=(2.0, 3.0), nx=2, ny=2, nz=2), plan={_PLAN}, "
                "model=LinearSineDispersion(f_min=60000000000.0, f_max=66000000000.0, "
                "theta_min=-0.5, theta_max=0.5), antenna=AntennaModel(length=0.12, two_way=True))",
    LocalizationResult: "LocalizationResult(position=array([0. , 0.1, 3. ]), score=0.9, index=4)",
    AmbiguityCurve: "AmbiguityCurve(similarities=array([0.5, 1. , 0.5]), width=1.0)",
    ArchitectureSpec: "ArchitectureSpec(name='FaA', rf_chains=1, physical_size_m=0.12, "
                      "bandwidth_hz=6000000000.0, n_samples=128, aperture_kind='virtual', "
                      "f_ref_hz=63000000000.0, power_mw=850.0, cost_usd=55.0, fov_deg=60.0, "
                      "eta_reference=926.0, observability='Low', noise_rejection='Medium')",
    ArchitectureRow: _ROW,
    ComparisonReport: f"ComparisonReport(r_query_m=3.0, rows=({_ROW},), "
                      "eta_ratios_computed={'FaA/FaA': 1.0}, eta_ratios_reference={})",
    SweepPoint: "SweepPoint(snr_db=None, rmse=0.5, errors=(0.0, 1.0))",
}


def values(record) -> list:
    return [getattr(record, name) for name in type(record).__annotations__]


def same(a, b) -> bool:
    """Same type and field values, arrays compared element by element."""
    return type(a) is type(b) and all(
        np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
        for x, y in zip(values(a), values(b), strict=True))


def holds_array(record) -> bool:
    # a tuple of fields with an array compares it as a bool: ambiguous for 2+ elements
    return any(isinstance(v, np.ndarray) for v in values(record))


def record_types_in_src() -> set[str]:
    """Names of the classes in src whose body annotates a name: the record types."""
    found = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(stmt, ast.AnnAssign) for stmt in node.body):
                found.add(node.name)
    return found


def test_the_table_holds_every_record_type_and_each_field_in_order():
    assert {cls.__name__ for cls, _, _ in RECORDS} == record_types_in_src()
    assert len(RECORDS) == 18 and set(REPRS) == {cls for cls, _, _ in RECORDS}
    for cls, fields, change in RECORDS:
        assert list(cls.__annotations__) == list(fields), cls.__name__
        assert set(change) <= set(fields)


def ids(rows):
    return [cls.__name__ for cls, _, _ in rows]


@pytest.mark.parametrize("cls, fields, change", RECORDS, ids=ids(RECORDS))
class TestRecord:
    def test_equal_arguments_give_equal_records_and_hashes(self, cls, fields, change):
        a, b, positional = cls(**fields), cls(**fields), cls(*fields.values())
        assert same(a, b) and same(a, positional)
        if not holds_array(a):
            assert a == b == positional and not a != b
        assert a != "a record" and not a == "a record"
        try:
            expected = hash(tuple(values(a)))
        except TypeError:  # an array or a dict field is unhashable, and so is the record
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b) == hash(positional) == expected

    def test_one_changed_field_gives_an_unequal_record(self, cls, fields, change):
        a, b = cls(**fields), cls(**{**fields, **change})
        assert not same(a, b)
        if not holds_array(a):
            assert a != b and not a == b

    def test_fields_cannot_be_set_or_deleted(self, cls, fields, change):
        record = cls(**fields)
        for name, value in change.items():
            with pytest.raises(AttributeError):
                setattr(record, name, value)
        for name in fields:
            with pytest.raises(AttributeError):
                delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert same(record, cls(**fields)) and not hasattr(record, "extra")

    def test_repr_is_the_dataclass_repr(self, cls, fields, change):
        assert repr(cls(**fields)) == REPRS[cls]

    def test_pickle_and_copy_round_trips_give_equal_records(self, cls, fields, change):
        record = cls(**fields)
        for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record),
                     copy.deepcopy(record)):
            assert same(twin, record)
            if not holds_array(record):
                assert twin == record
            for name in cls._arrays:  # the constructor rebuilt the twin: its arrays are its own
                array = getattr(twin, name)
                assert not array.flags.writeable, name
                assert not np.shares_memory(array, getattr(record, name)), name


# the types built from arrays or sequences, and an output each computes from them
OUTPUTS = {
    Measurement: lambda r: build_fingerprint(r).vector,
    LookupTableDispersion: lambda r: r.beam_angle(np.array([60e9, 63e9, 66e9])),
    Fingerprint: lambda r: r.vector,  # no method reads it
    PositionGrid: lambda r: r.points(),
    LocalizationResult: lambda r: r.position,
    AmbiguityCurve: lambda r: r.similarities,
}
OWNERS = [row for row in RECORDS if row[0] in OUTPUTS]


def test_every_array_field_is_declared_in_the_class_arrays():
    # the constructor copies and freezes exactly the fields a class declares in ``arrays``
    for cls, _, _ in RECORDS:
        annotated = [name for name, kind in cls.__annotations__.items()
                     if kind in ("np.ndarray", np.ndarray)]
        assert list(cls._arrays) == annotated, cls.__name__
        assert not annotated or cls in OUTPUTS, cls.__name__  # so its ownership is tested


def fresh(value):
    """A new copy of a field value that its caller can write: an array, or a tuple as a list."""
    if isinstance(value, np.ndarray):
        return value.copy()
    return list(value) if isinstance(value, tuple) else value


@pytest.mark.parametrize("cls, fields, change", OWNERS, ids=ids(OWNERS))
def test_a_record_shares_no_state_with_its_callers_inputs(cls, fields, change):
    inputs = {name: fresh(value) for name, value in fields.items()}
    record = cls(**inputs)
    kept, output = copy.deepcopy(values(record)), OUTPUTS[cls](record).copy()
    arrays = [value for value in values(record) if isinstance(value, np.ndarray)]
    assert all(not array.flags.writeable for array in arrays)
    for value in inputs.values():
        if isinstance(value, np.ndarray):
            assert value.flags.writeable
            assert not any(np.shares_memory(array, value) for array in arrays)
        if isinstance(value, (np.ndarray, list)):
            for i in range(len(value)):  # the caller writes every element
                value[i] = value[-1] + 1
    assert all(np.array_equal(a, b) for a, b in zip(values(record), kept, strict=True))
    assert np.array_equal(OUTPUTS[cls](record), output) and same(record, cls(**fields))
    if not holds_array(record):
        assert hash(record) == hash(cls(**fields))


class TestBinding:
    def test_a_missing_field_takes_its_class_default(self):
        assert ChirpConfig() == ChirpConfig(100e-6, 5e-6, 4.6875e11, 64, 1e6)
        assert ChirpConfig(n_samples=32).duration == 100e-6
        assert Target((0.0, 0.0, 3.0), 2.0).refl_y == 2.0  # __post_init__ copies refl_x
        assert Scene().targets == () and Scene().noise == NoiseConfig()

    def test_post_init_runs_on_the_bound_fields(self):
        assert Target(refl_x=1j, position=[0, 0, 3]).position == (0.0, 0.0, 3.0)
        with pytest.raises(ValueError, match="n_points must be >= 1"):
            FrequencyPlan(60e9, 66e9, n_points=0)

    @pytest.mark.parametrize("args, kwargs", [
        ((60e9,), {"n_points": 2}),  # f_max has no default
        ((60e9, 66e9, 2, 3), {}),  # one positional too many
        ((60e9, 66e9, 2), {"f_min": 60e9}),  # given twice
        ((60e9, 66e9, 2), {"step": 1e9}),  # not a field
    ], ids=["missing", "too-many", "twice", "unknown"])
    def test_a_bad_binding_raises_type_error(self, args, kwargs):
        with pytest.raises(TypeError):
            FrequencyPlan(*args, **kwargs)


ARCHITECTURE_KINDS = {
    "name": "a string", "rf_chains": "an integer", "physical_size_m": "a finite number",
    "bandwidth_hz": "a finite number", "n_samples": "an integer", "aperture_kind": "a string",
    "f_ref_hz": "a finite number", "power_mw": "a finite number", "cost_usd": "a finite number",
    "fov_deg": "a finite number", "eta_reference": "a finite number",
    "observability": "a string", "noise_rejection": "a string",
}
OPTIONAL = ("eta_reference", "observability", "noise_rejection")


class TestParseArchitectures:
    def test_every_key_is_read_as_its_annotated_kind(self):
        assert list(ARCHITECTURE_KINDS) == list(ArchitectureSpec.__annotations__)
        assert cli.parse_architectures([SPEC]) == [ArchitectureSpec(**SPEC)]
        for key, kind in ARCHITECTURE_KINDS.items():
            with pytest.raises(cli.ConfigError) as exc:
                cli.parse_architectures([{**SPEC, key: []}])
            assert str(exc.value) == f"section 'architectures[0]': key '{key}' must be {kind}"

    def test_the_three_fields_with_a_default_may_be_left_out(self):
        required = {key: v for key, v in SPEC.items() if key not in OPTIONAL}
        [spec] = cli.parse_architectures([required])
        assert [getattr(spec, key) for key in OPTIONAL] == [None, None, None]
        for key in required:
            with pytest.raises(cli.ConfigError) as exc:
                cli.parse_architectures([{k: v for k, v in SPEC.items() if k != key}])
            assert str(exc.value) == f"section 'architectures[0]': missing key(s) ['{key}']"
