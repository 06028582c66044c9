"""Frequency-scanned virtual-aperture near-field sensing simulator.

Synthesizes single-RF-chain dual-channel frequency-sweep measurements,
builds and matches spatial fingerprints for 3-D localization, and derives
architecture-comparison metrics for sensing front ends under shared size
and bandwidth constraints.
"""

from sweepsense.core import (
    SPEED_OF_LIGHT,
    AliasingError,
    BandError,
    ChannelAxis,
    ChirpConfig,
    DegenerateMeasurementError,
    FrequencyPlan,
    GeometryError,
    Measurement,
    NoiseConfig,
    Scene,
    Target,
    frequency_grid,
    range_of,
)
from sweepsense.dispersion import (
    LinearSineDispersion,
    LookupTableDispersion,
)
from sweepsense.fingerprint import (
    AmbiguityCurve,
    Dictionary,
    Fingerprint,
    LocalizationResult,
    PositionGrid,
    ambiguity_probe,
    build_dictionary,
    build_fingerprint,
    export_dictionary,
    import_dictionary,
    localize,
)
from sweepsense.synth import (
    AntennaModel,
    dechirp_range_profile,
    phase_curvature,
    simulate_measurement,
)

__version__ = "0.1.0"

__all__ = [
    "SPEED_OF_LIGHT",
    "AliasingError",
    "AmbiguityCurve",
    "AntennaModel",
    "BandError",
    "ChannelAxis",
    "ChirpConfig",
    "DegenerateMeasurementError",
    "Dictionary",
    "Fingerprint",
    "FrequencyPlan",
    "GeometryError",
    "LinearSineDispersion",
    "LocalizationResult",
    "LookupTableDispersion",
    "Measurement",
    "NoiseConfig",
    "PositionGrid",
    "Scene",
    "Target",
    "ambiguity_probe",
    "build_dictionary",
    "build_fingerprint",
    "dechirp_range_profile",
    "export_dictionary",
    "frequency_grid",
    "import_dictionary",
    "localize",
    "phase_curvature",
    "range_of",
    "simulate_measurement",
]
