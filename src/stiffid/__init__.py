"""Identification of 6x6 link compliance matrices from displacement fields."""

from .compliance import (
    ComplianceMatrix,
    Wrench,
    assemble_canonical,
    assemble_overdetermined,
    canonical_wrench_scheme,
    compliance_from_json_dict,
    invert_to_stiffness,
    load_compliance_json,
    save_compliance_json,
    symmetrize,
)
from .errors import (
    AlreadyCentered,
    DegenerateGeometry,
    EmptySelection,
    EntryOutOfRange,
    FieldFileError,
    InsufficientDof,
    InvalidArgument,
    InvalidPattern,
    LinearizationWarning,
    ManifestError,
    MissingCovariance,
    NonFiniteCompliance,
    NonFiniteDeflection,
    NotCanonical,
    RankDeficientWrenches,
    SingularCompliance,
    StiffidError,
    TooFewRemaining,
    ZeroMagnitude,
)
from .estimation import (
    AngleExtractionMethod,
    Deflection,
    FitResult,
    differential_rotation,
    estimate_lin,
    estimate_svd,
    extract_angles,
    moment_matrix,
    rotation_xyz,
    skew,
)
from .field import (
    DisplacementField,
    SensorRegion,
    center_field,
    read_field_csv,
    select_sensor,
    write_field_csv,
)
from .pipeline import (
    BatchIdentification,
    IdentificationResult,
    IdentifyOptions,
    LoadCase,
    identify_batch,
    run_identification,
)
from .stats import (
    NoiseEstimate,
    SignificanceReport,
    deflection_covariance,
    estimate_sigma,
    filter_outliers,
    significance_test,
)
from .synthetic import (
    DEFAULT_LOADS,
    AmplitudeStudy,
    BeamSpec,
    MeshPattern,
    apply_rigid_transform,
    beam_compliance_oracle,
    beam_load_cases,
    beam_tip_field,
    generate_pattern,
    run_amplitude_study,
    run_noise_study,
    run_zero_detection_study,
)

__version__ = "0.1.0"
