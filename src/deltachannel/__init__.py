"""Nonperturbative qubit channel between two delta-switched detectors.

Field-side statistics (closed forms plus a quadrature oracle), the induced
qubit channel, its classical capacity with a brute-force cross-check, and a
deterministic sweep CLI.
"""
from __future__ import annotations

from .capacity import (
    UNASSISTED_QUANTUM_CAPACITY,
    CapacityResult,
    Ensemble,
    binary_entropy,
    capacity_bruteforce,
    capacity_closed_form,
    holevo_chi,
    tune_bob_phase,
    von_neumann_entropy,
)
from .channel import (
    ChannelOutput,
    ChannelParams,
    QubitState,
    apply,
    choi_matrix,
    eigenvalues_analytic,
    output_bloch_affine,
    theta,
)
from .errors import ConfigError, ConsistencyError, QuadratureError
from .field import (
    VACUUM,
    FieldStateKind,
    FieldStateSpec,
    FieldStatistics,
    PairGeometry,
    SmearingSpec,
    assemble_statistics,
    commutator_closed,
    cross_real_closed,
    norm_sq_closed,
    norm_sq_quadrature,
    thermal,
    wightman_cross_quadrature,
)
from .selftest import selftest
from .sweep import (
    COLUMNS,
    SCHEMA_VERSION,
    AxisSpec,
    SweepConfig,
    evaluate_point,
    format_csv,
    format_json,
    parse_config,
    parse_config_text,
    point_query,
    run_sweep,
)
from .weyl import GammaSet, gammas_from_statistics

__version__ = "0.1.0"

__all__ = [
    "UNASSISTED_QUANTUM_CAPACITY",
    "CapacityResult",
    "Ensemble",
    "binary_entropy",
    "capacity_bruteforce",
    "capacity_closed_form",
    "holevo_chi",
    "tune_bob_phase",
    "von_neumann_entropy",
    "ChannelOutput",
    "ChannelParams",
    "QubitState",
    "apply",
    "choi_matrix",
    "eigenvalues_analytic",
    "output_bloch_affine",
    "theta",
    "ConfigError",
    "ConsistencyError",
    "QuadratureError",
    "VACUUM",
    "FieldStateKind",
    "FieldStateSpec",
    "FieldStatistics",
    "PairGeometry",
    "SmearingSpec",
    "assemble_statistics",
    "commutator_closed",
    "cross_real_closed",
    "norm_sq_closed",
    "norm_sq_quadrature",
    "thermal",
    "wightman_cross_quadrature",
    "selftest",
    "COLUMNS",
    "SCHEMA_VERSION",
    "AxisSpec",
    "SweepConfig",
    "evaluate_point",
    "format_csv",
    "format_json",
    "parse_config",
    "parse_config_text",
    "point_query",
    "run_sweep",
    "GammaSet",
    "gammas_from_statistics",
    "__version__",
]
