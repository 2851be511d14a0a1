"""mirrorqed: exact dynamics of a single-photon emitter facing a mirror.

A two-level emitter sits in a one-dimensional waveguide terminated by a
partially transparent mirror half a round trip away.  The package computes
the emitter's exact non-Markovian decay, its long-time and Markovian limits,
the spatial and spectral profile of the emitted photon, and an independent
quantum-trajectory Monte Carlo solver for cross-validation.
"""

from .core import (
    DerivedConstants,
    Direction,
    PiecewisePolynomial,
    SystemParams,
    derived_constants,
    mirror_coefficients,
    pp_add,
    pp_eval,
    pp_integrate,
    pp_scale,
    pp_shift,
    pp_snap,
)
from .analytic import (
    DressedParams,
    ExcitationCurve,
    NoLongtimeSolution,
    Xi0Diverges,
    dressed_params,
    dyson_coefficient_closed,
    dyson_coefficient_iterative,
    excitation_amplitude_exact,
    excitation_curve,
    excitation_probability_exact,
    excitation_probability_longtime,
    excitation_probability_markovian,
    round_trip_series,
    solve_longtime,
    solve_xi,
)
from .wavepacket import (
    EmitterNotDecayed,
    SpatialProfile,
    Spectrum,
    field_amplitude,
    laplace_spectrum,
    photon_density,
    spatial_profile,
    spectrum,
    total_photon_norm,
)
from .trajectory import (
    EnsembleResult,
    TrajectoryConfig,
    build_propagator,
    ensemble_average,
    run_trajectory,
    trajectory_rng,
)

__version__ = "0.1.0"

__all__ = [
    "DerivedConstants",
    "Direction",
    "DressedParams",
    "EmitterNotDecayed",
    "EnsembleResult",
    "ExcitationCurve",
    "NoLongtimeSolution",
    "PiecewisePolynomial",
    "SpatialProfile",
    "Spectrum",
    "SystemParams",
    "TrajectoryConfig",
    "Xi0Diverges",
    "build_propagator",
    "derived_constants",
    "dressed_params",
    "dyson_coefficient_closed",
    "dyson_coefficient_iterative",
    "ensemble_average",
    "excitation_amplitude_exact",
    "excitation_curve",
    "excitation_probability_exact",
    "excitation_probability_longtime",
    "excitation_probability_markovian",
    "field_amplitude",
    "laplace_spectrum",
    "mirror_coefficients",
    "photon_density",
    "pp_add",
    "pp_eval",
    "pp_integrate",
    "pp_scale",
    "pp_shift",
    "pp_snap",
    "round_trip_series",
    "run_trajectory",
    "solve_longtime",
    "solve_xi",
    "spatial_profile",
    "spectrum",
    "total_photon_norm",
    "trajectory_rng",
]
