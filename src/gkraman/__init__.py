"""Truncated-Fock-space simulator for generating temporally stable
Gazeau-Klauder coherent states from nonlinear coherent states via the
intensity-dependent degenerate Raman interaction."""

from .deformation import (DeformationSpec, deformed_lower, get_spec, harmonic,
                          load_spectrum_table, poschl_teller, squared)
from .errors import (DetectionImprobable, DimensionMismatch, DivergentSeries,
                     InitialExcitedLevel, NonPhysicalSpectrum, ZeroVector)
from .evolution import (EquivalenceRow, closed_form_eff, closed_form_I,
                        equivalence_csv_lines, equivalence_experiment, rabi_frequencies)
from .fockspace import (DEFAULT_TAIL_TOL, AtomFieldState, FieldState, choose_truncation,
                        fidelity, mean_excitation, normalize)
from .hamiltonian import RamanParams
from .protocol import (AtomRecord, ProtocolConfig, ProtocolResult, inject_atom,
                       protocol_report_lines, run_protocol)
from .states import (GKLabel, action_identity_check, evolve_free, gk_nonlinearity,
                     gkcs, nonlinear_cs)

__version__ = "0.1.0"

__all__ = [
    "AtomFieldState", "AtomRecord", "DEFAULT_TAIL_TOL",
    "DeformationSpec", "DetectionImprobable", "DimensionMismatch",
    "DivergentSeries", "EquivalenceRow", "FieldState", "GKLabel",
    "InitialExcitedLevel", "NonPhysicalSpectrum", "ProtocolConfig",
    "ProtocolResult", "RamanParams", "ZeroVector", "action_identity_check",
    "choose_truncation", "closed_form_I", "closed_form_eff", "deformed_lower",
    "equivalence_csv_lines", "equivalence_experiment", "evolve_free",
    "fidelity", "get_spec", "gk_nonlinearity", "gkcs", "harmonic",
    "inject_atom", "load_spectrum_table", "mean_excitation", "nonlinear_cs",
    "normalize", "poschl_teller", "protocol_report_lines", "rabi_frequencies",
    "run_protocol", "squared",
]
