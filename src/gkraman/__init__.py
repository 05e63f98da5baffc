"""Truncated-Fock-space simulator for generating temporally stable
Gazeau-Klauder coherent states from nonlinear coherent states via the
intensity-dependent degenerate Raman interaction."""

from .deformation import (DeformationSpec, deformed_lower, e_factorial, f_factorial,
                          f_of_n, get_spec, harmonic, load_spectrum_table,
                          poschl_teller, squared, tabulated)
from .errors import (DetectionImprobable, DimensionMismatch, DivergentSeries,
                     IllConditioned, InitialExcitedLevel, NonPhysicalSpectrum,
                     ZeroVector)
from .evolution import (EquivalenceRow, closed_form_eff, closed_form_I,
                        equivalence_csv_lines, equivalence_experiment, oracle_evolve,
                        rabi_frequencies, rotating_frame_I)
from .fockspace import (DEFAULT_TAIL_TOL, LEVELS, AtomFieldState, FieldState,
                        choose_truncation, fidelity, mean_excitation, normalize)
from .hamiltonian import (JointOperator, RamanParams, build_field_H, build_H_e,
                          build_H_eff, build_H_I, build_H_s)
from .protocol import (AtomRecord, ProtocolConfig, ProtocolResult,
                       decompose_superposition, inject_atom,
                       protocol_report_lines, run_protocol)
from .states import (GKLabel, action_identity_check, evolve_free, gk_nonlinearity,
                     gkcs, nonlinear_cs)

__version__ = "0.1.0"

__all__ = [
    "AtomFieldState", "AtomRecord", "DEFAULT_TAIL_TOL",
    "DeformationSpec", "DetectionImprobable", "DimensionMismatch",
    "DivergentSeries", "EquivalenceRow", "FieldState", "GKLabel",
    "IllConditioned", "InitialExcitedLevel", "JointOperator", "LEVELS",
    "NonPhysicalSpectrum", "ProtocolConfig", "ProtocolResult", "RamanParams",
    "ZeroVector", "action_identity_check", "build_H_I", "build_H_e",
    "build_H_eff", "build_H_s", "build_field_H", "choose_truncation",
    "closed_form_I", "closed_form_eff",
    "decompose_superposition", "deformed_lower", "e_factorial",
    "equivalence_csv_lines", "equivalence_experiment", "evolve_free",
    "f_factorial", "f_of_n", "fidelity", "get_spec", "gk_nonlinearity", "gkcs",
    "harmonic", "inject_atom", "load_spectrum_table", "mean_excitation",
    "nonlinear_cs", "normalize", "oracle_evolve", "poschl_teller",
    "protocol_report_lines", "rabi_frequencies", "rotating_frame_I",
    "run_protocol", "squared", "tabulated",
]
