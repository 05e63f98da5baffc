"""Truncated-Fock-space simulator for generating temporally stable
Gazeau-Klauder coherent states from nonlinear coherent states via the
intensity-dependent degenerate Raman interaction.

The namespace is lazy: a public name imports its home module on first use.
"""

import importlib
import sys

__version__ = "0.1.0"

#: Home module -> the public names it defines.
_EXPORTS = {
    "deformation": ("DeformationSpec", "deformed_lower", "get_spec", "harmonic",
                    "load_spectrum_table", "poschl_teller", "squared"),
    "errors": ("DetectionImprobable", "DimensionMismatch", "DivergentSeries",
               "InitialExcitedLevel", "NonPhysicalSpectrum", "ZeroVector"),
    "evolution": ("EquivalenceRow", "closed_form_I", "closed_form_eff",
                  "equivalence_csv_lines", "equivalence_experiment", "rabi_frequencies"),
    "fockspace": ("DEFAULT_TAIL_TOL", "AtomFieldState", "FieldState", "choose_truncation",
                  "fidelity", "mean_excitation", "normalize"),
    "hamiltonian": ("RamanParams",),
    "protocol": ("AtomRecord", "ProtocolConfig", "ProtocolResult", "inject_atom",
                 "protocol_report_lines", "run_protocol"),
    "states": ("GKLabel", "action_identity_check", "evolve_free", "gk_nonlinearity",
               "gkcs", "nonlinear_cs"),
}

#: Public name -> the qualified name of its home module.
_HOME = {name: f"{__name__}.{module}" for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    # Not cached in the package globals, so patches of the home module show through.
    qualified = _HOME.get(name)
    if qualified is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(sys.modules.get(qualified) or importlib.import_module(qualified), name)
