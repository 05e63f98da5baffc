"""Constructors for the coherent-state families used throughout the package.

Three families share one magnitude profile |z|^n / sqrt(n! ) / [f(n)]!:

* nonlinear (f-deformed) coherent states, eigenstates of a f(n);
* the same states phase-shifted per level, the Gazeau-Klauder states
  z^n e^{-i alpha e_n} / sqrt([e_n]!), which are temporally stable;
* their alpha = 0 limit, the plain sqrt([e_n]!)-weighted states.

Amplitude magnitudes are computed in the log domain and shared between the
constructors, so the families differ by pure phases exactly (not just to
rounding).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .deformation import DeformationSpec
from .fockspace import FieldState, choose_truncation

#: Tail tolerance used when a constructor has to size a basis internally.
_INTERNAL_TAIL_TOL = 1e-16


@dataclass(frozen=True)
class GKLabel:
    """Label (z, alpha) of a Gazeau-Klauder state; alpha carries units of time."""

    z: complex
    alpha: float


def _check_convergence(z: complex, spec: DeformationSpec):
    # choose_truncation performs the ratio test over the cached spectrum and
    # raises DivergentSeries outside the convergence radius.
    choose_truncation(z, spec, tail_tol=0.5)


def _magnitudes(z_abs: float, spec: DeformationSpec, n_trunc: int) -> np.ndarray:
    """Normalized magnitude profile shared by all state families."""
    spec._check_n(n_trunc - 1)
    ns = np.arange(n_trunc)
    log_w = (ns * math.log(z_abs)
             - 0.5 * spec.log_factorials[:n_trunc]
             - spec.log_f_factorials[:n_trunc])
    mags = np.exp(log_w - log_w.max())
    return mags / np.linalg.norm(mags)


def _coherent_state(z: complex, alpha: float, spec: DeformationSpec,
                    n_trunc: int) -> FieldState:
    """Amplitudes proportional to z^n e^{-i alpha e_n} / (sqrt(n!) [f(n)]!)."""
    if n_trunc < 1:
        raise ValueError("n_trunc must be positive")
    spec._check_n(n_trunc - 1)
    if z == 0:
        return FieldState.fock(0, n_trunc)
    _check_convergence(z, spec)
    mags = _magnitudes(abs(z), spec, n_trunc)
    angles = np.arange(n_trunc) * cmath.phase(z) - alpha * spec.e_values[:n_trunc]
    return FieldState(mags * np.exp(1j * angles))


def nonlinear_cs(z: complex, spec: DeformationSpec, n_trunc: int) -> FieldState:
    """Nonlinear coherent state with amplitudes proportional to z^n / (sqrt(n!) [f(n)]!)."""
    return _coherent_state(z, 0.0, spec, n_trunc)


def gkcs(label: GKLabel, spec: DeformationSpec, n_trunc: int) -> FieldState:
    """Gazeau-Klauder state with amplitudes proportional to z^n e^{-i alpha e_n} / sqrt([e_n]!).

    The magnitudes coincide with ``nonlinear_cs(z, ...)`` entrywise; only the
    phases depend on alpha.  alpha = 0 reproduces the sqrt([e_n]!)-weighted
    state exactly.
    """
    return _coherent_state(label.z, label.alpha, spec, n_trunc)


def gk_nonlinearity(alpha: float, n: int, spec: DeformationSpec) -> complex:
    """Effective nonlinearity sqrt(e_n / n) e^{i alpha (e_n - e_{n-1})} that makes
    the Gazeau-Klauder family a class of nonlinear coherent states."""
    if n < 1:
        raise ValueError("defined for n >= 1")
    spec._check_n(n)
    gap = spec.e_values[n] - spec.e_values[n - 1]
    return complex(spec.f_values[n] * cmath.exp(1j * alpha * gap))


def action_identity_check(label: GKLabel, spec: DeformationSpec) -> float:
    """Energy expectation <H> with H diagonal in e_n; equals |z|^2 for a
    Gazeau-Klauder state (the action identity)."""
    z = label.z
    if z == 0:
        return 0.0
    n_trunc = choose_truncation(z, spec, tail_tol=_INTERNAL_TAIL_TOL)
    state = gkcs(label, spec, n_trunc)
    return float(np.sum(spec.e_values[:n_trunc] * np.abs(state.amplitudes) ** 2))


def evolve_free(s: FieldState, spec: DeformationSpec, t: float) -> FieldState:
    """Free field evolution under H = A^dag A: amplitude_n -> e^{-i e_n t} amplitude_n.

    Maps the Gazeau-Klauder state (z, alpha) to (z, alpha + t) exactly
    (temporal stability); a generic nonlinear coherent state is not stable
    under this map unless the spectrum is linear.
    """
    spec._check_n(s.n_trunc - 1)
    phases = np.exp(-1j * spec.e_values[:s.n_trunc] * t)
    return FieldState(s.amplitudes * phases)


__all__ = [
    "GKLabel",
    "nonlinear_cs",
    "gkcs",
    "gk_nonlinearity",
    "action_identity_check",
    "evolve_free",
]
