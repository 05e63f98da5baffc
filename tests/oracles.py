"""Numerical references the tests compare the package against; no run path uses them."""

import numpy as np

from gkraman.errors import DimensionMismatch, InitialExcitedLevel
from gkraman.fockspace import AtomFieldState

#: Gram-matrix condition-number ceiling of decompose_superposition.
GRAM_COND_LIMIT = 1e12


class IllConditioned(RuntimeError):
    """Components are too close to linearly dependent for a meaningful decomposition."""


def oracle_evolve(h_builder, initial: AtomFieldState, t: float, steps: int) -> AtomFieldState:
    """Midpoint propagator: each step applies exp(-i H(t_mid) h), h = t / steps, through
    ``eigh``; second order in h for a time-dependent Hermitian H, exact for a constant one."""
    if steps < 1:
        raise ValueError("steps must be at least 1")
    rows = h_builder(0.0).shape[0] // initial.n_trunc
    if rows == 2 and np.any(initial.i != 0):
        raise InitialExcitedLevel("a (g, e) generator cannot act on upper-level amplitudes")
    vec = initial.amplitudes[:rows].reshape(-1)
    h = t / steps
    for k in range(steps):
        w, v = np.linalg.eigh(h_builder((k + 0.5) * h))
        vec = v @ (np.exp(-1j * h * w) * (v.conj().T @ vec))
    new = np.zeros_like(initial.amplitudes)
    new[:rows] = vec.reshape(rows, initial.n_trunc)
    return AtomFieldState(new)


def decompose_superposition(field, components) -> tuple[np.ndarray, float]:
    """Least-squares coefficients of a field over component states, and the residual
    ||field - sum c_k comp_k||; raises IllConditioned at a Gram condition number >= 1e12."""
    if any(comp.n_trunc != field.n_trunc for comp in components):
        raise DimensionMismatch("components must share the field's basis size")
    basis = np.column_stack([c.amplitudes for c in components])
    cond = np.linalg.cond(basis.conj().T @ basis)
    if not cond < GRAM_COND_LIMIT:
        raise IllConditioned(f"component Gram matrix condition number {cond:.3e}")
    coeffs = np.linalg.lstsq(basis, field.amplitudes, rcond=None)[0]
    return coeffs, float(np.linalg.norm(field.amplitudes - basis @ coeffs))
