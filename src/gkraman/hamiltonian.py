"""Hamiltonian builders for the intensity-dependent degenerate Raman system.

All operators act on the truncated joint basis {(level, n)} with levels in
the fixed order (g, e, i) for the interaction picture and (g, e) for the
effective two-level reduction; hbar = 1 throughout.  Every builder returns a
dense Hermitian matrix wrapped in :class:`JointOperator`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .deformation import DeformationSpec


@dataclass(frozen=True)
class RamanParams:
    """Couplings and detuning of the Raman interaction.

    g1 (g2) couples the g <-> i (e <-> i) transition to the field; delta is
    the detuning of the upper level.  The derived quantities are the
    effective coupling lambda = g1 g2 / delta, the Stark-shift strengths
    g1^2 / delta and g2^2 / delta, and the squared-coupling sum G.
    """

    g1: float
    g2: float
    delta: float

    def __post_init__(self):
        if not (self.g1 > 0 and self.g2 > 0 and np.isfinite(self.g1 * self.g1 + self.g2 * self.g2)):
            raise ValueError("coupling constants g1, g2 must be positive with finite g1^2 + g2^2")
        if not (np.isfinite(self.delta * self.delta) and self.delta != 0):
            raise ValueError("detuning must be nonzero with finite delta^2")

    @property
    def effective_coupling(self) -> float:
        return self.g1 * self.g2 / self.delta

    @property
    def stark_shift_g(self) -> float:
        return self.g1 ** 2 / self.delta

    @property
    def stark_shift_e(self) -> float:
        return self.g2 ** 2 / self.delta

    @property
    def coupling_sq_sum(self) -> float:
        return self.g1 ** 2 + self.g2 ** 2


@dataclass(frozen=True, eq=False)
class JointOperator:
    """Dense operator over the joint basis; index = levels.index(level) * n_trunc + n."""

    matrix: np.ndarray
    levels: tuple[str, ...]
    n_trunc: int

    def __post_init__(self):
        m = np.ascontiguousarray(self.matrix, dtype=np.complex128)
        dim = max(len(self.levels), 1) * self.n_trunc
        if m.shape != (dim, dim):
            raise ValueError(f"matrix shape {m.shape} does not match basis size {dim}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def index(self, level: str, n: int) -> int:
        return self.levels.index(level) * self.n_trunc + n


def build_H_I(params: RamanParams, spec: DeformationSpec, t: float,
              n_trunc: int) -> JointOperator:
    """Interaction-picture Hamiltonian with intensity-dependent coupling.

    Couples |g,n> <-> |i,n-1> with strength g1 sqrt(n) f(n) and |e,n> <-> |i,n-1>
    with g2 sqrt(n) f(n), times e^{+i delta t} on the <i| row (the only time
    dependence); block-diagonal over the excitation sectors {|g,n>, |i,n-1>, |e,n>}.
    """
    spec._check_n(n_trunc - 1)
    m = np.zeros((3 * n_trunc, 3 * n_trunc), dtype=np.complex128)
    phase = np.exp(1j * params.delta * t)
    n = np.arange(1, n_trunc)
    coupling = np.sqrt(n) * spec.f_values[1:n_trunc]
    i_prev = 2 * n_trunc + n - 1
    m[i_prev, n] = params.g1 * coupling * phase
    m[i_prev, n_trunc + n] = params.g2 * coupling * phase
    return JointOperator(m + m.conj().T, ("g", "e", "i"), n_trunc)


def build_H_e(params: RamanParams, spec: DeformationSpec, n_trunc: int) -> JointOperator:
    """Two-level effective Raman coupling: -lambda n f^2(n) on |g><e| + |e><g|."""
    spec._check_n(n_trunc - 1)
    dim = 2 * n_trunc
    m = np.zeros((dim, dim), dtype=np.complex128)
    coupling = -params.effective_coupling * spec.e_values[:n_trunc]
    idx = np.arange(n_trunc)
    m[idx, n_trunc + idx] = coupling
    m[n_trunc + idx, idx] = coupling
    return JointOperator(m, ("g", "e"), n_trunc)


def build_H_s(params: RamanParams, spec: DeformationSpec, n_trunc: int) -> JointOperator:
    """Stark-shift Hamiltonian: diagonal -n f^2(n) (g1^2/delta on g, g2^2/delta on e)."""
    spec._check_n(n_trunc - 1)
    e_vals = spec.e_values[:n_trunc]
    diag = np.concatenate((-params.stark_shift_g * e_vals, -params.stark_shift_e * e_vals))
    return JointOperator(np.diag(diag.astype(np.complex128)), ("g", "e"), n_trunc)


def build_H_eff(params: RamanParams, spec: DeformationSpec, n_trunc: int) -> JointOperator:
    """Modified effective Hamiltonian: Raman coupling plus Stark shifts.

    For g1 = g2 = g each n-block reduces to -lambda e_n (sigma_x + 1) with
    eigenvalues {0, -2 lambda e_n}.
    """
    h_e = build_H_e(params, spec, n_trunc)
    h_s = build_H_s(params, spec, n_trunc)
    return JointOperator(h_e.matrix + h_s.matrix, ("g", "e"), n_trunc)


def build_field_H(spec: DeformationSpec, n_trunc: int) -> JointOperator:
    """Field-only Hamiltonian A^dag A, diagonal e_n; generates free evolution."""
    spec._check_n(n_trunc - 1)
    diag = spec.e_values[:n_trunc].astype(np.complex128)
    return JointOperator(np.diag(diag), (), n_trunc)
