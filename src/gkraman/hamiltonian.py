"""Hamiltonian builders for the intensity-dependent degenerate Raman system.

Every builder returns a dense Hermitian complex128 matrix over the truncated
joint basis, indexed level * n_trunc + n with the levels in the fixed order
(g, e, i) for the interaction picture and (g, e) for the effective two-level
reduction; hbar = 1 throughout.
"""

from __future__ import annotations

import math
import sys
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
        # Python floats: squares that overflow or underflow warn of nothing
        g1, g2, delta = float(self.g1), float(self.g2), float(self.delta)
        if not (g1 > 0 and g2 > 0 and math.isfinite(g1 * g1 + g2 * g2)):
            raise ValueError("coupling constants g1, g2 must be positive with finite g1^2 + g2^2")
        if g1 * g1 + g2 * g2 < sys.float_info.min:
            raise ValueError(f"couplings g1 = {g1:g}, g2 = {g2:g} make g1^2 + g2^2 underflow")
        if not (math.isfinite(delta * delta) and delta != 0):
            raise ValueError("detuning must be nonzero with finite delta^2")
        if delta * delta < sys.float_info.min:
            raise ValueError(f"detuning delta = {delta:g} makes delta^2 underflow")

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


def build_H_I(params: RamanParams, spec: DeformationSpec, t: float,
              n_trunc: int) -> np.ndarray:
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
    return m + m.conj().T


def build_H_eff(params: RamanParams, spec: DeformationSpec, n_trunc: int) -> np.ndarray:
    """Modified effective Hamiltonian over (g, e): the Raman coupling -lambda n f^2(n)
    on |g><e| + |e><g| plus the diagonal Stark shifts -n f^2(n) g1^2 / delta on g
    and -n f^2(n) g2^2 / delta on e.

    For g1 = g2 = g each n-block reduces to -lambda e_n (sigma_x + 1) with
    eigenvalues {0, -2 lambda e_n}.
    """
    spec._check_n(n_trunc - 1)
    e_vals = spec.e_values[:n_trunc]
    m = np.zeros((2 * n_trunc, 2 * n_trunc), dtype=np.complex128)
    coupling = -params.effective_coupling * e_vals
    idx = np.arange(n_trunc)
    m[idx, n_trunc + idx] = coupling
    m[n_trunc + idx, idx] = coupling
    stark = np.concatenate((-params.stark_shift_g * e_vals, -params.stark_shift_e * e_vals))
    return m + np.diag(stark.astype(np.complex128))
