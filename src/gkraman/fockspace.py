"""Truncated Fock-space core: normalized amplitude vectors, overlaps, and
truncation-size selection.

Photon-number amplitudes are stored densely over n = 0 .. n_trunc-1 as
complex128 arrays.  Joint atom-field states carry one row per atomic level
in the fixed order (g, e, i).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import DimensionMismatch, DivergentSeries, ZeroVector

if TYPE_CHECKING:  # pragma: no cover
    from .deformation import DeformationSpec

#: Atomic level ordering used for every joint state and operator.
LEVELS = ("g", "e", "i")

#: Default relative tail mass allowed beyond the truncation cutoff.
DEFAULT_TAIL_TOL = 1e-12

_NORM_FLOOR = 1e-300
_NORM_CHECK_TOL = 1e-8


def _freeze(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@dataclass(frozen=True, eq=False)
class FieldState:
    """Normalized pure state of the cavity field on the truncated Fock basis."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.ascontiguousarray(self.amplitudes, dtype=np.complex128)
        if amps.ndim != 1 or amps.size == 0:
            raise ValueError("field amplitudes must be a non-empty 1-d sequence")
        nrm = np.linalg.norm(amps)
        if abs(nrm - 1.0) > _NORM_CHECK_TOL:
            raise ValueError(f"field state is not normalized (norm = {nrm!r}); use normalize()")
        object.__setattr__(self, "amplitudes", _freeze(amps))

    @property
    def n_trunc(self) -> int:
        return self.amplitudes.size

    @property
    def tail_mass(self) -> float:
        """Population of the topmost kept Fock level, |amplitude_{N-1}|^2.

        A small value witnesses that the truncation did not clip the state.
        """
        return float(abs(self.amplitudes[-1]) ** 2)

    @classmethod
    def fock(cls, n: int, n_trunc: int) -> "FieldState":
        """Photon-number basis state |n> on a basis of size n_trunc."""
        if not 0 <= n < n_trunc:
            raise ValueError(f"fock index {n} outside basis 0..{n_trunc - 1}")
        v = np.zeros(n_trunc, dtype=np.complex128)
        v[n] = 1.0
        return cls(v)


@dataclass(frozen=True, eq=False)
class AtomFieldState:
    """Joint atom-field state; amplitudes[level, n] with levels ordered (g, e, i)."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.ascontiguousarray(self.amplitudes, dtype=np.complex128)
        if amps.ndim != 2 or amps.shape[0] != len(LEVELS) or amps.shape[1] == 0:
            raise ValueError("joint amplitudes must have shape (3, n_trunc) for levels (g, e, i)")
        nrm = np.linalg.norm(amps)
        if abs(nrm - 1.0) > _NORM_CHECK_TOL:
            raise ValueError(f"joint state is not normalized (norm = {nrm!r}); use normalize()")
        object.__setattr__(self, "amplitudes", _freeze(amps))

    @property
    def n_trunc(self) -> int:
        return self.amplitudes.shape[1]

    @property
    def g(self) -> np.ndarray:
        return self.amplitudes[0]

    @property
    def e(self) -> np.ndarray:
        return self.amplitudes[1]

    @property
    def i(self) -> np.ndarray:
        return self.amplitudes[2]

    def level_population(self, level: str) -> float:
        row = self.amplitudes[LEVELS.index(level)]
        return float(np.sum(np.abs(row) ** 2))

    @classmethod
    def product(cls, c_g: complex, c_e: complex, field: FieldState) -> "AtomFieldState":
        """Product state (c_g|g> + c_e|e>) (x) field, renormalized."""
        if not math.isfinite(abs(c_g) * abs(c_g) + abs(c_e) * abs(c_e)):
            raise ValueError("atom amplitudes are too large: |c_g|^2 + |c_e|^2 is not finite")
        # An exact power-of-two rescale: tiny amplitudes cannot underflow in the norm.
        _, exponent = math.frexp(max(abs(c_g), abs(c_e)))
        atom = np.array([c_g, c_e, 0.0], dtype=np.complex128) / 2.0 ** exponent
        return normalize(np.outer(atom, field.amplitudes))


def normalize(v: Sequence | np.ndarray) -> FieldState | AtomFieldState:
    """Scale a complex amplitude vector to unit norm.

    1-d input yields a :class:`FieldState`; (3, n) input a :class:`AtomFieldState`.
    Raises :class:`ZeroVector` when the input norm underflows.
    """
    arr = np.asarray(v, dtype=np.complex128)
    nrm = np.linalg.norm(arr)
    if nrm < _NORM_FLOOR:
        raise ZeroVector("cannot normalize a vector of zero norm")
    arr = arr / nrm
    if arr.ndim == 1:
        return FieldState(arr)
    if arr.ndim == 2 and arr.shape[0] == len(LEVELS):
        return AtomFieldState(arr)
    raise ValueError(f"unsupported amplitude shape {arr.shape}")


def fidelity(a, b) -> float:
    """Squared overlap |<a|b>|^2 between two states on the same basis."""
    if type(a) is not type(b) or a.amplitudes.shape != b.amplitudes.shape:
        raise DimensionMismatch(
            f"states live on different bases: {a.amplitudes.shape} vs {b.amplitudes.shape}")
    overlap = np.vdot(a.amplitudes, b.amplitudes)
    return float(abs(overlap) ** 2)


def mean_excitation(a: FieldState) -> float:
    """Mean photon number sum_n n |amplitude_n|^2 of a normalized field state."""
    n = np.arange(a.n_trunc)
    return float(np.sum(n * np.abs(a.amplitudes) ** 2))


def choose_truncation(z: complex, spec: "DeformationSpec",
                      tail_tol: float = DEFAULT_TAIL_TOL) -> int:
    """Smallest basis size N whose normalized tail mass beyond N stays below tail_tol.

    The weights are |z|^{2n} / [e_n]! (equivalently |z|^{2n} / (n! ([f(n)]!)^2));
    they are scanned over the spectrum cache in the log domain.  Since every
    valid spectrum is strictly increasing, the term ratio |z|^2 / e_n decreases
    with n, so convergence is certified by the ratio at the end of the cache
    and the beyond-cache remainder is bounded geometrically.

    Raises :class:`DivergentSeries` when the ratio test fails at |z| or the
    tail cannot be brought below tail_tol within the cached range.
    """
    if not 0.0 < tail_tol < 1.0:
        raise ValueError("tail_tol must lie in (0, 1)")
    zsq = abs(z) * abs(z)  # overflows to inf for huge |z|, where ** 2 would raise
    if zsq == 0.0:
        return 1

    log_w = 2.0 * np.arange(spec.n_cache + 1) * math.log(abs(z)) - spec.log_e_factorials
    end_ratio = zsq / spec.e_values[-1]
    if end_ratio >= 1.0 - 1e-12:
        raise DivergentSeries(
            f"series terms stop decaying within the cached spectrum range "
            f"(|z|^2 = {zsq:g} vs e_{spec.n_cache} = {spec.e_values[-1]:g}); "
            f"|z| is outside the convergence radius of spectrum '{spec.name}'")

    # log of suffix sums S_n = sum_{k>=n} w_k over the cache, plus a geometric
    # bound on the remainder beyond the cache.
    log_suffix = np.logaddexp.accumulate(log_w[::-1])[::-1]
    log_remainder = log_w[-1] + math.log(end_ratio) - math.log1p(-end_ratio)
    log_total = np.logaddexp(log_suffix[0], log_remainder)
    log_tail = np.logaddexp(log_suffix, log_remainder) - log_total

    candidates = np.nonzero(log_tail[1:] < math.log(tail_tol))[0]
    if candidates.size == 0:
        raise DivergentSeries(
            f"tail mass does not fall below {tail_tol:g} within the cached range "
            f"of spectrum '{spec.name}' (|z| too close to the convergence radius)")
    return int(candidates[0]) + 1
