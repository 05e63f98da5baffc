"""Solvable-system spectra e_n, their nonlinearity functions f(n) = sqrt(e_n / n),
and the deformed factorials [f(n)]! and [e_n]! that weight every state expansion.

A spectrum is its table e_0 .. e_N, which must satisfy e_0 = 0 and
0 < e_1 < e_2 < ...; each spec caches f(n) and the factorial prefix products
(in the log domain, so that rapidly growing spectra never overflow) over the
same range.  The built-in spectra are tabulated up to N = DEFAULT_N_CACHE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import NonPhysicalSpectrum

#: Largest n (inclusive) of the built-in tables; also their convergence-scan depth.
DEFAULT_N_CACHE = 512


@dataclass(frozen=True, eq=False)
class DeformationSpec:
    """A solvable-system spectrum, given by its table, with eagerly built factorial caches.

    Attributes
    ----------
    name : str
        Identifier used in configs and reports.
    e_values : array
        The energies e_0 .. e_N (hbar = 1), stored as a read-only float copy;
        N = ``n_cache`` is the largest n the caches cover.
    """

    name: str
    e_values: np.ndarray = field(repr=False)

    f_values: np.ndarray = field(init=False, repr=False)
    log_factorials: np.ndarray = field(init=False, repr=False)
    log_f_factorials: np.ndarray = field(init=False, repr=False)
    log_e_factorials: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        e_values = np.array(self.e_values, dtype=float)
        if e_values.ndim != 1:
            raise ValueError(f"a spectrum table must be 1-d, got shape {e_values.shape}")
        if e_values.size < 2:
            raise ValueError("a tabulated spectrum needs at least e_0 and e_1")
        if e_values[0] != 0.0:
            raise NonPhysicalSpectrum(f"spectrum '{self.name}': e_0 = {e_values[0]!r}, expected 0")
        valid = (e_values[1:] > 0.0) & (e_values[1:] < np.inf)  # NaN fails both
        if not np.all(valid):
            bad = int(np.argmin(valid)) + 1
            raise NonPhysicalSpectrum(
                f"spectrum '{self.name}': e_{bad} = {e_values[bad]!r} is not finite and positive")
        if np.any(np.diff(e_values) <= 0.0):
            bad = int(np.argmax(np.diff(e_values) <= 0.0))
            raise NonPhysicalSpectrum(
                f"spectrum '{self.name}': not strictly increasing at n = {bad} "
                f"(e_{bad} = {e_values[bad]!r}, e_{bad + 1} = {e_values[bad + 1]!r})")

        ns = np.arange(e_values.size)
        f_values = np.zeros_like(e_values)
        f_values[1:] = np.sqrt(e_values[1:] / ns[1:])

        # Prefix log-products; the f- and e-sides are accumulated independently
        # so the identity [e_n]! = n! ([f(n)]!)^2 stays a real consistency check.
        log_factorials = np.concatenate(([0.0], np.cumsum(np.log(ns[1:]))))
        log_f_factorials = np.concatenate(([0.0], np.cumsum(np.log(f_values[1:]))))
        log_e_factorials = np.concatenate(([0.0], np.cumsum(np.log(e_values[1:]))))

        for attr, arr in (("e_values", e_values), ("f_values", f_values),
                          ("log_factorials", log_factorials),
                          ("log_f_factorials", log_f_factorials),
                          ("log_e_factorials", log_e_factorials)):
            arr.setflags(write=False)
            object.__setattr__(self, attr, arr)

    @property
    def n_cache(self) -> int:
        """Largest n covered by the caches (inclusive)."""
        return self.e_values.size - 1

    def _check_n(self, n: int):
        if n > self.n_cache:
            raise ValueError(f"n = {n} exceeds cache depth {self.n_cache} of spectrum '{self.name}'")

    def e_at(self, x: float) -> float:
        """Spectrum evaluated at a (possibly fractional) excitation number.

        Fractional arguments are linearly interpolated from the cache; they
        only arise in validity-condition estimates around the mean photon
        number, never in state construction.
        """
        if x < 0:
            raise ValueError("excitation number must be non-negative")
        self._check_n(math.ceil(x))
        return float(np.interp(x, np.arange(self.n_cache + 1), self.e_values))


def deformed_lower(spec: DeformationSpec, s) -> np.ndarray:
    """Apply the deformed lowering operator a f(n) to a field state.

    Returns the raw (unnormalized) amplitude vector with entries
    sqrt(n+1) f(n+1) amplitude_{n+1}; the top entry is zero.  A nonlinear
    coherent state |z, f> is an eigenvector with eigenvalue z up to
    truncation residue.
    """
    amps = np.asarray(getattr(s, "amplitudes", s), dtype=np.complex128)
    n_trunc = amps.size
    spec._check_n(n_trunc - 1)
    out = np.zeros_like(amps)
    ns = np.arange(1, n_trunc)
    out[:-1] = np.sqrt(ns) * spec.f_values[1:n_trunc] * amps[1:]
    return out


# ---------------------------------------------------------------------------
# Built-in spectrum registry
# ---------------------------------------------------------------------------

def harmonic() -> DeformationSpec:
    """Harmonic oscillator, e_n = n; makes f identically 1 (canonical CS)."""
    return DeformationSpec("harmonic", np.arange(DEFAULT_N_CACHE + 1.0))


def squared() -> DeformationSpec:
    """Quadratic spectrum e_n = n^2, i.e. f(n) = sqrt(n)."""
    return DeformationSpec("squared", np.arange(DEFAULT_N_CACHE + 1.0) ** 2)


def poschl_teller(kappa: float = 1.0) -> DeformationSpec:
    """Poeschl-Teller-like spectrum e_n = n (n + 2 kappa)."""
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    n = np.arange(DEFAULT_N_CACHE + 1.0)
    with np.errstate(over="ignore", invalid="ignore"):  # the spectrum check names inf and NaN
        e_values = n * (n + 2.0 * kappa)
    return DeformationSpec(f"poschl_teller(kappa={kappa:g})", e_values)


def load_spectrum_table(path) -> DeformationSpec:
    """Read a tabulated spectrum: one real e_n per line starting at n = 0.

    Blank lines and '#' comments are ignored; the first value must be 0.
    """
    p = Path(path)
    values = []
    for idx, raw in enumerate(p.read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            values.append(float(line))
        except ValueError:
            raise ValueError(f"{p}:{idx}: not a real number: {line!r}") from None
    return DeformationSpec(p.stem, values)


#: Built-in spectra addressable by name (poschl_teller takes a kappa argument).
REGISTRY: dict[str, Callable[..., DeformationSpec]] = {
    "harmonic": harmonic,
    "squared": squared,
    "poschl_teller": poschl_teller,
}


def get_spec(name: str, *, kappa: float = 1.0) -> DeformationSpec:
    """Instantiate a registry spectrum by name."""
    try:
        factory = REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown spectrum '{name}'; choose from {sorted(REGISTRY)}") from None
    if name == "poschl_teller":
        return factory(kappa=kappa)
    return factory()
