"""Analytic matrix representations of T, V and H = T + V in the basis.

All in-scope potentials are even polynomials, so every matrix is symmetric and
banded with zero odd bands (parity selection rule).  T has the closed form

    T_rr      = (alpha hbar^2 / 4m) (2r + 1)
    T_{r,r+2} = -(alpha hbar^2 / 4m) sqrt((r+1)(r+2))

Every V = sum_k c_k x^(2k) is built by one banded composition of the x
ladder, one x^2 at a time on the even bands (`_ladder_tables`).  It
reproduces the closed forms of the harmonic V = (1/2) m omega^2 x^2,

    V_rr      = (m omega^2 / 4 alpha) (2r + 1)
    V_{r,r+2} = +(m omega^2 / 4 alpha) sqrt((r+1)(r+2))

bit for bit, so H is exactly diagonal at alpha = m omega / hbar, and of the
quartic V = lam x^4, with q = lam / (4 alpha^2),

    V_rr      = 3q (2r^2 + 2r + 1)
    V_{r,r+2} = 2q (2r + 3) sqrt((r+1)(r+2))
    V_{r,r+4} = q sqrt((r+1)(r+2)(r+3)(r+4))

to within 2 ulp.  The closed forms live in tests/helpers.py as oracles, pinned
by test_even_polynomial_reproduces_harmonic and
test_even_polynomial_reproduces_quartic in tests/test_operators.py;
test_entries_within_three_ulp_of_exact checks every entry against the ladder
composed in 40-digit decimal.  A shifted-index band 4 of the quartic is kept
as a deliberate negative control so the quadrature oracle can be shown to
catch wrong matrix elements.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .basis import MAX_INDEX, BasisSpec, _require_positive

HARMONIC = "harmonic"
QUARTIC = "quartic"
EVEN_POLYNOMIAL = "even_polynomial"

#: Band-4 coefficient variants for the quartic potential.
BAND4_LADDER = "ladder"
BAND4_MISINDEXED = "misindexed"


@dataclass(frozen=True)
class PotentialSpec:
    """Tagged description of an even confining potential V(x).

    kind "harmonic":        V = (1/2) m omega^2 x^2, omega > 0
    kind "quartic":         V = lam x^4, lam > 0
    kind "even_polynomial": V = sum_k coeffs[k] x^(2k), confining
    """

    kind: str
    omega: float | None = None
    lam: float | None = None
    coeffs: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind == HARMONIC:
            if self.omega is None:
                raise ValueError("harmonic potential requires omega")
            _require_positive("omega", self.omega)
            object.__setattr__(self, "omega", float(self.omega))
            if self.lam is not None or self.coeffs is not None:
                raise ValueError("harmonic potential takes only omega")
        elif self.kind == QUARTIC:
            if self.lam is None:
                raise ValueError("quartic potential requires lam")
            _require_positive("lam", self.lam)
            object.__setattr__(self, "lam", float(self.lam))
            if self.omega is not None or self.coeffs is not None:
                raise ValueError("quartic potential takes only lam")
        elif self.kind == EVEN_POLYNOMIAL:
            if self.omega is not None or self.lam is not None:
                raise ValueError("even_polynomial potential takes only coeffs")
            if self.coeffs is None or len(self.coeffs) == 0:
                raise ValueError("even_polynomial requires coefficients")
            c = tuple(float(v) for v in self.coeffs)
            if not all(math.isfinite(v) for v in c):
                raise ValueError("coefficients must be finite")
            trimmed = len(c)
            while trimmed > 0 and c[trimmed - 1] == 0.0:
                trimmed -= 1
            if trimmed < 2 or c[trimmed - 1] <= 0.0:
                raise ValueError(
                    "even_polynomial must be confining: positive leading "
                    "coefficient on a power x^(2k) with k >= 1")
            object.__setattr__(self, "coeffs", c[:trimmed])
        else:
            raise ValueError(f"unknown potential kind {self.kind!r}")

    @classmethod
    def harmonic(cls, omega: float = 1.0) -> "PotentialSpec":
        return cls(HARMONIC, omega=omega)

    @classmethod
    def quartic(cls, lam: float = 1.0) -> "PotentialSpec":
        return cls(QUARTIC, lam=lam)

    @classmethod
    def even_polynomial(cls, coeffs) -> "PotentialSpec":
        return cls(EVEN_POLYNOMIAL, coeffs=tuple(coeffs))

    def coefficients(self, *, mass: float) -> tuple[float, ...]:
        """c_k of V = sum_k c_k x^(2k) for every kind; mass enters only harmonic."""
        if self.kind == HARMONIC:
            return (0.0, 0.5 * mass * self.omega**2)
        if self.kind == QUARTIC:
            return (0.0, 0.0, self.lam)
        return self.coeffs

    @property
    def degree(self) -> int:
        """Polynomial degree of V (the number of coefficients ignores mass)."""
        return 2 * (len(self.coefficients(mass=1.0)) - 1)

    def value(self, x, *, mass: float):
        """V(x); mass enters only the harmonic form."""
        xv = np.asarray(x, dtype=float)
        if self.kind == HARMONIC:
            return 0.5 * mass * self.omega**2 * xv**2
        if self.kind == QUARTIC:
            return self.lam * xv**4
        return np.polynomial.polynomial.polyval(xv * xv, self.coeffs)

    def derivative(self, x, *, mass: float):
        """dV/dx."""
        xv = np.asarray(x, dtype=float)
        if self.kind == HARMONIC:
            return mass * self.omega**2 * xv
        if self.kind == QUARTIC:
            return 4.0 * self.lam * xv**3
        dcoeffs = [k * c for k, c in enumerate(self.coeffs)][1:]
        return 2.0 * xv * np.polynomial.polynomial.polyval(xv * xv, dcoeffs)

    def curvature_at_origin(self, *, mass: float) -> float:
        """V''(0)."""
        return 2.0 * self.coefficients(mass=mass)[1]

    def minimum(self, *, mass: float) -> float:
        """min_x V(x)."""
        coeffs = self.coefficients(mass=mass)
        dcoeffs = [k * c for k, c in enumerate(coeffs)][1:]
        candidates = [0.0]
        if len(dcoeffs) > 1:
            roots = np.polynomial.polynomial.polyroots(dcoeffs)
            for u in roots:
                if abs(u.imag) < 1e-12 * (1.0 + abs(u.real)) and u.real > 0.0:
                    candidates.append(float(u.real))
        values = [float(np.polynomial.polynomial.polyval(u, coeffs)) for u in candidates]
        return min(values)

    def turning_point(self, energy: float, *, mass: float) -> float:
        """Outermost x >= 0 with V(x) = energy; 0.0 when V > energy everywhere."""
        energy = float(energy)
        if self.kind == HARMONIC:
            if energy <= 0.0:
                return 0.0
            return math.sqrt(2.0 * energy / mass) / self.omega
        if self.kind == QUARTIC:
            if energy <= 0.0:
                return 0.0
            return (energy / self.lam) ** 0.25
        shifted = list(self.coeffs)
        shifted[0] -= energy
        roots = np.polynomial.polynomial.polyroots(shifted)
        best = 0.0
        for u in roots:
            if abs(u.imag) < 1e-10 * (1.0 + abs(u.real)) and u.real > 0.0:
                best = max(best, float(u.real))
        return math.sqrt(best)


@dataclass(frozen=True, eq=False)
class BandedSymMatrix:
    """Symmetric matrix stored as main diagonal plus `bandwidth` super-diagonals.

    Only the upper bands are stored; symmetry is structural.  Band k holds the
    entries (r, r + k) and has length dim - k.
    """

    dim: int
    bandwidth: int
    bands: tuple[np.ndarray, ...]

    def __post_init__(self):
        if not isinstance(self.dim, (int, np.integer)) or self.dim < 1:
            raise ValueError(f"dim must be a positive integer, got {self.dim!r}")
        object.__setattr__(self, "dim", int(self.dim))
        if not (0 <= int(self.bandwidth) <= self.dim - 1):
            raise ValueError(f"bandwidth must lie in [0, dim - 1], got {self.bandwidth!r}")
        object.__setattr__(self, "bandwidth", int(self.bandwidth))
        if len(self.bands) != self.bandwidth + 1:
            raise ValueError("need exactly bandwidth + 1 band arrays")
        frozen = []
        for k, band in enumerate(self.bands):
            arr = np.array(band, dtype=float)
            if arr.shape != (self.dim - k,):
                raise ValueError(f"band {k} must have length {self.dim - k}, got {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"band {k} contains non-finite entries")
            arr.setflags(write=False)
            frozen.append(arr)
        object.__setattr__(self, "bands", tuple(frozen))

    def entry(self, r: int, s: int) -> float:
        k = abs(r - s)
        if k > self.bandwidth:
            return 0.0
        return float(self.bands[k][min(r, s)])

    def to_dense(self) -> np.ndarray:
        n = self.dim
        a = np.zeros((n, n))
        flat = a.reshape(-1)
        for k, band in enumerate(self.bands):
            # band k runs through flat with stride n + 1, from (0, k) and from (k, 0)
            flat[k:(n - k) * n:n + 1] = band
            flat[k * n::n + 1] = band
        return a

    def __array__(self, dtype=None, copy=None):
        return self.to_dense().astype(float if dtype is None else dtype, copy=False)

    def __add__(self, other):
        if not isinstance(other, BandedSymMatrix):
            return NotImplemented
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        bw = max(self.bandwidth, other.bandwidth)
        bands = []
        for k in range(bw + 1):
            band = np.zeros(self.dim - k)
            if k <= self.bandwidth:
                band = band + self.bands[k]
            if k <= other.bandwidth:
                band = band + other.bands[k]
            bands.append(band)
        return BandedSymMatrix(self.dim, bw, tuple(bands))


def _check_dim(dim) -> int:
    if isinstance(dim, bool) or not isinstance(dim, (int, np.integer)) or dim < 1:
        raise ValueError(f"dim must be a positive integer, got {dim!r}")
    if dim > MAX_INDEX:
        raise ValueError(f"dim {dim} above index cap {MAX_INDEX}")
    return int(dim)


def kinetic_matrix(spec: BasisSpec, dim: int) -> BandedSymMatrix:
    """Kinetic-energy matrix; only the diagonal and band 2 are nonzero."""
    dim = _check_dim(dim)
    t = spec.alpha * spec.hbar**2 / (4.0 * spec.mass)
    r = np.arange(dim, dtype=float)
    bw = min(2, dim - 1)
    bands = [t * (2.0 * r + 1.0)]
    if bw >= 1:
        bands.append(np.zeros(dim - 1))
    if bw >= 2:
        rr = np.arange(dim - 2, dtype=float)
        bands.append(-t * np.sqrt((rr + 1.0) * (rr + 2.0)))
    return BandedSymMatrix(dim, bw, tuple(bands))


def quartic_band4_misindexed(r, alpha: float, lam: float):
    """Shifted-index band-4 variant; wrong on purpose.

    Kept as a negative control: the quadrature oracle must flag it, starting
    at entry (0, 4).  Both products under the roots are non-negative for
    integer r >= 0.
    """
    rr = np.asarray(r, dtype=float)
    q = lam / (4.0 * alpha**2)
    first = (rr - 1.0) * rr * (rr + 5.0) * (rr + 6.0)
    second = (rr - 5.0) * (rr - 4.0) * (rr + 1.0) * (rr + 2.0)
    return q * (np.sqrt(first) + np.sqrt(second))


def _check_band4(pot: PotentialSpec, dim: int, band4: str) -> None:
    """Reject a band-4 form that is unknown or would leave V unchanged."""
    if band4 not in (BAND4_LADDER, BAND4_MISINDEXED):
        raise ValueError(f"unknown band4 form {band4!r}")
    if band4 == BAND4_MISINDEXED and (pot.kind != QUARTIC or dim < 5):
        raise ValueError("band4 'misindexed' needs a quartic potential and dim >= 5; "
                         "anywhere else it would leave the matrix unchanged")


@functools.lru_cache(maxsize=8)
def _ladder_tables(kmax: int, dim: int):
    """h_kj(r) for k <= kmax as arrays h[k][j], and sqrt((r+1)...(r+2j)) as roots[j-1].

    Band 2j of x^(2k) is h_kj(r) sqrt((r+1)...(r+2j)) / (2 alpha)^k, and
    x^(2k) = x^(2k-2) x^2 gives, from h_00 = 1,

        h_kj(r) = h_{k-1,j-1}(r) + (2r+4j+1) h_{k-1,j}(r)
                  + (r+2j+1)(r+2j+2) h_{k-1,j+1}(r),

    where for j = 0 the first term is r(r-1) h_{k-1,1}(r-2).  The h_kj are
    integers, held exactly in floats while below 2^53.  Neither table depends
    on alpha or the coefficients, so both are built once per (kmax, dim).
    """
    r = np.arange(dim, dtype=float)
    j = np.arange(kmax + 1)[:, None]
    up = 2.0 * r + (4 * j + 1)
    down = (r + (2 * j + 1)) * (r + (2 * j + 2))
    h = [np.ones((1, dim))]
    for k in range(1, kmax + 1):
        prev = h[-1]
        hk = np.zeros((k + 1, dim))
        hk[1:] = prev
        hk[:k] += up[:k] * prev
        hk[:k - 1] += down[:k - 1] * prev[1:]
        if k > 1:
            hk[0, 2:] += r[2:] * (r[2:] - 1.0) * prev[1, :-2]
        h.append(hk)
    roots = np.sqrt(np.cumprod(r + np.arange(1.0, 2 * kmax + 1)[:, None], axis=0)[1::2])
    for table in h + [roots]:
        table.setflags(write=False)
    return tuple(h), roots


def potential_matrix(spec: BasisSpec, pot: PotentialSpec, dim: int, *,
                     band4: str = BAND4_LADDER) -> BandedSymMatrix:
    """Potential-energy matrix with bandwidth equal to the degree of V.

    Each even-band entry is one scaled sum of the integers h_kj times one
    square root; odd bands are exact zeros.  `band4` "misindexed" replaces
    band 4 of a quartic V (dim >= 5) with the shifted-index negative control
    for the quadrature cross-check; for any other potential or dim it raises
    ValueError.
    """
    dim = _check_dim(dim)
    _check_band4(pot, dim, band4)
    coeffs = pot.coefficients(mass=spec.mass)
    kmax = len(coeffs) - 1
    h, roots = _ladder_tables(kmax, dim)
    sums = np.zeros((kmax + 1, dim))
    for k, c in enumerate(coeffs):
        if c:
            sums[:k + 1] += (c / (2.0 * spec.alpha) ** k) * h[k]
    bands = [sums[0]]
    for band in range(1, min(2 * kmax, dim - 1) + 1):
        n = dim - band
        bands.append(np.zeros(n) if band % 2 else sums[band // 2, :n] * roots[band // 2 - 1, :n])
    if band4 == BAND4_MISINDEXED:
        bands[4] = quartic_band4_misindexed(np.arange(dim - 4), spec.alpha, pot.lam)
    return BandedSymMatrix(dim, len(bands) - 1, tuple(bands))


def hamiltonian_matrix(spec: BasisSpec, pot: PotentialSpec, dim: int) -> BandedSymMatrix:
    """H = T + V, entrywise exact sum of the two banded builders."""
    return kinetic_matrix(spec, dim) + potential_matrix(spec, pot, dim)
