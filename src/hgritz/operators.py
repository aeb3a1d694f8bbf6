"""Analytic matrix representations of T, V and H = T + V in the basis.

All in-scope potentials are even polynomials, so every matrix is symmetric and
banded with zero odd bands (parity selection rule).  Closed forms:

    T_rr      = (alpha hbar^2 / 4m) (2r + 1)
    T_{r,r+2} = -(alpha hbar^2 / 4m) sqrt((r+1)(r+2))

harmonic V = (1/2) m omega^2 x^2:

    V_rr      = (m omega^2 / 4 alpha) (2r + 1)
    V_{r,r+2} = +(m omega^2 / 4 alpha) sqrt((r+1)(r+2))

quartic V = lam x^4, with q = lam / (4 alpha^2):

    V_rr      = 3q (2r^2 + 2r + 1)
    V_{r,r+2} = 2q (2r + 3) sqrt((r+1)(r+2))
    V_{r,r+4} = q sqrt((r+1)(r+2)(r+3)(r+4))

The band-4 coefficient follows from composing the x ladder four times; a
shifted-index variant is kept as a deliberate negative control so the
quadrature oracle can be shown to catch wrong matrix elements.  General even
polynomials are built by composing the tridiagonal x ladder as a matrix
product instead of hand-derived closed forms.
"""

from __future__ import annotations

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

    @property
    def degree(self) -> int:
        """Polynomial degree of V."""
        if self.kind == HARMONIC:
            return 2
        if self.kind == QUARTIC:
            return 4
        return 2 * (len(self.coeffs) - 1)

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
        if self.kind == HARMONIC:
            return mass * self.omega**2
        if self.kind == QUARTIC:
            return 0.0
        return 2.0 * self.coeffs[1] if len(self.coeffs) > 1 else 0.0

    def minimum(self, *, mass: float) -> float:
        """min_x V(x)."""
        if self.kind in (HARMONIC, QUARTIC):
            return 0.0
        dcoeffs = [k * c for k, c in enumerate(self.coeffs)][1:]
        candidates = [0.0]
        if len(dcoeffs) > 1:
            roots = np.polynomial.polynomial.polyroots(dcoeffs)
            for u in roots:
                if abs(u.imag) < 1e-12 * (1.0 + abs(u.real)) and u.real > 0.0:
                    candidates.append(float(u.real))
        values = [float(np.polynomial.polynomial.polyval(u, self.coeffs)) for u in candidates]
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

    @classmethod
    def from_dense(cls, a, bandwidth: int | None = None) -> "BandedSymMatrix":
        a = np.asarray(a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("need a square matrix")
        n = a.shape[0]
        if bandwidth is None:
            bandwidth = 0
            for k in range(n - 1, 0, -1):
                if np.any(np.diag(a, k) != 0.0):
                    bandwidth = k
                    break
        bands = tuple(np.diag(a, k).copy() for k in range(bandwidth + 1))
        return cls(n, bandwidth, bands)

    def entry(self, r: int, s: int) -> float:
        k = abs(r - s)
        if k > self.bandwidth:
            return 0.0
        return float(self.bands[k][min(r, s)])

    def to_dense(self) -> np.ndarray:
        a = np.zeros((self.dim, self.dim))
        for k, band in enumerate(self.bands):
            idx = np.arange(self.dim - k)
            a[idx, idx + k] = band
            if k:
                a[idx + k, idx] = band
        return a

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


def to_dense(matrix: BandedSymMatrix) -> np.ndarray:
    """Full symmetric array with mirrored bands."""
    return matrix.to_dense()


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


def _harmonic_bands(spec, pot, dim):
    v = spec.mass * pot.omega**2 / (4.0 * spec.alpha)
    r = np.arange(dim, dtype=float)
    bands = [v * (2.0 * r + 1.0)]
    if dim >= 2:
        bands.append(np.zeros(dim - 1))
    if dim >= 3:
        rr = np.arange(dim - 2, dtype=float)
        bands.append(v * np.sqrt((rr + 1.0) * (rr + 2.0)))
    return bands


def quartic_band4(r, alpha: float, lam: float):
    """Band-4 coupling of lam x^4 from the four-fold x ladder."""
    rr = np.asarray(r, dtype=float)
    q = lam / (4.0 * alpha**2)
    return q * np.sqrt((rr + 1.0) * (rr + 2.0) * (rr + 3.0) * (rr + 4.0))


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


def _quartic_bands(spec, pot, dim, band4_form):
    q = pot.lam / (4.0 * spec.alpha**2)
    r = np.arange(dim, dtype=float)
    bands = [3.0 * q * (2.0 * r * r + 2.0 * r + 1.0)]
    if dim >= 2:
        bands.append(np.zeros(dim - 1))
    if dim >= 3:
        rr = np.arange(dim - 2, dtype=float)
        bands.append(2.0 * q * (2.0 * rr + 3.0) * np.sqrt((rr + 1.0) * (rr + 2.0)))
    if dim >= 4:
        bands.append(np.zeros(dim - 3))
    if dim >= 5:
        rr = np.arange(dim - 4, dtype=float)
        if band4_form == BAND4_LADDER:
            bands.append(quartic_band4(rr, spec.alpha, pot.lam))
        elif band4_form == BAND4_MISINDEXED:
            bands.append(quartic_band4_misindexed(rr, spec.alpha, pot.lam))
        else:
            raise ValueError(f"unknown band4 form {band4_form!r}")
    return bands


def _ladder_bands(spec, pot, dim):
    # Compose the tridiagonal x ladder k times in a padded space so every
    # retained entry is exact (paths never leave the padding).
    kmax = len(pot.coeffs) - 1
    pad = dim + 2 * kmax
    off = np.sqrt(np.arange(1, pad) / (2.0 * spec.alpha))
    ladder = np.zeros((pad, pad))
    idx = np.arange(pad - 1)
    ladder[idx, idx + 1] = off
    ladder[idx + 1, idx] = off
    usq = ladder @ ladder
    acc = np.zeros((pad, pad))
    power = np.eye(pad)
    for k, ck in enumerate(pot.coeffs):
        if k:
            power = power @ usq
        if ck:
            acc += ck * power
    big = acc[:dim, :dim]
    bw = min(2 * kmax, dim - 1)
    return [np.diag(big, k).copy() for k in range(bw + 1)]


def potential_matrix(spec: BasisSpec, pot: PotentialSpec, dim: int, *,
                     band4: str = BAND4_LADDER) -> BandedSymMatrix:
    """Potential-energy matrix with bandwidth equal to the degree of V.

    `band4` selects the quartic band-4 coefficient set; anything but the
    default "ladder" form exists only as a negative control for the
    quadrature cross-check.
    """
    dim = _check_dim(dim)
    if pot.kind == HARMONIC:
        bands = _harmonic_bands(spec, pot, dim)
    elif pot.kind == QUARTIC:
        bands = _quartic_bands(spec, pot, dim, band4)
    else:
        bands = _ladder_bands(spec, pot, dim)
    return BandedSymMatrix(dim, len(bands) - 1, tuple(bands))


def hamiltonian_matrix(spec: BasisSpec, pot: PotentialSpec, dim: int) -> BandedSymMatrix:
    """H = T + V, entrywise exact sum of the two banded builders."""
    return kinetic_matrix(spec, dim) + potential_matrix(spec, pot, dim)
