"""Complex linear algebra and the quantum object model.

Everything here operates on dense ``numpy`` arrays of ``complex128``.
States are 1-D arrays, operators are 2-D arrays. POVMs and instruments
are thin immutable wrappers that carry their elements plus validation
helpers; all heavy lifting is plain linear algebra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (InvalidBounds, InvalidMeasurement, NotHermitian,
                     ShapeMismatch, TooLarge)

# Bytes any one array whose size comes from the input may take.
_BYTE_BUDGET = 2**30

# Bytes of one block of rows, where a computation runs in row blocks: the
# exhaustive search's stacks, the Monte Carlo features and block coding.
_BLOCK_BYTES = 2**19

# Default tolerances, matching what tensor products of validated
# objects accumulate in double precision.
COMPLETENESS_ATOL = 1e-10
POSITIVITY_ATOL = 1e-10
TRIVIAL_ATOL = 1e-10
HERMITICITY_RTOL = 1e-10  # relative to max(1, ||m||)
NORMALIZATION_ATOL = 1e-9  # Frobenius norm of sum_k K^dagger K - I


def _matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ShapeMismatch(f"expected a matrix, got ndim={m.ndim}")
    return m


def _square(a) -> np.ndarray:
    m = _matrix(a)
    if m.shape[0] != m.shape[1] or m.size == 0:
        raise ShapeMismatch(f"expected a nonempty square matrix, got shape {m.shape}")
    return m


def _vector(a) -> np.ndarray:
    v = np.asarray(a, dtype=complex)
    if v.ndim != 1:
        raise ShapeMismatch(f"expected a vector, got ndim={v.ndim}")
    return v


def dagger(m: np.ndarray) -> np.ndarray:
    return np.conj(m).T


def frobenius(m: np.ndarray) -> float:
    return float(np.linalg.norm(m))


def density(psi) -> np.ndarray:
    """Rank-one density matrix |psi><psi|."""
    v = _vector(psi)
    return np.outer(v, np.conj(v))


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex)


# ---------------------------------------------------------------------------
# RNG
# ---------------------------------------------------------------------------


@dataclass
class Rng:
    """Seeded random stream with a substream index.

    Identical ``(seed, substream)`` pairs reproduce the identical sample
    sequence. Each consumer must get its own substream via
    :meth:`split`; a single Rng must never be shared.
    """

    seed: int
    substream: int = 0
    generator: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not all(isinstance(v, (int, np.integer)) and v >= 0
                   for v in (self.seed, self.substream)):
            raise InvalidBounds(f"seed {self.seed!r} and substream "
                                f"{self.substream!r} must be integers >= 0")
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.substream,))
        self.generator = np.random.default_rng(ss)

    def split(self, substream: int) -> "Rng":
        """Fresh Rng on the same seed but a different substream."""
        return Rng(self.seed, substream)


# ---------------------------------------------------------------------------
# Quantum object model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Povm:
    """Ordered positive operators summing to the identity."""

    elements: tuple

    def __post_init__(self):
        elems = tuple(_square(e) for e in self.elements)
        if not elems:
            raise ShapeMismatch("POVM needs at least one element")
        d = elems[0].shape[0]
        for a, e in enumerate(elems):
            if e.shape != (d, d):
                raise ShapeMismatch("POVM elements must be square and same-dim")
            if not np.all(np.isfinite(e)):
                raise InvalidMeasurement(f"POVM element {a}: non-finite entry")
        for e in elems:
            e.setflags(write=False)
        object.__setattr__(self, "elements", elems)

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]

    @property
    def outcomes(self) -> int:
        return len(self.elements)

    def table(self, states) -> np.ndarray:
        """Outcome table (len(states), m) with rows <s|M_a|s>, one row
        per state vector s."""
        return np.array([[float(np.real(np.conj(s) @ (e @ s))) for e in self.elements]
                         for s in states])

    def is_trivial(self) -> bool:
        """True when every element is proportional to the identity."""
        d = self.dim
        for e in self.elements:
            if frobenius(e - (np.trace(e) / d) * identity(d)) > TRIVIAL_ATOL:
                return False
        return True


@dataclass(frozen=True)
class PovmReport:
    """Structured validation result for a POVM."""

    ok: bool
    completeness_defect: float
    min_eigenvalues: tuple
    violations: tuple


@dataclass(frozen=True)
class Instrument:
    """Per-outcome Kraus operator lists K_i^a."""

    kraus: tuple  # tuple (per outcome) of tuples of matrices

    def __post_init__(self):
        groups = []
        for group in self.kraus:
            groups.append(tuple(_matrix(k) for k in group))
        groups = tuple(groups)
        if not groups or not any(groups):
            raise ShapeMismatch("instrument needs at least one Kraus operator")
        first = next(k for g in groups for k in g)
        if first.size == 0:
            raise ShapeMismatch("Kraus operators must be nonempty")
        dout, din = first.shape
        for a, g in enumerate(groups):
            for k in g:
                if k.shape != (dout, din):
                    raise ShapeMismatch("all Kraus operators must share a shape")
                if not np.all(np.isfinite(k)):
                    raise InvalidMeasurement(
                        f"instrument outcome {a}: non-finite Kraus entry"
                    )
                k.setflags(write=False)
        object.__setattr__(self, "kraus", groups)

    @property
    def dim_in(self) -> int:
        return next(k for g in self.kraus for k in g).shape[1]

    @property
    def dim_out(self) -> int:
        return next(k for g in self.kraus for k in g).shape[0]

    @property
    def outcomes(self) -> int:
        return len(self.kraus)

    def normalization_defect(self) -> float:
        s = sum(dagger(k) @ k for g in self.kraus for k in g)
        return frobenius(s - identity(self.dim_in))


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def _check_bytes(what: str, nbytes: int, base: int = 1, exponent: int = 1) -> None:
    """Raise ``TooLarge`` unless ``what``, nbytes * base^exponent bytes
    (nbytes >= 1), fits the budget. A power the exponent alone puts past
    2^64 is not computed, and no size from 2^64 up is printed."""
    size = nbytes * base**exponent if base < 2 or exponent < 64 else 2**64
    if size > _BYTE_BUDGET:
        shown = size if size < 2**64 else "at least 2^64"
        raise TooLarge(
            f"{what} would take {shown} bytes, over the budget of {_BYTE_BUDGET}")


def tensor(a, b) -> np.ndarray:
    """Kronecker product, within the byte budget.

    The same broadcast multiply ``np.kron`` makes for two matrices, so
    the same bits, minus its general-shape overhead.
    """
    a, b = _matrix(a), _matrix(b)
    _check_bytes("a tensor product", 16 * a.size * b.size)
    rows, cols = a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(rows, cols)


def hermitian_eig(m):
    """Eigendecomposition of a Hermitian matrix.

    Returns eigenvalues sorted descending and orthonormal eigenvector
    columns. Ordering is deterministic: degenerate eigenvalues are
    tie-broken by lexicographic comparison of the (phase-canonicalised)
    eigenvector entries, larger first.
    """
    m = _square(m)
    defect = frobenius(m - dagger(m))
    if defect > HERMITICITY_RTOL * max(1.0, frobenius(m)):
        raise NotHermitian(f"Hermiticity defect {defect:.3e}")
    h = (m + dagger(m)) / 2
    w, v = np.linalg.eigh(h)
    w = w[::-1].copy()
    v = v[:, ::-1].copy()
    # global phase: the first non-negligible entry of each column is
    # made positive real (hypot rounds like the scalar abs() of a
    # complex; numpy's vectorised complex abs can differ by an ulp)
    big = np.abs(v) > 1e-12
    cols = np.flatnonzero(big.any(axis=0))
    lead = v[np.argmax(big, axis=0)[cols], cols]
    v[:, cols] /= lead / np.hypot(lead.real, lead.imag)
    # stable ordering inside degenerate clusters: columns sorted by
    # their rounded (re, im) entries, row by row, larger first
    j = 0
    n = w.size
    while j < n:
        k = j + 1
        while k < n and abs(w[k] - w[j]) <= 1e-12:
            k += 1
        if k - j > 1:
            block = np.round(v[:, j:k], 10)
            keys = np.empty((2 * block.shape[0], k - j))
            keys[0::2] = block.real
            keys[1::2] = block.imag
            # lexsort's last key is the primary one
            v[:, j:k] = v[:, j + np.lexsort(-keys[::-1])]
        j = k
    return w, v


def validate_povm(p: Povm) -> PovmReport:
    """Positivity and completeness check; reports defects, never raises.

    Comparisons fail closed: a NaN defect or eigenvalue is a violation.
    """
    total = sum(p.elements)
    completeness = frobenius(total - identity(p.dim))
    min_eigs = []
    violations = []
    for a, e in enumerate(p.elements):
        herm = frobenius(e - dagger(e))
        if herm > HERMITICITY_RTOL * max(1.0, frobenius(e)):
            violations.append(f"element {a}: not Hermitian (defect {herm:.3e})")
            min_eigs.append(float("nan"))
            continue
        lo = float(np.linalg.eigvalsh((e + dagger(e)) / 2)[0])
        min_eigs.append(lo)
        if not lo >= -POSITIVITY_ATOL:
            violations.append(f"element {a}: negative eigenvalue {lo:.3e}")
    if not completeness <= COMPLETENESS_ATOL:
        violations.append(f"completeness defect {completeness:.3e}")
    return PovmReport(
        ok=not violations,
        completeness_defect=completeness,
        min_eigenvalues=tuple(min_eigs),
        violations=tuple(violations),
    )


def induced_povm(inst: Instrument) -> Povm:
    """POVM element sum_i K_i^a† K_i^a per outcome."""
    din = inst.dim_in
    elems = []
    for group in inst.kraus:
        m = np.zeros((din, din), dtype=complex)
        for k in group:
            m += dagger(k) @ k
        elems.append(m)
    return Povm(tuple(elems))


# ---------------------------------------------------------------------------
# Built-in measurements
# ---------------------------------------------------------------------------


def trine_povm() -> Povm:
    """Symmetric three-outcome qubit POVM at 120 degree separations."""
    phis = [
        np.array([1.0, 0.0], dtype=complex),
        np.array([0.5, math.sqrt(3) / 2], dtype=complex),
        np.array([0.5, -math.sqrt(3) / 2], dtype=complex),
    ]
    return Povm(tuple((2.0 / 3.0) * density(p) for p in phis))


def noisy_z_povm(p: float, q: float) -> Povm:
    """Asymmetric noisy Z measurement {diag(p, 1-q), diag(1-p, q)}."""
    n0 = np.diag([p, 1.0 - q]).astype(complex)
    n1 = np.diag([1.0 - p, q]).astype(complex)
    return Povm((n0, n1))


def von_neumann_povm(dim: int) -> Povm:
    """Projective measurement onto the computational basis."""
    _check_bytes("the von Neumann elements", 16 * dim**3)
    return Povm(tuple(density(np.eye(dim, dtype=complex)[i]) for i in range(dim)))


def degenerate_qutrit_povm() -> Povm:
    m0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
    m1 = np.diag([0.0, 1.0, 1.0]).astype(complex)
    return Povm((m0, m1))


def sqrtm_psd(m: np.ndarray) -> np.ndarray:
    """Principal square root of a positive semidefinite Hermitian matrix."""
    w, v = hermitian_eig(m)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ dagger(v)


def lueders_instrument(p: Povm) -> Instrument:
    """Single Kraus operator sqrt(M_a) per outcome."""
    return Instrument(tuple((sqrtm_psd(e),) for e in p.elements))
