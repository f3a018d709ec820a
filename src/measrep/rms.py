"""Reproduction-error figures of merit.

The exact Haar-averaged error of an implemented POVM or instrument
against its target in any dimension, with a Haar Monte Carlo estimator
of the POVM error that cross-checks it. The estimate lives at the
squared-error level; the reported value is its square root with a
delta-method standard error. The estimator is real arithmetic on the
Gaussian draws behind Haar states, in row blocks of bounded size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from . import qcore
from .errors import InvalidBounds, ShapeMismatch
from .qcore import Instrument, Povm, Rng


@dataclass(frozen=True)
class RmsEstimate:
    value: float
    standard_error: float


def _check_povm_shapes(impl: Povm, target: Povm) -> None:
    if impl.dim != target.dim or impl.outcomes != target.outcomes:
        raise ShapeMismatch("implemented and target POVMs must match in shape")


def rms_exact_povm(impl: Povm, target: Povm) -> float:
    """Exact Haar-averaged outcome-statistics error, in any dimension.

    For Hermitian D in dimension d and Haar-random psi,
    E <psi|D|psi>^2 = ((Tr D)^2 + ||D||_F^2) / (d (d+1)); the error is
    the root of its mean over the outcomes, D_a = impl_a - target_a.
    """
    _check_povm_shapes(impl, target)
    d = impl.dim
    sq = 0.0
    for mi, ti in zip(impl.elements, target.elements):
        diff = mi - ti
        sq += float(np.trace(diff).real) ** 2 + float(np.vdot(diff, diff).real)
    return math.sqrt(sq / (impl.outcomes * d * (d + 1)))


def rms_exact_instrument(impl: Instrument, target: Instrument) -> float:
    """Exact Haar-averaged sub-channel error, in any dimension.

    For a linear map Delta on d x d matrices and Haar-random psi,
    E ||Delta(|psi><psi|)||_F^2
    = (||Delta(I)||_F^2 + sum_ij ||Delta(|i><j|)||_F^2) / (d (d+1));
    the error is the root of its mean over the outcomes,
    Delta_a = Phi_a^impl - Phi_a^target. With one-dimensional outputs
    it is ``rms_exact_povm`` of the induced POVMs.
    """
    shape = (impl.dim_out, impl.dim_in)
    if (shape, impl.outcomes) != ((target.dim_out, target.dim_in), target.outcomes):
        raise ShapeMismatch("implemented and target instruments must match in shape")
    d, sq = impl.dim_in, 0.0
    for gi, gt in zip(impl.kraus, target.kraus):
        # Phi_a(|i><j|) = sum_k K_k |i><j| K_k^dagger at [i, j]; a group may be empty
        ki, kt = (np.reshape(g, (len(g),) + shape) for g in (gi, gt))
        diff = (np.einsum("rai,rbj->ijab", ki, ki.conj())
                - np.einsum("rai,rbj->ijab", kt, kt.conj()))
        of_identity = np.trace(diff)  # Delta_a(I)
        sq += float(np.vdot(of_identity, of_identity).real + np.vdot(diff, diff).real)
    return math.sqrt(sq / (impl.outcomes * d * (d + 1)))


def _quadratic_form_coefficients(impl: Povm, target: Povm) -> np.ndarray:
    """Real (d^2, m) matrix whose column a holds the coefficients of
    <z|D_a|z>, D_a = impl_a - target_a, on the features of
    ``_squared_errors``: the real part of the complex form, so the
    Hermitian part of D_a."""
    d = impl.dim
    iu, ju = np.triu_indices(d, 1)
    cols = []
    for mi, ti in zip(impl.elements, target.elements):
        diff = mi - ti
        cols.append(np.concatenate((
            np.diagonal(diff).real,
            diff[iu, ju].real + diff[ju, iu].real,
            diff[ju, iu].imag - diff[iu, ju].imag,
        )))
    return np.array(cols).T


def _squared_errors(x: np.ndarray, y: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """Sum over a of <psi|D_a|psi>^2 per row, psi = z / ||z||, z = x + iy.

    The features [|z_i|^2, Re conj(z_i) z_j, Im conj(z_i) z_j] (i < j)
    times ``coef`` give <z|D_a|z>; ||z||^2 is the sum of the first d.
    """
    d = x.shape[1]
    iu, ju = np.triu_indices(d, 1)
    f = np.empty((x.shape[0], d * d))
    np.add(x * x, y * y, out=f[:, :d])
    xi, xj, yi, yj = x[:, iu], x[:, ju], y[:, iu], y[:, ju]
    np.add(xi * xj, yi * yj, out=f[:, d : d + iu.size])
    np.subtract(xi * yj, yi * xj, out=f[:, d + iu.size :])
    e = (f @ coef) / f[:, :d].sum(axis=1, keepdims=True)
    return np.einsum("na,na->n", e, e)


def _estimate_from_squares(sq: np.ndarray) -> RmsEstimate:
    n = sq.size
    mean = float(sq.mean())
    se_sq = float(sq.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    value = math.sqrt(max(mean, 0.0))
    if se_sq == 0.0:
        se = 0.0
    elif value > 1e-12:
        se = se_sq / (2.0 * value)
    else:
        se = math.sqrt(se_sq)
    return RmsEstimate(value=value, standard_error=se)


def _haar_normals(dim: int, count: int, rng: Rng):
    """Real and imaginary parts (count, dim) of the Gaussian vectors z
    behind ``count`` Haar states z / ||z||: all real parts, then all
    imaginary parts."""
    if dim < 1 or count < 0:
        raise InvalidBounds(f"need dim >= 1 and count >= 0, got {dim} and {count}")
    qcore._check_bytes("the Haar states", 16 * count * dim)
    g = rng.generator
    return g.standard_normal((count, dim)), g.standard_normal((count, dim))


def rms_monte_carlo_povm(
    impl: Povm, target: Povm, samples: int, rng: Rng
) -> RmsEstimate:
    """Haar Monte Carlo estimate of the outcome-statistics error.

    Draws the Gaussian vectors z of ``samples`` Haar states
    psi = z / ||z||, but never forms the states: each <psi|D_a|psi>
    comes from one real matrix product per block of rows, the quadratic
    features of the vectors times a coefficient matrix. The feature
    blocks stay within ``qcore._BLOCK_BYTES``.
    """
    _check_povm_shapes(impl, target)
    if samples < 100:
        raise InvalidBounds(f"{samples} < 100 samples")
    d = impl.dim
    coef = _quadratic_form_coefficients(impl, target)
    re, im = _haar_normals(d, samples, rng)
    rows = max(1, qcore._BLOCK_BYTES // (8 * d * d))
    sq = np.concatenate([_squared_errors(re[s : s + rows], im[s : s + rows], coef)
                         for s in range(0, samples, rows)])
    sq /= impl.outcomes
    return _estimate_from_squares(sq)
