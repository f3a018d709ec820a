"""Reproduction-error figures of merit.

The exact Haar-averaged error between an implemented and a target POVM
in any dimension, with a Haar Monte Carlo estimator that cross-checks
it, and the Frobenius figure of merit for instruments, which is
estimated by Monte Carlo only. Estimates live at the squared-error
level; reported values are the square roots with delta-method
standard errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ShapeMismatch, TooFewSamples
from .qcore import Instrument, Povm, Rng, haar_states


@dataclass(frozen=True)
class RmsEstimate:
    value: float
    standard_error: float
    sample_count: int
    seed: Optional[int]


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


def _expectations(psi: np.ndarray, op: np.ndarray) -> np.ndarray:
    return np.einsum("ni,ij,nj->n", np.conj(psi), op, psi).real


def _estimate_from_squares(sq: np.ndarray, seed) -> RmsEstimate:
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
    return RmsEstimate(value=value, standard_error=se, sample_count=n, seed=seed)


def rms_monte_carlo_povm(
    impl: Povm, target: Povm, samples: int, rng: Rng
) -> RmsEstimate:
    """Haar Monte Carlo estimate of the outcome-statistics error."""
    _check_povm_shapes(impl, target)
    if samples < 100:
        raise TooFewSamples(f"{samples} < 100 samples")
    psi = haar_states(impl.dim, samples, rng)
    sq = np.zeros(samples)
    for mi, ti in zip(impl.elements, target.elements):
        sq += (_expectations(psi, mi) - _expectations(psi, ti)) ** 2
    sq /= impl.outcomes
    return _estimate_from_squares(sq, rng.seed)


def _subchannel_outputs(psi: np.ndarray, group) -> np.ndarray:
    """Unnormalised Lambda_a(|psi><psi|) for a batch of states."""
    n = psi.shape[0]
    dout = group[0].shape[0]
    out = np.zeros((n, dout, dout), dtype=complex)
    for k in group:
        v = psi @ k.T  # rows K|psi>
        out += np.einsum("ni,nj->nij", v, np.conj(v))
    return out


def rms_monte_carlo_instrument(
    impl: Instrument, target: Instrument, samples: int, rng: Rng
) -> RmsEstimate:
    """Haar Monte Carlo estimate of the Frobenius sub-channel error."""
    if (
        impl.dim_in != target.dim_in
        or impl.dim_out != target.dim_out
        or impl.outcomes != target.outcomes
    ):
        raise ShapeMismatch("implemented and target instruments must match in shape")
    if samples < 100:
        raise TooFewSamples(f"{samples} < 100 samples")
    psi = haar_states(impl.dim_in, samples, rng)
    sq = np.zeros(samples)
    for gi, gt in zip(impl.kraus, target.kraus):
        diff = _subchannel_outputs(psi, gi) - _subchannel_outputs(psi, gt)
        sq += np.einsum("nij,nij->n", diff, np.conj(diff)).real
    sq /= impl.outcomes
    return _estimate_from_squares(sq, rng.seed)
