"""Universal sub-routines for measurement reproduction.

Two building blocks: the post-measurement isometry W that realises an
arbitrary instrument given a perfect von Neumann measurement (and reads
it back), and generalised classical cloning, which distinguishes a
basis of states using repeated runs of any non-trivial POVM plus
maximum-likelihood decoding of the outcome string, whose exact error
is ``coding.cloning_error_rate``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qcore
from .errors import (InvalidMeasurement, NotConverged, ShapeMismatch,
                     TrivialMeasurement)
from .qcore import Instrument, Povm

_ROW_DISTINCT_TV = 1e-6
_THETA_SCAN = tuple(math.pi / 2**k for k in range(3, 12))


# ---------------------------------------------------------------------------
# Post-measurement sub-routine
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MeasurementIsometry:
    """W mapping |psi> to sum_{i,j} K_j^i|psi> |i> |j>.

    Register order: output system, outcome register, Kraus-index
    register. Measuring the outcome register reproduces the target
    statistics; the Kraus register is traced out, never measured.
    """

    d_in: int
    d_out: int
    m: int
    r: int
    matrix: np.ndarray  # (d_out * m * r, d_in)

    def instrument(self) -> Instrument:
        """The instrument W realises, read back from its (outcome, Kraus)
        blocks: K_j^i = (<i| <j|) W, as a (d_out, d_in) operator."""
        w = self.matrix.reshape(self.d_out, self.m, self.r, self.d_in)
        return Instrument(tuple(tuple(w[:, i, j] for j in range(self.r))
                                for i in range(self.m)))


def build_measurement_isometry(target: Instrument) -> MeasurementIsometry:
    defect = target.normalization_defect()
    if defect > qcore.NORMALIZATION_ATOL:
        raise InvalidMeasurement(f"Kraus normalisation defect {defect:.3e}")
    din, dout, m = target.dim_in, target.dim_out, target.outcomes
    r = max(len(g) for g in target.kraus)
    # rows (s, i, j) with s the output-system index
    w = np.zeros((dout, m, r, din), dtype=complex)
    for i, group in enumerate(target.kraus):
        for j, k in enumerate(group):
            w[:, i, j] = k
    return MeasurementIsometry(d_in=din, d_out=dout, m=m, r=r,
                               matrix=w.reshape(dout * m * r, din))


# ---------------------------------------------------------------------------
# Generalised classical cloning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CloningBasis:
    """Orthonormal cloning states with pairwise-distinct outcome rows."""

    states: tuple  # d vectors
    table: np.ndarray  # (d, m) with rows P(a|i)


def _tv(p, q) -> float:
    return 0.5 * float(np.sum(np.abs(p - q)))


def _colliding_pairs(table: np.ndarray):
    d = table.shape[0]
    return [
        (i, j)
        for i in range(d)
        for j in range(i + 1, d)
        if _tv(table[i], table[j]) < _ROW_DISTINCT_TV
    ]


def _repairs(available: Povm, states: list, table: np.ndarray, i: int, j: int):
    """Candidate states for the colliding pair (i, j): the eigenvectors on
    its span of each POVM element not proportional to the identity there,
    then e_i turned against the first basis state with a distinct row,
    theta from a fixed scan."""
    ei, ej = states[i], states[j]
    for e in available.elements:
        r00 = np.conj(ei) @ (e @ ei)
        r01 = np.conj(ei) @ (e @ ej)
        r11 = np.conj(ej) @ (e @ ej)
        if abs(r01) > 1e-10 or abs(r00 - r11) > 1e-10:
            restricted = np.array([[r00, r01], [np.conj(r01), r11]])
            _, vecs = qcore.hermitian_eig(restricted)
            cand = list(states)
            cand[i] = vecs[0, 0] * ei + vecs[1, 0] * ej
            cand[j] = vecs[0, 1] * ei + vecs[1, 1] * ej
            yield cand
    k = next((k for k in range(len(states)) if k not in (i, j)
              and _tv(table[k], table[i]) >= _ROW_DISTINCT_TV), None)
    if k is None:
        return
    for theta in _THETA_SCAN:
        c, s = math.cos(theta), math.sin(theta)
        cand = list(states)
        cand[i] = c * ei + s * states[k]
        cand[k] = -s * ei + c * states[k]
        yield cand


def _repaired(available: Povm, states: list, table: np.ndarray, collisions: list):
    """The first candidate of ``_repairs``, pair by pair, under which fewer
    pairs collide, or None."""
    for i, j in collisions:
        for cand in _repairs(available, states, table, i, j):
            if len(_colliding_pairs(available.table(cand))) < len(collisions):
                return cand
    return None


def select_cloning_basis(available: Povm) -> CloningBasis:
    """Find cloning states whose outcome distributions are pairwise distinct.

    Starts from the computational basis and repairs colliding pairs
    (``_repaired``) until none collides. When no repair lowers the number
    of colliding pairs and every pair collides, no state tried moves a
    row by the distinctness bound (``TrivialMeasurement``); other rows,
    and the iteration cap, raise ``NotConverged``.
    """
    if available.is_trivial():
        raise TrivialMeasurement("all POVM elements proportional to the identity")
    d = available.dim
    states = [np.eye(d, dtype=complex)[:, i] for i in range(d)]
    for _ in range(10 * d * d):
        table = available.table(states)
        collisions = _colliding_pairs(table)
        if not collisions:
            return CloningBasis(states=tuple(states), table=table)
        states = _repaired(available, states, table, collisions)
        if states is None:
            if len(collisions) == d * (d - 1) // 2:  # all rows equal
                raise TrivialMeasurement(
                    "no basis state with a distinct outcome distribution exists")
            raise NotConverged("rotation scan failed to separate rows")
    raise NotConverged("basis selection did not converge")


def chernoff_information(p, q) -> float:
    """Symmetric hypothesis-testing exponent between two distributions.

    Returns +inf when the supports are disjoint; minimised over the
    tilting parameter by golden-section search (the log-sum is convex).
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    for r in (p, q):
        if (r.ndim != 1 or r.shape != p.shape or not np.all(np.isfinite(r))
                or np.any(r < -1e-9) or abs(r.sum() - 1.0) > 1e-9):
            raise ShapeMismatch("p and q must be distributions on one alphabet")
    common = (p > 0.0) & (q > 0.0)
    if not np.any(common):
        return float("inf")
    pc, qc = p[common], q[common]

    def f(s):
        return float(np.sum(pc**s * qc ** (1.0 - s)))

    lo, hi = 0.0, 1.0
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = hi - invphi * (hi - lo), lo + invphi * (hi - lo)
    fa, fb = f(a), f(b)
    for _ in range(200):
        if fa <= fb:
            hi, b, fb = b, a, fa
            a = hi - invphi * (hi - lo)
            fa = f(a)
        else:
            lo, a, fa = a, b, fb
            b = lo + invphi * (hi - lo)
            fb = f(b)
    best = min(f(0.0), f(1.0), f((lo + hi) / 2.0))
    best = min(max(best, 1e-300), 1.0)
    return -math.log(best)
