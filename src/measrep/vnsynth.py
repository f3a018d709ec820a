"""Synthesis of von Neumann measurements from repeated uses of a POVM.

The pipeline: partition the outcome strings of N parallel uses into
target outcomes (giving a coarse-grained POVM on the N-fold space),
minimise the reproduction error over achievable expectation values
(a box-constrained quadratic program), then construct orthonormal
prepared states realising the optimum, with a single unmeasured
ancilla qubit when no in-space solution exists.

The partition searches score candidates on partial sums. Q_0 is the
sum of the string tensors T_s assigned to target 0, so each candidate
differs from one already summed by +-T_s. The exhaustive search builds
the Q_0 of all partitions level by level as one stacked array and
reads their extreme eigenvalues from one call per stack of LAPACK's
``eigvalsh`` gufunc, the one ``np.linalg.eigvalsh`` calls. Every other
Q_0, each start and neighbour of the hill climb and each winner, is
read alone by ``_extremes``; the climb moves one string at a time, and
scores no neighbour on a side of its partition (strings out of Q_0, or
into it) that the box program bounds out.
Each candidate then costs one run of the box program on two floats,
solved in closed form (``_box_minimiser``), and only the winner
becomes a protocol, with its ``BoxQuadSolution`` and states: both
searches return it as a ``SynthesizedProtocol``, solved on the box of
its own Q_0 as ``_partition_protocol`` contracts it.

When the POVM's elements commute (every two-outcome POVM does, and so
do noisy and lossy measurements), all T_s are diagonal in one product
basis U^(x N). The searches then add the real d^N-vectors of their
eigenvalues instead, and read the extreme eigenvalues of Q_0 as a
vector's min and max, with no ``eigvalsh``. The protocol keeps its
coarse elements as such vectors too. Its states are built in U's frame,
where Q_0 is diag(q_0), and mapped out once by U^(x N), one tensor
factor at a time; ``implemented_povm`` maps them back: no d^N x d^N
operator is formed.

Inputs that do not commute but are real in one rotated frame are scored
there, on real symmetric T_s and the real ``eigvalsh``: every
three-outcome qubit POVM is one, since its Bloch vectors sum to zero and
so lie in one plane, which a rotation turns into x-z. The frame is
admitted only when its imaginary residue moves no scored eigenvalue by
more than ``_TIE_WINDOW`` (``_common_eigenbasis``). Only the scoring
uses it: protocols, states and implemented POVMs are never framed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import qcore
from .errors import InvalidBounds, NotConverged, ShapeMismatch, TooLarge
from .qcore import Povm, Rng, dagger, tensor

# Most outcome strings exhaustive_search accepts; synthesize hill-climbs beyond.
_EXHAUSTIVE_STRING_CAP = 12

# Random starts of hill_climb_search, after the closed-form partition.
_RESTARTS = 8

# Epsilons within this of the best one tie in exhaustive_search. It also
# bounds how far an input admitted as commuting, or scored in a real
# frame, may move the eigenvalues the searches score (``_search_terms``).
_TIE_WINDOW = 1e-12


# ---------------------------------------------------------------------------
# Partition protocols
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PartitionProtocol:
    """Binary outcome-string partition plus the two-outcome coarse-grained
    POVM it induces.

    ``coarse`` holds Q_0 and Q_1. When the available elements commute,
    ``basis`` is U and each Q_a is held as its real d^N eigenvalue vector
    q_a, its matrix in U's frame: Q_a = U^(x N) diag(q_a) U^(x N)^dagger.
    Otherwise ``basis`` is None and they are the D x D operators.
    """

    n_uses: int
    assignment: tuple  # target outcome, 0 or 1, per lexicographic outcome string
    coarse: tuple
    basis: Optional[np.ndarray]


def _check_coarse_bytes(factors, n_uses) -> None:
    """Raise ``TooLarge`` unless the two coarse elements summed from
    ``factors``, N-fold products of the ``_common_eigenbasis`` factors,
    fit the byte budget."""
    qcore._check_bytes("the coarse elements", 2 * factors[0].itemsize,
                       factors[0].size, n_uses)


def _common_eigenbasis(available: Povm, n_uses: int):
    """(U, factors, scored): U and the eigenvalue vectors of the elements
    when they commute for N uses, else None and their Hermitian parts
    (M + M^dagger)/2, which ``_partition_protocol`` contracts. The
    searches take products of ``scored``: the same factors, or the
    elements' real parts in a real frame. So a protocol holds the Q_0
    that was scored, up to rounding and, in a frame, the bound below.

    It first rejects a use count below 1 (``InvalidBounds``) and an m^N
    whose assignment, 8 bytes a string, would pass the byte budget
    (``TooLarge``), so N is bounded before any caller computes m^N.
    U diagonalises the fixed combination sum_a (a + 1) M_a, and
    factors[a] is the real diagonal of U^dagger M_a U. The elements count
    as commuting when N * sum_a ||E_a||_2 <= ``_TIE_WINDOW``, E_a the
    off-diagonal part of U^dagger M_a U; ``_search_terms`` shows what
    that bound guarantees.

    Otherwise U's columns are turned by phases that make the first row
    of sum_a (a + 1)^2 U^dagger M_a U real and nonnegative, giving the
    frame F_a = V^dagger M_a V, V = U diag(phases). ``scored`` is the
    real parts of the F_a, symmetrised, when N * sum_a ||Im F_a||_2 <=
    ``_TIE_WINDOW``, and the Hermitian parts otherwise. A three-outcome
    qubit POVM always has such a frame: its Bloch vectors sum to zero,
    so they lie in one plane, which a rotation turns into x-z. Whenever a
    real frame exists and the combination's eigenvalues are distinct,
    the eigenbasis in it is real up to column phases, which the first
    row fixes unless one of its entries vanishes; any frame the bound
    does not admit leaves the dense complex factors.
    """
    if n_uses < 1:
        raise InvalidBounds("n_uses must be >= 1")
    qcore._check_bytes(f"an assignment of {available.outcomes}^{n_uses} outcome "
                       "strings", 8, available.outcomes, n_uses)
    comb = sum((a + 1) * e for a, e in enumerate(available.elements))
    _, u = np.linalg.eigh((comb + dagger(comb)) / 2)
    rotated = [dagger(u) @ e @ u for e in available.elements]
    off = sum(np.linalg.norm(r - np.diag(np.diag(r)), 2) for r in rotated)
    if n_uses * off <= _TIE_WINDOW:
        spectra = [np.diag(r).real.copy() for r in rotated]
        return u, spectra, spectra
    hermitian = [(e + dagger(e)) / 2 for e in available.elements]
    row = sum((a + 1) ** 2 * r[0] for a, r in enumerate(rotated))
    phases = np.exp(-1j * np.angle(row))
    framed = [r * np.outer(phases.conj(), phases) for r in rotated]
    if not n_uses * sum(np.linalg.norm(f.imag, 2) for f in framed) <= _TIE_WINDOW:
        return None, hermitian, hermitian
    return None, hermitian, [(f.real + f.real.T) / 2 for f in framed]


def build_partition_povm(
    available: Povm,
    n_uses: int,
    f: Callable[[tuple], int] | Sequence[int],
) -> PartitionProtocol:
    """Coarse-grain N parallel uses of ``available`` through the map f,
    which sends each outcome string to target outcome 0 or 1.

    Each coarse element is contracted one use at a time: as a d^N vector
    when the elements commute, else as a D x D operator. Their bytes are
    checked before f is called on any string.
    """
    common = _common_eigenbasis(available, n_uses)
    _check_coarse_bytes(common[1], n_uses)
    n_strings = available.outcomes**n_uses
    if callable(f):
        f = map(f, itertools.product(range(available.outcomes), repeat=n_uses))
    assignment = tuple(int(v) for v in f)
    if len(assignment) != n_strings:
        raise ShapeMismatch(
            f"assignment length {len(assignment)} != {n_strings} strings")
    if not set(assignment) <= {0, 1}:
        raise ShapeMismatch("assignment values must be 0 or 1")
    return _partition_protocol(available, n_uses, assignment, common)


def _partition_protocol(available, n_uses, assignment, common):
    """``build_partition_povm`` for a checked assignment (a tuple of 0s
    and 1s) and the ``_common_eigenbasis`` of ``available`` at ``n_uses``.

    Q_a = sum_j f_j x Q_a^(j), so Q_a is contracted from the last use to
    the first: a stack R, at first the 0/1 indicator of target a over the
    strings, becomes sum_j f_j x R[:, j] at each use, by one ``tensor``
    (outer product on spectra) and one ``swapaxes`` per factor. Each entry
    is a depth-N tree of m-term sums, and dense elements are exactly
    Hermitian. Every stack's bytes are checked before any is built.
    """
    basis, factors, _ = common
    _check_coarse_bytes(factors, n_uses)
    f0, m, d = factors[0], available.outcomes, available.dim
    for k in range(n_uses + 1):  # after k uses: m^(N-k) blocks of f0.size^k entries
        qcore._check_bytes(f"a coarse element after {k} of {n_uses} uses",
                           f0.itemsize * m ** (n_uses - k), f0.size, k)
    coarse = []
    for target in (0, 1):
        r = (np.array(assignment) == target).astype(f0.dtype)
        r = r.reshape((-1,) + (1,) * f0.ndim)
        for _ in range(n_uses):
            acc = None
            for f, b in zip(factors, r.reshape((-1, m) + r.shape[1:]).swapaxes(0, 1)):
                t = (tensor(f, b.reshape(-1, b.shape[-1])) if f0.ndim == 2
                     else np.multiply.outer(f, b))
                # t's rows run (row of f, block, row of the block)
                t = t.reshape(d, len(b), -1).swapaxes(0, 1)
                acc = t if acc is None else np.add(acc, t, out=acc)
            r = acc.reshape((-1,) + (d * r.shape[1],) * f0.ndim)
        coarse.append(r[0])
    return PartitionProtocol(n_uses, assignment, tuple(coarse), basis)


# ---------------------------------------------------------------------------
# Box quadratic program
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoxQuadSolution:
    """Solution of the qubit two-variable box quadratic program."""

    lam_min: float
    lam_max: float
    x_star: float
    y_star: float
    epsilon: float


def _box_minimiser(lo: float, hi: float):
    """(x, y, value): the minimiser of the qubit squared error
    f(x, y) = ((1 - x - y)^2 + (1 - x) y) / 3 (diagonal (x, y), z = 0)
    over [lo, hi]^2, and f there.

    f is 0 at (1, 0). In a box without that point the minimiser lies on
    the edge x = hi or the edge y = lo: f is strictly convex, with gradient
    (2x + y - 2, x + 2y - 1)/3, and a minimiser with x < hi and y > lo
    would need 2x + y >= 2 and x + 2y <= 1, which forces y <= 0 and x >= 1,
    so the box would hold (1, 0).
    Along x = hi, f is least at y = (1 - hi)/2; when that is not below lo,
    (hi, min((1 - hi)/2, hi)) meets the optimality conditions, else the
    minimiser is on y = lo, at x = 1 - lo/2 clamped into [lo, hi]. For
    1/3 <= hi and lo <= 2/3 these are the paper's three noisy-Z cases: x
    at hi with y inside, the corner (hi, lo), or y at lo with x inside.
    """
    if lo <= 0.0 and 1.0 <= hi:
        return 1.0, 0.0, 0.0
    c = (1.0 - hi) / 2.0  # clamps written out: this runs once per scored box
    if c >= lo:
        x, y = hi, hi if hi < c else c
    else:
        c = 1.0 - lo / 2.0
        c = lo if lo > c else c
        x, y = hi if hi < c else c, lo
    return x, y, ((1.0 - x - y) ** 2 + (1.0 - x) * y) / 3.0


def solve_box_quadratic_qubit(lam_min: float, lam_max: float) -> BoxQuadSolution:
    """Minimise the qubit reproduction error over the eigenvalue box, in
    closed form (``_box_minimiser``)."""
    if not (0.0 <= lam_min <= lam_max <= 1.0):
        raise InvalidBounds(f"bounds ({lam_min}, {lam_max}) outside [0,1]")
    x, y, value = _box_minimiser(lam_min, lam_max)
    return BoxQuadSolution(lam_min, lam_max, x, y, math.sqrt(max(value, 0.0)))


# ---------------------------------------------------------------------------
# State preparation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StatePrep:
    """Orthonormal prepared states on measured systems (+ optional ancilla)."""

    ancilla_qubits: int  # 0 or 1
    states: tuple  # one state vector per target outcome


def _mix_eigvecs(vec_hi, mu_hi, vec_lo, mu_lo, target):
    """Real combination of two eigenvectors with a given expectation."""
    if abs(mu_hi - mu_lo) < 1e-14:
        return vec_hi
    c2 = (target - mu_lo) / (mu_hi - mu_lo)
    c2 = min(max(c2, 0.0), 1.0)
    return math.sqrt(c2) * vec_hi + math.sqrt(1.0 - c2) * vec_lo


def _inspace_binary(evals, column, x, y):
    """Try orthogonal states from disjoint eigenvector pairs; None on failure.

    ``column(j)`` is the eigenvector of ``evals[j]``, sorted descending.
    ``x`` lies in [evals[-1], evals[0]], so the first state always exists:
    it is an exact eigenvector, or it mixes evals[0] with the first
    partner at or below x, evals[-1] at the latest.
    """
    n = evals.size
    tol = 1e-12
    used = set()

    exact_x = [j for j in range(n) if abs(evals[j] - x) <= tol]
    if exact_x:
        u0 = column(exact_x[0])
        used.add(exact_x[0])
    else:
        p = next(j for j in range(1, n) if evals[j] <= x)
        u0 = _mix_eigvecs(column(0), evals[0], column(p), evals[p], x)
        used.update({0, p})

    free = [j for j in range(n) if j not in used]
    exact_y = [j for j in free if abs(evals[j] - y) <= tol]
    if exact_y:
        return u0, column(exact_y[-1])
    lo_cands = [j for j in free if evals[j] <= y]
    if not lo_cands:
        return None
    lo = lo_cands[-1]
    hi_cands = [j for j in free if j != lo and evals[j] >= y]
    if not hi_cands:
        return None
    hi = hi_cands[-1]
    u1 = _mix_eigvecs(column(hi), evals[hi], column(lo), evals[lo], y)
    return u0, u1


def construct_states(protocol: PartitionProtocol, targets) -> StatePrep:
    """States whose expectations on Q_0 are the targets (x, y).

    The in-space route combines disjoint eigenvector pairs of Q_0; when
    that fails a single unmeasured ancilla qubit tags the states |u_i>|i>
    to restore orthogonality.

    A protocol with a ``basis`` builds the pair in U's frame, where Q_0
    is diag(q_0), sorted descending with ties in index order: eigenvector
    j is the unit vector e_{order[j]}. The finished pair V is mapped out
    of the frame once, as (U^(x N) x I) V.
    """
    x, y = float(targets[0]), float(targets[1])
    if protocol.basis is None:
        evals, evecs = qcore.hermitian_eig(protocol.coarse[0])

        def column(j):
            return evecs[:, j]
    else:
        order = np.argsort(-protocol.coarse[0], kind="stable")
        evals = protocol.coarse[0][order]

        def column(j):
            e = np.zeros(evals.size)
            e[order[j]] = 1.0
            return e
    lam_min, lam_max = evals[-1], evals[0]
    slack = 1e-9
    if not (lam_min - slack <= x <= lam_max + slack) or not (
        lam_min - slack <= y <= lam_max + slack
    ):
        raise InvalidBounds(
            f"targets ({x}, {y}) outside eigenvalue range [{lam_min}, {lam_max}]"
        )
    x = min(max(x, lam_min), lam_max)
    y = min(max(y, lam_min), lam_max)

    pair = _inspace_binary(evals, column, x, y)
    ancilla = int(pair is None)
    if ancilla:  # |u_0>|0> and |u_1>|1>
        v_hi, v_lo = column(0), column(evals.size - 1)
        pair = tuple(np.kron(_mix_eigvecs(v_hi, lam_max, v_lo, lam_min, t), e)
                     for t, e in zip((x, y), np.eye(2, dtype=complex)))
    if protocol.basis is not None:
        pair = tuple(_rotate(protocol.basis, np.column_stack(pair), protocol.n_uses).T)
    return StatePrep(ancilla_qubits=ancilla, states=pair)


def _rotate(u, vmat, n_uses):
    """(U^(x N) x I) V for a V whose rows run over d^N x (ancilla), with
    U applied to one tensor factor at a time: no D x D operator is formed."""
    d = u.shape[0]
    for k in range(n_uses):
        vmat = (u @ vmat.reshape(d**k, d, -1)).reshape(vmat.shape)
    return vmat


def implemented_povm(prep: StatePrep, protocol: PartitionProtocol) -> Povm:
    """Effective POVM on the original system, via the prepared-state isometry.

    Element a is V^dagger (Q_a x I) V for the states V. For a protocol
    with a ``basis`` V is first rotated into U's frame,
    ((U^dagger)^(x N) x I) V, where Q_a is diag(q_a).
    """
    anc = 2**prep.ancilla_qubits
    vmat = np.column_stack(prep.states)
    if protocol.coarse[0].shape[0] * anc != vmat.shape[0]:
        raise ShapeMismatch("state and coarse POVM dimensions disagree")
    if protocol.basis is not None:
        vmat = _rotate(dagger(protocol.basis), vmat, protocol.n_uses)
    v = vmat.reshape(-1, 2 * anc)  # rows: the measured index; columns: (ancilla, state)
    return Povm(tuple(
        dagger(vmat) @ (q @ v if q.ndim == 2 else q[:, None] * v).reshape(vmat.shape)
        for q in protocol.coarse))


# ---------------------------------------------------------------------------
# Partition searches (binary target)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SynthesizedProtocol:
    """A partition protocol, the box optimum on its own Q_0, and states."""

    protocol: PartitionProtocol
    solution: BoxQuadSolution
    prep: StatePrep
    co_optimal: tuple  # assignments tying the optimum (canonical form)
    evaluated: int  # partitions scored or bounded


def _finish(protocol, co_optimal, evaluated) -> SynthesizedProtocol:
    """``protocol`` solved on the clamped box of its own Q_0 (the searches'
    sums can round the box they scored an ulp off), with the states
    ``construct_states`` builds for its optimum."""
    solution = solve_box_quadratic_qubit(*_score(*_extremes(protocol.coarse[0]))[1:])
    prep = construct_states(protocol, (solution.x_star, solution.y_star))
    return SynthesizedProtocol(protocol, solution, prep, co_optimal, evaluated)


def _search_terms(available: Povm, n_uses: int, common) -> np.ndarray:
    """One term per outcome string, in lexicographic order, for the searches,
    stacked as one array whose row s is the term of string s.

    The terms are the eigenvalue vectors t_s = v_{a_1} x ... x v_{a_N}
    (real, length d^N) when the elements commute, the real D x D string
    tensors of the ``scored`` factors in a real frame (below), and the
    complex string tensors T_s otherwise; Q_0 summed from them are scored
    by ``_extremes`` and ``_score`` in every case. ``common`` is the
    ``_common_eigenbasis`` of ``available`` at ``n_uses``. All m^N terms
    are held, so their bytes are checked against the byte budget before
    any is built.
    They are built one use at a time, by one broadcast multiply per use,
    each entry the same product that a chain of ``np.kron`` computes.
    Dense terms are products of the Hermitian parts of the elements, or
    of exactly symmetric real parts, so every product and partial sum is
    exactly Hermitian (rounding commutes with conjugation) for LAPACK's
    ``eigvalsh``, which reads one triangle, as is every protocol
    contracted from the Hermitian parts for ``hermitian_eig``.

    Commutation is tested once, by ``_common_eigenbasis``: U
    diagonalises the fixed combination sum_a (a + 1) M_a, and v_a is the
    real diagonal of U^dagger M_a U. An accidental degeneracy of the
    combination leaves U free inside an eigenspace: if that U misses
    some M_a, the test fails and the input takes the dense path.
    Whatever U passes, the bound below holds, so no input gets a wrong
    spectrum.

    Write U^dagger M_a U = D_a + E_a with E_a the off-diagonal part.
    Telescoping each string's product, U^(x N)dagger Q_0 U^(x N) differs
    from diag(q), q the summed vector, by at most N * sum_a ||E_a||_2:
    each partial sum of products of the positive D_b and M_b is at most
    the identity (up to the completeness defect). By Weyl's inequality
    the k-th largest entry of q is within that bound of the k-th
    eigenvalue of Q_0, and so is every coarse element a protocol keeps
    as a vector, as is the POVM implemented from it. An input counts as
    commuting only when the bound is at most ``_TIE_WINDOW``, the
    searches' co-optimal window, for the N it is used at. Commuting
    inputs leave a residual of rounding size, about 2e-15 for random
    two-outcome POVMs with d = 2..4; elements that sum to the identity
    only within delta leave a residual of order delta, up to 9.1e-13 at
    N = 3, 4 for two-outcome qutrit and ququart POVMs normalised through
    S^(-1/2), which sum to the identity within about 1e-13.

    The real frame rests on the same argument. Write V^dagger M_a V =
    R_a + i A_a, V the phased U. The real part of a positive matrix is
    positive, and the R_a sum to Re(V^dagger I V) = I, so telescoping
    again puts the real Q_0 summed from products of the R_a within
    N * sum_a ||A_a||_2 of V^(x N)dagger Q_0 V^(x N) in the 2-norm, and
    its eigenvalues within that of Q_0's. ``_common_eigenbasis`` admits
    the frame only when that bound is at most ``_TIE_WINDOW``. The real
    terms serve the scoring alone: the protocol, its states and the
    implemented POVM are contracted from the Hermitian parts in the
    original frame, so the winner's box and solution are its own Q_0's,
    as on the complex path. Real terms take half the bytes, and LAPACK's
    real symmetric eigensolver runs faster than its complex Hermitian one.
    """
    _, _, factors = common
    qcore._check_bytes(f"search terms of {available.outcomes}^{n_uses} strings",
                       factors[0].itemsize, available.outcomes * factors[0].size,
                       n_uses)
    f = np.stack(factors)
    q = np.expand_dims(f, tuple(range(0, 2 * f.ndim, 2)))  # (1, m, 1, d[, 1, d])
    terms = np.ones((1,) * f.ndim, f.dtype)
    for _ in range(n_uses):
        # row (p, j) is terms[p] x f_j, each entry one product terms[p][x] * f_j[r]
        p = np.expand_dims(terms, tuple(range(1, 2 * f.ndim, 2)))
        shape = np.broadcast_shapes(p.shape, q.shape)
        terms = np.multiply(p, q, out=np.empty(shape, f.dtype)).reshape(
            [a * b for a, b in zip(shape[::2], shape[1::2])])
    return terms


# The LAPACK gufunc that ``np.linalg.eigvalsh`` calls (UPLO='L'), called
# with the loop the wrapper picks for the input's dtype, signature="D->d"
# for complex and "d->d" for real-frame terms, but without the wrapper, which costs about as much again on a 4 x 4
# matrix. The eigenvalues are the same bits, ascending. It skips the
# wrapper's errstate, so a matrix LAPACK fails on gives NaN eigenvalues
# instead of a LinAlgError; every caller checks for them. The gufunc also
# flags them as an invalid value, which numpy would print as a warning,
# so each search ignores that flag for its whole run.
_eigvalsh = np.linalg._umath_linalg.eigvalsh_lo


def _extremes(q0) -> tuple:
    """(lo, hi): the smallest and largest eigenvalue of one Q_0, as floats.

    On spectra Q_0 is an eigenvalue vector, read as its min and max; an
    exactly Hermitian matrix is read as the first and last eigenvalue of
    one ``_eigvalsh`` call, and NaN eigenvalues raise ``NotConverged``.
    Only the exhaustive search reads its stacks in place instead.
    """
    if q0.ndim == 1:
        return float(q0.min()), float(q0.max())
    w = _eigvalsh(q0, signature=q0.dtype.char + "->d")
    lo, hi = float(w[0]), float(w[-1])
    if lo != lo:
        raise NotConverged("eigenvalues did not converge")
    return lo, hi


def _score(lo: float, hi: float) -> tuple:
    """(epsilon, lam_min, lam_max) of the qubit box program for a Q_0
    with extreme eigenvalues lo and hi, clamped into [0, 1]."""
    # min(max(v, 0.0), 1.0), written out: this runs once per scored box
    lam_min = 0.0 if lo < 0.0 else 1.0 if lo > 1.0 else lo
    lam_max = 0.0 if hi < 0.0 else 1.0 if hi > 1.0 else hi
    return math.sqrt(max(_box_minimiser(lam_min, lam_max)[2], 0.0)), lam_min, lam_max


@np.errstate(invalid="ignore")  # failed eigensolves raise NotConverged
def exhaustive_search(available: Povm, n_uses: int):
    """Global optimum over all deterministic binary partitions, with states.

    Partitions are canonicalised by assigning the lexicographically
    first string to outcome 0, halving the enumeration. ``co_optimal``
    lists every partition (up to that relabelling) whose epsilon is
    within 1e-12 of the best one, in lexicographic order.

    The Q_0 of all 2^(n-1) partitions are built level by level, one
    string per level, as one stacked array: deciding string i turns the
    stack S into stack(S + T_i, S), so the rows stay in lexicographic
    order (string i in target 0 first) and each partial sum adds the
    terms in string order, exactly as a sum from scratch does. Every Q_0
    is bit-identical to it, and one ``_eigvalsh`` call per stack (or a
    row min and max on spectra) gives every partition's extreme
    eigenvalues.
    When the stack would pass ``qcore._BLOCK_BYTES``, the leading
    strings are decided depth first and only the last levels are
    stacked.
    """
    common = _common_eigenbasis(available, n_uses)
    n_strings = available.outcomes**n_uses
    if n_strings > _EXHAUSTIVE_STRING_CAP:
        raise TooLarge(
            f"{n_strings} strings exceeds cap {_EXHAUSTIVE_STRING_CAP}; "
            "use hill_climb_search"
        )
    terms = _search_terms(available, n_uses, common)
    # strings lead..n-1 are stacked, 2^(n - lead) rows within the budget
    rows = max(qcore._BLOCK_BYTES // terms[0].nbytes, 1)
    lead = max(n_strings - rows.bit_length() + 1, 1)

    def prefixes(i, q0):
        if i == lead:
            yield q0
        else:
            yield from prefixes(i + 1, q0 + terms[i])
            yield from prefixes(i + 1, q0)

    scored = []  # (epsilon, lam_min, lam_max) per partition, in order
    # string 0 is always in target 0; 0 + T_0 starts the sum as a sum
    # from scratch does, signed zeros included
    for prefix in prefixes(1, np.zeros_like(terms[0]) + terms[0]):
        stack = prefix[None]
        for t in terms[lead:]:
            stack = np.stack((stack + t, stack), axis=1).reshape(-1, *t.shape)
        if stack.ndim == 3:  # each row's eigenvalues, ascending
            stack = _eigvalsh(stack, signature=stack.dtype.char + "->d")
            if np.isnan(stack[:, 0]).any():
                raise NotConverged("eigenvalues did not converge")
        scored += [_score(lo, hi) for lo, hi in
                   zip(stack.min(axis=1).tolist(), stack.max(axis=1).tolist())]
    best = 0
    for j, score in enumerate(scored):
        if score[0] < scored[best][0] - 1e-15:
            best = j
    eps = scored[best][0]

    def bits(j):
        return (0,) + tuple(j >> k & 1 for k in range(n_strings - 2, -1, -1))

    ties = [bits(j) for j, score in enumerate(scored)
            if abs(score[0] - eps) <= _TIE_WINDOW]
    return _finish(_partition_protocol(available, n_uses, bits(best), common),
                   tuple(ties), len(scored))


def _side_bounds(cur) -> tuple:
    """((removals,), (additions,)): lower bounds on the epsilon of every
    Q_0 - T_i, whose box lies in [0, lam_max] of ``cur``, and of every
    Q_0 + T_i, whose box lies in [lam_min, 1]."""
    return (_score(0.0, cur[2])[0],), (_score(cur[1], 1.0)[0],)


@np.errstate(invalid="ignore")  # failed eigensolves raise NotConverged
def hill_climb_search(available: Povm, n_uses: int, rng: Rng):
    """Local search over single-string reassignments, with states.

    The closed-form 'no zero outcome -> 1' partition is always included
    as a seed, so the result is never worse than that family.

    Partitions are int bitmasks (bit i is string i's target). The climb
    keeps the running Q_0 of its current partition and scores a
    neighbour as Q_0 +- T_i; Q_0 is rebuilt from scratch at each start,
    so round-off does not carry over from one start to the next. Scores
    are cached per partition as (epsilon, lam_min, lam_max).

    Each time the current partition changes, ``_side_bounds`` bounds all
    its removals Q_0 - T_i and all its additions Q_0 + T_i. A neighbour
    on a side whose bound fails the acceptance test (the box sits in the
    program's left or right region, or epsilon is 0) is cached unscored
    as the 1-tuple (bound,). A later visit scores it, from its own
    running sum, only if the bound no longer settles the test; a start
    always scores its partition. ``evaluated`` counts the partitions
    scored or bounded, as many as scoring every neighbour would.

    Each neighbour the walk scores is summed on its own, Q_0 +- T_i, and
    read by ``_extremes`` as a start is, since a move would throw the
    rest of any batch of neighbours away.
    """
    common = _common_eigenbasis(available, n_uses)
    n_strings = available.outcomes**n_uses
    terms = _search_terms(available, n_uses, common)
    cache: dict = {}

    strings = itertools.product(range(available.outcomes), repeat=n_uses)
    starts = [tuple(0 if 0 in s else 1 for s in strings)]
    g = rng.generator
    for _ in range(_RESTARTS):
        starts.append(tuple(int(v) for v in g.integers(0, 2, size=n_strings)))

    every = (1 << n_strings) - 1
    flips = [1 << i for i in range(n_strings)]
    best_mask, best = None, None
    for start in starts:
        mask = sum(b << i for i, b in enumerate(start))
        if mask & 1:
            mask ^= every
        q0 = np.zeros_like(terms[0])
        for t, flip in zip(terms, flips):
            if not mask & flip:
                q0 += t
        cur = cache.get(mask)
        if cur is None or len(cur) == 1:
            cur = cache[mask] = _score(*_extremes(q0))
        sides = _side_bounds(cur)
        improved = True
        while improved:
            improved = False
            for i in range(1, n_strings):
                cand = mask ^ flips[i]
                s = cache.get(cand)
                if s is not None and not s[0] < cur[0] - 1e-14:
                    continue
                if s is None or len(s) == 1:
                    bound = sides[mask >> i & 1]
                    if not bound[0] < cur[0] - 1e-14:
                        cache[cand] = bound
                        continue
                    s = None
                cand_q0 = q0 + terms[i] if mask & flips[i] else q0 - terms[i]
                if s is None:
                    s = cache[cand] = _score(*_extremes(cand_q0))
                if s[0] < cur[0] - 1e-14:
                    mask, cur, q0 = cand, s, cand_q0
                    sides = _side_bounds(cur)
                    improved = True
        if best is None or cur[0] < best[0] - 1e-15:
            best_mask, best = mask, cur
    best_bits = tuple(best_mask >> i & 1 for i in range(n_strings))
    return _finish(_partition_protocol(available, n_uses, best_bits, common),
                   (best_bits,), len(cache))


# ---------------------------------------------------------------------------
# Synthesized protocols: searched and closed-form
# ---------------------------------------------------------------------------


def synthesize(available: Povm, n_uses: int, rng: Rng) -> SynthesizedProtocol:
    """The binary protocol for N uses of ``available``, as the search
    returns it: ``exhaustive_search`` when there are at most
    ``_EXHAUSTIVE_STRING_CAP`` outcome strings, else
    ``hill_climb_search`` from ``rng``.
    """
    cap = _EXHAUSTIVE_STRING_CAP  # 2^12 > cap: a large N computes no m^N
    if available.outcomes ** min(n_uses, cap) <= cap:
        return exhaustive_search(available, n_uses)
    return hill_climb_search(available, n_uses, rng=rng)


def trine_optimal_protocol(n_uses: int, available: Povm) -> SynthesizedProtocol:
    """The N-use trine partition optimal over deterministic partitions.

    Target outcome 1 is declared exactly when no single use returned
    outcome 0; for the trine the error is 3^-N / 2. The partition is
    built on ``available`` and finished as the searches finish their
    winners: solved on its own Q_0's box, with the states
    ``construct_states`` builds. On the trine these are the paper's: an
    ancilla pair at N = 1, else |0...0> and |1...1> with the last qubit
    slightly turned.
    """
    protocol = build_partition_povm(available, n_uses, lambda s: 0 if 0 in s else 1)
    return _finish(protocol, (protocol.assignment,), 1)

