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
``eigvalsh`` gufunc, the one ``np.linalg.eigvalsh`` calls; the hill
climb moves one string at a time and calls the gufunc on each dense
candidate alone.
Each candidate then costs one run of the box program on two floats,
and only the winner becomes a ``BoxQuadSolution``.

When the POVM's elements commute (every two-outcome POVM does, and so
do noisy and lossy measurements), all T_s are diagonal in one product
basis U^(x N). The searches then add the real d^N-vectors of their
eigenvalues instead, and read the extreme eigenvalues of Q_0 as a
vector's min and max, with no ``eigvalsh``. The hill climb takes them
for a block of neighbours in one vector pass, and both searches solve
each distinct clamped eigenvalue box once, from a per-search memo, as
many partitions share one. The protocol keeps its coarse elements as
such vectors too, and its prepared states and implemented POVM are
built from them and U: no d^N x d^N operator is formed.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import qcore
from .errors import InvalidBounds, NotConverged, ShapeMismatch, TooLarge, Unachievable
from .qcore import Povm, Rng, dagger, identity, tensor

# Most outcome strings exhaustive_search accepts; synthesize hill-climbs beyond.
_EXHAUSTIVE_STRING_CAP = 12

# Epsilons within this of the best one tie in exhaustive_search. It also
# bounds how far an input admitted as commuting may move the eigenvalues
# the searches score (``_search_terms``).
_TIE_WINDOW = 1e-12

# Bytes of one stack of partial sums that exhaustive_search scores at once.
_STACK_BYTES = 2**21

# Bytes of one block of neighbours whose extremes hill_climb_search takes
# at once on spectra. A move throws the rest of a block away, so blocks
# stay near the size at which one costs what scoring one neighbour on its
# own does; larger ones made climbs of 1,024 strings slower.
_NEIGHBOURHOOD_BYTES = 2**15


# ---------------------------------------------------------------------------
# Partition protocols
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PartitionProtocol:
    """Binary outcome-string partition plus the two-outcome coarse-grained
    POVM it induces.

    ``coarse`` holds Q_0 and Q_1. When the available elements commute,
    ``basis`` is U and each Q_a is held as its real d^N eigenvalue vector
    q_a, so that Q_a = U^(x N) diag(q_a) U^(x N)^dagger; otherwise
    ``basis`` is None and they are the D x D operators.
    """

    n_uses: int
    assignment: tuple  # target outcome, 0 or 1, per lexicographic outcome string
    coarse: tuple
    basis: Optional[np.ndarray] = None


def _check_coarse_bytes(factors, n_uses) -> None:
    """Raise ``TooLarge`` unless the two coarse elements summed from
    ``factors``, N-fold products of the POVM elements or of their
    eigenvalue vectors, fit the byte budget."""
    qcore._check_bytes("the coarse elements", 2 * factors[0].itemsize,
                       factors[0].size, n_uses)


def _common_eigenbasis(available: Povm, n_uses: int):
    """(U, factors): U and the eigenvalue vectors of the elements when
    they commute for N uses, else (None, the elements).

    It first rejects a use count below 1 (``ShapeMismatch``) and an m^N
    whose assignment, 8 bytes a string, would pass the byte budget
    (``TooLarge``), so N is bounded before any caller computes m^N.
    U diagonalises the fixed combination sum_a (a + 1) M_a, and
    factors[a] is the real diagonal of U^dagger M_a U. The elements count
    as commuting when N * sum_a ||E_a||_2 <= ``_TIE_WINDOW``, E_a the
    off-diagonal part of U^dagger M_a U; ``_search_terms`` shows what
    that bound guarantees.
    """
    if n_uses < 1:
        raise ShapeMismatch("n_uses must be >= 1")
    qcore._check_bytes(f"an assignment of {available.outcomes}^{n_uses} outcome "
                       "strings", 8, available.outcomes, n_uses)
    comb = sum((a + 1) * e for a, e in enumerate(available.elements))
    _, u = np.linalg.eigh((comb + dagger(comb)) / 2)
    rotated = [dagger(u) @ e @ u for e in available.elements]
    off = sum(np.linalg.norm(r - np.diag(np.diag(r)), 2) for r in rotated)
    if not n_uses * off <= _TIE_WINDOW:
        return None, available.elements
    return u, [np.diag(r).real.copy() for r in rotated]


def _vector_kron(a, b):
    """``np.kron`` of two vectors (the same products), minus its
    general-shape overhead."""
    return np.multiply.outer(a, b).ravel()


def _string_products(factors, n_uses: int):
    """Yield f_{a_1} x ... x f_{a_N} in lexicographic string order.

    The factors are the POVM elements, giving the string tensors T_s,
    or their eigenvalue vectors. The walk is depth first and holds one
    prefix product per level, so memory is O(N D^2), not m^N D^2; each
    prefix is one ``tensor`` call for matrices and one ``_vector_kron``
    for vectors. It keeps its levels on an explicit stack, so no N is
    too deep for it. Needs n_uses >= 1 (``_common_eigenbasis``).
    """
    ndim = factors[0].ndim
    kron = tensor if ndim == 2 else _vector_kron
    # level i holds the product of i factors and the factors left to
    # extend it with
    prefixes = [np.ones((1,) * ndim, dtype=factors[0].dtype)]
    pending = [iter(factors)]
    while pending:
        f = next(pending[-1], None)
        if f is None:
            prefixes.pop()
            pending.pop()
        elif len(pending) == n_uses:
            yield kron(prefixes[-1], f)
        else:
            prefixes.append(kron(prefixes[-1], f))
            pending.append(iter(factors))


def build_partition_povm(
    available: Povm,
    n_uses: int,
    f: Callable[[tuple], int] | Sequence[int],
) -> PartitionProtocol:
    """Coarse-grain N parallel uses of ``available`` through the map f,
    which sends each outcome string to target outcome 0 or 1.

    Each coarse element is summed string by string: as a d^N vector
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

    Each string product is added into its coarse element as it is built,
    so memory is O(N D^2) rather than m^N D^2.
    """
    basis, factors = common
    _check_coarse_bytes(factors, n_uses)
    shape = (available.dim**n_uses,) * factors[0].ndim
    coarse = [np.zeros(shape, factors[0].dtype) for _ in range(2)]
    for t, v in zip(_string_products(factors, n_uses), assignment):
        coarse[v] += t
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
    region: str  # left | corner | right


def _box_minimiser(lo: float, hi: float):
    """(x, y, value): the minimiser of the qubit squared error
    ((1 - x - y)^2 + (1 - x) y) / 3 (diagonal (x, y), z = 0) over
    [lo, hi]^2.

    Convex quadratic on a square, so the minimiser is either the
    unconstrained optimum (1, 0), the 1-D optimum along one edge, or a
    corner. The candidates are tried in a fixed order, (1, 0) when the
    box holds it and then the optimum along the edges x = hi, y = lo,
    x = lo and y = hi clamped into the box (which reaches the corners),
    and the first one of smallest value wins. The objective is 0 at
    (1, 0) and never negative, so no later candidate beats (1, 0). Each
    candidate is written out, clamped as min(max(c, lo), hi), since this
    runs once per box a search scores.
    """
    if lo <= 0.0 and 1.0 <= hi:
        return 1.0, 0.0, 0.0
    c = (1.0 - hi) / 2.0
    c = lo if lo > c else c
    c = hi if hi < c else c
    x, y, value = hi, c, ((1.0 - hi - c) ** 2 + (1.0 - hi) * c) / 3.0
    c = 1.0 - lo / 2.0
    c = lo if lo > c else c
    c = hi if hi < c else c
    v = ((1.0 - c - lo) ** 2 + (1.0 - c) * lo) / 3.0
    if v < value:
        x, y, value = c, lo, v
    c = (1.0 - lo) / 2.0
    c = lo if lo > c else c
    c = hi if hi < c else c
    v = ((1.0 - lo - c) ** 2 + (1.0 - lo) * c) / 3.0
    if v < value:
        x, y, value = lo, c, v
    c = 1.0 - hi / 2.0
    c = lo if lo > c else c
    c = hi if hi < c else c
    v = ((1.0 - c - hi) ** 2 + (1.0 - c) * hi) / 3.0
    if v < value:
        x, y, value = c, hi, v
    return x, y, value


def solve_box_quadratic_qubit(lam_min: float, lam_max: float) -> BoxQuadSolution:
    """Minimise the qubit reproduction error over the eigenvalue box.

    ``_box_minimiser`` enumerates the candidates. For ordinary eigenvalue
    boxes the minimiser lands in one of three regions: x pinned at
    lambda_max with interior y, both pinned at a corner, or y pinned at
    lambda_min with interior x.
    """
    if not (0.0 <= lam_min <= lam_max <= 1.0):
        raise InvalidBounds(f"bounds ({lam_min}, {lam_max}) outside [0,1]")
    lo, hi = lam_min, lam_max
    x, y, value = _box_minimiser(lo, hi)
    if abs(x - hi) <= 1e-15 and abs(y - (1.0 - hi) / 2.0) <= 1e-15:
        region = "left"
    elif abs(x - (1.0 - lo / 2.0)) <= 1e-15 and abs(y - lo) <= 1e-15:
        region = "right"
    else:
        region = "corner"
    return BoxQuadSolution(lam_min, lam_max, x, y, math.sqrt(max(value, 0.0)), region)


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

    ``column(j)`` is the eigenvector of ``evals[j]``.
    """
    n = evals.size
    tol = 1e-12
    used = set()

    exact_x = [j for j in range(n) if abs(evals[j] - x) <= tol]
    if exact_x:
        u0 = column(exact_x[0])
        used.add(exact_x[0])
    else:
        partners = [j for j in range(1, n) if evals[j] <= x]
        if evals[0] < x or not partners:
            return None
        p = partners[0]
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

    A protocol with a ``basis`` takes its eigenvalues as q_0 sorted
    descending, ties in index order, and builds an eigenvector only when
    it is used: the Kronecker product of the columns of U that the
    product-basis index picks.
    """
    x, y = float(targets[0]), float(targets[1])
    u = protocol.basis
    if u is None:
        evals, evecs = qcore.hermitian_eig(protocol.coarse[0])

        def column(j):
            return evecs[:, j]
    else:
        order = np.argsort(-protocol.coarse[0], kind="stable")
        evals = protocol.coarse[0][order]

        def column(j):
            # the base-d digits of the product-basis index, most
            # significant first (np.unravel_index stops at 64 uses)
            index, digits = int(order[j]), []
            for _ in range(protocol.n_uses):
                index, digit = divmod(index, u.shape[0])
                digits.append(digit)
            return functools.reduce(_vector_kron, [u[:, i] for i in digits[::-1]])
    lam_min, lam_max = evals[-1], evals[0]
    slack = 1e-9
    if not (lam_min - slack <= x <= lam_max + slack) or not (
        lam_min - slack <= y <= lam_max + slack
    ):
        raise Unachievable(
            f"targets ({x}, {y}) outside eigenvalue range [{lam_min}, {lam_max}]"
        )
    x = min(max(x, lam_min), lam_max)
    y = min(max(y, lam_min), lam_max)

    pair = _inspace_binary(evals, column, x, y)
    if pair is not None:
        u0, u1 = pair
        return StatePrep(ancilla_qubits=0, states=(u0, u1))

    v_hi, v_lo = column(0), column(evals.size - 1)
    u0 = _mix_eigvecs(v_hi, lam_max, v_lo, lam_min, x)
    u1 = _mix_eigvecs(v_hi, lam_max, v_lo, lam_min, y)
    e = np.eye(2, dtype=complex)
    states = (np.kron(u0, e[:, 0]), np.kron(u1, e[:, 1]))
    return StatePrep(ancilla_qubits=1, states=states)


def implemented_povm(prep: StatePrep, protocol: PartitionProtocol) -> Povm:
    """Effective POVM on the original system, via the prepared-state isometry.

    For a protocol with a ``basis`` the states V are rotated into the
    eigenbasis, V' = ((U^dagger)^(x N) x I) V, one tensor factor at a time,
    and element a is V'^dagger diag(q_a x 1) V'.
    """
    anc = 2**prep.ancilla_qubits
    vmat = np.column_stack(prep.states)
    if protocol.basis is not None:
        if protocol.coarse[0].size * anc != vmat.shape[0]:
            raise ShapeMismatch("state and coarse POVM dimensions disagree")
        u_dag = dagger(protocol.basis)
        d = u_dag.shape[0]
        rot = vmat
        for k in range(protocol.n_uses):
            rot = (u_dag @ rot.reshape(d**k, d, -1)).reshape(vmat.shape)
        return Povm(tuple(dagger(rot) @ (np.repeat(q, anc)[:, None] * rot)
                          for q in protocol.coarse))
    elems = []
    for q in protocol.coarse:
        big = tensor(q, identity(anc)) if anc > 1 else q
        if big.shape[0] != vmat.shape[0]:
            raise ShapeMismatch("state and coarse POVM dimensions disagree")
        elems.append(dagger(vmat) @ big @ vmat)
    return Povm(tuple(elems))


# ---------------------------------------------------------------------------
# Partition searches (binary target)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SearchResult:
    protocol: PartitionProtocol
    solution: BoxQuadSolution
    co_optimal: tuple  # assignments tying the optimum (canonical form)
    evaluated: int


def _search_terms(available: Povm, n_uses: int, common=None) -> np.ndarray:
    """One term per outcome string, in lexicographic order, for the searches,
    stacked as one array whose row s is the term of string s.

    The terms are the eigenvalue vectors t_s = v_{a_1} x ... x v_{a_N}
    (real, length d^N) when the elements commute, and the dense string
    tensors T_s otherwise; Q_0 summed from them are scored by
    ``_extremes`` and ``_score`` either way. ``common`` is the
    ``_common_eigenbasis`` of ``available`` at ``n_uses``, worked out
    here when not given, which also checks N. All m^N terms are held, so
    their bytes are checked against the byte budget before any is built.
    Dense elements are symmetrised first, so that every product and
    partial sum is exactly Hermitian (rounding commutes with conjugation)
    for LAPACK's ``eigvalsh``, which reads one triangle.

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
    """
    u, factors = common if common is not None else _common_eigenbasis(available, n_uses)
    qcore._check_bytes(f"search terms of {available.outcomes}^{n_uses} strings",
                       factors[0].itemsize, available.outcomes * factors[0].size,
                       n_uses)
    if u is None:
        factors = [(e + dagger(e)) / 2 for e in factors]
    terms = np.empty((available.outcomes**n_uses,)
                     + (available.dim**n_uses,) * factors[0].ndim, factors[0].dtype)
    for row, t in zip(terms, _string_products(factors, n_uses)):
        row[...] = t
    return terms


# The LAPACK gufunc that ``np.linalg.eigvalsh`` calls (UPLO='L'), called
# with the loop the wrapper picks for complex input, signature="D->d",
# but without the wrapper, which costs about as much again on a 4 x 4
# matrix. The eigenvalues are the same bits, ascending. It skips the
# wrapper's errstate, so a matrix LAPACK fails on gives NaN eigenvalues
# instead of a LinAlgError; every caller checks for them. The gufunc also
# flags them as an invalid value, which numpy would print as a warning,
# so each search ignores that flag for its whole run.
_eigvalsh = np.linalg._umath_linalg.eigvalsh_lo


def _extremes(stack) -> tuple:
    """(lows, highs): the smallest and largest eigenvalue of each Q_0 in
    a stack, as two lists of floats.

    A stack of vectors holds the eigenvalue vectors of ``_search_terms``'
    spectra path, whose extremes are each row's min and max; a stack of
    exactly Hermitian matrices is diagonalised by one ``_eigvalsh`` call,
    and NaN eigenvalues raise ``NotConverged``.
    """
    if stack.ndim == 2:
        return stack.min(axis=1).tolist(), stack.max(axis=1).tolist()
    w = _eigvalsh(stack, signature="D->d")
    if np.isnan(w[:, 0]).any():
        raise NotConverged("eigenvalues did not converge")
    return w[:, 0].tolist(), w[:, -1].tolist()


def _score(lo: float, hi: float, memo: Optional[dict] = None) -> tuple:
    """(epsilon, lam_min, lam_max) of the qubit box program for a Q_0
    with extreme eigenvalues lo and hi, clamped into [0, 1].

    ``memo`` maps each clamped box a search has scored to its epsilon, so
    ``_box_minimiser`` runs once per distinct box. Boxes that differ only
    in the sign of a zero share an entry; their epsilons are the same
    bits.
    """
    # min(max(v, 0.0), 1.0), written out as in _box_minimiser
    lam_min = 0.0 if lo < 0.0 else 1.0 if lo > 1.0 else lo
    lam_max = 0.0 if hi < 0.0 else 1.0 if hi > 1.0 else hi
    eps = None if memo is None else memo.get((lam_min, lam_max))
    if eps is None:
        eps = math.sqrt(max(_box_minimiser(lam_min, lam_max)[2], 0.0))
        if memo is not None:
            memo[lam_min, lam_max] = eps
    return eps, lam_min, lam_max


@np.errstate(invalid="ignore")  # failed eigensolves raise NotConverged
def exhaustive_search(available: Povm, n_uses: int):
    """Global optimum over all deterministic binary partitions.

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
    When the stack would pass ``_STACK_BYTES``, the leading strings are
    decided depth first and only the last levels are stacked. Partitions
    whose clamped eigenvalue boxes are equal share one run of the box
    program, through a per-search memo (``_score``).
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
    rows = max(_STACK_BYTES // terms[0].nbytes, 1)
    lead = max(n_strings - rows.bit_length() + 1, 1)

    def prefixes(i, q0):
        if i == lead:
            yield q0
        else:
            yield from prefixes(i + 1, q0 + terms[i])
            yield from prefixes(i + 1, q0)

    scored = []  # (epsilon, lam_min, lam_max) per partition, in order
    memo: dict = {}
    # string 0 is always in target 0; 0 + T_0 starts the sum as a sum
    # from scratch does, signed zeros included
    for prefix in prefixes(1, np.zeros_like(terms[0]) + terms[0]):
        stack = prefix[None]
        for t in terms[lead:]:
            stack = np.stack((stack + t, stack), axis=1).reshape(-1, *t.shape)
        scored += [_score(lo, hi, memo) for lo, hi in zip(*_extremes(stack))]
    best = 0
    for j, score in enumerate(scored):
        if score[0] < scored[best][0] - 1e-15:
            best = j
    eps = scored[best][0]

    def bits(j):
        return (0,) + tuple(j >> k & 1 for k in range(n_strings - 2, -1, -1))

    ties = [bits(j) for j, score in enumerate(scored)
            if abs(score[0] - eps) <= _TIE_WINDOW]
    return SearchResult(
        protocol=_partition_protocol(available, n_uses, bits(best), common),
        solution=solve_box_quadratic_qubit(*scored[best][1:]),
        co_optimal=tuple(ties),
        evaluated=len(scored),
    )


@np.errstate(invalid="ignore")  # failed eigensolves raise NotConverged
def hill_climb_search(
    available: Povm,
    n_uses: int,
    restarts: int = 8,
    rng: Optional[Rng] = None,
):
    """Local search over single-string reassignments.

    The closed-form 'no zero outcome -> 1' partition is always included
    as a seed, so the result is never worse than that family.

    Partitions are int bitmasks (bit i is string i's target). The climb
    keeps the running Q_0 of its current partition and scores a
    neighbour as Q_0 +- T_i; Q_0 is rebuilt from scratch at each start,
    so round-off does not carry over from one start to the next. Scores
    are cached per partition as (epsilon, lam_min, lam_max), and
    ``evaluated`` counts the distinct partitions scored.

    On spectra a neighbour is scored from the min and max of q_0 +- t_i,
    and these are taken for a block of the neighbours the walk reaches
    next in one vector pass: the block's terms, each signed by the
    current partition (+t_i for a string in target 1, -t_i for one in
    target 0), plus q_0. (-t_i) + q_0 is the same bits as q_0 - t_i, so
    every score is the one the per-candidate sum gives, and a neighbour
    still enters the cache only when the walk reaches it. A move makes
    the rest of the block stale; ``_NEIGHBOURHOOD_BYTES`` bounds what is
    thrown away. These scores share a per-search memo of the boxes
    already solved (``_score``). Dense neighbours are summed and
    diagonalised one at a time, with no memo, since few dense boxes
    repeat. Each is one ``_eigvalsh`` call on the D x D candidate, whose
    first and last eigenvalues are its box; a move would throw the rest
    of a batch of dense neighbours away, and one in about six is a move.
    """
    rng = rng if rng is not None else Rng(0)
    common = _common_eigenbasis(available, n_uses)
    n_strings = available.outcomes**n_uses
    terms = _search_terms(available, n_uses, common)
    on_spectra = terms.ndim == 2
    if on_spectra:
        rows = max(_NEIGHBOURHOOD_BYTES // terms[0].nbytes, 1)
        qcore._check_bytes("the search terms and a block of their neighbourhood",
                           terms.nbytes + min(rows, n_strings) * terms[0].nbytes)
    memo = {} if on_spectra else None
    cache: dict = {}

    strings = itertools.product(range(available.outcomes), repeat=n_uses)
    starts = [tuple(0 if 0 in s else 1 for s in strings)]
    g = rng.generator
    for _ in range(restarts):
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
        if cur is None:
            lo, hi = _extremes(q0[None])
            cur = cache[mask] = _score(lo[0], hi[0], memo)
        if on_spectra:
            signs = np.array([1.0 if mask & flip else -1.0 for flip in flips])[:, None]
        # lows and highs hold the extremes of neighbours first..last-1
        first = last = 0
        improved = True
        while improved:
            improved = False
            for i in range(1, n_strings):
                cand = mask ^ flips[i]
                s = cache.get(cand)
                if s is not None and not s[0] < cur[0] - 1e-14:
                    continue
                cand_q0 = None
                if s is None and on_spectra:
                    if not first <= i < last:
                        first, last = i, min(i + rows, n_strings)
                        block = terms[first:last] * signs[first:last]
                        block += q0
                        lows, highs = _extremes(block)
                    s = cache[cand] = _score(lows[i - first], highs[i - first], memo)
                elif s is None:
                    cand_q0 = q0 + terms[i] if mask & flips[i] else q0 - terms[i]
                    w = _eigvalsh(cand_q0, signature="D->d")
                    lo = float(w[0])
                    if lo != lo:
                        raise NotConverged("eigenvalues did not converge")
                    s = cache[cand] = _score(lo, float(w[-1]))
                if s[0] < cur[0] - 1e-14:
                    if cand_q0 is None:
                        cand_q0 = q0 + terms[i] if mask & flips[i] else q0 - terms[i]
                    mask, cur, q0 = cand, s, cand_q0
                    if on_spectra:
                        signs[i] = -signs[i]
                        last = 0
                    improved = True
        if best is None or cur[0] < best[0] - 1e-15:
            best_mask, best = mask, cur
    best_bits = tuple(best_mask >> i & 1 for i in range(n_strings))
    return SearchResult(
        protocol=_partition_protocol(available, n_uses, best_bits, common),
        solution=solve_box_quadratic_qubit(*best[1:]),
        co_optimal=(best_bits,),
        evaluated=len(cache),
    )


# ---------------------------------------------------------------------------
# Synthesized protocols: searched and closed-form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SynthesizedProtocol:
    protocol: PartitionProtocol
    solution: BoxQuadSolution
    prep: StatePrep
    evaluated: int = 0  # partitions scored; 0 for the closed-form families


def synthesize(available: Povm, n_uses: int, rng: Rng) -> SynthesizedProtocol:
    """The binary protocol for N uses of ``available``, with its states.

    Searches all partitions when there are at most
    ``_EXHAUSTIVE_STRING_CAP`` outcome strings, and hill-climbs from
    ``rng`` beyond that.
    """
    cap = _EXHAUSTIVE_STRING_CAP  # 2^12 > cap: a large N computes no m^N
    if available.outcomes ** min(n_uses, cap) <= cap:
        result = exhaustive_search(available, n_uses)
    else:
        result = hill_climb_search(available, n_uses, rng=rng)
    sol = result.solution
    prep = construct_states(result.protocol, (sol.x_star, sol.y_star))
    return SynthesizedProtocol(result.protocol, sol, prep, result.evaluated)


def trine_optimal_protocol(
    n_uses: int, available: Optional[Povm] = None
) -> SynthesizedProtocol:
    """The N-use trine partition optimal over deterministic partitions.

    Target outcome 1 is declared exactly when no single use returned
    outcome 0; the error is 3^-N / 2 and the prepared states are the
    nearly-cloned pair with the last qubit slightly rotated. The
    partition is built on ``available`` (default: the trine); the
    solution and states stay the trine's, so another qubit measurement
    shows up in the implemented POVM.
    """
    available = qcore.trine_povm() if available is None else available
    protocol = build_partition_povm(available, n_uses, lambda s: 0 if 0 in s else 1)
    lam_max = 1.0 - 3.0**-n_uses
    solution = solve_box_quadratic_qubit(0.0, lam_max)
    if n_uses == 1:
        # ancilla route: measured qubit rotated onto the nearest trine
        # direction, ancilla flipped to keep the pair orthogonal
        u0 = np.array([1.0, 0.0], dtype=complex)
        u1 = np.array([0.5, math.sqrt(3) / 2], dtype=complex)
        e = np.eye(2, dtype=complex)
        prep = StatePrep(ancilla_qubits=1,
                         states=(np.kron(u0, e[:, 0]), np.kron(u1, e[:, 1])))
    else:
        # |0...0>, and |1...1> with the last qubit turned to (amp0, .)
        psi0, psi1 = np.zeros((2, 2**n_uses), dtype=complex)
        psi0[0] = 1.0
        amp0 = 0.5 * 3.0 ** (-(n_uses - 1) / 2.0)
        psi1[-2:] = amp0, math.sqrt(1.0 - amp0**2)
        prep = StatePrep(ancilla_qubits=0, states=(psi0, psi1))
    return SynthesizedProtocol(protocol=protocol, solution=solution, prep=prep)


@dataclass(frozen=True)
class NoisyZParams:
    region: str  # rotate-zero | trivial | rotate-one
    gamma: Optional[float]


def classify_noisy_z(p: float, q: float) -> NoisyZParams:
    if not (0.5 < p <= 1.0 and 0.5 < q <= 1.0):
        raise InvalidBounds(f"(p, q) = ({p}, {q}) outside (1/2, 1]")
    if p > (1.0 + q) / 2.0:
        gamma = math.sqrt((3.0 * q - 1.0) / (2.0 * (p + q - 1.0)))
        return NoisyZParams("rotate-zero", gamma)
    if q > (1.0 + p) / 2.0:
        gamma = math.sqrt((3.0 * p - 1.0) / (2.0 * (p + q - 1.0)))
        return NoisyZParams("rotate-one", gamma)
    return NoisyZParams("trivial", None)


def noisy_z_optimal(p: float, q: float) -> SynthesizedProtocol:
    """Asymmetric noisy-Z protocol, optimal over deterministic partitions.

    One use; ``classify_noisy_z`` gives its region and rotation angle.
    """
    classify_noisy_z(p, q)  # rejects (p, q) outside (1/2, 1]
    povm = qcore.noisy_z_povm(p, q)
    protocol = build_partition_povm(povm, 1, lambda s: s[0])
    solution = solve_box_quadratic_qubit(1.0 - q, p)
    prep = construct_states(protocol, (solution.x_star, solution.y_star))
    return SynthesizedProtocol(protocol=protocol, solution=solution, prep=prep)
