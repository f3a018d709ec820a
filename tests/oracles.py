"""Reference constructions the tests compare the library against.

Oracles compute a quantity a second, independent way; fixtures build
random or textbook inputs. None of this is library API.
"""

import functools
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from measrep import coding, qcore, vnsynth
from measrep.coding import (
    CapacityResult,
    ClassicalChannel,
    _ml_argmax,
    _safe_log,
    _unpack,
    associated_channel,
)
from measrep.errors import InvalidBounds, NotConverged, ShapeMismatch, TooLarge
from measrep.io import save_measurement
from measrep.qcore import (
    Instrument,
    Povm,
    Rng,
    dagger,
    density,
    identity,
    tensor,
)
from measrep.rms import _estimate_from_squares, _haar_normals
from measrep.vnsynth import (
    BoxQuadSolution,
    PartitionProtocol,
    _common_eigenbasis,
    _partition_protocol,
    _search_terms,
    solve_box_quadratic_qubit,
)


def haar_states(dim: int, count: int, rng: Rng) -> np.ndarray:
    """Batch of Haar-random pure states, one per row: the states whose
    Gaussian vectors ``rms_monte_carlo_povm`` draws from the same rng."""
    re, im = _haar_normals(dim, count, rng)
    z = re + 1j * im
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def haar_state(dim: int, rng: Rng) -> np.ndarray:
    """One Haar-random pure state of the given dimension."""
    if dim < 1:
        raise InvalidBounds("dim must be >= 1")
    g = rng.generator
    z = g.standard_normal(dim) + 1j * g.standard_normal(dim)
    return z / np.linalg.norm(z)


def binary_symmetric_channel(flip: float) -> ClassicalChannel:
    return ClassicalChannel(np.array([[1.0 - flip, flip], [flip, 1.0 - flip]]))


def haar_unitary(dim, rng):
    """Haar-random unitary via QR with the standard phase fix."""
    g = rng.generator
    z = g.standard_normal((dim, dim)) + 1j * g.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    ph = np.diag(r).copy()
    ph /= np.abs(ph)
    return q * ph


def random_povm(dim, m, rng):
    """Random POVM from a Haar unitary on a dilated space."""
    u = haar_unitary(dim * m, rng)
    elems = []
    for a in range(m):
        block = u[a * dim : (a + 1) * dim, :dim]
        elems.append(dagger(block) @ block)
    return Povm(tuple(elems))


def hermiticity_defect_povm_file(path, defect):
    """Three-outcome qutrit POVM file whose elements 0 and 1 have
    Hermiticity defect ``defect`` (Frobenius norm of M - M^dagger).

    The Hermitian parts of a random POVM, with the anti-Hermitian
    K = i (defect / 2) H, ||H||_F = 1, added to element 0 and taken from
    element 1, so the elements still sum to the identity.
    """
    base = random_povm(3, 3, Rng(3))
    elems = [(e + dagger(e)) / 2 for e in base.elements]
    k = 0.5j * defect * np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]) / 2.0
    elems[0], elems[1] = elems[0] + k, elems[1] - k
    save_measurement(Povm(tuple(elems)), path)
    return path


def random_povm_of_ranks(dim, ranks, rng):
    """Random POVM whose element a has rank ``ranks[a]`` (sum at least dim).

    M_a = S^-1/2 G_a G_a^dagger S^-1/2 with G_a a complex Gaussian
    dim x rank matrix and S the sum of the G_a G_a^dagger. Rank-deficient
    elements give eigenvalues 0 and 1, so zero-error partitions occur.
    """
    g = rng.generator
    parts = []
    for r in ranks:
        z = g.standard_normal((dim, r)) + 1j * g.standard_normal((dim, r))
        parts.append(z @ dagger(z))
    w, v = np.linalg.eigh(sum(parts))
    s_inv_half = (v / np.sqrt(w)) @ dagger(v)
    elems = [s_inv_half @ a @ s_inv_half for a in parts]
    return Povm(tuple((e + dagger(e)) / 2 for e in elems))


def random_instrument(d_in, d_out, m, r, rng):
    """Random instrument from a Haar isometry split into Kraus blocks."""
    g = rng.generator
    z = g.standard_normal((d_out * m * r, d_in)) + 1j * g.standard_normal(
        (d_out * m * r, d_in)
    )
    q, _ = np.linalg.qr(z)
    iso = q[:, :d_in]
    groups = []
    for i in range(m):
        ops = []
        for j in range(r):
            block = np.zeros((d_out, d_in), dtype=complex)
            for s in range(d_out):
                block[s, :] = iso[s * m * r + i * r + j, :]
            ops.append(block)
        groups.append(tuple(ops))
    return Instrument(tuple(groups))


def von_neumann_instrument(dim):
    """Projective measurement onto the computational basis, as an instrument."""
    eye = identity(dim)
    return Instrument(tuple((density(eye[:, i]),) for i in range(dim)))


def nan_povm_file(path):
    """Two-outcome qubit POVM file whose element 0 holds a NaN entry."""
    doc = {
        "kind": "povm",
        "dim": 2,
        "outcomes": 2,
        "elements": [
            [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [float("nan"), 0.0]]],
            [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
        ],
    }
    path.write_text(json.dumps(doc), encoding="utf-8")  # json writes a NaN literal
    return path


def symmetric_subspace_projector(d):
    """Projector onto the symmetric subspace of two d-level systems."""
    swap = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            swap[i * d + j, j * d + i] = 1.0
    return (identity(d * d) + swap) / 2.0


def _index(letters, d):
    idx = 0
    for a in letters:
        idx = idx * d + int(a)
    return idx


def associated_channel_by_traces(available):
    """``associated_channel`` with each entry p(a|x) = Tr(M_a |x><x|)."""
    rhos = [density(e) for e in np.eye(available.dim, dtype=complex)]
    mat = np.clip(np.array([[np.trace(e @ r).real for e in available.elements]
                            for r in rhos]), 0.0, None)
    mat /= mat.sum(axis=1, keepdims=True)
    return ClassicalChannel(mat)


def block_protocol_statevector_distribution(available, code, amplitudes):
    """Exact decoded-outcome distribution via the full state vector.

    Capped at k <= 2, n <= 4: builds the encoded superposition of
    codeword product states and enumerates every outcome string of the
    N parallel measurements.
    """
    if code.k > 2 or code.n > 4:
        raise TooLarge("state-vector path capped at k <= 2, n <= 4")
    d = available.dim
    if code.d != d:
        raise ShapeMismatch("code alphabet does not match the POVM dimension")
    n_msgs = d**code.k
    amplitudes = np.asarray(amplitudes, dtype=complex)
    if amplitudes.shape != (n_msgs,):
        raise ShapeMismatch(f"need {n_msgs} amplitudes")
    amplitudes = amplitudes / np.linalg.norm(amplitudes)
    # encoded state: sum_i alpha_i |c_i>, a vector on d**n
    psi = np.zeros(d**code.n, dtype=complex)
    for alpha, word in zip(amplitudes, np.repeat(code.codebook, code.copies, axis=1)):
        psi[_index(word, d)] += alpha
    channel = associated_channel(available)
    dist = np.zeros(n_msgs)
    for outcome in itertools.product(range(available.outcomes), repeat=code.n):
        op = np.eye(1, dtype=complex)
        for a in outcome:
            op = np.kron(op, available.elements[a])
        prob = float(np.real(np.conj(psi) @ (op @ psi)))
        if prob <= 0.0:
            continue
        decoded = code.decode(np.array([outcome]), channel)[0]
        dist[_index(decoded, d)] += prob
    return dist


def hermitian_eig_sorted(m):
    """Eigendecomposition with the column order of a per-cluster Python sort.

    Same contract as ``qcore.hermitian_eig`` (descending eigenvalues,
    first non-negligible entry of each column positive real), but each
    degenerate cluster is ordered by ``sorted`` on tuples of Python
    ``round(.., 10)`` keys, larger first.
    """
    m = np.asarray(m, dtype=complex)
    w, v = np.linalg.eigh((m + dagger(m)) / 2)
    w = w[::-1].copy()
    v = v[:, ::-1].copy()
    for j in range(v.shape[1]):
        idx = np.flatnonzero(np.abs(v[:, j]) > 1e-12)
        if idx.size:
            v[:, j] = v[:, j] / (v[idx[0], j] / abs(v[idx[0], j]))
    j = 0
    while j < w.size:
        k = j + 1
        while k < w.size and abs(w[k] - w[j]) <= 1e-12:
            k += 1
        if k - j > 1:
            cols = sorted(
                range(j, k),
                key=lambda c: tuple(
                    (round(v[r, c].real, 10), round(v[r, c].imag, 10))
                    for r in range(v.shape[0])
                ),
                reverse=True,
            )
            v[:, j:k] = v[:, cols]
        j = k
    return w, v


def string_tensors(available, n_uses):
    """M_{a_1} x ... x M_{a_N} for every outcome string, lexicographically."""
    return [
        functools.reduce(np.kron, (available.elements[a] for a in s), np.eye(1))
        for s in itertools.product(range(available.outcomes), repeat=n_uses)
    ]


def kron_chain_terms(available, n_uses, scored=True):
    """The searches' terms as ``string_tensors`` builds its tensors: one
    ``np.kron`` chain per string, here of the ``_common_eigenbasis``
    factors the searches score (eigenvalue vectors on commuting inputs,
    real parts in a real frame), or with ``scored=False`` of the ones a
    protocol contracts."""
    _, factors, search_factors = _common_eigenbasis(available, n_uses)
    factors = search_factors if scored else factors
    start = np.ones((1,) * factors[0].ndim)
    return np.stack([
        functools.reduce(np.kron, (factors[a] for a in s), start)
        for s in itertools.product(range(available.outcomes), repeat=n_uses)
    ])


def partition_povm_from_list(available, n_uses, assignment):
    """Coarse elements of ``build_partition_povm`` from a list of all m^N
    string tensors, each built level by level with ``tensor``."""
    tensors = [np.eye(1, dtype=complex)]
    for _ in range(n_uses):
        tensors = [tensor(t, e) for t in tensors for e in available.elements]
    dim = available.dim**n_uses
    coarse = [np.zeros((dim, dim), dtype=complex) for _ in range(2)]
    for t, v in zip(tensors, assignment):
        coarse[v] += t
    return coarse


def score_from_scratch(tensors, bits):
    """Qubit box program for a partition, summing Q_0 over every string."""
    dim = tensors[0].shape[0]
    q0 = np.zeros((dim, dim), dtype=complex)
    for t, b in zip(tensors, bits):
        if b == 0:
            q0 += t
    w = np.linalg.eigvalsh((q0 + dagger(q0)) / 2)
    return solve_box_quadratic_qubit(
        float(np.clip(w[0], 0.0, 1.0)), float(np.clip(w[-1], 0.0, 1.0))
    )


def exhaustive_search_from_scratch(available, n_uses):
    """(best bits, solution, co-optimal bits, partitions scored), lexicographic scan."""
    tensors = string_tensors(available, n_uses)
    best = best_bits = None
    scored = []
    for rest in itertools.product((0, 1), repeat=len(tensors) - 1):
        bits = (0,) + rest
        sol = score_from_scratch(tensors, bits)
        scored.append((bits, sol))
        if best is None or sol.epsilon < best.epsilon - 1e-15:
            best, best_bits = sol, bits
    ties = tuple(b for b, sol in scored if abs(sol.epsilon - best.epsilon) <= 1e-12)
    return best_bits, best, ties, len(scored)


def hill_climb_search_from_scratch(available, n_uses, restarts=8, rng=None):
    """(best bits, solution, partitions scored): first-improvement climb on
    bit tuples, each candidate scored from scratch."""
    rng = rng if rng is not None else Rng(0)
    tensors = string_tensors(available, n_uses)
    n = len(tensors)
    cache = {}

    def score(bits):
        if bits not in cache:
            cache[bits] = score_from_scratch(tensors, bits)
        return cache[bits]

    starts = [
        tuple(0 if 0 in s else 1
              for s in itertools.product(range(available.outcomes), repeat=n_uses))
    ]
    g = rng.generator
    for _ in range(restarts):
        starts.append(tuple(int(v) for v in g.integers(0, 2, size=n)))
    best_bits = best = None
    for start in starts:
        bits = (0,) + tuple(1 - b for b in start[1:]) if start[0] == 1 else start
        cur = score(bits)
        improved = True
        while improved:
            improved = False
            for i in range(1, n):
                cand = bits[:i] + (1 - bits[i],) + bits[i + 1:]
                s = score(cand)
                if s.epsilon < cur.epsilon - 1e-14:
                    bits, cur = cand, s
                    improved = True
        if best is None or cur.epsilon < best.epsilon - 1e-15:
            best_bits, best = bits, cur
    return best_bits, best, len(cache)


# The qubit box program as a scan of its edge candidates, the form before
# the closed form: independent references for ``vnsynth._box_minimiser``,
# which must reach the same value within rounding.


def qubit_objective(x, y):
    """Squared error of a qubit implementation with diagonal (x, y), z = 0."""
    return ((1.0 - x - y) ** 2 + (1.0 - x) * y) / 3.0


def box_minimiser_looped(lo, hi):
    """The minimiser of ``qubit_objective`` over [lo, hi]^2 as a loop over
    candidates: (1, 0) when the box holds it, then the optimum along the
    edges x = hi, y = lo, x = lo and y = hi clamped into the box; the
    first one of least value wins."""
    x = y = value = None
    if lo <= 1.0 <= hi and lo <= 0.0 <= hi:
        x, y, value = 1.0, 0.0, qubit_objective(1.0, 0.0)
    for c, edge, free_x in (((1.0 - hi) / 2.0, hi, False), (1.0 - lo / 2.0, lo, True),
                            ((1.0 - lo) / 2.0, lo, False), (1.0 - hi / 2.0, hi, True)):
        c = lo if lo > c else c
        c = hi if hi < c else c
        cx, cy = (c, edge) if free_x else (edge, c)
        v = qubit_objective(cx, cy)
        if value is None or v < value:
            x, y, value = cx, cy, v
    return x, y, value


def box_quadratic_qubit_closures(lam_min, lam_max):
    """``solve_box_quadratic_qubit`` as a closure-built list of the
    candidates of ``box_minimiser_looped`` and a keyed ``min``."""
    lo, hi = lam_min, lam_max

    def clamp(v):
        return min(max(v, lo), hi)

    candidates = []
    if lo <= 1.0 <= hi and lo <= 0.0 <= hi:
        candidates.append((1.0, 0.0))
    candidates.append((hi, clamp((1.0 - hi) / 2.0)))
    candidates.append((clamp(1.0 - lo / 2.0), lo))
    candidates.append((lo, clamp((1.0 - lo) / 2.0)))
    candidates.append((clamp(1.0 - hi / 2.0), hi))
    x, y = min(candidates, key=lambda c: qubit_objective(*c))
    eps = math.sqrt(max(qubit_objective(x, y), 0.0))
    return BoxQuadSolution(lam_min, lam_max, x, y, eps)


def noisy_z_optimum(p, q):
    """The paper's optimum (x*, y*, epsilon) for one use of the noisy Z
    measurement {diag(p, 1 - q), diag(1 - p, q)}, whose box is [1 - q, p]:
    the zero state turned when p > (1 + q)/2, the one state turned when
    q > (1 + p)/2, else both states kept and the corner (p, 1 - q)."""
    if p > (1.0 + q) / 2.0:
        x, y = (1.0 + q) / 2.0, 1.0 - q
    elif q > (1.0 + p) / 2.0:
        x, y = p, (1.0 - p) / 2.0
    else:
        x, y = p, 1.0 - q
    return x, y, math.sqrt(qubit_objective(x, y))


def search_terms(available, n_uses):
    """``vnsynth._search_terms`` on the common eigenbasis the searches
    work out for ``available`` at ``n_uses``."""
    return _search_terms(available, n_uses, _common_eigenbasis(available, n_uses))


def exhaustive_search_depth_first(available, n_uses):
    """(best bits, solution, co-optimal bits, partitions scored) of
    ``exhaustive_search`` as a recursive walk that keeps one partial Q_0
    per level and scores each leaf on its own, by the library's box
    program."""
    terms = search_terms(available, n_uses)
    n_strings = len(terms)
    scored = []
    bits = [0] * n_strings

    def score(q0):
        if q0.ndim == 1:
            lo, hi = float(q0.min()), float(q0.max())
        else:
            w = np.linalg.eigvalsh((q0 + dagger(q0)) / 2)
            lo, hi = float(w[0]), float(w[-1])
        return solve_box_quadratic_qubit(*vnsynth._score(lo, hi)[1:])

    def walk(i, q0):
        if i == n_strings:
            scored.append((tuple(bits), score(q0)))
            return
        bits[i] = 0
        walk(i + 1, q0 + terms[i])
        bits[i] = 1
        walk(i + 1, q0)

    walk(1, np.zeros_like(terms[0]) + terms[0])
    best = best_bits = None
    for cand, sol in scored:
        if best is None or sol.epsilon < best.epsilon - 1e-15:
            best, best_bits = sol, cand
    ties = tuple(c for c, sol in scored if abs(sol.epsilon - best.epsilon) <= 1e-12)
    return best_bits, best, ties, len(scored)


def paper_trine_states(n_uses):
    """The paper's prepared pair for the N-use trine protocol, as
    (ancilla qubits, states): at N = 1 the ancilla pair |0>|0> and
    (|0>/2 + (sqrt(3)/2)|1>)|1>; at N >= 2, |0...0>, and |1...1> with the
    last qubit turned to amplitude 3^(-(N-1)/2) / 2 on |1...10>."""
    if n_uses == 1:
        e = np.eye(2)
        return 1, (np.kron(e[0], e[0]), np.kron([0.5, math.sqrt(3) / 2], e[1]))
    psi0, psi1 = np.zeros((2, 2**n_uses))
    psi0[0] = 1.0
    amp0 = 0.5 * 3.0 ** (-(n_uses - 1) / 2.0)
    psi1[-2:] = amp0, math.sqrt(1.0 - amp0**2)
    return 0, (psi0, psi1)


# The partition searches as they scored before the hill climb's side
# bounds and neighbour blocks: each candidate is scored, and each
# hill-climb neighbour is summed on its own. They score boxes with the
# library's box program, so the library must return the same bits.


def own_box_solution(protocol):
    """The box program on the clamped extreme eigenvalues of a protocol's
    own Q_0: ``eigvalsh`` on a dense Q_0, min and max on a spectrum."""
    q0 = protocol.coarse[0]
    w = np.linalg.eigvalsh(q0) if protocol.basis is None else q0
    return solve_box_quadratic_qubit(
        *(min(max(float(v), 0.0), 1.0) for v in (w.min(), w.max())))


@dataclass(frozen=True)
class SearchRecord:
    """What the reference searches find: the fields of a search result
    that do not depend on the prepared states. The solution is the one
    on the winner's own Q_0, which a climb's running sums can round an
    ulp away from the box it scored."""

    protocol: PartitionProtocol
    solution: BoxQuadSolution
    co_optimal: tuple
    evaluated: int


def scores_per_candidate(stack):
    """``vnsynth._score`` of each Q_0 in a stack of vectors or of exactly
    Hermitian matrices."""
    if stack.ndim == 2:
        lows, highs = stack.min(axis=1).tolist(), stack.max(axis=1).tolist()
    else:
        w = np.linalg.eigvalsh(stack)
        lows, highs = w[:, 0].tolist(), w[:, -1].tolist()
    return [vnsynth._score(lo, hi) for lo, hi in zip(lows, highs)]


def exhaustive_search_per_candidate(available, n_uses):
    """``exhaustive_search`` scoring every partition of each stack with
    ``scores_per_candidate``."""
    common = _common_eigenbasis(available, n_uses)
    n_strings = available.outcomes**n_uses
    if n_strings > vnsynth._EXHAUSTIVE_STRING_CAP:
        raise TooLarge(f"{n_strings} strings exceeds cap")
    terms = _search_terms(available, n_uses, common)
    rows = max(qcore._BLOCK_BYTES // terms[0].nbytes, 1)
    lead = max(n_strings - rows.bit_length() + 1, 1)

    def prefixes(i, q0):
        if i == lead:
            yield q0
        else:
            yield from prefixes(i + 1, q0 + terms[i])
            yield from prefixes(i + 1, q0)

    scored = []
    for prefix in prefixes(1, np.zeros_like(terms[0]) + terms[0]):
        stack = prefix[None]
        for t in terms[lead:]:
            stack = np.stack((stack + t, stack), axis=1).reshape(-1, *t.shape)
        scored += scores_per_candidate(stack)
    best = 0
    for j, score in enumerate(scored):
        if score[0] < scored[best][0] - 1e-15:
            best = j
    eps = scored[best][0]

    def bits(j):
        return (0,) + tuple(j >> k & 1 for k in range(n_strings - 2, -1, -1))

    ties = [bits(j) for j, score in enumerate(scored)
            if abs(score[0] - eps) <= vnsynth._TIE_WINDOW]
    protocol = _partition_protocol(available, n_uses, bits(best), common)
    return SearchRecord(
        protocol=protocol,
        solution=own_box_solution(protocol),
        co_optimal=tuple(ties),
        evaluated=len(scored),
    )


def hill_climb_search_per_candidate(available, n_uses, restarts=8, rng=None):
    """``hill_climb_search`` summing and scoring each neighbour it reaches
    on its own, Q_0 +- T_i, with ``scores_per_candidate``."""
    rng = rng if rng is not None else Rng(0)
    common = _common_eigenbasis(available, n_uses)
    n_strings = available.outcomes**n_uses
    terms = _search_terms(available, n_uses, common)
    cache = {}

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
            cur = cache[mask] = scores_per_candidate(q0[None])[0]
        improved = True
        while improved:
            improved = False
            for i in range(1, n_strings):
                cand = mask ^ flips[i]
                s = cache.get(cand)
                if s is not None and not s[0] < cur[0] - 1e-14:
                    continue
                cand_q0 = q0 + terms[i] if mask & flips[i] else q0 - terms[i]
                if s is None:
                    s = cache[cand] = scores_per_candidate(cand_q0[None])[0]
                if s[0] < cur[0] - 1e-14:
                    mask, cur, q0 = cand, s, cand_q0
                    improved = True
        if best is None or cur[0] < best[0] - 1e-15:
            best_mask, best = mask, cur
    best_bits = tuple(best_mask >> i & 1 for i in range(n_strings))
    protocol = _partition_protocol(available, n_uses, best_bits, common)
    return SearchRecord(
        protocol=protocol,
        solution=own_box_solution(protocol),
        co_optimal=(best_bits,),
        evaluated=len(cache),
    )


# The Blahut-Arimoto iteration before it took the largest divergence
# once per step and called the array methods directly: the same bits.


def blahut_arimoto_wrapped(channel, tol=1e-6):
    """``blahut_arimoto`` through the ``np.sum``/``np.max`` wrappers, with
    the maximum divergence taken twice per iteration; it stops after
    ``coding._MAX_ITER`` iterations, as ``blahut_arimoto`` does."""
    max_iter = coding._MAX_ITER
    w = channel.matrix
    n_in = channel.inputs
    r = np.full(n_in, 1.0 / n_in)
    ln2 = math.log(2.0)
    mask = w > 0.0
    logw = _safe_log(w)
    lower = upper = 0.0
    for it in range(1, max_iter + 1):
        q = r @ w
        logq = _safe_log(q)
        div = np.sum(np.where(mask, w * (logw - logq[None, :]), 0.0), axis=1)
        lower = float(r @ div)
        upper = float(np.max(div))
        if upper - lower <= tol * ln2:
            return CapacityResult(
                capacity=lower / ln2,
                upper_bound=upper / ln2,
                p_x=r,
                iterations=it,
                gap=(upper - lower) / ln2,
            )
        r = r * np.exp(div - np.max(div))
        r /= r.sum()
    raise NotConverged(
        f"gap {(upper - lower) / ln2:.3e} bits above tol after {max_iter} iterations",
        lower=lower / ln2,
        upper=upper / ln2,
    )


# Earlier forms of the block-coding hot paths, kept as references: the
# library must compute the same bits without their large temporaries.


def channel_sample_broadcast(matrix, letters, rng):
    """``ClassicalChannel.sample`` on a channel's ``matrix``, or the draw
    of decoded letters from a confusion matrix, through a
    (..., columns) comparison."""
    cum = np.cumsum(matrix, axis=1)
    u = rng.generator.random(letters.shape)
    return (u[..., None] > cum[letters]).sum(axis=-1)


def random_decode_full_table(code, outputs, channel):
    """Random-code ``decode`` holding the whole trials x d^k table, every
    row folded over the codewords as sent."""
    logw = _safe_log(channel.matrix)
    words = np.repeat(np.asarray(code.codebook, dtype=np.intp), code.copies, axis=1)
    outputs = np.asarray(outputs, dtype=np.intp)
    ll = np.zeros((outputs.shape[0], words.shape[0]))
    for j in range(code.n):
        ll += logw[words[:, j][None, :], outputs[:, j][:, None]]
    return _unpack(_ml_argmax(ll), code.d, code.k)


def random_decode_strided_gather(code, outputs, channel):
    """Random-code ``decode`` in its row blocks, each codeword position's
    addend gathered through a strided ``logw[:, outputs].T`` into a table
    of zeros."""
    logw = _safe_log(channel.matrix)
    n_words = code.codebook.shape[0]
    rows = max(1, qcore._BLOCK_BYTES // (8 * n_words))
    idx = np.empty(outputs.shape[0], dtype=np.intp)
    for start in range(0, outputs.shape[0], rows):
        block = outputs[start : start + rows]
        ll = np.zeros((block.shape[0], n_words))
        for j in range(code.n):
            ll += logw[:, block[:, j]].T.take(code.codebook[:, j], axis=1)
        idx[start : start + rows] = _ml_argmax(ll)
    return _unpack(idx, code.d, code.k)


def block_protocol_whole_arrays(channel, code, amplitudes, trials, rng):
    """(error rate, standard error, decoded distribution) of
    ``simulate_block_protocol``, holding every (trials, n) array at once:
    a codebook of message digits has its decoded letters drawn from the
    rows of the confusion matrix in one pass, any other code's outputs
    sampled and decoded in one pass."""
    n_msgs = code.d**code.k
    if amplitudes is None:
        weights = np.full(n_msgs, 1.0 / n_msgs)
    else:
        weights = np.abs(np.asarray(amplitudes, dtype=complex)) ** 2
        weights /= weights.sum()
    msg_idx = rng.generator.choice(n_msgs, size=trials, p=weights)
    messages = _unpack(msg_idx, code.d, code.k)
    if np.array_equal(code.codebook, _unpack(np.arange(n_msgs), code.d, code.k)):
        conf = coding._confusion_matrix(channel.matrix, code.copies)
        decoded = channel_sample_broadcast(conf, messages, rng)
    else:
        words = np.repeat(code.codebook[msg_idx], code.copies, axis=1)
        outputs = channel.sample(words, rng)
        decoded = code.decode(outputs, channel)
    rate = float(np.mean(np.any(decoded != messages, axis=1)))
    se = math.sqrt(max(rate * (1.0 - rate), 0.0) / trials)
    decoded_idx = np.ravel_multi_index(tuple(decoded.T), (code.d,) * code.k)
    dist = np.bincount(decoded_idx, minlength=n_msgs).astype(float) / trials
    return rate, se, dist


def count_vectors_from_cuts(n, m):
    """Outcome-count vectors summing to n, one per choice of m - 1 cuts."""
    vectors = []
    for cuts in itertools.combinations(range(n + m - 1), m - 1):
        prev = -1
        vec = []
        for c in cuts:
            vec.append(c - prev - 1)
            prev = c
        vec.append(n + m - 2 - prev)
        vectors.append(vec)
    return np.array(vectors, dtype=float)


def exact_ml_error_by_strings(table, n):
    """Per-hypothesis count-vector ML error as a sum over all m^n outcome
    strings of their probability prod_i p(a_i | x), with no multinomial
    coefficient. Each string decodes by its counts' log-likelihoods rounded
    to 12 decimals, ties to the smallest row."""
    d, m = table.shape
    strings = np.array(list(itertools.product(range(m), repeat=n)),
                       dtype=np.intp).reshape(m**n, n)
    counts = np.stack([np.count_nonzero(strings == a, axis=1) for a in range(m)],
                      axis=1).astype(float)
    dec = np.argmax(np.round(counts @ _safe_log(table).T, 12), axis=1)
    errs = np.zeros(d)
    for x in range(d):
        prob = np.prod(table[x][strings], axis=1)
        errs[x] = prob[dec != x].sum()
    return errs


def confusion_by_strings(table, n):
    """Per-symbol confusion matrix, C[x, y], as a sum over all m^n outcome
    strings of their probability under row x, each string decoded on its
    own: its log-likelihoods added copy by copy, under ``_ml_argmax``'s
    12-decimal rule. A string no row can give weighs 0 under every row,
    whatever it decodes to."""
    d, m = table.shape
    strings = np.array(list(itertools.product(range(m), repeat=n)),
                       dtype=np.intp).reshape(m**n, n)
    dec = _ml_argmax(_safe_log(table).T[strings].sum(axis=1))
    return np.array([np.bincount(dec, np.prod(table[x][strings], axis=1), minlength=d)
                     for x in range(d)])


# Earlier form of the Haar-sampled estimator: the library must give the
# same per-sample values from real arithmetic on the Gaussian draws.


def rms_squares_einsum(impl, target, samples, rng):
    """Per-sample squared outcome-statistics errors of
    ``rms_monte_carlo_povm``, from the states of ``haar_states`` and two
    complex ``einsum`` expectations per element."""
    psi = haar_states(impl.dim, samples, rng)

    def expectations(op):
        return np.einsum("ni,ij,nj->n", np.conj(psi), op, psi).real

    sq = np.zeros(samples)
    for mi, ti in zip(impl.elements, target.elements):
        sq += (expectations(mi) - expectations(ti)) ** 2
    return sq / impl.outcomes


# Monte Carlo estimators that only tests use: the instrument error's
# estimate cross-checks ``rms_exact_instrument``, and cloning's sampled
# error the exact count-vector sum.


def subchannel_outputs(psi, group):
    """Unnormalised Lambda_a(|psi><psi|) for a batch of states."""
    n = psi.shape[0]
    dout = group[0].shape[0]
    out = np.zeros((n, dout, dout), dtype=complex)
    for k in group:
        v = psi @ k.T  # rows K|psi>
        out += np.einsum("ni,nj->nij", v, np.conj(v))
    return out


def rms_monte_carlo_instrument(impl, target, samples, rng):
    """Haar Monte Carlo estimate of the Frobenius sub-channel error."""
    if (
        impl.dim_in != target.dim_in
        or impl.dim_out != target.dim_out
        or impl.outcomes != target.outcomes
    ):
        raise ShapeMismatch("implemented and target instruments must match in shape")
    if samples < 100:
        raise InvalidBounds(f"{samples} < 100 samples")
    psi = haar_states(impl.dim_in, samples, rng)
    sq = np.zeros(samples)
    for gi, gt in zip(impl.kraus, target.kraus):
        diff = subchannel_outputs(psi, gi) - subchannel_outputs(psi, gt)
        sq += np.einsum("nij,nij->n", diff, np.conj(diff)).real
    sq /= impl.outcomes
    return _estimate_from_squares(sq)


@dataclass(frozen=True)
class SampledCloningError:
    per_state: np.ndarray  # error rate per basis state
    average: float
    standard_error: float  # on the average


def cloning_error_rate_sampled(basis, n_uses, trials, rng):
    """``cloning_error_rate`` estimated from ``trials`` count vectors drawn
    per basis state and decoded by maximum likelihood."""
    table = np.asarray(basis.table, dtype=float)
    d = table.shape[0]
    logp = _safe_log(table)
    g = rng.generator
    per_state = np.zeros(d)
    variances = np.zeros(d)
    for i in range(d):
        counts = g.multinomial(n_uses, table[i] / table[i].sum(), size=trials).astype(
            float
        )
        dec = np.argmax(np.round(counts @ logp.T, 12), axis=1)
        rate = float(np.mean(dec != i))
        per_state[i] = rate
        variances[i] = rate * (1.0 - rate) / trials
    se = float(np.sqrt(np.sum(variances)) / d)
    return SampledCloningError(per_state, float(per_state.mean()), se)
