"""Finite-rate reproduction via classical block coding.

A measurement induces a classical channel over basis states; its
capacity (computed by Blahut-Arimoto with a certified two-sided gap)
lower-bounds the achievable reproduction rate. Concrete repetition and
random codebooks demonstrate the block protocol at desk scale. One
count-vector law, the per-symbol confusion matrix C of ML decisions on
n i.i.d. draws (every log k! ``math.lgamma``'s), serves cloning and
coding: the exact cloning error is C's off-diagonal mass, and a codebook
of message digits decodes symbol by symbol, so its simulated letters are
drawn from C. Any other codebook decodes by full ML in three steps
(``BlockCode.decode``): one matrix product per row block scores every
codeword, a row keeps its best score when it beats the second by a
margin proven to cover every rounding, and the other rows are decided
again by the exact fold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import qcore
from .errors import InvalidBounds, NotConverged, ShapeMismatch, TooLarge
from .qcore import Povm, Rng, _check_bytes

_LOG_ZERO = -1e30  # stands in for log 0: finite, so 0 * _LOG_ZERO is 0
_CODEBOOK_CAP = 2**16
_COUNT_VECTOR_CAP = 2 * 10**6
_MAX_ITER = 100_000  # Blahut-Arimoto iterations before NotConverged


# ---------------------------------------------------------------------------
# Maximum-likelihood decoding of i.i.d. outcomes
# ---------------------------------------------------------------------------


def _safe_log(p: np.ndarray) -> np.ndarray:
    """Elementwise natural log with ``_LOG_ZERO`` in place of log 0."""
    return np.where(p > 0.0, np.log(np.where(p > 0.0, p, 1.0)), _LOG_ZERO)


def _ml_argmax(ll: np.ndarray) -> np.ndarray:
    """ML decision over the last axis: log-likelihoods rounded to 12
    decimals, ties broken to the smallest index. ``ll`` is a temporary,
    rounded in place."""
    return np.argmax(np.round(ll, 12, out=ll), axis=-1)


def _count_vectors(n: int, m: int) -> np.ndarray:
    """All outcome-count vectors summing to n, lexicographic, one per row
    of a float array held column by column (Fortran order)."""
    rows = math.comb(n + m - 1, m - 1)
    if rows > _COUNT_VECTOR_CAP:
        raise TooLarge(
            f"count vectors for n = {n} exceed the cap of {_COUNT_VECTOR_CAP}")
    _check_bytes("the count vectors", 8 * rows * m)
    counts = np.empty((rows, m), order="F")
    # one column at a time: a row with r still to place becomes r + 1
    # rows valued 0..r, in order, so the rows stay lexicographic. The
    # rows placed so far lead the first j columns.
    rem = np.array([n])
    for j in range(m - 1):
        reps = rem + 1
        src = np.repeat(np.arange(rem.size), reps)
        within = np.arange(src.size)
        within -= (np.cumsum(reps) - reps).take(src)
        for i in range(j):
            counts[: src.size, i] = counts[: rem.size, i].take(src)
        counts[: src.size, j] = within
        rem = rem.take(src)
        rem -= within
    counts[:, m - 1] = rem
    return counts


def _confusion_matrix(table, n_uses: int) -> np.ndarray:
    """C[x, y]: the probability that n_uses i.i.d. draws from row x of an
    outcome table decode to y. The ML decision (``_ml_argmax``) reads the
    draws only through their count vector, so row x bins the vectors'
    multinomial weights under x by decision, one ``np.bincount``. A vector
    no row can give weighs exactly 0 under every row, whatever it decodes to."""
    table = np.asarray(table, dtype=float)
    if table.ndim != 2 or 0 in table.shape or not np.all(np.isfinite(table)):
        raise ShapeMismatch("an outcome table must be 2-D, non-empty and finite")
    if np.any(table < -1e-9) or np.any(np.abs(table.sum(axis=1) - 1.0) > 1e-9):
        raise ShapeMismatch("each row of an outcome table must be a distribution")
    if n_uses < 0:
        raise InvalidBounds(f"{n_uses} < 0 draws")
    d, m = table.shape
    rows = math.comb(n_uses + m - 1, m - 1)
    if rows <= _COUNT_VECTOR_CAP:  # past the cap, _count_vectors raises
        # the count columns, the (R, d) log-likelihoods, five R-long
        # temporaries, n + 1 values of log k!, C with one row's bins, and
        # the table as floats, its logs and two temporaries of their size
        _check_bytes("the count-vector ML error",
                     8 * (rows * (m + d + 5) + n_uses + 1 + d * (d + 1 + 4 * m)))
    counts = _count_vectors(n_uses, m)
    logp = _safe_log(table)
    dec = _ml_argmax(counts @ logp.T)
    log_fact = np.fromiter(map(math.lgamma, range(1, n_uses + 2)), float, n_uses + 1)
    log_multi = log_fact.take(counts[:, 0].astype(np.intp))
    for a in range(1, m):
        log_multi += log_fact.take(counts[:, a].astype(np.intp))
    np.subtract(log_fact[n_uses], log_multi, out=log_multi)
    terms, weight = np.empty_like(log_multi), np.empty_like(log_multi)
    conf = np.empty((d, d))
    for x in range(d):
        # an unseen zero-probability output adds 0 * _LOG_ZERO, a zero; a
        # seen one kills the weight
        np.multiply(counts[:, 0], logp[x, 0], out=terms)
        for a in range(1, m):
            terms += np.multiply(counts[:, a], logp[x, a], out=weight)
        np.exp(np.add(log_multi, terms, out=weight), out=weight)
        weight[terms < _LOG_ZERO / 2] = 0.0
        conf[x] = np.bincount(dec, weight, minlength=d)
    return conf


def cloning_error_rate(table, n_uses: int) -> np.ndarray:
    """Exact ML decoding error per row of an outcome table after n_uses
    i.i.d. draws: N-fold cloning on a ``CloningBasis.table``, or one
    repetition-coded symbol on a channel's ``matrix``. It is the
    off-diagonal mass of each row of ``_confusion_matrix``, summed as such
    (1 - C[x, x] would lose an error below the rounding of 1)."""
    conf = _confusion_matrix(table, n_uses)
    np.fill_diagonal(conf, 0.0)
    return conf.sum(axis=1)


# ---------------------------------------------------------------------------
# Channels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassicalChannel:
    """Conditional distribution p(a|x), rows indexed by the input letter."""

    matrix: np.ndarray  # (inputs, outputs)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] == 0:
            raise ShapeMismatch("channel matrix must be 2-D with at least one input")
        if not np.all(np.isfinite(m)):
            raise ShapeMismatch("channel entries must be finite")
        if np.any(m < -1e-12):
            raise ShapeMismatch("channel entries must be nonnegative")
        if np.any(np.abs(m.sum(axis=1) - 1.0) > 1e-12):
            raise ShapeMismatch("channel rows must sum to 1")
        m = np.clip(m, 0.0, None)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def inputs(self) -> int:
        return self.matrix.shape[0]

    @property
    def outputs(self) -> int:
        return self.matrix.shape[1]

    def sample(self, letters: np.ndarray, rng: Rng) -> np.ndarray:
        """Pass each letter through the channel once (``_draw``)."""
        return _draw(self.matrix, _check_letters(letters, self.inputs, "input"), rng)


def _draw(matrix: np.ndarray, letters: np.ndarray, rng: Rng) -> np.ndarray:
    """A column of ``matrix`` per letter, drawn from its row with one uniform
    each in C order; the last column takes every uniform past the others'."""
    cum = np.cumsum(matrix, axis=1)
    u = rng.generator.random(letters.shape)
    # counted in the smallest unsigned type that holds every column
    out = np.zeros(u.shape, np.min_scalar_type(matrix.shape[1]))
    for j in range(matrix.shape[1] - 1):
        out += u > cum[:, j].take(letters)
    return out.astype(np.intp)


def _check_letters(letters, alphabet: int, kind: str) -> np.ndarray:
    """``letters`` as an array, or ``ShapeMismatch`` unless it has an axis and
    each letter is an integer in 0..alphabet - 1 (bools read as 0 and 1)."""
    letters = np.asarray(letters)
    if letters.ndim == 0:
        raise ShapeMismatch(f"need {kind} letters along at least one axis")
    if letters.dtype.kind not in "biu":
        raise ShapeMismatch(f"need integer {kind} letters, not {letters.dtype}")
    if letters.size and not 0 <= letters.min() <= letters.max() < alphabet:
        raise ShapeMismatch(f"need {kind} letters in 0..{alphabet - 1}")
    return letters


def associated_channel(available: Povm) -> ClassicalChannel:
    """Channel p(a|x) from measuring the computational basis states."""
    mat = np.clip(available.table(np.eye(available.dim, dtype=complex)), 0.0, None)
    mat /= mat.sum(axis=1, keepdims=True)
    return ClassicalChannel(mat)


def _divergences(w: np.ndarray, logw: np.ndarray, q: np.ndarray) -> np.ndarray:
    """D(w_x || q) in nats for each row w_x of w, given logw = _safe_log(w).

    An output that w_x never gives adds 0 * (a finite difference), a
    zero, so the sum over the row is the sum over its support."""
    return (w * (logw - _safe_log(q))).sum(axis=1)


def mutual_information(p_x, channel: ClassicalChannel) -> float:
    """I(A:X) in bits for the given input distribution: the p_x-average
    of D(w_x || p_x W)."""
    p_x = np.asarray(p_x, dtype=float)
    if (p_x.shape != (channel.inputs,) or not np.all(p_x >= 0.0)  # NaN fails
            or abs(p_x.sum() - 1.0) > 1e-9):
        raise ShapeMismatch("p_x must be a distribution on the input alphabet")
    w = channel.matrix
    val = float(p_x @ _divergences(w, _safe_log(w), p_x @ w))
    return max(val, 0.0) / math.log(2.0)


@dataclass(frozen=True)
class CapacityResult:
    capacity: float  # bits, certified lower bound
    upper_bound: float  # bits
    p_x: np.ndarray
    iterations: int
    gap: float  # bits


def blahut_arimoto(channel: ClassicalChannel, tol: float) -> CapacityResult:
    """Capacity with the standard certified two-sided stopping rule.

    The per-letter divergences D(p(.|x) || q) give a lower bound at the
    current input distribution and their maximum an upper bound; the
    iteration stops when the gap (in bits) is at most tol, or raises
    ``NotConverged`` with both bounds after ``_MAX_ITER`` iterations.
    """
    if not tol > 0.0:  # NaN included
        raise InvalidBounds("tol must be positive")
    w = channel.matrix
    n_in = channel.inputs
    r = np.full(n_in, 1.0 / n_in)
    ln2 = math.log(2.0)
    logw = _safe_log(w)
    lower = upper = 0.0
    for it in range(1, _MAX_ITER + 1):
        div = _divergences(w, logw, r @ w)
        top = div.max()
        lower = float(r @ div)
        upper = float(top)
        if upper - lower <= tol * ln2:
            return CapacityResult(
                capacity=lower / ln2,
                upper_bound=upper / ln2,
                p_x=r,
                iterations=it,
                gap=(upper - lower) / ln2,
            )
        r = r * np.exp(div - top)
        r /= r.sum()
    raise NotConverged(
        f"gap {(upper - lower) / ln2:.3e} bits above tol after {_MAX_ITER} iterations",
        lower=lower / ln2,
        upper=upper / ln2,
    )


# ---------------------------------------------------------------------------
# Block codes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockCode:
    """k message symbols over d letters in blocks of n channel uses.

    Message i, whose k base-d digits read i, goes out as
    ``np.repeat(codebook[i], copies)``: a repetition code's row is those
    digits, a random code's its drawn codeword, sent once. The codebook
    needs d^k rows of letters in 0..d - 1, checked after k, d and copies."""

    k: int
    d: int  # alphabet size (messages and codewords)
    copies: int  # channel uses per letter
    codebook: np.ndarray  # (d**k, n // copies)

    def __post_init__(self):
        _check_messages(self.k, self.d, self.copies, "copies")
        book = _check_letters(self.codebook, self.d, "codebook")
        if book.ndim != 2 or book.shape[0] != self.d**self.k or book.shape[1] < 1:
            raise ShapeMismatch(f"need a codebook of {self.d}^{self.k} nonempty rows")

    @property
    def n(self) -> int:
        return self.codebook.shape[1] * self.copies

    def decode(self, outputs: np.ndarray, channel: ClassicalChannel) -> np.ndarray:
        """ML decode output rows (batch, n) back to message rows (batch, k)
        over the codewords as sent, in row blocks within ``qcore._BLOCK_BYTES``.

        The decision is ``_ml_argmax`` of the fold f_w = (a_1(c_1) + a_2(c_2))
        + ... + a_n(c_n), positions added in order, where c = c_w is codeword
        w and a_j(x) = log W(y_j | x) (``_safe_log``). Three steps give that
        decision while folding only a few rows:

        1. Score: one matrix product per block gives s_w, the sum over
           positions with c_j >= 1 of D_j(c_j) = fl(a_j(c_j) - a_j(0)). Its
           rows hold D_j(x) for x >= 1, its columns the codewords' one-hot
           letters, so its inner length is K = n(d - 1); the common term
           sum_j a_j(0) drops out.
        2. Filter: a row keeps the first argmax b of its computed scores
           when A = sum_j max_x |a_j(x)| <= 2^11 and the gap g between its
           best and second-best scores exceeds
           2^-39 + 2^-51 (n + 2K + 2) A.
        3. Recheck: every other row (near-ties, exact ties, and rows that
           see an output of zero probability, where A >= 10^30) takes the
           fold through ``_ml_argmax``; tables[j, y, w] = log W(y | c_w[j])
           make each position's addend one row gather.

        A kept row decides as the fold does. Let u = 2^-53, γ_k = ku/(1 - ku)
        and l_w = sum_j a_j(c_j), exactly. (i) The fold gives
        |f_w - l_w| <= γ_{n-1} A. (ii) Rounding the differences moves s_w
        from l_w - sum_j a_j(0) by at most u sum_j |a_j(c_j) - a_j(0)| <= 2uA.
        (iii) The product's terms are exact (a factor is 0 or 1), so under
        any summation order, blocking or FMA the computed score is within
        γ_K sum_j |D_j(c_j)| <= 2(1 + u) γ_K A of s_w. So for every w != b,
        f_b - f_w >= (computed gap) - (2γ_{n-1} + 4u + 4(1 + u) γ_K) A.
        (iv) ``np.round(f, 12)`` is fl(rint(fl(f 10^12)) / 10^12). When
        f_b - f_w > 10^-12 + 2u(1 + γ_{n-1}) A, the products differ by more
        than 1, so their rints differ by at least 1; as |f| <= (1 + γ_{n-1}) A
        < 2^12, where floats lie 2^-41 < 10^-12 apart, the quotients stay
        apart. Then the rounded f_b beats every other, whatever the tie rule.
        The gap needed is 10^-12 + (2n + 4K + 4) u A to first order in u;
        the filter asks twice that slope and 2^-39 > 1.8 10^-12, and the
        surplus covers the second-order terms and the rounding of A, of the
        margin and of g, each within (n + 2)u relative, for n + K < 2^40.
        """
        outputs = np.asarray(outputs)
        if outputs.ndim != 2 or outputs.shape[1] != self.n or channel.inputs != self.d:
            raise ShapeMismatch(f"need {self.n} outputs a row, {self.d} channel inputs")
        _check_letters(outputs, channel.outputs, "output")
        n_words, width = self.codebook.shape[0], self.n * (self.d - 1)
        # the per-position tables and the one-hot letters
        _check_bytes("the decode tables",
                     8 * self.n * n_words * (channel.outputs + self.d - 1))
        # as indices: a boolean codebook would index as a mask
        words = np.repeat(self.codebook.astype(np.intp), self.copies, axis=1)
        logw = _safe_log(channel.matrix)
        tables = np.ascontiguousarray(logw.T[:, words.T].swapaxes(0, 1))
        # row w holds codeword w's one-hot letters, position by position
        onehot = (words[:, :, None] == np.arange(1, self.d)).reshape(
            n_words, width).astype(float)
        diffs = (logw[1:] - logw[0]).T  # D(x) per output y, x >= 1
        spread = np.abs(logw).max(axis=0)  # max_x |a(x)| per output y
        slope = 2.0**-51 * (self.n + 2 * width + 2)
        rows = max(1, qcore._BLOCK_BYTES // (8 * max(n_words, width)))
        idx = np.empty(outputs.shape[0], dtype=np.intp)
        for start in range(0, outputs.shape[0], rows):
            block = outputs[start : start + rows]
            scores = diffs.take(block, axis=0).reshape(len(block), width) @ onehot.T
            best = scores.argmax(axis=1)
            at = np.arange(len(block))
            top = scores[at, best]
            scores[at, best] = -np.inf
            gap = top - scores[at, scores.argmax(axis=1)]
            spans = spread.take(block) @ np.ones(self.n)
            near = ~((spans <= 2.0**11) & (gap > 2.0**-39 + slope * spans))
            if near.any():
                recheck = block[near]
                # _safe_log never gives -0.0, so starting from position 0's
                # addend is the same bits as adding it to zeros
                ll = tables[0].take(recheck[:, 0], axis=0)
                for j in range(1, self.n):
                    ll += tables[j].take(recheck[:, j], axis=0)
                best[near] = _ml_argmax(ll)
            idx[start : start + rows] = best
        # a gather of the messages' digits, not a division per row
        return _unpack(np.arange(n_words), self.d, self.k).take(idx, axis=0)


def _unpack(idx: np.ndarray, d: int, k: int) -> np.ndarray:
    """The k base-d digits of each index, one row each, most significant first."""
    return idx[:, None] // d ** np.arange(k - 1, -1, -1) % d


def _check_messages(k: int, d: int, length: int, what: str) -> None:
    """Reject k < 1, a block ``length`` below 1 or d < 2, and more than
    ``_CODEBOOK_CAP`` messages: the block simulation keeps vectors over
    all d^k of them. A large k computes no d^k: the exponent is held at
    17, where 2^k is past the cap already."""
    if k < 1 or length < 1 or d < 2:
        raise InvalidBounds(f"need k >= 1, {what} >= 1, d >= 2")
    if d ** min(k, _CODEBOOK_CAP.bit_length()) > _CODEBOOK_CAP:
        raise TooLarge(f"{d}^{k} messages exceed the codebook cap of {_CODEBOOK_CAP}")


def repetition_code(k: int, copies: int, d: int) -> BlockCode:
    """Each message digit sent ``copies`` times; per-symbol ML decode."""
    _check_messages(k, d, copies, "copies")
    return BlockCode(k=k, d=d, copies=copies, codebook=_unpack(np.arange(d**k), d, k))


def random_codebook(k: int, n: int, d: int, rng: Rng) -> BlockCode:
    """Uniformly random distinct codewords with full-ML decoding."""
    _check_messages(k, d, n, "n")
    n_msgs = d**k
    n_words = d ** min(n, 63)  # = d^n whenever that is within the cap
    if n_words > 2**62:
        raise TooLarge(f"codewords of length {n} over {d} letters exceed the cap")
    if n_msgs > n_words:
        raise TooLarge("more messages than available codewords")
    g = rng.generator
    chosen: set = set()
    words = []
    # distinct draws keep the encoder injective
    while len(words) < n_msgs:
        c = int(g.integers(0, n_words))
        if c not in chosen:
            chosen.add(c)
            words.append(c)
    codebook = _unpack(np.array(words, dtype=np.int64), d, n)
    return BlockCode(k=k, d=d, copies=1, codebook=codebook)


# ---------------------------------------------------------------------------
# Block protocol simulation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockRunResult:
    error_rate: float
    standard_error: float
    trials: int
    decoded_distribution: np.ndarray  # empirical frequency per message index


def simulate_block_protocol(
    channel: ClassicalChannel,
    code: BlockCode,
    amplitudes: Optional[np.ndarray],
    trials: int,
    rng: Rng,
) -> BlockRunResult:
    """Run the single-round block protocol and report the block error rate.

    The quantum layer reduces to sampling messages with weights
    |alpha_i|^2: the encoding unitary sends basis states to codeword
    product states, so the outcome statistics factor through the
    classical channel.

    All message indices are drawn first, then the trials run in row
    blocks whose (rows, letters) arrays stay within ``qcore._BLOCK_BYTES``,
    one uniform per letter in C order: the same stream as one whole draw.
    When the codebook is the message digits, as ``repetition_code`` builds
    it, ML decoding splits into one decision per symbol, so each digit's
    decoded letter is drawn from its row of ``_confusion_matrix``. Every
    other code sends ``np.repeat(codebook[i], copies)`` through the channel
    and ``decode``.
    """
    if code.d != channel.inputs:
        raise ShapeMismatch("code alphabet does not match the channel input")
    if trials < 1:
        raise InvalidBounds(f"{trials} < 1 trials")
    _check_bytes("the trials' messages and a codeword", 8 * (trials + code.n))
    n_msgs = code.d**code.k
    if amplitudes is None:
        weights = np.full(n_msgs, 1.0 / n_msgs)
    else:
        amplitudes = np.asarray(amplitudes, dtype=complex)
        if amplitudes.shape != (n_msgs,):
            raise ShapeMismatch(f"need {n_msgs} amplitudes")
        weights = np.abs(amplitudes) ** 2
        total = weights.sum()
        if not 0.0 < total < math.inf:  # all zero, or a NaN or inf amplitude
            raise ShapeMismatch("amplitudes must have a finite nonzero norm")
        weights /= total
    # a width test first, so a random code builds no digits
    per_symbol = code.codebook.shape[1] == code.k and np.array_equal(
        code.codebook, _unpack(np.arange(n_msgs), code.d, code.k))
    if per_symbol:
        conf = _confusion_matrix(channel.matrix, code.copies)
    msg_idx = rng.generator.choice(n_msgs, size=trials, p=weights)
    rows = max(1, qcore._BLOCK_BYTES // (8 * (code.k if per_symbol else code.n)))
    place = code.d ** np.arange(code.k - 1, -1, -1)  # digits @ place = message index
    n_errors = 0
    counts = np.zeros(n_msgs, dtype=np.intp)
    for start in range(0, trials, rows):
        sent = msg_idx[start : start + rows]
        letters = code.codebook.take(sent, axis=0)
        if per_symbol:
            decoded = _draw(conf, letters, rng) @ place
        else:
            words = np.repeat(letters, code.copies, axis=1)
            decoded = code.decode(channel.sample(words, rng), channel) @ place
        n_errors += int(np.count_nonzero(decoded != sent))
        counts += np.bincount(decoded, minlength=n_msgs)
    rate = n_errors / trials
    se = math.sqrt(max(rate * (1.0 - rate), 0.0) / trials)
    return BlockRunResult(error_rate=rate, standard_error=se, trials=trials,
                          decoded_distribution=counts.astype(float) / trials)
