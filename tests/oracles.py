"""Reference constructions the tests compare the library against.

Oracles compute a quantity a second, independent way; fixtures build
random or textbook inputs. None of this is library API.
"""

import itertools

import numpy as np

from measrep.coding import associated_channel
from measrep.errors import ShapeMismatch, TooLarge
from measrep.qcore import Instrument, Povm, dagger, density, identity


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


def von_neumann_instrument(dim):
    """Projective measurement onto the computational basis, as an instrument."""
    eye = identity(dim)
    return Instrument(tuple((density(eye[:, i]),) for i in range(dim)))


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
    messages = np.array(list(itertools.product(range(d), repeat=code.k)))
    # encoded state: sum_i alpha_i |c_i>, a vector on d**n
    psi = np.zeros(d**code.n, dtype=complex)
    for alpha, word in zip(amplitudes, code.encode(messages)):
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
