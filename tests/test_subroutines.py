import math

import numpy as np
import pytest

from measrep.coding import ClassicalChannel, exact_repetition_error
from measrep.errors import (NotNormalized, ShapeMismatch, TooFewSamples, TooLarge,
                            TrivialMeasurement)
from measrep.qcore import (
    Instrument,
    Povm,
    Rng,
    dagger,
    degenerate_qutrit_povm,
    density,
    identity,
    lueders_instrument,
    noisy_z_povm,
    trine_povm,
    von_neumann_povm,
)
from measrep.subroutines import (
    build_measurement_isometry,
    chernoff_information,
    cloning_error_rate,
    select_cloning_basis,
)
from oracles import (
    cloning_error_rate_sampled,
    haar_state,
    random_instrument,
    random_povm,
)


# ---------------------------------------------------------------------------
# post-measurement sub-routine
# ---------------------------------------------------------------------------


def test_isometry_is_isometric():
    inst = lueders_instrument(trine_povm())
    iso = build_measurement_isometry(inst)
    assert np.allclose(dagger(iso.matrix) @ iso.matrix, identity(2), atol=1e-12)


def test_isometry_rejects_unnormalised():
    bad = Instrument(((0.5 * identity(2),),))
    with pytest.raises(NotNormalized):
        build_measurement_isometry(bad)


def test_run_post_measurement_matches_subchannels():
    rng = Rng(17)
    for trial in range(10):
        d_in = 2 + trial % 2
        inst = random_instrument(d_in, 2, 3, 2, rng.split(trial))
        psi = haar_state(d_in, rng.split(100 + trial))
        rho = density(psi)
        prob, post = build_measurement_isometry(inst).apply(psi)
        for a in range(inst.outcomes):
            out = np.zeros((2, 2), dtype=complex)
            for k in inst.kraus[a]:
                out += k @ rho @ dagger(k)
            p_ref = float(np.trace(out).real)
            assert abs(prob[a] - p_ref) < 1e-12
            if prob[a] > 1e-14:
                assert np.allclose(post[a], out / p_ref, atol=1e-10)


def test_run_post_measurement_probabilities_sum():
    inst = lueders_instrument(degenerate_qutrit_povm())
    psi = haar_state(3, Rng(4))
    total = build_measurement_isometry(inst).apply(psi)[0].sum()
    assert abs(total - 1.0) < 1e-12


def test_isometry_applies_to_a_batch_of_states():
    iso = build_measurement_isometry(lueders_instrument(von_neumann_povm(2)))
    psi = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8j]])
    prob, post = iso.apply(psi)
    assert prob.shape == (3, 2) and post.shape == (3, 2, 2, 2)
    assert np.allclose(prob, [[1.0, 0.0], [0.0, 1.0], [0.36, 0.64]], atol=1e-15)
    # an outcome of probability 0 gets a zero post-state
    assert not post[0, 1].any() and not post[1, 0].any()
    assert np.allclose(post[2, 1], [[0.0, 0.0], [0.0, 1.0]], atol=1e-15)
    for state, p_row, post_row in zip(psi, prob, post):
        p_one, post_one = iso.apply(state)
        assert np.allclose(p_one, p_row, atol=1e-15)
        assert np.allclose(post_one, post_row, atol=1e-15)


def test_run_post_measurement_shape_check():
    inst = lueders_instrument(trine_povm())
    with pytest.raises(ShapeMismatch):
        build_measurement_isometry(inst).apply(np.ones(3))


# ---------------------------------------------------------------------------
# cloning basis selection
# ---------------------------------------------------------------------------


def test_trine_basis_is_computational():
    basis = select_cloning_basis(trine_povm())
    ref = np.array([[2 / 3, 1 / 6, 1 / 6], [0.0, 0.5, 0.5]])
    assert np.allclose(basis.table, ref, atol=1e-12)
    assert np.allclose(basis.states[0], [1, 0], atol=1e-12)


def test_degenerate_qutrit_basis_rotation():
    basis = select_cloning_basis(degenerate_qutrit_povm())
    theta = math.pi / 8
    c2, s2 = math.cos(theta) ** 2, math.sin(theta) ** 2
    ref = np.array([[c2, s2], [s2, c2], [0.0, 1.0]])
    assert np.allclose(basis.table, ref, atol=1e-12)
    # rows pairwise distinct
    for i in range(3):
        for j in range(i + 1, 3):
            assert np.abs(basis.table[i] - basis.table[j]).sum() > 1e-3


def test_basis_states_orthonormal():
    for povm in (trine_povm(), degenerate_qutrit_povm()):
        basis = select_cloning_basis(povm)
        v = np.column_stack(basis.states)
        assert np.allclose(dagger(v) @ v, identity(povm.dim), atol=1e-10)


def test_trivial_measurement_rejected():
    with pytest.raises(TrivialMeasurement):
        select_cloning_basis(Povm((identity(2) / 2, identity(2) / 2)))


# ---------------------------------------------------------------------------
# ML decoding and error rates
# ---------------------------------------------------------------------------


def test_ml_decode_majority():
    # rows (0.2, 0.8) and (0, 1): a single outcome 0 rules out state 1
    # against the majority, so only the all-ones string decodes to 1
    povm = noisy_z_povm(0.2, 1.0)
    err = cloning_error_rate(select_cloning_basis(povm), 3)
    assert err.per_state[0] == pytest.approx(0.8**3, abs=1e-15)
    assert err.per_state[1] == 0.0
    # identical rows: every count vector ties and goes to index 0
    tie = exact_repetition_error(ClassicalChannel(np.full((2, 2), 0.5)), 3)
    assert np.allclose(tie, [0.0, 1.0], atol=1e-14)


def test_ml_decode_undecodable():
    # the count vector (1, 1) has zero likelihood under both rows
    povm = von_neumann_povm(2)
    err = cloning_error_rate(select_cloning_basis(povm), 2)
    assert err.undecodable == 1
    assert np.array_equal(err.per_state, [0.0, 0.0])


def test_cloning_exact_equals_repetition_error():
    # the cloning error and the repetition-code error are the same ML
    # computation, so they agree bit for bit on the same table
    rng = Rng(31)
    povms = [trine_povm(), degenerate_qutrit_povm()]
    povms += [random_povm(2 + i % 2, 2 + i % 3, rng.split(i)) for i in range(6)]
    for povm in povms:
        basis = select_cloning_basis(povm)
        channel = ClassicalChannel(basis.table)
        for n in (1, 3, 7, 20):
            err = cloning_error_rate(basis, n)
            assert np.array_equal(err.per_state, exact_repetition_error(channel, n))


def test_cloning_exact_trine_values():
    basis = select_cloning_basis(trine_povm())
    for n in (1, 2, 5):
        err = cloning_error_rate(basis, n)
        assert err.per_state[0] == pytest.approx(3.0**-n, abs=1e-14)
        assert err.per_state[1] == pytest.approx(0.0, abs=1e-14)
        assert err.average == pytest.approx(0.5 * 3.0**-n, abs=1e-14)


def test_cloning_exact_matches_sampled():
    basis = select_cloning_basis(trine_povm())
    exact = cloning_error_rate(basis, 3)
    sampled = cloning_error_rate_sampled(basis, 3, trials=50_000, rng=Rng(12))
    assert abs(sampled.average - exact.average) < 3 * sampled.standard_error + 1e-3


def test_cloning_sampled_reproducible():
    basis = select_cloning_basis(trine_povm())
    a = cloning_error_rate_sampled(basis, 4, trials=5000, rng=Rng(3))
    b = cloning_error_rate_sampled(basis, 4, trials=5000, rng=Rng(3))
    assert a.average == b.average


def test_cloning_rejects_a_negative_use_count():
    # the count vectors of n = -1 once raised an untyped IndexError
    with pytest.raises(TooFewSamples, match="-1 < 0 draws"):
        cloning_error_rate(select_cloning_basis(trine_povm()), -1)


def test_cloning_exact_size_cap():
    basis = select_cloning_basis(trine_povm())
    with pytest.raises(TooLarge):
        cloning_error_rate(basis, 10**6)


def test_cloning_degenerate_qutrit_decays():
    povm = degenerate_qutrit_povm()
    basis = select_cloning_basis(povm)
    errs = [
        cloning_error_rate(basis, n).average
        for n in (2, 6, 10)
    ]
    assert errs[0] > errs[1] > errs[2]


# ---------------------------------------------------------------------------
# Chernoff information
# ---------------------------------------------------------------------------


def test_chernoff_trine_rows():
    p = np.array([2 / 3, 1 / 6, 1 / 6])
    q = np.array([0.0, 0.5, 0.5])
    assert chernoff_information(p, q) == pytest.approx(math.log(3.0), abs=1e-9)


def test_chernoff_identical_is_zero():
    p = np.array([0.3, 0.7])
    assert chernoff_information(p, p) == pytest.approx(0.0, abs=1e-12)


def test_chernoff_disjoint_supports():
    assert chernoff_information([1.0, 0.0], [0.0, 1.0]) == math.inf


def test_chernoff_symmetric():
    p = np.array([0.1, 0.5, 0.4])
    q = np.array([0.6, 0.2, 0.2])
    assert chernoff_information(p, q) == pytest.approx(
        chernoff_information(q, p), abs=1e-10
    )


def test_chernoff_bsc_closed_form():
    # BSC rows: C(p, 1-p) = -log(2 sqrt(p(1-p))) at s* = 1/2
    p = 0.1
    ref = -math.log(2 * math.sqrt(p * (1 - p)))
    assert chernoff_information([1 - p, p], [p, 1 - p]) == pytest.approx(
        ref, abs=1e-9
    )


def test_cloning_error_tracks_chernoff_exponent():
    basis = select_cloning_basis(trine_povm())
    xi = chernoff_information(basis.table[0], basis.table[1])
    for n in (5, 10):
        err = cloning_error_rate(basis, n)
        assert err.average <= math.exp(-n * xi) * 5
        assert err.average >= math.exp(-n * xi) / 5
