import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from measrep import qcore, rms, vnsynth
from measrep.errors import InvalidBounds, ShapeMismatch
from measrep.qcore import (
    Rng,
    identity,
    lueders_instrument,
    trine_povm,
    von_neumann_povm,
)
from measrep.rms import rms_exact_instrument, rms_exact_povm, rms_monte_carlo_povm
from oracles import (
    haar_states,
    random_instrument,
    random_povm,
    rms_monte_carlo_instrument,
    rms_squares_einsum,
    symmetric_subspace_projector,
    von_neumann_instrument,
)


def qubit_implementation(x, y, z=0.0):
    """Two-outcome qubit POVM whose element 0 has diagonal (x, y) and
    off-diagonal z."""
    m0 = np.array([[x, z], [np.conj(z), y]], dtype=complex)
    return qcore.Povm((m0, identity(2) - m0))


def test_closed_form_known_values():
    target = von_neumann_povm(2)
    assert rms_exact_povm(qubit_implementation(1.0, 0.0), target) == 0.0
    assert rms_exact_povm(qubit_implementation(2 / 3, 0.0), target) == pytest.approx(
        1 / (3 * math.sqrt(3)), abs=1e-15
    )
    assert rms_exact_povm(qubit_implementation(8 / 9, 1 / 18), target) == pytest.approx(
        1 / 18, abs=1e-15
    )


def test_closed_form_off_diagonal_term():
    target = von_neumann_povm(2)
    base = rms_exact_povm(qubit_implementation(0.9, 0.1), target)
    with_z = rms_exact_povm(qubit_implementation(0.9, 0.1, 0.1j), target)
    assert with_z > base
    assert with_z**2 == pytest.approx(base**2 + 0.01 / 3, abs=1e-15)


def test_closed_form_reduces_to_the_qubit_quadratic():
    # two outcomes in dimension 2: ((1 - x - y)^2 + (1 - x) y) / 3
    for a, b in [(0.9, 0.05), (2 / 3, 0.0), (0.5, 0.5)]:
        ref = math.sqrt(((1 - a - b) ** 2 + (1 - a) * b) / 3.0)
        eps = rms_exact_povm(qubit_implementation(a, b), von_neumann_povm(2))
        assert eps == pytest.approx(ref, abs=1e-15)


def test_closed_form_zero_for_identical():
    for povm in (von_neumann_povm(3), trine_povm(), qcore.degenerate_qutrit_povm()):
        assert rms_exact_povm(povm, povm) == 0.0


def test_closed_form_shape_checks():
    with pytest.raises(ShapeMismatch):
        rms_exact_povm(trine_povm(), von_neumann_povm(2))
    with pytest.raises(ShapeMismatch):
        rms_exact_povm(von_neumann_povm(3), von_neumann_povm(2))


@pytest.mark.parametrize("d, m, seed", [(3, 3, 11), (4, 2, 12)])
def test_closed_form_matches_monte_carlo_beyond_the_qubit(d, m, seed):
    impl = random_povm(d, m, Rng(seed))
    target = random_povm(d, m, Rng(seed + 100))
    est = rms_monte_carlo_povm(impl, target, 200_000, Rng(seed + 200))
    assert abs(rms_exact_povm(impl, target) - est.value) <= 4 * est.standard_error


def test_monte_carlo_matches_closed_form():
    syn = vnsynth.trine_optimal_protocol(2, trine_povm())
    impl = vnsynth.implemented_povm(syn.prep, syn.protocol)
    target = von_neumann_povm(2)
    est = rms_monte_carlo_povm(impl, target, 50_000, Rng(3))
    assert abs(est.value - 1 / 18) < 3 * est.standard_error + 1e-4


# block budgets from one or a few rows per block to one block for every
# sample count drawn, so the last block is often a part block
@settings(max_examples=60)
@given(d=st.integers(2, 4), m=st.integers(2, 4), samples=st.integers(100, 3000),
       block_bytes=st.sampled_from([200, 4096, 2**18]),
       seed=st.integers(0, 2**32 - 1))
def test_monte_carlo_squares_match_the_einsum_on_haar_states(d, m, samples,
                                                             block_bytes, seed):
    impl = random_povm(d, m, Rng(seed))
    target = random_povm(d, m, Rng(seed, 1))
    estimate = rms._estimate_from_squares
    seen = []

    def keep(sq):
        seen.append(sq.copy())
        return estimate(sq)

    rng, ref_rng = Rng(seed, 2), Rng(seed, 2)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qcore, "_BLOCK_BYTES", block_bytes)
        mp.setattr(rms, "_estimate_from_squares", keep)
        est = rms_monte_carlo_povm(impl, target, samples, rng)
    ref = rms_squares_einsum(impl, target, samples, ref_rng)
    assert seen[0].shape == (samples,)
    assert np.max(np.abs(seen[0] - ref)) <= 1e-14
    assert est == estimate(seen[0])
    assert rng.generator.random() == ref_rng.generator.random()


def test_monte_carlo_zero_for_identical():
    t = trine_povm()
    est = rms_monte_carlo_povm(t, t, 200, Rng(0))
    assert est.value == 0.0


def test_an_estimate_near_zero_takes_the_root_of_the_squares_standard_error():
    # below a value of 1e-12 the delta method's se / (2 value) would blow up
    sq = np.array([0.0, 4e-26, 0.0, 4e-26])
    est = rms._estimate_from_squares(sq)
    assert est.value == math.sqrt(2e-26) < 1e-12
    assert est.standard_error == math.sqrt(float(sq.std(ddof=1) / 2.0))


def test_monte_carlo_reproducible():
    syn = vnsynth.trine_optimal_protocol(1, trine_povm())
    impl = vnsynth.implemented_povm(syn.prep, syn.protocol)
    # compare against the 2x2 target extended trivially: shapes must match
    target = von_neumann_povm(2)
    a = rms_monte_carlo_povm(impl, target, 1000, Rng(42))
    b = rms_monte_carlo_povm(impl, target, 1000, Rng(42))
    assert a.value == b.value


def test_monte_carlo_shape_checks():
    with pytest.raises(ShapeMismatch):
        rms_monte_carlo_povm(trine_povm(), von_neumann_povm(2), 200, Rng(0))
    with pytest.raises(InvalidBounds, match="10 < 100 samples"):
        rms_monte_carlo_povm(trine_povm(), trine_povm(), 10, Rng(0))


def test_instrument_monte_carlo_zero_for_identical():
    inst = lueders_instrument(trine_povm())
    est = rms_monte_carlo_instrument(inst, inst, 200, Rng(1))
    assert est.value == 0.0


def test_instrument_monte_carlo_detects_difference():
    a = lueders_instrument(trine_povm())
    b = lueders_instrument(qcore.noisy_z_povm(0.9, 0.9))
    with pytest.raises(ShapeMismatch):
        rms_monte_carlo_instrument(a, b, 200, Rng(1))
    c = von_neumann_instrument(2)
    d = qcore.Instrument(
        (
            c.kraus[1],
            c.kraus[0],
        )
    )
    est = rms_monte_carlo_instrument(c, d, 500, Rng(1))
    assert est.value > 0.1


# pairs of random instruments with d_in 2 or 3 and d_out 1 to 3; the
# implementation has two Kraus operators per outcome, the target one
@pytest.mark.parametrize("d_in, d_out, seed", [(2, 2, 31), (3, 2, 32), (2, 3, 33),
                                               (3, 1, 34)])
def test_instrument_exact_matches_monte_carlo(d_in, d_out, seed):
    impl = random_instrument(d_in, d_out, 3, 2, Rng(seed))
    target = random_instrument(d_in, d_out, 3, 1, Rng(seed, 1))
    est = rms_monte_carlo_instrument(impl, target, 100_000, Rng(seed, 2))
    exact = rms_exact_instrument(impl, target)
    assert abs(exact - est.value) <= 3 * est.standard_error
    assert rms_exact_instrument(target, impl) == exact
    assert rms_exact_instrument(impl, impl) == 0.0


@settings(max_examples=60)
@given(d_in=st.integers(1, 3), m=st.integers(1, 4), ranks=st.tuples(
    st.integers(1, 3), st.integers(1, 3)), seed=st.integers(0, 2**32 - 1))
def test_instrument_exact_with_one_dimensional_outputs_is_the_povm_error(d_in, m, ranks,
                                                                         seed):
    # Phi_a(X) = Tr(M_a X): Delta_a(I) = Tr D_a and Delta_a(|i><j|) = (D_a)_ji.
    # A random instrument is an isometry, so it needs m r >= d_in
    assume(m * min(ranks) >= d_in)
    impl = random_instrument(d_in, 1, m, ranks[0], Rng(seed))
    target = random_instrument(d_in, 1, m, ranks[1], Rng(seed, 1))
    povms = qcore.induced_povm(impl), qcore.induced_povm(target)
    assert abs(rms_exact_instrument(impl, target) - rms_exact_povm(*povms)) <= 1e-15


def test_instrument_exact_swapped_outcomes():
    # Delta_0(X) = P_0 X P_0 - P_1 X P_1, and Delta_1 = -Delta_0:
    # (||P_0 - P_1||^2 + ||P_0||^2 + ||P_1||^2) / (2 * 3) = 2/3 per outcome
    inst = von_neumann_instrument(2)
    swapped = qcore.Instrument(inst.kraus[::-1])
    assert rms_exact_instrument(inst, swapped) == pytest.approx(math.sqrt(2 / 3),
                                                                abs=1e-15)


def test_instrument_exact_shape_checks():
    base = random_instrument(2, 2, 3, 1, Rng(0))
    for other in (random_instrument(3, 2, 3, 1, Rng(1)),  # d_in
                  random_instrument(2, 3, 3, 1, Rng(2)),  # d_out
                  random_instrument(2, 2, 2, 1, Rng(3))):  # outcomes
        with pytest.raises(ShapeMismatch):
            rms_exact_instrument(base, other)
        with pytest.raises(ShapeMismatch):
            rms_exact_instrument(other, base)


def test_symmetric_projector_properties():
    for d in (2, 3):
        proj = symmetric_subspace_projector(d)
        assert np.allclose(proj @ proj, proj, atol=1e-12)
        assert np.trace(proj).real == pytest.approx(d * (d + 1) / 2, abs=1e-12)
        assert np.allclose(proj, proj.conj().T, atol=1e-12)


def test_haar_second_moment_small():
    # quick version of the moment check; the acceptance suite runs the
    # full-size one
    d, n = 2, 20_000
    psi = haar_states(d, n, Rng(8))
    second = np.einsum("ni,nk,nj,nl->ikjl", psi, psi, np.conj(psi), np.conj(psi))
    second = second.reshape(d * d, d * d) / n
    ref = (2.0 / (d * (d + 1))) * symmetric_subspace_projector(d)
    assert np.linalg.norm(second - ref) < 5 / math.sqrt(n)
