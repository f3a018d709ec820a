import math

import numpy as np
import pytest

from measrep import qcore, vnsynth
from measrep.errors import ShapeMismatch, TooFewSamples
from measrep.qcore import (
    Rng,
    identity,
    lueders_instrument,
    trine_povm,
    von_neumann_povm,
)
from measrep.rms import (
    rms_closed_form_qubit,
    rms_monte_carlo_instrument,
    rms_monte_carlo_povm,
)
from oracles import symmetric_subspace_projector, von_neumann_instrument


def test_closed_form_known_values():
    assert rms_closed_form_qubit(1.0, 0.0) == 0.0
    assert rms_closed_form_qubit(2 / 3, 0.0) == pytest.approx(
        1 / (3 * math.sqrt(3)), abs=1e-15
    )
    assert rms_closed_form_qubit(8 / 9, 1 / 18) == pytest.approx(1 / 18, abs=1e-15)


def test_closed_form_off_diagonal_term():
    base = rms_closed_form_qubit(0.9, 0.1)
    with_z = rms_closed_form_qubit(0.9, 0.1, z=0.1j)
    assert with_z > base
    assert with_z**2 == pytest.approx(base**2 + 0.01 / 3, abs=1e-15)


def test_closed_form_rejects_out_of_range():
    with pytest.raises(ShapeMismatch):
        rms_closed_form_qubit(1.2, 0.0)


def _qudit_closed_form(table, d):
    # qudit closed form: epsilon**2 = qudit_objective / (m d (d+1))
    m = table.shape[0]
    return math.sqrt(max(vnsynth.qudit_objective(table, d) / (m * d * (d + 1)), 0.0))


def test_qudit_closed_form_reduces_to_qubit():
    for a, b in [(0.9, 0.05), (2 / 3, 0.0), (0.5, 0.5)]:
        table = np.array([[a, b], [1 - a, 1 - b]])
        assert _qudit_closed_form(table, 2) == pytest.approx(
            rms_closed_form_qubit(a, b), abs=1e-14
        )


def test_qudit_closed_form_identity_table():
    assert _qudit_closed_form(np.eye(3), 3) == 0.0


def test_closed_form_clamps_rounding_excursions():
    # a diagonal a few ulps above 1 is rounding in the implemented
    # element, not an invalid input
    assert rms_closed_form_qubit(1.0 + 2.2e-15, 0.0) == rms_closed_form_qubit(1.0, 0.0)
    assert rms_closed_form_qubit(0.5, -2.2e-15) == rms_closed_form_qubit(0.5, 0.0)
    with pytest.raises(ShapeMismatch):
        rms_closed_form_qubit(1.0 + 1e-11, 0.0)


def test_monte_carlo_matches_closed_form():
    syn = vnsynth.trine_optimal_protocol(2)
    impl = vnsynth.implemented_povm(syn.prep, syn.protocol)
    target = von_neumann_povm(2)
    est = rms_monte_carlo_povm(impl, target, 50_000, Rng(3))
    assert abs(est.value - 1 / 18) < 3 * est.standard_error + 1e-4


def test_monte_carlo_zero_for_identical():
    t = trine_povm()
    est = rms_monte_carlo_povm(t, t, 200, Rng(0))
    assert est.value == 0.0


def test_monte_carlo_reproducible():
    syn = vnsynth.trine_optimal_protocol(1)
    impl = vnsynth.implemented_povm(syn.prep, syn.protocol)
    # compare against the 2x2 target extended trivially: shapes must match
    target = von_neumann_povm(2)
    a = rms_monte_carlo_povm(impl, target, 1000, Rng(42))
    b = rms_monte_carlo_povm(impl, target, 1000, Rng(42))
    assert a.value == b.value


def test_monte_carlo_shape_checks():
    with pytest.raises(ShapeMismatch):
        rms_monte_carlo_povm(trine_povm(), von_neumann_povm(2), 200, Rng(0))
    with pytest.raises(TooFewSamples):
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
    psi = qcore.haar_states(d, n, Rng(8))
    second = np.einsum("ni,nk,nj,nl->ikjl", psi, psi, np.conj(psi), np.conj(psi))
    second = second.reshape(d * d, d * d) / n
    ref = (2.0 / (d * (d + 1))) * symmetric_subspace_projector(d)
    assert np.linalg.norm(second - ref) < 5 / math.sqrt(n)
