import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from measrep import qcore
from measrep.errors import (
    InvalidBounds,
    InvalidMeasurement,
    NotHermitian,
    ShapeMismatch,
    TooLarge,
)
from measrep.qcore import (
    Instrument,
    Povm,
    Rng,
    dagger,
    degenerate_qutrit_povm,
    hermitian_eig,
    identity,
    induced_povm,
    lueders_instrument,
    noisy_z_povm,
    tensor,
    trine_povm,
    validate_povm,
    von_neumann_povm,
)
from oracles import haar_state, haar_states, haar_unitary, hermitian_eig_sorted


def test_rng_reproducible():
    a = Rng(7).generator.random(5)
    b = Rng(7).generator.random(5)
    assert np.array_equal(a, b)


def test_rng_substreams_differ():
    base = Rng(7)
    a = base.split(1).generator.random(5)
    b = base.split(2).generator.random(5)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("seed, substream", [(-1, 0), (0, -1), (1.5, 0), (0, 0.5)])
def test_rng_rejects_a_seed_or_substream_that_is_not_an_integer_at_least_0(
        seed, substream):
    # SeedSequence would raise an untyped ValueError or TypeError
    with pytest.raises(InvalidBounds, match="must be integers >= 0"):
        Rng(seed, substream)


def test_rng_takes_numpy_integers_as_the_same_seed():
    assert Rng(np.int64(7), np.uint8(1)).generator.random() == Rng(7, 1).generator.random()


def test_trine_completeness():
    t = trine_povm()
    assert t.dim == 2 and t.outcomes == 3
    assert validate_povm(t).ok
    total = sum(t.elements)
    assert np.allclose(total, identity(2), atol=1e-14)


def test_trine_element_zero():
    t = trine_povm()
    assert np.allclose(t.elements[0], np.diag([2 / 3, 0]), atol=1e-14)


def test_povm_table_rows_sum_to_one():
    t = trine_povm()
    table = t.table([haar_state(2, Rng(3)), haar_state(2, Rng(4))])
    assert table.shape == (2, 3)
    assert table.min() >= -1e-14
    assert np.all(np.abs(table.sum(axis=1) - 1.0) < 1e-12)


def test_validate_rejects_incomplete():
    bad = Povm(tuple(0.9 * e for e in von_neumann_povm(2).elements))
    report = validate_povm(bad)
    assert not report.ok
    assert any("completeness" in v for v in report.violations)


def test_validate_rejects_negative():
    bad = Povm((np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])))
    report = validate_povm(bad)
    assert not report.ok
    assert report.min_eigenvalues[1] < -1e-6


def test_validate_fails_closed_on_nan_eigenvalue():
    # finite, Hermitian, complete, but e + e^dagger overflows, so the
    # eigenvalues come out NaN; a NaN must be a violation, not a pass
    big = 1.7e308
    p = Povm((np.array([[0.5, big], [big, 0.5]]), np.array([[0.5, -big], [-big, 0.5]])))
    with np.errstate(over="ignore", invalid="ignore"):
        report = validate_povm(p)
    assert report.completeness_defect == 0.0
    assert not report.ok
    assert len(report.violations) == 2


def test_is_trivial():
    assert Povm((identity(2) / 2, identity(2) / 2)).is_trivial()
    assert not trine_povm().is_trivial()


def test_tensor_matches_kron():
    a = np.arange(4).reshape(2, 2).astype(complex)
    b = np.arange(9).reshape(3, 3).astype(complex)
    assert np.array_equal(tensor(a, b), np.kron(a, b))


# real and imaginary parts: signed zeros and infinities, which make
# NaN products, among finite values of any size
parts = st.one_of(st.sampled_from([0.0, -0.0, math.inf, -math.inf]),
                  st.floats(allow_nan=False))


def complex_matrices():
    """Complex matrices of 1 x 1 up to 4 x 4, square or not."""
    return st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
        lambda shape: st.lists(st.tuples(parts, parts), min_size=shape[0] * shape[1],
                               max_size=shape[0] * shape[1]).map(
            lambda pairs: np.array([complex(*z) for z in pairs]).reshape(shape)))


@settings(max_examples=200)
@given(a=complex_matrices(), b=complex_matrices())
def test_tensor_is_kron_in_dtype_shape_and_bits(a, b):
    with np.errstate(over="ignore", invalid="ignore"):
        t, k = tensor(a, b), np.kron(a, b)
    assert t.dtype == k.dtype and t.shape == k.shape
    assert t.tobytes() == k.tobytes()


def test_tensor_dimension_cap():
    # rows * cols * 16 bytes, checked against the byte budget
    a, b = np.ones((2, 3)), np.ones((3, 2))
    with mock.patch.object(qcore, "_BYTE_BUDGET", 36 * 16):
        assert tensor(a, b).shape == (6, 6)
    with mock.patch.object(qcore, "_BYTE_BUDGET", 36 * 16 - 1):
        with pytest.raises(TooLarge, match="576 bytes, over the budget of 575$"):
            tensor(a, b)


def test_byte_budget_admits_trine_search_terms_at_seven_uses_not_eight():
    # 3^N dense 2^N x 2^N complex tensors: 573 MB at N = 7, 6.9 GB at N = 8
    qcore._check_bytes("terms", 16, 3 * 4, 7)
    with pytest.raises(TooLarge, match="^terms would take 6879707136 bytes, "
                       "over the budget of 1073741824$"):
        qcore._check_bytes("terms", 16, 3 * 4, 8)
    # a size from 2^64 up is neither printed nor, for a huge exponent,
    # computed; 1^N stays 1 whatever N is
    with pytest.raises(TooLarge, match="^terms would take at least 2\\^64 bytes"):
        qcore._check_bytes("terms", 16, 3 * 4, 10**100)
    with pytest.raises(TooLarge, match="^terms would take at least 2\\^64 bytes"):
        qcore._check_bytes("terms", 2**64)
    qcore._check_bytes("terms", 16, 1, 10**100)


def test_hermitian_eig_reconstructs():
    rng = Rng(2)
    z = rng.generator.standard_normal((5, 5)) + 1j * rng.generator.standard_normal(
        (5, 5)
    )
    h = (z + dagger(z)) / 2
    w, v = hermitian_eig(h)
    assert np.all(np.diff(w) <= 1e-12)  # descending
    assert np.allclose(v @ np.diag(w) @ dagger(v), h, atol=1e-10)
    assert np.allclose(dagger(v) @ v, identity(5), atol=1e-10)


def test_hermitian_eig_deterministic_on_degenerate():
    h = np.diag([1.0, 1.0, 0.0]).astype(complex)
    w1, v1 = hermitian_eig(h)
    w2, v2 = hermitian_eig(h)
    assert np.array_equal(v1, v2)
    assert np.allclose(w1, [1.0, 1.0, 0.0])


def _tensor_power(e, n):
    out = e
    for _ in range(n - 1):
        out = np.kron(out, e)
    return out


def test_hermitian_eig_tie_break_matches_sorted_on_tensor_powers():
    # tensor powers of the degenerate qutrit elements: clusters of up to
    # 3^4 - 1 equal eigenvalues with exactly tied eigenvector entries
    for n in (2, 3, 4):
        for e in degenerate_qutrit_povm().elements:
            w, v = hermitian_eig(_tensor_power(e, n))
            w_ref, v_ref = hermitian_eig_sorted(_tensor_power(e, n))
            assert np.array_equal(w, w_ref)
            assert np.array_equal(v, v_ref)


def test_hermitian_eig_tie_break_matches_sorted_on_rotated_spectra():
    g = Rng(31).generator
    for trial in range(60):
        dim = int(g.integers(2, 13))
        levels = np.round(g.uniform(0.0, 1.0, size=3), 3)
        spectrum = g.choice(levels, size=dim)  # repeated eigenvalues
        u = haar_unitary(dim, Rng(100 + trial))
        h = (u * spectrum) @ dagger(u)
        w, v = hermitian_eig(h)
        w_ref, v_ref = hermitian_eig_sorted(h)
        assert np.array_equal(w, w_ref)
        assert np.array_equal(v, v_ref)


def test_povm_rejects_non_finite():
    for bad in (np.nan, np.inf):
        with pytest.raises(InvalidMeasurement):
            Povm((np.array([[1.0, 0.0], [bad, 0.0]]), np.diag([0.0, 1.0])))


def test_instrument_rejects_non_finite():
    with pytest.raises(InvalidMeasurement):
        Instrument(((np.diag([1.0, np.nan]),), (np.diag([0.0, 1.0]),)))


def test_hermitian_eig_rejects_nonhermitian():
    with pytest.raises(NotHermitian):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("scale", [0.5, 0.9, 1.1, 2.0])
def test_validate_and_hermitian_eig_share_the_hermiticity_tolerance(scale):
    # elements of norm < 1 whose defect is scale * HERMITICITY_RTOL
    k = 0.5j * scale * qcore.HERMITICITY_RTOL * np.array([[0, 1], [1, 0]]) / math.sqrt(2)
    povm = Povm((np.diag([0.6, 0.3]) + k, np.diag([0.4, 0.7]) - k))
    defect = qcore.frobenius(povm.elements[0] - dagger(povm.elements[0]))
    assert defect == pytest.approx(scale * qcore.HERMITICITY_RTOL, rel=1e-6)
    assert validate_povm(povm).ok == (scale < 1)
    for e in povm.elements:
        if scale < 1:
            hermitian_eig(e)
        else:
            with pytest.raises(NotHermitian):
                hermitian_eig(e)


def test_haar_state_normalised():
    psi = haar_state(4, Rng(0))
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
    batch = haar_states(3, 50, Rng(1))
    assert np.allclose(np.linalg.norm(batch, axis=1), 1.0, atol=1e-12)


def test_haar_states_reject_a_negative_count():
    with pytest.raises(InvalidBounds, match="count >= 0"):
        haar_states(2, -1, Rng(0))
    assert haar_states(2, 0, Rng(0)).shape == (0, 2)


def test_haar_unitary_is_unitary():
    u = haar_unitary(4, Rng(9))
    assert np.allclose(dagger(u) @ u, identity(4), atol=1e-10)


def test_haar_first_moment():
    # E[psi psi^dag] = I/d
    psi = haar_states(2, 40_000, Rng(13))
    mean = np.einsum("ni,nj->ij", psi, np.conj(psi)) / psi.shape[0]
    assert np.linalg.norm(mean - identity(2) / 2) < 0.02


def test_lueders_induces_original():
    t = trine_povm()
    inst = lueders_instrument(t)
    back = induced_povm(inst)
    for a, b in zip(t.elements, back.elements):
        assert np.allclose(a, b, atol=1e-12)


def test_instrument_normalization():
    inst = lueders_instrument(noisy_z_povm(0.9, 0.8))
    assert inst.normalization_defect() < 1e-12


def test_noisy_z_builtin():
    povm = noisy_z_povm(0.9, 0.8)
    assert validate_povm(povm).ok
    assert np.allclose(povm.elements[0], np.diag([0.9, 0.2]))


def test_degenerate_qutrit_builtin():
    povm = degenerate_qutrit_povm()
    assert validate_povm(povm).ok
    assert povm.dim == 3 and povm.outcomes == 2


def test_sqrtm_psd():
    t = trine_povm()
    for e in t.elements:
        r = qcore.sqrtm_psd(e)
        assert np.allclose(r @ r, e, atol=1e-12)


def test_instrument_rejects_empty():
    with pytest.raises(ShapeMismatch):
        Instrument(((),))


@pytest.mark.parametrize("shape", [(0, 0), (2, 3), (3, 2)])
def test_empty_or_non_square_operators_are_a_shape_mismatch(shape):
    # a 0 x 0 element used to make a POVM whose validation raised
    # IndexError; hermitian_eig and sqrtm_psd ended in a numpy ValueError
    message = "^" + re.escape(f"expected a nonempty square matrix, got shape {shape}") + "$"
    for build in (lambda m: Povm((m,)), hermitian_eig, qcore.sqrtm_psd):
        with pytest.raises(ShapeMismatch, match=message):
            build(np.zeros(shape))


@pytest.mark.parametrize("build, message", [
    (lambda: Instrument(((np.ones(2),),)), "expected a matrix, got ndim=1"),
    (lambda: qcore.density(np.eye(2)), "expected a vector, got ndim=2"),
    (lambda: Povm(()), "POVM needs at least one element"),
    (lambda: Povm((np.eye(2), np.eye(3))), "POVM elements must be square and same-dim"),
], ids=["1-d-kraus", "density-of-a-matrix", "no-elements", "mixed-dimensions"])
def test_operators_of_the_wrong_rank_or_dimension_are_a_shape_mismatch(build, message):
    with pytest.raises(ShapeMismatch, match="^" + re.escape(message) + "$"):
        build()


@pytest.mark.parametrize("shape", [(1, 0), (0, 2)])
def test_instrument_rejects_empty_kraus_operators(shape):
    # a 1 x 0 Kraus operator passed validation, then synth and postmeas
    # ended in a ZeroDivisionError
    with pytest.raises(ShapeMismatch, match="^Kraus operators must be nonempty$"):
        Instrument(((np.zeros(shape),),))
