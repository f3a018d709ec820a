import math
from unittest import mock

import numpy as np
import pytest

from measrep import subroutines
from measrep.coding import cloning_error_rate
from measrep.errors import (InvalidBounds, InvalidMeasurement, NotConverged, ShapeMismatch,
                            TooLarge, TrivialMeasurement)
from measrep.qcore import (
    Instrument,
    Povm,
    Rng,
    dagger,
    degenerate_qutrit_povm,
    identity,
    induced_povm,
    lueders_instrument,
    noisy_z_povm,
    trine_povm,
    von_neumann_povm,
)
from measrep.subroutines import (
    build_measurement_isometry,
    chernoff_information,
    select_cloning_basis,
)
from measrep.rms import rms_exact_instrument
from oracles import (
    cloning_error_rate_sampled,
    random_instrument,
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
    with pytest.raises(InvalidMeasurement, match="^Kraus normalisation defect "):
        build_measurement_isometry(bad)


def test_run_post_measurement_matches_subchannels():
    # W's (outcome, Kraus) blocks are the target's Kraus operators, bit
    # for bit, so the sub-channels match exactly
    rng = Rng(17)
    for trial in range(10):
        d_in = 2 + trial % 2
        inst = random_instrument(d_in, 2 + trial % 3, 3, 2, rng.split(trial))
        back = build_measurement_isometry(inst).instrument()
        for group, group_back in zip(inst.kraus, back.kraus, strict=True):
            for k, k_back in zip(group, group_back, strict=True):
                assert np.array_equal(k, k_back)
        assert rms_exact_instrument(back, inst) == 0.0


def test_run_post_measurement_probabilities_sum():
    inst = lueders_instrument(degenerate_qutrit_povm())
    back = build_measurement_isometry(inst).instrument()
    assert np.allclose(sum(induced_povm(back).elements), identity(3), atol=1e-12)


def test_run_post_measurement_shape_check():
    # W pads every outcome to the largest Kraus count with zero operators,
    # which leave the sub-channels as they are
    embed = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    inst = Instrument(((0.5 * embed, 0.5 * embed @ flip), (), (np.sqrt(0.5) * embed,)))
    back = build_measurement_isometry(inst).instrument()
    assert [len(group) for group in back.kraus] == [2, 2, 2]
    assert {op.shape for group in back.kraus for op in group} == {(3, 2)}
    assert not back.kraus[1][0].any() and not back.kraus[2][1].any()
    assert rms_exact_instrument(back, inst) == 0.0


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


def test_x_basis_is_repaired_by_the_eigenvectors_of_an_element():
    plus, minus = np.array([1.0, 1.0]) / math.sqrt(2), np.array([1.0, -1.0]) / math.sqrt(2)
    basis = select_cloning_basis(Povm((np.outer(plus, plus), np.outer(minus, minus))))
    assert np.allclose(basis.table, [[1.0, 0.0], [0.0, 1.0]], atol=1e-12)


def test_a_later_colliding_pair_is_repaired_when_the_first_cannot_be():
    # every row reads (0.5, 0.5), and both elements are scalar on
    # span{e0, e1}, but M's eigenbasis separates them: the selection once
    # gave up after the first pair with a TrivialMeasurement
    m = np.array([[0.5, 0.0, 0.3], [0.0, 0.5, 0.0], [0.3, 0.0, 0.5]])
    basis = select_cloning_basis(Povm((m, identity(3) - m)))
    assert np.allclose(basis.table, [[0.8, 0.2], [0.5, 0.5], [0.2, 0.8]], atol=1e-12)


def test_equal_rows_that_no_pair_separates_are_a_trivial_measurement():
    # each entry within 1e-10 of I/2 makes every element scalar on every
    # coordinate pair, within the repair's 1e-10, though is_trivial's
    # Frobenius norm reads 1.1e-10
    e = np.diag([0.5 + 4e-11] * 4 + [0.5 - 4e-11] * 4 + [0.5])
    povm = Povm((e, identity(9) - e))
    assert not povm.is_trivial()
    with pytest.raises(TrivialMeasurement,
                       match="^no basis state with a distinct outcome distribution exists$"):
        select_cloning_basis(povm)


def test_a_repair_that_leaves_its_pair_colliding_is_refused(monkeypatch):
    # the diagonal gap 1.2e-10 passes the repair's 1e-10 test on pair
    # (0, 2), but E's eigenvectors there are e0 and e2 again, rows 1.2e-10
    # apart: 160 such repairs once ran the loop to its 10 d^2 cap
    e = np.diag([0.5 + 6e-11, 0.5 + 6e-11, 0.5 - 6e-11, 0.5 - 6e-11])
    povm = Povm((e, identity(4) - e))
    assert not povm.is_trivial()
    repaired = mock.Mock(wraps=subroutines._repaired)
    monkeypatch.setattr(subroutines, "_repaired", repaired)
    with pytest.raises(TrivialMeasurement,
                       match="^no basis state with a distinct outcome distribution exists$"):
        select_cloning_basis(povm)
    assert repaired.call_count == 1


def test_rows_that_no_repair_separates_are_not_converged(monkeypatch):
    # without a rotation angle the degenerate qutrit's first pair cannot
    # be separated, yet its third row differs: not a trivial measurement
    monkeypatch.setattr(subroutines, "_THETA_SCAN", ())
    with pytest.raises(NotConverged, match="^rotation scan failed to separate rows$"):
        select_cloning_basis(degenerate_qutrit_povm())


# ---------------------------------------------------------------------------
# ML decoding and error rates
# ---------------------------------------------------------------------------


def test_ml_decode_majority():
    # rows (0.2, 0.8) and (0, 1): a single outcome 0 rules out state 1
    # against the majority, so only the all-ones string decodes to 1
    povm = noisy_z_povm(0.2, 1.0)
    err = cloning_error_rate(select_cloning_basis(povm).table, 3)
    assert err[0] == pytest.approx(0.8**3, abs=1e-15)
    assert err[1] == 0.0
    # identical rows: every count vector ties and goes to index 0
    tie = cloning_error_rate(np.full((2, 2), 0.5), 3)
    assert np.allclose(tie, [0.0, 1.0], atol=1e-14)


def test_ml_decode_undecodable():
    # the count vector (1, 1) has zero likelihood under both rows, and
    # neither row can give it, so it adds nothing to either error
    povm = von_neumann_povm(2)
    err = cloning_error_rate(select_cloning_basis(povm).table, 2)
    assert np.array_equal(err, [0.0, 0.0])


def test_cloning_exact_trine_values():
    basis = select_cloning_basis(trine_povm())
    for n in (1, 2, 5):
        err = cloning_error_rate(basis.table, n)
        assert err[0] == pytest.approx(3.0**-n, abs=1e-14)
        assert err[1] == pytest.approx(0.0, abs=1e-14)
        assert err.mean() == pytest.approx(0.5 * 3.0**-n, abs=1e-14)


def test_cloning_exact_matches_sampled():
    basis = select_cloning_basis(trine_povm())
    exact = cloning_error_rate(basis.table, 3)
    sampled = cloning_error_rate_sampled(basis, 3, trials=50_000, rng=Rng(12))
    assert abs(sampled.average - exact.mean()) < 3 * sampled.standard_error + 1e-3


def test_cloning_sampled_reproducible():
    basis = select_cloning_basis(trine_povm())
    a = cloning_error_rate_sampled(basis, 4, trials=5000, rng=Rng(3))
    b = cloning_error_rate_sampled(basis, 4, trials=5000, rng=Rng(3))
    assert a.average == b.average


def test_cloning_rejects_a_negative_use_count():
    # the count vectors of n = -1 once raised an untyped IndexError
    with pytest.raises(InvalidBounds, match="-1 < 0 draws"):
        cloning_error_rate(select_cloning_basis(trine_povm()).table, -1)


# [[nan, 1], [0.5, 0.5]] once gave the per-state errors [0, 0.125] at n = 3
@pytest.mark.parametrize("table", [
    [[np.nan, 1.0], [0.5, 0.5]], [[np.inf, 0.0], [0.5, 0.5]],
    [0.5, 0.5], [[[0.5, 0.5]]], np.zeros((0, 2)), np.zeros((2, 0)),
], ids=["nan", "inf", "1-D", "3-D", "no-rows", "no-columns"])
def test_cloning_rejects_a_table_that_is_not_2d_nonempty_and_finite(table):
    with pytest.raises(ShapeMismatch, match="2-D, non-empty and finite"):
        cloning_error_rate(table, 3)


# at n = 3, [[2, 3], [1, 1]] once gave row 0 an error of 8.0, and
# [[0.5, 0.5], [1.2, -0.2]] row 1 an error of 0
@pytest.mark.parametrize("table", [
    [[2.0, 3.0], [1.0, 1.0]], [[0.5, 0.5], [1.2, -0.2]], [[0.5, 0.5], [0.5, 0.4]],
    [[0.5, 0.5], [1.0 + 2e-9, -2e-9]],
], ids=["counts", "negative", "short-row", "just-negative"])
def test_cloning_rejects_a_table_whose_rows_are_not_distributions(table):
    with pytest.raises(ShapeMismatch, match="must be a distribution"):
        cloning_error_rate(table, 3)


def test_cloning_accepts_rows_within_the_distribution_tolerance():
    # the bound chernoff_information uses: rows read from a POVM can be
    # off by rounding
    err = cloning_error_rate([[0.5 + 5e-10, 0.5], [1.0, -5e-10]], 3)
    assert err == pytest.approx([0.125, 0.0], abs=1e-9)


def test_cloning_exact_size_cap():
    basis = select_cloning_basis(trine_povm())
    with pytest.raises(TooLarge):
        cloning_error_rate(basis.table, 10**6)


def test_cloning_degenerate_qutrit_decays():
    povm = degenerate_qutrit_povm()
    basis = select_cloning_basis(povm)
    errs = [
        cloning_error_rate(basis.table, n).mean()
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


# ([nan, 1], [0.5, 0.5]) once gave 0.693 nats and ([5, 5], [0.5, 0.5]) -0.0
@pytest.mark.parametrize("p, q", [
    ([np.nan, 1.0], [0.5, 0.5]), ([0.5, 0.5], [np.inf, 0.0]),
    ([5.0, 5.0], [0.5, 0.5]), ([0.5, 0.5], [0.2, 0.2]),
    ([1.0 + 1e-8, -1e-8], [0.5, 0.5]), ([0.5, 0.5], [0.5, 0.25, 0.25]),
    ([[0.5, 0.5]], [[0.5, 0.5]]), (1.0, 1.0), ([], []),
], ids=["nan", "inf", "sum-above-1", "sum-below-1", "negative", "two-shapes",
        "2-D", "0-D", "empty"])
def test_chernoff_rejects_what_is_not_two_distributions_on_one_alphabet(p, q):
    with pytest.raises(ShapeMismatch, match="distributions on one alphabet"):
        chernoff_information(p, q)


def test_cloning_error_tracks_chernoff_exponent():
    basis = select_cloning_basis(trine_povm())
    xi = chernoff_information(basis.table[0], basis.table[1])
    for n in (5, 10):
        err = cloning_error_rate(basis.table, n).mean()
        assert err <= math.exp(-n * xi) * 5
        assert err >= math.exp(-n * xi) / 5
