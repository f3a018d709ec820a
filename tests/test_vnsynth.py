import functools
import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from measrep import qcore, vnsynth
from measrep.errors import (
    InvalidBounds,
    ShapeMismatch,
    TooLarge,
    Unachievable,
)
from measrep.qcore import Povm, Rng, identity, trine_povm, von_neumann_povm
from measrep.rms import rms_exact_povm
from measrep.vnsynth import (
    build_partition_povm,
    classify_noisy_z,
    construct_states,
    exhaustive_search,
    hill_climb_search,
    implemented_povm,
    noisy_z_optimal,
    solve_box_quadratic_qubit,
    synthesize,
    trine_optimal_protocol,
)
from oracles import (
    box_minimiser_looped,
    box_quadratic_qubit_closures,
    exhaustive_search_depth_first,
    exhaustive_search_from_scratch,
    exhaustive_search_per_candidate,
    hill_climb_search_from_scratch,
    hill_climb_search_per_candidate,
    partition_povm_from_list,
    random_povm,
    random_povm_of_ranks,
    score_from_scratch,
    string_tensors,
)


# ---------------------------------------------------------------------------
# partition protocols
# ---------------------------------------------------------------------------


def test_partition_povm_completeness():
    trine = trine_povm()
    proto = build_partition_povm(trine, 2, lambda s: 0 if 0 in s else 1)
    total = sum(proto.coarse)
    assert np.allclose(total, identity(4), atol=1e-12)


def test_partition_povm_two_use_spectrum():
    trine = trine_povm()
    proto = build_partition_povm(trine, 2, lambda s: 0 if 0 in s else 1)
    evals, _ = qcore.hermitian_eig(proto.coarse[0])
    assert np.allclose(evals, [8 / 9, 2 / 3, 2 / 3, 0.0], atol=1e-12)


def test_partition_povm_sequence_assignment():
    trine = trine_povm()
    bits = [0 if 0 in s else 1 for s in itertools.product(range(3), repeat=2)]
    proto = build_partition_povm(trine, 2, bits)
    assert proto.assignment == tuple(bits)


def test_partition_povm_bad_assignment():
    trine = trine_povm()
    with pytest.raises(ShapeMismatch):
        build_partition_povm(trine, 1, [0, 1])
    # protocols are binary: a target outcome of 2 is out of range too
    for f in ([0, 1, 5], [0, 1, 2], lambda s: 2 if s == (2,) else 0):
        with pytest.raises(ShapeMismatch, match="assignment values must be 0 or 1"):
            build_partition_povm(trine, 1, f)


@pytest.mark.parametrize("n_uses", [0, -1])
@pytest.mark.parametrize("build", [
    lambda n: build_partition_povm(trine_povm(), n, lambda s: 0),
    lambda n: synthesize(trine_povm(), n, Rng(0)),
])
def test_fewer_than_one_use_is_rejected(build, n_uses):
    with pytest.raises(ShapeMismatch, match="n_uses must be >= 1"):
        build(n_uses)


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@settings(max_examples=40)
@given(dim=st.integers(2, 3), ranks=st.lists(st.integers(1, 3), min_size=2, max_size=4),
       n_uses=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_streamed_partition_povm_matches_the_tensor_list(dim, ranks, n_uses, seed):
    assume(sum(ranks) >= dim and max(ranks) <= dim)
    assume(dim**n_uses <= 243 and len(ranks) ** n_uses <= 256)
    povm = random_povm_of_ranks(dim, ranks, Rng(seed))
    assignment = Rng(seed, 1).generator.integers(0, 2, size=len(ranks) ** n_uses)
    proto = build_partition_povm(povm, n_uses, assignment)
    ref = partition_povm_from_list(povm, n_uses, assignment)
    if proto.basis is None:
        assert all(same_bits(q, r) for q, r in zip(proto.coarse, ref, strict=True))
        return
    # commuting: q_a sums the search terms of its strings in order, and
    # U^(x N) diag(q_a) U^(x N)^dagger is the dense Q_a
    terms = vnsynth._search_terms(povm, n_uses)
    sums = [np.zeros(terms.shape[1:]) for _ in range(2)]
    for t, v in zip(terms, assignment, strict=True):
        sums[v] += t
    assert all(same_bits(q, r) for q, r in zip(proto.coarse, sums, strict=True))
    u = functools.reduce(np.kron, [proto.basis] * n_uses)
    for q, r in zip(proto.coarse, ref, strict=True):
        assert np.abs(u @ np.diag(q) @ u.conj().T - r).max() <= 1e-12


def test_partition_povm_holds_no_list_of_string_tensors():
    # 729 tensors of 64 x 64 would take 48 MB
    tracemalloc.start()
    try:
        build_partition_povm(trine_povm(), 6, lambda s: 0 if 0 in s else 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


# ---------------------------------------------------------------------------
# qubit box program
# ---------------------------------------------------------------------------


def test_qubit_qp_left_region():
    sol = solve_box_quadratic_qubit(0.0, 8 / 9)
    assert sol.region == "left"
    assert abs(sol.x_star - 8 / 9) < 1e-14
    assert abs(sol.y_star - 1 / 18) < 1e-14
    assert abs(sol.epsilon - 1 / 18) < 1e-14


def test_qubit_qp_corner_region():
    sol = solve_box_quadratic_qubit(0.5, 0.5)
    assert sol.region == "corner"
    assert abs(sol.epsilon - 1 / math.sqrt(12)) < 1e-14


def test_qubit_qp_right_region():
    sol = solve_box_quadratic_qubit(0.4, 0.95)
    assert sol.region == "right"
    assert abs(sol.x_star - (1 - 0.2)) < 1e-14
    assert abs(sol.y_star - 0.4) < 1e-14


def test_qubit_qp_exact_case():
    sol = solve_box_quadratic_qubit(0.0, 1.0)
    assert abs(sol.epsilon) < 1e-14
    assert (sol.x_star, sol.y_star) == (1.0, 0.0)


def test_qubit_qp_invalid_bounds():
    with pytest.raises(InvalidBounds):
        solve_box_quadratic_qubit(0.8, 0.2)
    with pytest.raises(InvalidBounds):
        solve_box_quadratic_qubit(-0.1, 0.5)


def test_qubit_qp_against_grid():
    # spot-check the analytic minimiser on a modest grid
    rng = Rng(21).generator
    for _ in range(25):
        lo = rng.uniform(0.0, 1.0)
        hi = rng.uniform(lo, 1.0)
        sol = solve_box_quadratic_qubit(lo, hi)
        xs = np.linspace(lo, hi, 400)
        t = 1.0 - xs[:, None] - xs[None, :]
        f = (t**2 + (1.0 - xs[:, None]) * xs[None, :]) / 3.0
        assert sol.epsilon**2 <= f.min() + 1e-9


def same_floats(a, b):
    return same_bits(np.array(a, dtype=float), np.array(b, dtype=float))


def same_solution(sol, ref):
    fields = ("lam_min", "lam_max", "x_star", "y_star", "epsilon")
    return sol.region == ref.region and same_floats(
        [getattr(sol, f) for f in fields], [getattr(ref, f) for f in fields])


unit_floats = st.floats(0.0, 1.0)
box_edges = st.sampled_from([0.0, -0.0, 1.0, 0.5, 1 / 3, 2 / 3, 8 / 9])


@settings(max_examples=300)
@given(a=st.one_of(unit_floats, box_edges), b=st.one_of(unit_floats, box_edges))
def test_qubit_qp_core_matches_the_closure_form(a, b):
    lo, hi = (a, b) if a <= b else (b, a)
    assert same_solution(solve_box_quadratic_qubit(lo, hi),
                         box_quadratic_qubit_closures(lo, hi))


@pytest.mark.parametrize("lo, hi", [
    (0.0, 1.0), (-0.0, 1.0), (0.0, 0.0), (-0.0, -0.0), (-0.0, 0.0), (1.0, 1.0),
    (0.25, 0.25), (0.0, 0.5), (-0.0, 0.5), (0.5, 1.0), (0.0, 8 / 9),
])
def test_qubit_qp_core_matches_the_closure_form_on_edge_boxes(lo, hi):
    sol = solve_box_quadratic_qubit(lo, hi)
    assert same_solution(sol, box_quadratic_qubit_closures(lo, hi))
    x, y, value = vnsynth._box_minimiser(lo, hi)
    assert same_floats([x, y, math.sqrt(max(value, 0.0))],
                       [sol.x_star, sol.y_star, sol.epsilon])


def assert_same_minimiser(lo, hi):
    assert same_floats(vnsynth._box_minimiser(lo, hi), box_minimiser_looped(lo, hi))


# Boxes on whose corner (hi, lo) the edges x = hi and y = lo both land:
# their candidates tie exactly.
corner_ties = st.floats(1 / 3, 2 / 3).flatmap(
    lambda lo: st.tuples(st.just(lo), st.floats(lo, 1.0 - lo / 2.0)))


@settings(max_examples=300)
@given(a=st.one_of(st.floats(-0.5, 1.5), box_edges),
       b=st.one_of(st.floats(-0.5, 1.5), box_edges), tie=corner_ties)
def test_flat_box_minimiser_matches_the_candidate_loop(a, b, tie):
    assert_same_minimiser(min(a, b), max(a, b))
    assert_same_minimiser(*tie)


@pytest.mark.parametrize("lo, hi", [
    # lo == hi and the ends 0.0, -0.0 and 1.0; at (-0.0, 0.0) and (0.0, -0.0)
    # all four candidates tie with zeros of either sign
    (0.0, 0.0), (-0.0, -0.0), (-0.0, 0.0), (0.0, -0.0), (1.0, 1.0), (0.5, 0.5),
    (0.0, 0.5), (-0.0, 0.5), (0.5, 1.0), (0.0, 1.0 - 2**-53),
    # boxes that hold (1, 0)
    (0.0, 1.0), (-0.0, 1.0), (-0.5, 1.5), (-0.0, 1.5),
    # corner ties, and a box just off one
    (0.4, 0.5), (1 / 3, 5 / 6), (2 / 3, 2 / 3), (0.4, float(np.nextafter(0.8, 1.0))),
])
def test_flat_box_minimiser_matches_the_candidate_loop_on_edge_boxes(lo, hi):
    assert_same_minimiser(lo, hi)


# ---------------------------------------------------------------------------
# state construction
# ---------------------------------------------------------------------------


def test_construct_states_two_use_inspace():
    proto = build_partition_povm(trine_povm(), 2, lambda s: 0 if 0 in s else 1)
    prep = construct_states(proto, (8 / 9, 1 / 18))
    assert prep.ancilla_qubits == 0
    u0, u1 = prep.states
    assert abs(np.vdot(u0, u1)) < 1e-12
    q0 = proto.coarse[0]
    assert np.vdot(u0, q0 @ u0).real == pytest.approx(8 / 9, abs=1e-12)
    assert np.vdot(u1, q0 @ u1).real == pytest.approx(1 / 18, abs=1e-12)


def test_construct_states_ancilla_route():
    # single use: only two eigenvectors exist, so the second state needs
    # the ancilla tag
    proto = build_partition_povm(trine_povm(), 1, lambda s: 0 if s[0] == 0 else 1)
    prep = construct_states(proto, (2 / 3, 1 / 6))
    assert prep.ancilla_qubits == 1
    u0, u1 = prep.states
    assert abs(np.vdot(u0, u1)) < 1e-12
    impl = implemented_povm(prep, proto)
    assert impl.elements[0][0, 0].real == pytest.approx(2 / 3, abs=1e-12)
    assert impl.elements[0][1, 1].real == pytest.approx(1 / 6, abs=1e-12)


def test_construct_states_unachievable():
    proto = build_partition_povm(trine_povm(), 1, lambda s: 0 if s[0] == 0 else 1)
    with pytest.raises(Unachievable):
        construct_states(proto, (0.9, 0.1))  # above lambda_max = 2/3


def test_implemented_povm_is_valid():
    syn = trine_optimal_protocol(3)
    impl = implemented_povm(syn.prep, syn.protocol)
    report = qcore.validate_povm(impl)
    assert report.ok


# ---------------------------------------------------------------------------
# searches
# ---------------------------------------------------------------------------


def test_exhaustive_search_two_use_optimum():
    result = exhaustive_search(trine_povm(), 2)
    assert abs(result.solution.epsilon - 1 / 18) < 1e-12
    assert abs(result.solution.x_star - 8 / 9) < 1e-12
    assert abs(result.solution.y_star - 1 / 18) < 1e-12
    assert result.evaluated == 2**8


def test_exhaustive_search_cap():
    with pytest.raises(TooLarge):
        exhaustive_search(trine_povm(), 3)


def test_hill_climb_matches_exhaustive_two_use():
    exact = exhaustive_search(trine_povm(), 2)
    climbed = hill_climb_search(trine_povm(), 2, restarts=4, rng=Rng(5))
    assert climbed.solution.epsilon <= exact.solution.epsilon + 1e-12


def test_exhaustive_noisy_z_identity_partition():
    result = exhaustive_search(qcore.noisy_z_povm(0.8, 0.8), 1)
    sol = result.solution
    assert sol.x_star == pytest.approx(0.8, abs=1e-12)
    assert sol.y_star == pytest.approx(0.2, abs=1e-12)
    assert sol.epsilon == pytest.approx(0.2 / math.sqrt(3), abs=1e-12)


def test_hill_climb_degenerate_povm():
    half = qcore.identity(2) / 2
    degenerate = qcore.Povm((half, half))
    result = hill_climb_search(degenerate, 2, restarts=2, rng=Rng(1))
    assert result.solution.epsilon == pytest.approx(1 / math.sqrt(12), abs=1e-12)


def test_hill_climb_three_use_matches_closed_form():
    climbed = hill_climb_search(trine_povm(), 3, restarts=2, rng=Rng(5))
    assert climbed.solution.epsilon <= 3.0**-3 / 2 + 1e-12


def test_synthesize_picks_search_by_string_count():
    # 9 strings: every partition is searched
    syn = synthesize(trine_povm(), 2, Rng(3))
    exact = exhaustive_search(trine_povm(), 2)
    assert syn.evaluated == exact.evaluated == 256
    assert syn.protocol.assignment == exact.protocol.assignment
    assert syn.solution == exact.solution
    # 27 strings: hill climbing from the given stream
    syn = synthesize(trine_povm(), 3, Rng(3))
    climbed = hill_climb_search(trine_povm(), 3, rng=Rng(3))
    assert syn.evaluated == climbed.evaluated
    assert syn.protocol.assignment == climbed.protocol.assignment
    assert syn.solution == climbed.solution
    u0, u1 = syn.prep.states
    assert abs(np.vdot(u0, u1)) < 1e-12


# Random qubit POVMs with 2-4 outcomes, searched at N = 1..3 uses.
povm_seeds = st.integers(0, 2**32 - 1)
outcome_counts = st.integers(2, 4)
use_counts = st.integers(1, 3)


@settings(max_examples=60)
@given(seed=povm_seeds, m=outcome_counts, n_uses=use_counts)
def test_exhaustive_search_matches_from_scratch_scoring(seed, m, n_uses):
    assume(m**n_uses <= vnsynth._EXHAUSTIVE_STRING_CAP)
    povm = random_povm(2, m, Rng(seed))
    result = exhaustive_search(povm, n_uses)
    bits, sol, ties, count = exhaustive_search_from_scratch(povm, n_uses)
    assert result.protocol.assignment == bits
    assert result.co_optimal == ties
    assert result.evaluated == count
    assert abs(result.solution.epsilon - sol.epsilon) <= 1e-14


def test_exhaustive_search_keeps_every_tie_of_a_zero_error_input():
    # ranks 3 and 1 at d = 4: all partitions but the all-zero one reach
    # zero error, with epsilon round-off of up to about 1e-15 among them
    povm = random_povm_of_ranks(4, (3, 1), Rng(21))
    result = exhaustive_search(povm, 3)
    bits, sol, ties, count = exhaustive_search_from_scratch(povm, 3)
    assert result.solution.epsilon <= 1e-15
    assert len(ties) == count - 1
    assert result.co_optimal == ties


@settings(max_examples=60)
@given(seed=povm_seeds, m=outcome_counts, n_uses=use_counts)
def test_hill_climb_matches_from_scratch_scoring(seed, m, n_uses):
    povm = random_povm(2, m, Rng(seed))
    result = hill_climb_search(povm, n_uses, restarts=3, rng=Rng(seed))
    bits, sol, count = hill_climb_search_from_scratch(
        povm, n_uses, restarts=3, rng=Rng(seed)
    )
    assert result.protocol.assignment == bits
    assert result.co_optimal == (bits,)
    assert result.evaluated == count
    assert abs(result.solution.epsilon - sol.epsilon) <= 1e-14


def lossy_povm(d, rng):
    """Three-outcome POVM diagonal in the computational basis."""
    probs = rng.generator.dirichlet(np.ones(3), size=d)
    return Povm(tuple(np.diag(probs[:, a]) for a in range(3)))


# (outcomes, dimension, uses): two-outcome POVMs at N = 1..4 and lossy
# three-outcome ones at N = 1..3, all with commuting elements.
commuting_cases = st.one_of(
    st.tuples(st.just(2), st.integers(2, 4), st.integers(1, 4)),
    st.tuples(st.just(3), st.integers(2, 4), st.integers(1, 3)),
)


@settings(max_examples=40)
@given(seed=povm_seeds, case=commuting_cases)
def test_commuting_search_on_spectra_matches_dense_scoring(seed, case):
    m, d, n_uses = case
    povm = random_povm(d, 2, Rng(seed)) if m == 2 else lossy_povm(d, Rng(seed))
    assert vnsynth._search_terms(povm, n_uses)[0].ndim == 1
    if m**n_uses <= vnsynth._EXHAUSTIVE_STRING_CAP:
        result = exhaustive_search(povm, n_uses)
        bits, sol, ties, count = exhaustive_search_from_scratch(povm, n_uses)
    else:
        result = hill_climb_search(povm, n_uses, restarts=3, rng=Rng(seed))
        bits, sol, count = hill_climb_search_from_scratch(
            povm, n_uses, restarts=3, rng=Rng(seed)
        )
        ties = (bits,)
    assert result.evaluated == count
    assert abs(result.solution.epsilon - sol.epsilon) <= 1e-14
    # the dense score of the partition the spectra search returned
    own = score_from_scratch(string_tensors(povm, n_uses), result.protocol.assignment)
    assert abs(result.solution.lam_min - own.lam_min) <= 1e-14
    assert abs(result.solution.lam_max - own.lam_max) <= 1e-14
    if result.protocol.assignment == bits:
        assert result.co_optimal == ties
    else:
        # exactly tied partitions, whose rounding picked a different first
        assert abs(own.epsilon - sol.epsilon) <= 1e-14


@settings(max_examples=40)
@given(seed=povm_seeds, case=commuting_cases)
def test_commuting_protocol_on_spectra_implements_the_qp_error(seed, case):
    m, d, n_uses = case
    povm = random_povm(d, 2, Rng(seed)) if m == 2 else lossy_povm(d, Rng(seed))
    syn = synthesize(povm, n_uses, Rng(seed))
    proto = syn.protocol
    assert proto.basis is not None
    # the eigenvalues construct_states reads off q_0 against the dense Q_0's
    dense = partition_povm_from_list(povm, n_uses, proto.assignment)
    evals, _ = qcore.hermitian_eig(dense[0])
    assert np.abs(np.sort(proto.coarse[0])[::-1] - evals).max() <= 1e-14
    u0, u1 = syn.prep.states
    gram = np.array([[np.vdot(a, b) for b in (u0, u1)] for a in (u0, u1)])
    assert np.abs(gram - np.eye(2)).max() <= 1e-12
    eps = rms_exact_povm(implemented_povm(syn.prep, proto), von_neumann_povm(2))
    assert abs(eps - syn.solution.epsilon) <= 1e-12


def test_commuting_synthesis_builds_no_dense_operator():
    # one 256 x 256 complex matrix takes 1 MiB
    povm = random_povm(4, 2, Rng(7))
    tracemalloc.start()
    try:
        syn = synthesize(povm, 4, Rng(7))
        implemented_povm(syn.prep, syn.protocol)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert syn.protocol.basis is not None
    assert syn.protocol.coarse[0].shape == (256,)
    assert peak < 2**20


def test_near_commuting_povm_takes_the_spectra_path():
    # normalised through S^(-1/2), it sums to the identity only within
    # about 1e-13, so U^dagger M_a U keeps off-diagonal entries of 1e-13;
    # N * sum_a ||E_a||_2 is still 6e-13 at N = 4
    povm = random_povm_of_ranks(3, (1, 2), Rng(169))
    assert np.abs(sum(povm.elements) - identity(3)).max() > 5e-14
    assert vnsynth._search_terms(povm, 4)[0].ndim == 1
    syn = synthesize(povm, 4, Rng(169))
    assert syn.protocol.basis is not None
    own = score_from_scratch(string_tensors(povm, 4), syn.protocol.assignment)
    assert abs(syn.solution.epsilon - own.epsilon) <= 1e-14
    impl = implemented_povm(syn.prep, syn.protocol)
    eps = rms_exact_povm(impl, von_neumann_povm(2))
    assert abs(eps - syn.solution.epsilon) <= 1e-12


def test_noncommuting_povms_search_dense_matrices():
    assert vnsynth._search_terms(trine_povm(), 2)[0].ndim == 2
    m0, m1 = random_povm(2, 2, Rng(4)).elements
    assert vnsynth._search_terms(Povm((m0, m1)), 2)[0].ndim == 1
    # tilt M_0 alone, so the elements miss commuting by more than the
    # admission budget while still summing to the identity within 1e-10
    kick = 10 * vnsynth._TIE_WINDOW * np.array([[0, 1], [1, 0]])
    tilted = Povm((m0 + kick, m1))
    assert qcore.validate_povm(tilted).ok
    commutator = tilted.elements[0] @ m1 - m1 @ tilted.elements[0]
    assert np.abs(commutator).max() > vnsynth._TIE_WINDOW
    assert vnsynth._search_terms(tilted, 2)[0].ndim == 2
    assert exhaustive_search(tilted, 2).evaluated == 8


def test_spectra_search_runs_past_the_dense_byte_budget():
    # D = 257^2: the four terms and the protocol are vectors of 0.5 MB,
    # while the two dense coarse elements would take 140 GB
    half = np.diag(np.linspace(0.0, 1.0, 257))
    povm = Povm((half, identity(257) - half))
    result = exhaustive_search(povm, 2)
    assert result.protocol.basis is not None
    assert [q.shape for q in result.protocol.coarse] == [(257**2,)] * 2
    with pytest.raises(TooLarge, match="coarse elements would take "
                       "139599052832 bytes, over the budget of 1073741824"):
        vnsynth._check_coarse_bytes(povm.elements, 2)


def test_protocols_check_their_coarse_elements_against_the_byte_budget():
    # N = 3: noisy-Z keeps two 8-entry spectra (128 bytes), the trine two
    # dense 8 x 8 complex elements (2,048 bytes)
    for povm, size in ((qcore.noisy_z_povm(0.9, 0.8), 2 * 8 * 8),
                       (trine_povm(), 2 * 64 * 16)):
        with mock.patch.object(qcore, "_BYTE_BUDGET", size):
            build_partition_povm(povm, 3, lambda s: s[0] % 2)
        with mock.patch.object(qcore, "_BYTE_BUDGET", size - 1):
            with pytest.raises(TooLarge, match=f"coarse .*would take {size} bytes"):
                build_partition_povm(povm, 3, lambda s: s[0] % 2)


@pytest.mark.parametrize("povm, n_uses, size", [
    # dense: two 2^14 x 2^14 complex elements, 8.6 GB
    (trine_povm(), 14, 8589934592),
    # commuting: two 2^27-entry vectors, 2 GiB; the 2^27-string
    # assignment alone (1 GiB) is within the budget
    (qcore.noisy_z_povm(0.9, 0.8), 27, 2147483648),
])
def test_partition_povm_checks_its_coarse_bytes_before_calling_f(povm, n_uses, size):
    calls = []
    with pytest.raises(TooLarge, match=f"the coarse elements would take {size} bytes"):
        build_partition_povm(povm, n_uses, lambda s: calls.append(s) or 0)
    assert calls == []


def assert_same_search(povm, n_uses):
    result = exhaustive_search(povm, n_uses)
    bits, sol, ties, count = exhaustive_search_depth_first(povm, n_uses)
    assert result.protocol.assignment == bits
    assert result.co_optimal == ties
    assert result.evaluated == count
    assert same_solution(result.solution, sol)


# Stack budgets: the default, one term (no level stacked) and four terms.
stack_budgets = st.sampled_from([None, 1, 4])


def stack_budget(povm, n_uses, terms):
    if terms is None:
        return vnsynth._STACK_BYTES
    return terms * vnsynth._search_terms(povm, n_uses)[0].nbytes


@settings(max_examples=40)
@given(seed=povm_seeds, m=outcome_counts, n_uses=use_counts, terms=stack_budgets)
def test_stacked_search_matches_the_depth_first_walk(seed, m, n_uses, terms):
    assume(m**n_uses <= vnsynth._EXHAUSTIVE_STRING_CAP)
    povm = random_povm(2, m, Rng(seed))
    with mock.patch.object(vnsynth, "_STACK_BYTES", stack_budget(povm, n_uses, terms)):
        assert_same_search(povm, n_uses)


@settings(max_examples=40)
@given(seed=povm_seeds, case=commuting_cases, terms=stack_budgets)
def test_stacked_search_on_spectra_matches_the_depth_first_walk(seed, case, terms):
    m, d, n_uses = case
    assume(m**n_uses <= vnsynth._EXHAUSTIVE_STRING_CAP)
    povm = random_povm(d, 2, Rng(seed)) if m == 2 else lossy_povm(d, Rng(seed))
    assert vnsynth._search_terms(povm, n_uses)[0].ndim == 1
    with mock.patch.object(vnsynth, "_STACK_BYTES", stack_budget(povm, n_uses, terms)):
        assert_same_search(povm, n_uses)


@pytest.mark.parametrize("terms", [None, 1, 4])
@pytest.mark.parametrize("povm, n_uses", [
    # zero-error ties on spectra; the optimum's largest eigenvalue
    # rounds to 1 + 7.6e-14 and is clamped to 1
    (random_povm_of_ranks(4, (3, 1), Rng(21)), 3),
    # dense; the optimum's smallest eigenvalue rounds to -3.1e-17 and is
    # clamped to 0
    (random_povm_of_ranks(2, (1, 1, 1), Rng(0)), 2),
])
def test_stacked_search_matches_the_walk_on_rank_deficient_inputs(povm, n_uses, terms):
    with mock.patch.object(vnsynth, "_STACK_BYTES", stack_budget(povm, n_uses, terms)):
        assert_same_search(povm, n_uses)


def test_stacked_search_stays_within_its_byte_budget():
    # 256 partitions of 64 x 64 complex: the whole stack takes 16 MiB,
    # and building it at once peaks at 33 MiB
    povm = random_povm(8, 3, Rng(2))
    assert 256 * 64 * 64 * 16 > vnsynth._STACK_BYTES
    tracemalloc.start()
    try:
        result = exhaustive_search(povm, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.evaluated == 256
    assert peak < 8 * 2**20


def test_spectra_climb_checks_its_neighbour_block_against_the_byte_budget():
    # noisy-Z at N = 3: eight 8-entry term vectors (512 bytes) and one
    # block of all eight neighbours (512 bytes)
    povm = qcore.noisy_z_povm(0.9, 0.8)
    terms = vnsynth._search_terms(povm, 3)
    assert isinstance(terms, np.ndarray) and terms.shape == (8, 8)
    with mock.patch.object(qcore, "_BYTE_BUDGET", 1024):
        assert hill_climb_search(povm, 3, rng=Rng(0)).protocol.basis is not None
    with mock.patch.object(qcore, "_BYTE_BUDGET", 1023):
        with pytest.raises(TooLarge, match="search terms and a block of their "
                           "neighbourhood would take 1024 bytes"):
            hill_climb_search(povm, 3, rng=Rng(0))
    # a block holds at most _NEIGHBOURHOOD_BYTES: here two neighbours
    with mock.patch.object(vnsynth, "_NEIGHBOURHOOD_BYTES", 128):
        with mock.patch.object(qcore, "_BYTE_BUDGET", 640):
            hill_climb_search(povm, 3, rng=Rng(0))
        with mock.patch.object(qcore, "_BYTE_BUDGET", 639):
            with pytest.raises(TooLarge, match="would take 640 bytes"):
                hill_climb_search(povm, 3, rng=Rng(0))


def test_search_terms_fail_closed_beyond_their_byte_budget():
    # trine at N = 2: nine dense 4 x 4 complex tensors, 2,304 bytes
    with mock.patch.object(qcore, "_BYTE_BUDGET", 9 * 16 * 16):
        assert len(vnsynth._search_terms(trine_povm(), 2)) == 9
    with mock.patch.object(qcore, "_BYTE_BUDGET", 9 * 16 * 16 - 1):
        with pytest.raises(TooLarge, match="over the budget"):
            vnsynth._search_terms(trine_povm(), 2)
        with pytest.raises(TooLarge, match="over the budget"):
            synthesize(trine_povm(), 2, Rng(0))


def test_dense_search_terms_are_exactly_hermitian():
    povm = random_povm(3, 3, Rng(7))
    assert not any(np.array_equal(e, qcore.dagger(e)) for e in povm.elements)
    terms = vnsynth._search_terms(povm, 2)
    assert all(np.array_equal(t, qcore.dagger(t)) for t in terms)


def conj_t(a):
    return np.conj(np.swapaxes(a, -2, -1))


def hermitian_stack(g, shape, dim):
    a = g.standard_normal(shape + (dim, dim)) + 1j * g.standard_normal(shape + (dim, dim))
    return (a + conj_t(a)) / 2


# one D x D matrix, or a stack of 1-9
stack_shapes = st.one_of(st.just(()), st.integers(1, 9).map(lambda n: (n,)))


@settings(max_examples=100)
@given(seed=povm_seeds, dim=st.integers(1, 32), shape=stack_shapes,
       kind=st.sampled_from(["random", "diagonal", "degenerate"]))
def test_search_eigensolver_matches_numpys_eigvalsh_bit_for_bit(seed, dim, shape, kind):
    g = np.random.default_rng(seed)
    if kind == "random":
        a = hermitian_stack(g, shape, dim)
    else:
        # eigenvalues drawn from three values, so most repeat
        w = g.choice([-0.5, 0.0, 1.0 / 3.0], size=shape + (dim,))
        a = w[..., None] * np.eye(dim) + 0j
        if kind == "degenerate":
            u, _ = np.linalg.qr(hermitian_stack(g, shape, dim))
            a = (u * w[..., None, :]) @ conj_t(u)
            a = (a + conj_t(a)) / 2
    assert same_bits(vnsynth._eigvalsh(a, signature="D->d"), np.linalg.eigvalsh(a))


# box ends with near and signed-zero repeats, and ends that clamp
near_ends = st.sampled_from([0.0, -0.0, -1e-17, 1e-17, 0.5, float(np.nextafter(0.5, 1.0)),
                             1 / 3, float(np.nextafter(1 / 3, 0.0)), 1.0,
                             float(np.nextafter(1.0, 0.0)), 1.0 + 2**-52])


@settings(max_examples=200)
@given(boxes=st.lists(st.tuples(st.one_of(st.floats(-0.5, 1.5), near_ends),
                                st.one_of(st.floats(-0.5, 1.5), near_ends)),
                      max_size=30))
def test_box_memo_gives_each_box_its_own_score(boxes):
    memo = {}
    for a, b in boxes:
        lo, hi = min(a, b), max(a, b)
        assert same_floats(vnsynth._score(lo, hi, memo), vnsynth._score(lo, hi))


def assert_same_result(result, ref):
    assert result.protocol.assignment == ref.protocol.assignment
    assert result.co_optimal == ref.co_optimal
    assert result.evaluated == ref.evaluated
    assert result.solution == ref.solution
    assert same_solution(result.solution, ref.solution)


def assert_searches_score_as_per_candidate(povm, n_uses, seed):
    if povm.outcomes**n_uses <= vnsynth._EXHAUSTIVE_STRING_CAP:
        assert_same_result(exhaustive_search(povm, n_uses),
                           exhaustive_search_per_candidate(povm, n_uses))
    assert_same_result(hill_climb_search(povm, n_uses, restarts=3, rng=Rng(seed)),
                       hill_climb_search_per_candidate(povm, n_uses, restarts=3,
                                                       rng=Rng(seed)))


# Neighbour blocks: the default, one neighbour and three.
neighbour_blocks = st.sampled_from([None, 1, 3])


@settings(max_examples=40)
@given(seed=povm_seeds, case=commuting_cases, block=neighbour_blocks)
def test_commuting_searches_score_as_per_candidate(seed, case, block):
    m, d, n_uses = case
    povm = random_povm(d, 2, Rng(seed)) if m == 2 else lossy_povm(d, Rng(seed))
    assert vnsynth._search_terms(povm, n_uses).ndim == 2
    size = vnsynth._NEIGHBOURHOOD_BYTES if block is None else block * 8 * d**n_uses
    with mock.patch.object(vnsynth, "_NEIGHBOURHOOD_BYTES", size):
        assert_searches_score_as_per_candidate(povm, n_uses, seed)


# three and four outcomes: two-outcome POVMs commute
@settings(max_examples=30)
@given(seed=povm_seeds, m=st.integers(3, 4), n_uses=use_counts)
def test_dense_searches_score_as_per_candidate(seed, m, n_uses):
    povm = random_povm(2, m, Rng(seed))
    assert vnsynth._search_terms(povm, n_uses).ndim == 3
    assert_searches_score_as_per_candidate(povm, n_uses, seed)


@pytest.mark.parametrize("povm, n_uses", [
    (qcore.degenerate_qutrit_povm(), 3),  # exhaustive
    (qcore.degenerate_qutrit_povm(), 4),
    (qcore.degenerate_qutrit_povm(), 5),
    (random_povm_of_ranks(3, (1, 2), Rng(169)), 4),  # rank deficient
    (random_povm_of_ranks(4, (3, 1), Rng(21)), 3),  # zero-error ties
])
def test_repeated_boxes_are_solved_once_with_the_same_bits(povm, n_uses):
    with mock.patch.object(vnsynth, "_box_minimiser",
                           wraps=vnsynth._box_minimiser) as box:
        syn = synthesize(povm, n_uses, Rng(4))
    # one run per distinct box scored, plus the winner's solution
    assert box.call_count < syn.evaluated
    assert_searches_score_as_per_candidate(povm, n_uses, 4)


@pytest.mark.parametrize("n_uses", [10**7, 10**100], ids=["1e7", "1e100"])
def test_a_huge_use_count_fails_before_m_to_the_n_is_computed(n_uses):
    # 3^(10^100) could not be computed at all
    message = rf"of 3\^{n_uses} outcome strings would take at least 2\^64 bytes"
    with pytest.raises(TooLarge, match=message):
        synthesize(trine_povm(), n_uses, Rng(0))
    with pytest.raises(TooLarge, match=message):
        build_partition_povm(trine_povm(), n_uses, lambda s: 0)


@pytest.mark.parametrize("povm, n_uses", [
    (trine_povm(), 2),  # dense, exhaustive
    (trine_povm(), 3),  # dense, hill climb
    (random_povm(3, 2, Rng(5)), 3),  # spectra, exhaustive
    (random_povm(3, 2, Rng(5)), 4),  # spectra, hill climb
])
def test_synthesis_finds_the_common_eigenbasis_once(povm, n_uses):
    with mock.patch.object(vnsynth, "_common_eigenbasis",
                           wraps=vnsynth._common_eigenbasis) as common:
        syn = synthesize(povm, n_uses, Rng(1))
    assert common.call_count == 1
    assert (syn.protocol.basis is None) == (povm.outcomes == 3)


@settings(max_examples=60)
@given(seed=povm_seeds, d=st.integers(2, 3), m=outcome_counts, n_uses=st.integers(1, 2))
def test_implemented_povm_reproduces_the_qp_error(seed, d, m, n_uses):
    # partition -> QP -> states -> implemented POVM, on both search paths
    syn = synthesize(random_povm(d, m, Rng(seed)), n_uses, Rng(seed))
    impl = implemented_povm(syn.prep, syn.protocol)
    eps = rms_exact_povm(impl, von_neumann_povm(2))
    assert abs(eps - syn.solution.epsilon) <= 1e-12


# ---------------------------------------------------------------------------
# closed-form families
# ---------------------------------------------------------------------------


def test_trine_optimal_protocol_errors():
    for n in range(1, 5):
        syn = trine_optimal_protocol(n)
        assert abs(syn.solution.epsilon - 3.0**-n / 2) < 1e-12
        assert abs(syn.solution.lam_max - (1 - 3.0**-n)) < 1e-12


def test_trine_optimal_protocol_states_orthonormal():
    for n in (1, 2, 4):
        syn = trine_optimal_protocol(n)
        u0, u1 = syn.prep.states
        assert abs(np.linalg.norm(u0) - 1) < 1e-12
        assert abs(np.linalg.norm(u1) - 1) < 1e-12
        assert abs(np.vdot(u0, u1)) < 1e-12


def test_trine_optimal_implemented_element():
    for n in (1, 2, 3):
        syn = trine_optimal_protocol(n)
        impl = implemented_povm(syn.prep, syn.protocol)
        ref = np.diag([1 - 3.0**-n, 3.0**-n / 2]).astype(complex)
        assert np.allclose(impl.elements[0], ref, atol=1e-10)


def test_classify_noisy_z_regions():
    assert classify_noisy_z(0.95, 0.6).region == "rotate-zero"
    assert classify_noisy_z(0.6, 0.95).region == "rotate-one"
    assert classify_noisy_z(0.7, 0.7).region == "trivial"
    # the boundary p = (1+q)/2 belongs to the trivial region
    assert classify_noisy_z(0.8, 0.6).region == "trivial"


def test_classify_noisy_z_gamma():
    params = classify_noisy_z(0.95, 0.6)
    assert params.gamma == pytest.approx(
        math.sqrt((3 * 0.6 - 1) / (2 * (0.95 + 0.6 - 1))), abs=1e-14
    )
    assert classify_noisy_z(0.7, 0.7).gamma is None


def test_classify_noisy_z_invalid():
    with pytest.raises(InvalidBounds):
        classify_noisy_z(0.5, 0.8)
    with pytest.raises(InvalidBounds):
        classify_noisy_z(0.8, 1.1)


def test_noisy_z_optimal_rotate_zero():
    res = noisy_z_optimal(0.95, 0.6)
    params = classify_noisy_z(0.95, 0.6)
    assert params.region == "rotate-zero"
    assert abs(res.solution.epsilon - (1 - 0.6) / 2) < 1e-12
    # the constructed zero-state overlaps |0> with amplitude gamma
    u0 = res.prep.states[0]
    overlap = abs(u0[0]) if res.prep.ancilla_qubits == 0 else abs(u0[0])
    assert overlap == pytest.approx(params.gamma, abs=1e-10)


def test_noisy_z_optimal_trivial_region():
    res = noisy_z_optimal(0.7, 0.7)
    assert res.solution.x_star == pytest.approx(0.7, abs=1e-12)
    assert res.solution.y_star == pytest.approx(0.3, abs=1e-12)
