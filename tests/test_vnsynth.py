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
)
from measrep.qcore import Povm, Rng, identity, trine_povm, von_neumann_povm
from measrep.rms import rms_exact_povm
from measrep.vnsynth import (
    build_partition_povm,
    construct_states,
    exhaustive_search,
    hill_climb_search,
    implemented_povm,
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
    haar_unitary,
    hill_climb_search_from_scratch,
    hill_climb_search_per_candidate,
    kron_chain_terms,
    noisy_z_optimum,
    own_box_solution,
    paper_trine_states,
    partition_povm_from_list,
    qubit_objective,
    random_povm,
    random_povm_of_ranks,
    score_from_scratch,
    search_terms,
    string_tensors,
)


def climb(povm, n_uses, rng, restarts):
    """``hill_climb_search`` with ``restarts`` random starts."""
    with mock.patch.object(vnsynth, "_RESTARTS", restarts):
        return hill_climb_search(povm, n_uses, rng)


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
    with pytest.raises(InvalidBounds, match="n_uses must be >= 1"):
        build(n_uses)


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def rounding_bound(m, n_uses):
    """How far, in any entry, two summation orders of the same m^N string
    products can round apart: the contracted coarse elements and the sums
    string by string.

    Per use, sum_a |M_a[i, j]| <= 1, since |M_a[i, j]| <= (M_a[i, i] +
    M_a[j, j]) / 2 for a positive M_a and sum_a M_a = I; so the absolute
    values of all the products sum to at most 1, entry by entry. A
    product of N entries, one complex multiply per use, is within
    2 sqrt(2) N u of exact, relatively (u = 2^-53), and a sum of k terms,
    in a row or as a tree, within (k - 1) u of their absolute sum. Each
    order is then within (m^N + 3 N) u of the exact sum, and the two
    within twice that.
    """
    return 2 * (m**n_uses + 3 * n_uses) * 2.0**-53


def string_sums(povm, n_uses, assignment):
    """Each coarse element summed string by string, in string order, from
    the kron chains of the factors a protocol contracts: the terms the
    searches score, unless they score in a real frame."""
    terms = kron_chain_terms(povm, n_uses, scored=False)
    sums = [np.zeros_like(terms[0]) for _ in range(2)]
    for t, v in zip(terms, assignment, strict=True):
        sums[v] += t
    return sums


def near_arrays(coarse, ref, bound):
    return all(q.shape == r.shape and np.abs(q - r).max() <= bound
               for q, r in zip(coarse, ref, strict=True))


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
    bound = rounding_bound(len(ranks), n_uses)
    if proto.basis is None:
        assert near_arrays(proto.coarse, ref, bound)
        return
    # commuting: q_a sums the search terms of its strings, and
    # U^(x N) diag(q_a) U^(x N)^dagger is the dense Q_a
    assert near_arrays(proto.coarse, string_sums(povm, n_uses, assignment), bound)
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
    assert abs(sol.x_star - 8 / 9) < 1e-14
    assert abs(sol.y_star - 1 / 18) < 1e-14
    assert abs(sol.epsilon - 1 / 18) < 1e-14


def test_qubit_qp_corner_region():
    sol = solve_box_quadratic_qubit(0.5, 0.5)
    assert (sol.x_star, sol.y_star) == (0.5, 0.5)
    assert abs(sol.epsilon - 1 / math.sqrt(12)) < 1e-14


def test_qubit_qp_right_region():
    sol = solve_box_quadratic_qubit(0.4, 0.95)
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


solution_fields = ("lam_min", "lam_max", "x_star", "y_star", "epsilon")


def same_solution(sol, ref):
    return same_floats([getattr(sol, f) for f in solution_fields],
                       [getattr(ref, f) for f in solution_fields])


def solution_bound(protocol, m, framed=False):
    """How far the box solution of a protocol's contracted Q_0 and that of
    its sum string by string can lie apart, field by field.

    On spectra the box ends are entries, so they move by at most
    ``rounding_bound``. A dense Q_0 of size D moves by at most D times it
    in the 2-norm, so each eigenvalue does too (Weyl), and each of the
    two eigensolves adds its backward error, taken as D^2 u for
    ||Q_0||_2 <= 1. Every field is 1-Lipschitz in the box ends within one
    region: x* and y* are box ends, or affine in them with slope 1/2,
    and epsilon is the least value over the box of the norm
    sqrt(((1 - x - y)^2 + (1 - x) y) / 3) of (1 - x, y), whose gradient
    is at most 1/sqrt(2).

    When the sum string by string is ``framed``, of the real terms a
    search scores in a real frame, its eigenvalues also move by the
    frame's imaginary residue, which ``vnsynth._common_eigenbasis``
    admits only up to ``_TIE_WINDOW`` (``vnsynth._search_terms``).
    """
    bound = rounding_bound(m, protocol.n_uses)
    if protocol.basis is not None:
        return bound
    dim = protocol.coarse[0].shape[0]
    return dim * bound + 2 * dim**2 * 2.0**-53 + framed * vnsynth._TIE_WINDOW


def scored_in_a_frame(povm, n_uses):
    """Whether the searches score ``povm`` at ``n_uses`` on real dense terms."""
    terms = search_terms(povm, n_uses)
    return terms.ndim == 3 and terms.dtype == np.float64


def near_solution(sol, ref, bound):
    return all(abs(getattr(sol, f) - getattr(ref, f)) <= bound for f in solution_fields)


unit_floats = st.floats(0.0, 1.0)
box_edges = st.sampled_from([0.0, -0.0, 1.0, 0.5, 1 / 3, 2 / 3, 8 / 9])

# Boxes a few ulps to 1e-11 off a boundary between the box program's
# regions: hi = 1/3, lo = 2/3, lo = (1 - hi)/2 and hi = 1 - lo/2.
offsets = st.builds(lambda size, sign: sign * size,
                    st.floats(2.0**-55, 1e-11), st.sampled_from([-1.0, 1.0]))
free_ends = st.floats(-0.5, 1.5)
boundary_boxes = st.one_of(
    st.builds(lambda e, d: (e, 1 / 3 + d), free_ends, offsets),
    st.builds(lambda e, d: (2 / 3 + d, e), free_ends, offsets),
    st.builds(lambda e, d: ((1.0 - e) / 2.0 + d, e), free_ends, offsets),
    st.builds(lambda e, d: (e, 1.0 - e / 2.0 + d), free_ends, offsets),
).map(sorted)

# The closed form and the candidate loops of ``oracles`` give the same
# point on all but the boxes within about 1e-11 of a region boundary,
# where the loops' first candidate of least value can lie up to 1.5e-11
# from the minimiser. The two points' exact values then differ
# by about 1e-22, and the computed ones by rounding alone: over 600,000
# boxes drawn 3e-17 to 1e-11 off the four boundaries, 63,353 points
# differed, and their values by at most 2 ulps of the larger (as did
# 83,357 of 1,200,000 such boxes with lo below 1e-3). Values are compared
# within twice that.
VALUE_ULPS = 4


def near_value(a, b):
    return abs(a - b) <= VALUE_ULPS * np.spacing(max(a, b))


@settings(max_examples=300)
@given(a=st.one_of(unit_floats, box_edges), b=st.one_of(unit_floats, box_edges),
       near=boundary_boxes)
def test_qubit_qp_core_matches_the_closure_form(a, b, near):
    for lo, hi in ((a, b) if a <= b else (b, a),
                   [min(max(v, 0.0), 1.0) for v in near]):
        sol, ref = solve_box_quadratic_qubit(lo, hi), box_quadratic_qubit_closures(lo, hi)
        assert same_floats([sol.lam_min, sol.lam_max], [lo, hi])
        assert near_value(sol.epsilon, ref.epsilon)


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


# Boxes on whose corner (hi, lo) the edges x = hi and y = lo both land:
# the loop's candidates tie exactly.
corner_ties = st.floats(1 / 3, 2 / 3).flatmap(
    lambda lo: st.tuples(st.just(lo), st.floats(lo, 1.0 - lo / 2.0)))


@settings(max_examples=300)
@given(a=st.one_of(free_ends, box_edges), b=st.one_of(free_ends, box_edges),
       tie=corner_ties, near=boundary_boxes)
def test_flat_box_minimiser_matches_the_candidate_loop(a, b, tie, near):
    for lo, hi in ((min(a, b), max(a, b)), tie, near):
        assert near_value(vnsynth._box_minimiser(lo, hi)[2],
                          box_minimiser_looped(lo, hi)[2])


# The objective's gradient is (2x + y - 2, x + 2y - 1)/3. The returned x
# and y are box ends, or one rounding (at most 1.1e-16 here) from the
# edge optimum, so each component without the 1/3, its terms below 4.5
# in magnitude, is off by at most 3 * 1.1e-16 plus two roundings of at
# most 4.4e-16: under 1.3e-15, within 8 eps (1.8e-15).
GRADIENT_TOL = 8 * np.finfo(float).eps


@settings(max_examples=500)
@given(a=st.one_of(free_ends, box_edges), b=st.one_of(free_ends, box_edges),
       near=boundary_boxes)
def test_box_minimiser_meets_the_optimality_conditions(a, b, near):
    for lo, hi in ((min(a, b), max(a, b)), near):
        x, y, value = vnsynth._box_minimiser(lo, hi)
        assert (x, y) == (1.0, 0.0) or x == hi or y == lo
        assert lo <= x <= hi and lo <= y <= hi
        assert same_floats([value], [qubit_objective(x, y)])
        # each gradient component is not positive where its coordinate is
        # above lo, and not negative where it is below hi
        for g, v in ((2.0 * x + y - 2.0, x), (x + 2.0 * y - 1.0, y)):
            assert v == lo or g <= GRADIENT_TOL
            assert v == hi or g >= -GRADIENT_TOL


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
    expected = box_minimiser_looped(lo, hi)
    if (lo, hi) == (0.4, float(np.nextafter(0.8, 1.0))):
        # the loop's first candidate of least value is the corner (hi, lo),
        # an ulp from the minimiser (0.8, 0.4) on y = lo, of the same value
        expected = (0.8, 0.4, expected[2])
    assert same_floats(vnsynth._box_minimiser(lo, hi), expected)


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
    with pytest.raises(InvalidBounds, match="outside eigenvalue range"):
        construct_states(proto, (0.9, 0.1))  # above lambda_max = 2/3


def test_implemented_povm_rejects_states_of_another_dimension():
    proto = build_partition_povm(trine_povm(), 2, lambda s: 0 if 0 in s else 1)
    e = np.eye(2, dtype=complex)
    prep = vnsynth.StatePrep(ancilla_qubits=0, states=(e[:, 0], e[:, 1]))
    with pytest.raises(ShapeMismatch, match="^state and coarse POVM dimensions disagree$"):
        implemented_povm(prep, proto)


def test_implemented_povm_is_valid():
    syn = trine_optimal_protocol(3, trine_povm())
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
    climbed = climb(trine_povm(), 2, Rng(5), 4)
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
    result = climb(degenerate, 2, Rng(1), 2)
    assert result.solution.epsilon == pytest.approx(1 / math.sqrt(12), abs=1e-12)


def test_hill_climb_three_use_matches_closed_form():
    climbed = climb(trine_povm(), 3, Rng(5), 2)
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
    result = climb(povm, n_uses, Rng(seed), 3)
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
    assert search_terms(povm, n_uses)[0].ndim == 1
    if m**n_uses <= vnsynth._EXHAUSTIVE_STRING_CAP:
        result = exhaustive_search(povm, n_uses)
        bits, sol, ties, count = exhaustive_search_from_scratch(povm, n_uses)
    else:
        result = climb(povm, n_uses, Rng(seed), 3)
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


def assert_states_meet_the_optimum(povm, n_uses, seed):
    """Synthesize on spectra and check the states against the dense Q_0
    that U's frame stands for; returns the ``SynthesizedProtocol``."""
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
    optimum = np.diag([syn.solution.x_star, syn.solution.y_star])
    vmat = np.column_stack(syn.prep.states)
    on_q0 = qcore.dagger(vmat) @ np.kron(dense[0], np.eye(2**syn.prep.ancilla_qubits)) @ vmat
    assert np.abs(on_q0 - optimum).max() <= 1e-12
    impl = implemented_povm(syn.prep, proto)
    assert np.abs(impl.elements[0] - optimum).max() <= 1e-12
    eps = rms_exact_povm(impl, von_neumann_povm(2))
    assert abs(eps - syn.solution.epsilon) <= 1e-12
    return syn


@settings(max_examples=40)
@given(seed=povm_seeds, case=commuting_cases)
def test_commuting_protocol_on_spectra_implements_the_qp_error(seed, case):
    m, d, n_uses = case
    povm = random_povm(d, 2, Rng(seed)) if m == 2 else lossy_povm(d, Rng(seed))
    assert_states_meet_the_optimum(povm, n_uses, seed)


@pytest.mark.parametrize("p, q, n_uses, ancilla", [
    (0.95, 0.6, 1, 1),
    (0.9, 0.8, 2, 0),
], ids=["ancilla", "in-space"])
def test_commuting_states_meet_the_optimum_on_either_route(p, q, n_uses, ancilla):
    syn = assert_states_meet_the_optimum(qcore.noisy_z_povm(p, q), n_uses, 0)
    assert syn.prep.ancilla_qubits == ancilla


@settings(max_examples=40)
@given(seed=povm_seeds, d=st.integers(2, 4), n_uses=st.integers(1, 3),
       anc=st.sampled_from((1, 2)))
def test_the_frame_rotation_is_the_product_basis_on_the_measured_factors(
        seed, d, n_uses, anc):
    rng = Rng(seed)
    u = haar_unitary(d, rng)
    g = rng.generator
    shape = (d**n_uses * anc, 2)
    v = g.standard_normal(shape) + 1j * g.standard_normal(shape)
    rotated = vnsynth._rotate(u, v, n_uses)
    full = np.kron(functools.reduce(np.kron, [u] * n_uses), np.eye(anc))
    assert np.abs(rotated - full @ v).max() <= 1e-13
    assert np.abs(vnsynth._rotate(qcore.dagger(u), rotated, n_uses) - v).max() <= 1e-13


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
    assert search_terms(povm, 4)[0].ndim == 1
    syn = synthesize(povm, 4, Rng(169))
    assert syn.protocol.basis is not None
    own = score_from_scratch(string_tensors(povm, 4), syn.protocol.assignment)
    assert abs(syn.solution.epsilon - own.epsilon) <= 1e-14
    impl = implemented_povm(syn.prep, syn.protocol)
    eps = rms_exact_povm(impl, von_neumann_povm(2))
    assert abs(eps - syn.solution.epsilon) <= 1e-12


def test_noncommuting_povms_search_dense_matrices():
    assert search_terms(trine_povm(), 2)[0].ndim == 2
    m0, m1 = random_povm(2, 2, Rng(4)).elements
    assert search_terms(Povm((m0, m1)), 2)[0].ndim == 1
    # tilt M_0 alone, so the elements miss commuting by more than the
    # admission budget while still summing to the identity within 1e-10
    kick = 10 * vnsynth._TIE_WINDOW * np.array([[0, 1], [1, 0]])
    tilted = Povm((m0 + kick, m1))
    assert qcore.validate_povm(tilted).ok
    commutator = tilted.elements[0] @ m1 - m1 @ tilted.elements[0]
    assert np.abs(commutator).max() > vnsynth._TIE_WINDOW
    assert search_terms(tilted, 2)[0].ndim == 2
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
    # the solution is the contracted Q_0's own; the walk scored the sum
    # string by string
    assert same_solution(result.solution, own_box_solution(result.protocol))
    assert near_solution(result.solution, sol,
                         solution_bound(result.protocol, povm.outcomes,
                                        scored_in_a_frame(povm, n_uses)))
    assert near_arrays(result.protocol.coarse, string_sums(povm, n_uses, bits),
                       rounding_bound(povm.outcomes, n_uses))


# Stack budgets: the default, one term (no level stacked) and four terms.
stack_budgets = st.sampled_from([None, 1, 4])


def stack_budget(povm, n_uses, terms):
    if terms is None:
        return qcore._BLOCK_BYTES
    return terms * search_terms(povm, n_uses)[0].nbytes


@settings(max_examples=40)
@given(seed=povm_seeds, m=outcome_counts, n_uses=use_counts, terms=stack_budgets)
def test_stacked_search_matches_the_depth_first_walk(seed, m, n_uses, terms):
    assume(m**n_uses <= vnsynth._EXHAUSTIVE_STRING_CAP)
    povm = random_povm(2, m, Rng(seed))
    with mock.patch.object(qcore, "_BLOCK_BYTES", stack_budget(povm, n_uses, terms)):
        assert_same_search(povm, n_uses)


@settings(max_examples=40)
@given(seed=povm_seeds, case=commuting_cases, terms=stack_budgets)
def test_stacked_search_on_spectra_matches_the_depth_first_walk(seed, case, terms):
    m, d, n_uses = case
    assume(m**n_uses <= vnsynth._EXHAUSTIVE_STRING_CAP)
    povm = random_povm(d, 2, Rng(seed)) if m == 2 else lossy_povm(d, Rng(seed))
    assert search_terms(povm, n_uses)[0].ndim == 1
    with mock.patch.object(qcore, "_BLOCK_BYTES", stack_budget(povm, n_uses, terms)):
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
    with mock.patch.object(qcore, "_BLOCK_BYTES", stack_budget(povm, n_uses, terms)):
        assert_same_search(povm, n_uses)


def test_stacked_search_stays_within_its_byte_budget():
    # 256 partitions of 64 x 64 complex: the whole stack takes 16 MiB,
    # and building it at once peaks at 33 MiB
    povm = random_povm(8, 3, Rng(2))
    assert 256 * 64 * 64 * 16 > qcore._BLOCK_BYTES
    tracemalloc.start()
    try:
        result = exhaustive_search(povm, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.evaluated == 256
    assert peak < 8 * 2**20


def test_spectra_climb_checks_its_search_terms_against_the_byte_budget():
    # noisy-Z at N = 3: eight 8-entry term vectors (512 bytes); each
    # neighbour is summed on its own, so the climb holds nothing else
    # that grows with the number of strings
    povm = qcore.noisy_z_povm(0.9, 0.8)
    terms = search_terms(povm, 3)
    assert isinstance(terms, np.ndarray) and terms.shape == (8, 8)
    with mock.patch.object(qcore, "_BYTE_BUDGET", 512):
        assert hill_climb_search(povm, 3, rng=Rng(0)).protocol.basis is not None
    with mock.patch.object(qcore, "_BYTE_BUDGET", 511):
        with pytest.raises(TooLarge, match=r"search terms of 2\^3 strings would "
                           "take 512 bytes"):
            hill_climb_search(povm, 3, rng=Rng(0))


def test_search_terms_fail_closed_beyond_their_byte_budget():
    # trine at N = 2: nine dense 4 x 4 tensors, real in the trine's own
    # frame, 1,152 bytes
    with mock.patch.object(qcore, "_BYTE_BUDGET", 9 * 16 * 8):
        assert len(search_terms(trine_povm(), 2)) == 9
    with mock.patch.object(qcore, "_BYTE_BUDGET", 9 * 16 * 8 - 1):
        with pytest.raises(TooLarge, match="over the budget"):
            search_terms(trine_povm(), 2)
        with pytest.raises(TooLarge, match="over the budget"):
            synthesize(trine_povm(), 2, Rng(0))


def test_dense_search_terms_are_exactly_hermitian():
    povm = random_povm(3, 3, Rng(7))
    assert not any(np.array_equal(e, qcore.dagger(e)) for e in povm.elements)
    terms = search_terms(povm, 2)
    assert all(np.array_equal(t, qcore.dagger(t)) for t in terms)


search_term_cases = st.one_of(
    st.tuples(st.just("dense"), st.integers(2, 3), st.integers(3, 4), st.integers(1, 3)),
    st.tuples(st.just("two-outcome"), st.integers(2, 4), st.just(2), st.integers(1, 4)),
    st.tuples(st.just("lossy"), st.integers(2, 4), st.just(3), st.integers(1, 3)),
)


@settings(max_examples=60)
@given(seed=povm_seeds, case=search_term_cases)
def test_search_terms_are_the_kron_chains_of_the_factors(seed, case):
    kind, d, m, n_uses = case
    povm = lossy_povm(d, Rng(seed)) if kind == "lossy" else random_povm(d, m, Rng(seed))
    terms, ref = search_terms(povm, n_uses), kron_chain_terms(povm, n_uses)
    assert terms.ndim == (3 if kind == "dense" else 2)
    assert terms.dtype == ref.dtype and same_bits(terms, ref)


@settings(max_examples=30)
@given(seed=povm_seeds, d=st.integers(2, 3), m=st.integers(3, 4), n_uses=use_counts)
def test_dense_coarse_elements_are_exactly_hermitian(seed, d, m, n_uses):
    povm = random_povm(d, m, Rng(seed))
    assignment = Rng(seed, 1).generator.integers(0, 2, size=m**n_uses)
    protocol = build_partition_povm(povm, n_uses, assignment)
    assert protocol.basis is None
    assert all(np.array_equal(q, q.conj().T) for q in protocol.coarse)


@pytest.mark.parametrize("n_uses", range(1, 8))
def test_the_trine_protocol_meets_its_closed_forms_to_rounding(n_uses):
    # each entry of the contracted Q_0 is a depth-N tree of 3-term sums;
    # a running sum over the 3^N strings missed 1 - 3^-N by up to 1.2e-14
    sol = trine_optimal_protocol(n_uses, trine_povm()).solution
    assert abs(sol.lam_max - (1.0 - 3.0**-n_uses)) <= 1e-15
    assert abs(sol.epsilon - 3.0**-n_uses / 2.0) <= 5e-16


def test_a_contraction_checks_its_largest_stack_before_building_it():
    # six qubit outcomes at N = 2: the largest stack is the 36-string
    # indicator, 576 bytes complex (six 2 x 2 blocks after one use take
    # 384, the element 256), while the two elements take 512
    povm, bits = random_povm(2, 6, Rng(3)), [0, 1] * 18
    with mock.patch.object(qcore, "_BYTE_BUDGET", 576):
        assert build_partition_povm(povm, 2, bits).basis is None
    with mock.patch.object(qcore, "_BYTE_BUDGET", 575), \
            mock.patch.object(vnsynth, "tensor", side_effect=AssertionError):
        with pytest.raises(TooLarge, match="^a coarse element after 0 of 2 uses would "
                           "take 576 bytes, over the budget of 575$"):
            build_partition_povm(povm, 2, bits)


# (m, N) with m^N and m^(N + 1) strings within the exhaustive cap, so
# every epsilon is the optimum over deterministic partitions
exhaustive_cases = st.sampled_from([(2, 1), (2, 2), (3, 1)])


@settings(max_examples=30, deadline=None)
@given(seed=povm_seeds, d=st.integers(2, 3), case=exhaustive_cases)
def test_epsilon_is_invariant_under_a_unitary_change_of_basis(seed, d, case):
    # Q_0 of U M U^dagger is U^(x N) Q_0 U^(x N)^dagger: the same spectrum
    m, n_uses = case
    povm = random_povm(d, m, Rng(seed))
    u = haar_unitary(d, Rng(seed, 1))
    turned = Povm(tuple(u @ e @ u.conj().T for e in povm.elements))
    eps = [synthesize(p, n_uses, Rng(0)).solution.epsilon for p in (povm, turned)]
    assert abs(eps[1] - eps[0]) <= 1e-9


@settings(max_examples=30, deadline=None)
@given(seed=povm_seeds, d=st.integers(2, 3), case=exhaustive_cases)
def test_epsilon_never_rises_with_another_use(seed, d, case):
    # ignoring the last use turns an N-use partition into an (N + 1)-use
    # one with the same spectrum
    m, n_uses = case
    povm = random_povm(d, m, Rng(seed))
    eps = [synthesize(povm, n, Rng(0)).solution.epsilon for n in (n_uses, n_uses + 1)]
    assert eps[1] <= eps[0] + 1e-12


@pytest.mark.parametrize("n_uses", [1, 2, 3])  # exhaustive, exhaustive, hill climb
def test_a_dense_protocol_holds_the_q0_the_search_scored(n_uses):
    # three-outcome qubit POVMs are scored in a real frame, and their
    # protocols contracted from the Hermitian parts in the original one:
    # the protocol's Q_0 is its strings' sum, and has the spectrum of the
    # real Q_0 the search scored
    for seed in range(20):
        povm = random_povm(2, 3, Rng(seed))
        assert scored_in_a_frame(povm, n_uses)
        protocol = synthesize(povm, n_uses, Rng(seed)).protocol
        assert protocol.basis is None and protocol.coarse[0].dtype == complex
        assert near_arrays(protocol.coarse,
                           string_sums(povm, n_uses, protocol.assignment),
                           rounding_bound(3, n_uses))
        terms = search_terms(povm, n_uses)
        scored = np.zeros_like(terms[0])
        for t, v in zip(terms, protocol.assignment):
            if v == 0:
                scored += t
        moved = np.linalg.eigvalsh(protocol.coarse[0]) - np.linalg.eigvalsh(scored)
        assert np.abs(moved).max() <= solution_bound(protocol, 3, framed=True)


# Three-outcome qubit POVMs, the trine included, at every N the
# exhaustive search takes (up to 12 strings).
three_outcome_qubit_cases = st.tuples(
    st.one_of(st.just("trine"), povm_seeds), st.integers(1, 2))


@settings(max_examples=40, deadline=None)
@given(case=three_outcome_qubit_cases)
def test_a_framed_search_finds_what_a_search_over_complex_terms_finds(case):
    seed, n_uses = case
    povm = trine_povm() if seed == "trine" else random_povm(2, 3, Rng(seed))
    assert scored_in_a_frame(povm, n_uses)
    framed = exhaustive_search(povm, n_uses)
    # the same search over the complex kron chains of the Hermitian parts
    with mock.patch.object(vnsynth, "_search_terms", lambda available, n, common:
                           kron_chain_terms(available, n, scored=False)):
        dense = exhaustive_search(povm, n_uses)
    assert framed.protocol.assignment == dense.protocol.assignment
    assert framed.co_optimal == dense.co_optimal
    assert framed.evaluated == dense.evaluated
    assert same_solution(framed.solution, dense.solution)
    # and what a scan over independently built string tensors finds
    bits, _, ties, _ = exhaustive_search_from_scratch(povm, n_uses)
    assert framed.protocol.assignment == bits and framed.co_optimal == ties


def bloch(e):
    """The Bloch vector b of a qubit element e = (Tr e / 2) I + b . sigma."""
    return np.array([e[0, 1].real, -e[0, 1].imag, (e[0, 0] - e[1, 1]).real / 2])


def frame_residue(povm):
    """sum_a ||Im F_a||_2 for the qubit frame ``_common_eigenbasis`` picks,
    worked out from the Bloch vectors b_a: U puts c = sum_a (a + 1) b_a
    on the z axis, and the phases put k = sum_a (a + 1)^2 b_a in the x-z
    plane, so Im F_a = (b_a . n) sigma_y with n the unit normal of c x k."""
    b = [bloch(e) for e in povm.elements]
    n = np.cross(sum((a + 1) * v for a, v in enumerate(b)),
                 sum((a + 1) ** 2 * v for a, v in enumerate(b)))
    return sum(abs(v @ n) for v in b) / np.linalg.norm(n)


def tilted_trine(residue):
    """The trine with M_0 turned out of the others' plane by t sigma_y, t
    scaled so that its ``frame_residue`` is ``residue``. Bloch vectors
    that sum to zero are coplanar, so this tilt leaves the elements
    summing to the identity only within t."""
    sigma_y = np.array([[0, -1j], [1j, 0]])

    def tilt(t):
        m0, m1, m2 = trine_povm().elements
        return Povm((m0 + t * sigma_y, m1, m2))
    # the residue is linear in t to first order
    return tilt(1e-6 * residue / frame_residue(tilt(1e-6)))


@pytest.mark.parametrize("povm, n_uses", [
    (random_povm(2, 4, Rng(3)), 2),  # four Bloch vectors span all three axes
    (random_povm(3, 3, Rng(3)), 2),  # a qutrit has no real frame in general
    (tilted_trine(1.02 * vnsynth._TIE_WINDOW), 1),  # residue just above the bound
    (tilted_trine(0.51 * vnsynth._TIE_WINDOW), 2),
])
def test_inputs_without_an_admitted_real_frame_keep_complex_terms(povm, n_uses):
    terms = search_terms(povm, n_uses)
    assert terms.ndim == 3 and terms.dtype == complex
    assert same_bits(terms, kron_chain_terms(povm, n_uses, scored=False))


@pytest.mark.parametrize("residue, n_uses", [(0.98, 1), (0.49, 2)])
def test_a_residue_just_within_the_bound_takes_the_real_frame(residue, n_uses):
    povm = tilted_trine(residue * vnsynth._TIE_WINDOW)
    assert scored_in_a_frame(povm, n_uses)
    assert not scored_in_a_frame(povm, n_uses + 2)


def test_real_search_terms_are_exactly_symmetric():
    povm = random_povm(2, 3, Rng(7))
    assert not any(np.array_equal(e, e.real) for e in povm.elements)
    terms = search_terms(povm, 3)
    assert terms.dtype == np.float64
    assert all(np.array_equal(t, t.T) for t in terms)


def conj_t(a):
    return np.conj(np.swapaxes(a, -2, -1))


def hermitian_stack(g, shape, dim):
    a = g.standard_normal(shape + (dim, dim)) + 1j * g.standard_normal(shape + (dim, dim))
    return (a + conj_t(a)) / 2


# one D x D matrix, or a stack of 1-9
stack_shapes = st.one_of(st.just(()), st.integers(1, 9).map(lambda n: (n,)))


@settings(max_examples=100)
@given(seed=povm_seeds, dim=st.integers(1, 32), shape=stack_shapes,
       kind=st.sampled_from(["random", "diagonal", "degenerate"]),
       real=st.booleans())
def test_search_eigensolver_matches_numpys_eigvalsh_bit_for_bit(seed, dim, shape, kind,
                                                                 real):
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
    if real:  # the real-frame terms: real symmetric
        a = (a.real + np.swapaxes(a.real, -2, -1)) / 2
    signature = a.dtype.char + "->d"
    assert same_bits(vnsynth._eigvalsh(a, signature=signature), np.linalg.eigvalsh(a))


# box ends with near and signed-zero repeats, and ends that clamp
near_ends = st.sampled_from([0.0, -0.0, -1e-17, 1e-17, 0.5, float(np.nextafter(0.5, 1.0)),
                             1 / 3, float(np.nextafter(1 / 3, 0.0)), 1.0,
                             float(np.nextafter(1.0, 0.0)), 1.0 + 2**-52])


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
    assert_same_result(climb(povm, n_uses, Rng(seed), 3),
                       hill_climb_search_per_candidate(povm, n_uses, restarts=3,
                                                       rng=Rng(seed)))


@settings(max_examples=40)
@given(seed=povm_seeds, case=commuting_cases)
def test_commuting_searches_score_as_per_candidate(seed, case):
    m, d, n_uses = case
    povm = random_povm(d, 2, Rng(seed)) if m == 2 else lossy_povm(d, Rng(seed))
    assert search_terms(povm, n_uses).ndim == 2
    assert_searches_score_as_per_candidate(povm, n_uses, seed)


@pytest.mark.parametrize("seed", [0, 1])
def test_a_commuting_climb_over_256_strings_scores_as_per_candidate(seed):
    # two-outcome qubit POVMs at N = 8, past every size Hypothesis draws
    povm = random_povm(2, 2, Rng(seed))
    assert search_terms(povm, 8).shape == (256, 256)
    assert_searches_score_as_per_candidate(povm, 8, seed)


# three and four outcomes: two-outcome POVMs commute
@settings(max_examples=30)
@given(seed=povm_seeds, m=st.integers(3, 4), n_uses=use_counts)
def test_dense_searches_score_as_per_candidate(seed, m, n_uses):
    povm = random_povm(2, m, Rng(seed))
    assert search_terms(povm, n_uses).ndim == 3
    assert_searches_score_as_per_candidate(povm, n_uses, seed)


@pytest.mark.parametrize("povm, n_uses", [
    (qcore.degenerate_qutrit_povm(), 3),  # exhaustive
    (qcore.degenerate_qutrit_povm(), 4),
    (qcore.degenerate_qutrit_povm(), 5),
    (random_povm_of_ranks(3, (1, 2), Rng(169)), 4),  # rank deficient
    (random_povm_of_ranks(4, (3, 1), Rng(21)), 3),  # zero-error ties
])
def test_inputs_with_repeated_boxes_score_as_per_candidate(povm, n_uses):
    assert_searches_score_as_per_candidate(povm, n_uses, 4)


@settings(max_examples=200)
@given(ends=st.lists(st.one_of(st.floats(-0.5, 1.5), near_ends), min_size=4, max_size=4))
def test_a_nested_box_never_scores_lower(ends):
    # the lemma hill_climb_search's side bounds rest on
    lo, inner_lo, inner_hi, hi = sorted(ends)
    assert vnsynth._score(inner_lo, inner_hi)[0] >= vnsynth._score(lo, hi)[0]


@pytest.mark.parametrize("povm, n_uses, seed", [
    (trine_povm(), 4, 0),
    (random_povm(2, 3, Rng(4)), 4, 4),
])
def test_hill_climb_skips_eigensolves_its_side_bounds_settle(povm, n_uses, seed):
    with mock.patch.object(vnsynth, "_eigvalsh", wraps=vnsynth._eigvalsh) as eig:
        result = climb(povm, n_uses, Rng(seed), 3)
    # evaluated counts the bounded neighbours too, as if they were scored
    assert eig.call_count < result.evaluated
    assert_same_result(result, hill_climb_search_per_candidate(
        povm, n_uses, restarts=3, rng=Rng(seed)))


# On each input a later start rescores a neighbour that an earlier start
# only bounded, from its own running sum.
@pytest.mark.parametrize("povm, n_uses, seed, restarts", [
    (trine_povm(), 3, 0, 8),  # dense
    (random_povm(2, 2, Rng(21)), 4, 21, 3),  # spectra
])
def test_a_rescored_bound_entry_scores_as_per_candidate(povm, n_uses, seed, restarts):
    assert_same_result(
        climb(povm, n_uses, Rng(seed), restarts),
        hill_climb_search_per_candidate(povm, n_uses, restarts=restarts, rng=Rng(seed)))


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
        syn = trine_optimal_protocol(n, trine_povm())
        assert abs(syn.solution.epsilon - 3.0**-n / 2) < 1e-12
        assert abs(syn.solution.lam_max - (1 - 3.0**-n)) < 1e-12


def test_trine_optimal_protocol_states_orthonormal():
    for n in (1, 2, 4):
        syn = trine_optimal_protocol(n, trine_povm())
        u0, u1 = syn.prep.states
        assert abs(np.linalg.norm(u0) - 1) < 1e-12
        assert abs(np.linalg.norm(u1) - 1) < 1e-12
        assert abs(np.vdot(u0, u1)) < 1e-12


@pytest.mark.parametrize("n_uses", range(1, 8))
def test_the_pipeline_builds_the_papers_trine_states(n_uses):
    # construct_states on the trine partition, against the closed form
    prep = trine_optimal_protocol(n_uses, trine_povm()).prep
    ancilla, states = paper_trine_states(n_uses)
    assert prep.ancilla_qubits == ancilla
    for got, ref in zip(prep.states, states, strict=True):
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-13


def test_trine_optimal_implemented_element():
    for n in (1, 2, 3):
        syn = trine_optimal_protocol(n, trine_povm())
        impl = implemented_povm(syn.prep, syn.protocol)
        ref = np.diag([1 - 3.0**-n, 3.0**-n / 2]).astype(complex)
        assert np.allclose(impl.elements[0], ref, atol=1e-10)


commuting_pair = random_povm(2, 2, Rng(5))  # two outcomes, so spectra
protocol_producers = [
    pytest.param(lambda: synthesize(trine_povm(), 2, Rng(0)), id="synthesize-exhaustive-dense"),
    pytest.param(lambda: synthesize(trine_povm(), 3, Rng(0)), id="synthesize-climb-dense"),
    pytest.param(lambda: synthesize(commuting_pair, 3, Rng(0)),
                 id="synthesize-exhaustive-spectra"),
    pytest.param(lambda: synthesize(commuting_pair, 4, Rng(0)), id="synthesize-climb-spectra"),
    pytest.param(lambda: exhaustive_search(trine_povm(), 1), id="exhaustive-dense"),
    pytest.param(lambda: exhaustive_search(commuting_pair, 2), id="exhaustive-spectra"),
    pytest.param(lambda: climb(trine_povm(), 2, Rng(1), 3),
                 id="climb-dense"),
    pytest.param(lambda: climb(commuting_pair, 5, Rng(1), 3),
                 id="climb-spectra"),
] + [
    pytest.param(functools.partial(trine_optimal_protocol, n, povm), id=f"trine-{name}-n={n}")
    for name, povm in (("trine", trine_povm()), ("noisy-z", qcore.noisy_z_povm(0.9, 0.8)))
    for n in range(1, 5)
]


# Neither a climb's running sums Q_0 +- T_i nor the trine's closed-form
# box may stand in for the box of the Q_0 a protocol holds.
@pytest.mark.parametrize("produce", protocol_producers)
def test_every_protocol_is_solved_on_the_box_of_its_own_q0(produce):
    syn = produce()
    assert same_solution(syn.solution, own_box_solution(syn.protocol))
    assert syn.protocol.assignment in syn.co_optimal


@pytest.mark.parametrize("n", [1, 2, 4])
def test_trine_protocol_records_its_one_partition(n):
    syn = trine_optimal_protocol(n, trine_povm())
    assert syn.co_optimal == (syn.protocol.assignment,)
    assert syn.evaluated == 1


def test_noisy_z_synthesis_reaches_the_papers_optimum():
    # one point per case of the closed form: the zero state turned, the
    # one state turned, both kept, and both kept exactly on p = (1 + q)/2
    for p, q in [(0.95, 0.6), (0.6, 0.95), (0.7, 0.7), (0.8, 0.6)]:
        sol = synthesize(qcore.noisy_z_povm(p, q), 1, Rng(0)).solution
        x, y, eps = noisy_z_optimum(p, q)
        assert abs(sol.x_star - x) <= 1e-12, (p, q)
        assert abs(sol.y_star - y) <= 1e-12, (p, q)
        assert abs(sol.epsilon - eps) <= 1e-12, (p, q)
        # hand-written values, independent of noisy_z_optimum: with the
        # zero state turned, epsilon is (1 - q)/2; with both kept, the
        # optimum is the corner (p, 1 - q)
        if (p, q) == (0.95, 0.6):
            assert abs(sol.epsilon - (1 - 0.6) / 2) <= 1e-12
        if (p, q) == (0.7, 0.7):
            assert abs(sol.x_star - 0.7) <= 1e-12 and abs(sol.y_star - 0.3) <= 1e-12


def test_noisy_z_synthesized_amplitude_is_the_papers_gamma():
    res = synthesize(qcore.noisy_z_povm(0.95, 0.6), 1, Rng(0))
    gamma = math.sqrt((3 * 0.6 - 1) / (2 * (0.95 + 0.6 - 1)))
    assert abs(res.prep.states[0][0]) == pytest.approx(gamma, abs=1e-14)


@settings(max_examples=200)
@given(p=st.floats(0.5, 1.0, exclude_min=True), q=st.floats(0.5, 1.0, exclude_min=True))
def test_noisy_z_synthesis_is_the_one_use_identity_partition(p, q):
    # one use of {diag(p, 1-q), diag(1-p, q)}: outcome a goes to target a,
    # and the box is [1 - q, p]
    res = synthesize(qcore.noisy_z_povm(p, q), 1, Rng(0))
    assert res.protocol.assignment == (0, 1)
    assert res.solution == solve_box_quadratic_qubit(1.0 - q, p)
