import itertools
import json
import math
import tracemalloc
import warnings
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from measrep import cli, coding, qcore
from measrep.coding import (
    BlockCode,
    ClassicalChannel,
    associated_channel,
    blahut_arimoto,
    cloning_error_rate,
    mutual_information,
    random_codebook,
    repetition_code,
    simulate_block_protocol,
)
from measrep.errors import InvalidBounds, NotConverged, ShapeMismatch, TooLarge
from measrep.qcore import Povm, Rng, trine_povm, von_neumann_povm
from measrep.subroutines import CloningBasis
from oracles import (
    associated_channel_by_traces,
    binary_symmetric_channel,
    blahut_arimoto_wrapped,
    block_protocol_statevector_distribution,
    block_protocol_whole_arrays,
    channel_sample_broadcast,
    cloning_error_rate_sampled,
    confusion_by_strings,
    count_vectors_from_cuts,
    exact_ml_error_by_strings,
    random_decode_full_table,
    random_decode_strided_gather,
    random_povm,
)


def h2(p):
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


# ---------------------------------------------------------------------------
# channels
# ---------------------------------------------------------------------------


def test_channel_rejects_bad_rows():
    with pytest.raises(ShapeMismatch):
        ClassicalChannel(np.array([[0.5, 0.4], [0.5, 0.5]]))
    with pytest.raises(ShapeMismatch):
        ClassicalChannel(np.array([[1.2, -0.2], [0.5, 0.5]]))
    # no inputs: Blahut-Arimoto would divide by zero
    with pytest.raises(ShapeMismatch, match="at least one input"):
        ClassicalChannel(np.zeros((0, 2)))


def test_channel_rejects_non_finite():
    # NaN passes every ordered comparison's negation, so it needs its own check
    for bad in (np.nan, np.inf):
        with pytest.raises(ShapeMismatch):
            ClassicalChannel(np.array([[bad, 0.0], [0.5, 0.5]]))


def test_associated_channel_trine():
    channel = associated_channel(trine_povm())
    ref = np.array([[2 / 3, 1 / 6, 1 / 6], [0.0, 0.5, 0.5]])
    assert np.allclose(channel.matrix, ref, atol=1e-12)


def test_associated_channel_vn_identity():
    channel = associated_channel(von_neumann_povm(3))
    assert np.allclose(channel.matrix, np.eye(3), atol=1e-12)


@settings(max_examples=100)
@given(d=st.integers(2, 5), m=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
def test_associated_channel_matches_the_trace_formula(d, m, seed):
    povm = random_povm(d, m, Rng(seed))
    ref = associated_channel_by_traces(povm).matrix
    assert np.array_equal(associated_channel(povm).matrix.view(np.uint64),
                          ref.view(np.uint64))


def test_mutual_information_extremes():
    ident = ClassicalChannel(np.eye(4))
    assert mutual_information(np.full(4, 0.25), ident) == pytest.approx(2.0)
    const = ClassicalChannel(np.array([[0.5, 0.5], [0.5, 0.5]]))
    assert mutual_information([0.5, 0.5], const) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("p_x", [[1.5, -0.5], [float("nan"), 1.0],
                                 [float("inf"), 1.0], [float("-inf"), 1.0]])
def test_mutual_information_rejects_a_negative_or_non_finite_entry(p_x):
    # [1.5, -0.5] sums to 1 and once gave 1e14 bits; [nan, 1] gave nan
    with pytest.raises(ShapeMismatch, match="p_x must be a distribution"):
        mutual_information(p_x, associated_channel(trine_povm()))


def test_mutual_information_bsc():
    bsc = binary_symmetric_channel(0.1)
    assert mutual_information([0.5, 0.5], bsc) == pytest.approx(
        1 - h2(0.1), abs=1e-12
    )


# ---------------------------------------------------------------------------
# capacity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("tol", [0.0, -1e-6, float("nan")])
def test_blahut_arimoto_rejects_a_tolerance_that_is_not_positive(tol):
    # a NaN tol once ran all 100,000 iterations and then reported the gap
    with pytest.raises(InvalidBounds, match="tol must be positive"):
        blahut_arimoto(binary_symmetric_channel(0.1), tol=tol)


def test_exact_repetition_error_rejects_a_negative_copy_count():
    with pytest.raises(InvalidBounds, match="-2 < 0 draws"):
        cloning_error_rate(associated_channel(trine_povm()).matrix, -2)


def test_blahut_arimoto_noiseless():
    cap = blahut_arimoto(ClassicalChannel(np.eye(3)), tol=1e-6)
    assert cap.capacity == pytest.approx(math.log2(3), abs=1e-6)
    assert cap.gap <= 1e-6


def test_blahut_arimoto_bsc():
    cap = blahut_arimoto(binary_symmetric_channel(0.1), tol=1e-8)
    assert cap.capacity == pytest.approx(1 - h2(0.1), abs=1e-4)
    assert np.allclose(cap.p_x, [0.5, 0.5], atol=1e-3)


def test_blahut_arimoto_trine_vs_grid():
    channel = associated_channel(trine_povm())
    cap = blahut_arimoto(channel, tol=1e-8)
    # simplex grid oracle over binary input distributions
    best = max(
        mutual_information([p, 1 - p], channel)
        for p in np.linspace(0.0, 1.0, 10_001)[1:-1]
    )
    assert abs(cap.capacity - best) < 1e-4


def test_blahut_arimoto_permutation_invariance():
    channel = associated_channel(trine_povm())
    permuted_out = ClassicalChannel(channel.matrix[:, [2, 0, 1]])
    permuted_in = ClassicalChannel(channel.matrix[[1, 0], :])
    c0 = blahut_arimoto(channel, tol=1e-9).capacity
    assert blahut_arimoto(permuted_out, tol=1e-9).capacity == pytest.approx(
        c0, abs=1e-8
    )
    assert blahut_arimoto(permuted_in, tol=1e-9).capacity == pytest.approx(
        c0, abs=1e-8
    )


def test_blahut_arimoto_lower_bound_dominates_uniform():
    for channel in (
        binary_symmetric_channel(0.2),
        associated_channel(trine_povm()),
    ):
        cap = blahut_arimoto(channel, tol=1e-7)
        uniform = np.full(channel.inputs, 1.0 / channel.inputs)
        assert cap.capacity >= mutual_information(uniform, channel) - 1e-7


def test_blahut_arimoto_not_converged_carries_bounds():
    # asymmetric channel so the uniform start is not already optimal
    with pytest.raises(NotConverged, match="after 2 iterations") as exc, \
            mock.patch.object(coding, "_MAX_ITER", 2):
        blahut_arimoto(associated_channel(trine_povm()), tol=1e-14)
    assert exc.value.lower is not None
    assert exc.value.upper >= exc.value.lower


# tol 1e-3 stops BA well below the capacity, so that the grid exposes an
# upper bound set too low
@settings(max_examples=50)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 4), zeros=st.booleans(),
       mirror=st.booleans(), tol=st.sampled_from([1e-3, 1e-8]))
def test_blahut_arimoto_bounds_bracket_the_grid_capacity(seed, m, zeros, mirror, tol):
    # two inputs only: a 2-D grid over three inputs costs ~0.4 s per example
    channel = random_channel(seed, 2, m, zeros, mirror)
    try:
        with mock.patch.object(coding, "_MAX_ITER", 10_000):
            cap = blahut_arimoto(channel, tol=tol)
        lower, upper = cap.capacity, cap.upper_bound
    except NotConverged as exc:
        lower, upper = exc.lower, exc.upper
    f = np.array([mutual_information([p, 1 - p], channel)
                  for p in np.linspace(0.0, 1.0, 1001)])
    # both ends give I = 0, so an interior point attains the grid maximum
    k = int(np.argmax(f[1:-1])) + 1
    assert f[k] <= upper + 1e-12
    # I is concave in p, so the capacity lies within one grid step of
    # point k and exceeds f[k] by at most its larger drop to a neighbour
    assert lower <= f[k] + max(f[k] - f[k - 1], f[k] - f[k + 1]) + 1e-12


# ---------------------------------------------------------------------------
# codes
# ---------------------------------------------------------------------------


def test_repetition_rate_conventions(capsys):
    assert cli.main(["block", "trine", "--k", "2", "--copies", "5", "--trials", "100",
                     "--json"]) == 0
    doc = json.loads(capsys.readouterr().out.splitlines()[-1])
    rows = {r["name"]: r["value"] for r in doc["rows"]}
    assert rows["block_length"] == 10
    assert rows["rate_targets_per_use"] == pytest.approx(0.2)
    assert rows["rate_uses_per_target"] == pytest.approx(5.0)


def test_repetition_encode_decode_roundtrip_noiseless():
    code = repetition_code(3, 3, 2)
    ident = ClassicalChannel(np.eye(2))
    msgs = np.array([[0, 1, 0], [1, 1, 1]])
    out = np.repeat(msgs, code.copies, axis=1)
    assert np.array_equal(code.decode(out, ident), msgs)


@pytest.mark.parametrize("code, outputs, channel", [
    # rows longer than n: their first n letters used to be decoded
    (random_codebook(2, 5, 2, Rng(3)), np.zeros((4, 7), dtype=np.intp),
     ClassicalChannel(np.eye(2))),
    # rows of the wrong length: a bare reshape ValueError
    (repetition_code(2, 3, 2), np.zeros((4, 5), dtype=np.intp),
     ClassicalChannel(np.eye(2))),
    # one row, not a batch of rows
    (repetition_code(2, 3, 2), np.zeros(6, dtype=np.intp),
     ClassicalChannel(np.eye(2))),
    # a 1-input channel for a binary code: an IndexError
    (random_codebook(2, 5, 2, Rng(3)), np.zeros((4, 5), dtype=np.intp),
     ClassicalChannel(np.ones((1, 2)) / 2)),
    # a 3-input channel for a binary code: decoded over 3 letters
    (repetition_code(1, 3, 2), np.full((4, 3), 2, dtype=np.intp),
     ClassicalChannel(np.eye(3))),
], ids=["long-rows", "short-rows", "one-row", "fewer-inputs", "more-inputs"])
def test_decode_rejects_malformed_rows_and_a_mismatched_channel(code, outputs, channel):
    with pytest.raises(ShapeMismatch, match=rf"^need {code.n} outputs a row, "
                       rf"{code.d} channel inputs$"):
        code.decode(outputs, channel)


@pytest.mark.parametrize("code", [repetition_code(1, 3, 2), random_codebook(2, 3, 2, Rng(3))],
                         ids=["repetition", "random"])
@pytest.mark.parametrize("letter", [-1, 3])
def test_decode_rejects_letters_outside_the_channel_outputs(code, letter):
    # a -1 used to wrap to the last output, and 3 on this 3-output channel
    # ended in numpy's IndexError
    channel = ClassicalChannel(np.array([[0.5, 0.25, 0.25], [0.0, 0.5, 0.5]]))
    outputs = np.zeros((4, 3), dtype=np.intp)
    outputs[1, 2] = letter
    with pytest.raises(ShapeMismatch, match=r"^need output letters in 0\.\.2$"):
        code.decode(outputs, channel)


@pytest.mark.parametrize("code", [repetition_code(1, 3, 2), random_codebook(2, 3, 2, Rng(3))],
                         ids=["repetition", "random"])
@pytest.mark.parametrize("outputs", [[[0.5, 0, 0]], [[1.0, 0.0, 1.0]], [[0, 1, 0j]]],
                         ids=["fraction", "whole-floats", "complex"])
def test_decode_rejects_letters_that_are_not_integers(code, outputs):
    # they used to end in numpy's untyped TypeError from take
    channel = ClassicalChannel(np.array([[0.5, 0.25, 0.25], [0.0, 0.5, 0.5]]))
    with pytest.raises(ShapeMismatch, match=r"^need integer output letters, not "):
        code.decode(np.array(outputs), channel)


@pytest.mark.parametrize("code", [repetition_code(1, 3, 2), random_codebook(2, 3, 2, Rng(3))],
                         ids=["repetition", "random"])
def test_decode_reads_boolean_letters_as_zero_and_one(code):
    channel = ClassicalChannel(np.array([[0.5, 0.25, 0.25], [0.0, 0.5, 0.5]]))
    letters = np.array([[True, False, True], [False, False, True]])
    assert np.array_equal(code.decode(letters, channel),
                          code.decode(letters.astype(np.intp), channel))


def test_a_code_is_its_codebook_with_a_copy_count():
    rep = repetition_code(3, 4, 3)
    digits = np.array(list(itertools.product(range(3), repeat=3)))
    assert rep.codebook.shape == (27, 3) and rep.copies == 4
    assert np.array_equal(rep.codebook, digits)
    rnd = random_codebook(3, 6, 2, Rng(5))
    assert rnd.copies == 1 and rnd.codebook.shape == (8, 6)


def test_repetition_single_use_trine_error():
    channel = associated_channel(trine_povm())
    errs = cloning_error_rate(channel.matrix, 1)
    assert errs[0] == pytest.approx(1 / 3, abs=1e-14)
    assert errs[1] == pytest.approx(0.0, abs=1e-14)
    assert errs.mean() == pytest.approx(1 / 6, abs=1e-14)


def test_repetition_error_monotone_trine():
    channel = associated_channel(trine_povm())
    means = [cloning_error_rate(channel.matrix, c).mean() for c in (1, 3, 5, 7)]
    assert all(a > b for a, b in zip(means, means[1:]))


def test_random_codebook_deterministic_and_injective():
    a = random_codebook(3, 6, 2, Rng(5))
    b = random_codebook(3, 6, 2, Rng(5))
    assert np.array_equal(a.codebook, b.codebook)
    packed = {tuple(row) for row in a.codebook}
    assert len(packed) == 2**3


def test_random_codebook_size_cap():
    with pytest.raises(TooLarge):
        random_codebook(20, 24, 2, Rng(0))
    with pytest.raises(TooLarge):
        random_codebook(4, 3, 2, Rng(0))  # more messages than codewords
    with pytest.raises(TooLarge, match="^codewords of length 64 over 2 letters exceed"):
        random_codebook(1, 64, 2, Rng(0))  # 2^64 codewords, past the draw's range


def assert_rejected_before_any_draw(k, n, d):
    rng = Rng(1)
    state = rng.generator.bit_generator.state
    with pytest.raises(InvalidBounds, match="need k >= 1, n >= 1, d >= 2"):
        random_codebook(k, n, d, rng)
    assert rng.generator.bit_generator.state == state


def test_random_codebook_single_message_edge():
    # k = 0, one message, once built a code that reported error rate 0
    assert_rejected_before_any_draw(0, 4, 2)


# k = -1 once built a code that simulate_block_protocol failed on with an
# untyped TypeError, and d = 0 an empty codebook
@pytest.mark.parametrize("k, n, d", [(-1, 3, 2), (2, 0, 2), (2, -3, 2), (2, 3, 1),
                                     (2, 3, 0)])
def test_random_codebook_rejects_a_degenerate_shape_before_any_draw(k, n, d):
    assert_rejected_before_any_draw(k, n, d)


# ---------------------------------------------------------------------------
# protocol simulation
# ---------------------------------------------------------------------------


def test_identity_code_identity_channel_statistics():
    code = repetition_code(2, 1, 2)  # one copy: the uncoded identity code
    ident = ClassicalChannel(np.eye(2))
    amps = np.array([0.8, 0.0, 0.0, 0.6], dtype=complex)
    run = simulate_block_protocol(ident, code, amps, 100_000, Rng(7))
    assert run.error_rate == 0.0
    assert abs(run.decoded_distribution[0] - 0.64) < 3 * 0.005
    assert abs(run.decoded_distribution[3] - 0.36) < 3 * 0.005


@pytest.mark.parametrize("amps", [np.zeros(4), np.array([0.8, np.nan, 0.0, 0.6])],
                         ids=["all-zero", "nan"])
def test_block_amplitudes_without_a_finite_norm_are_rejected_before_any_draw(amps):
    rng = Rng(7)
    state = rng.generator.bit_generator.state
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ShapeMismatch, match="finite nonzero norm"):
            simulate_block_protocol(ClassicalChannel(np.eye(2)), repetition_code(2, 1, 2),
                                    amps, 1000, rng)
    assert rng.generator.bit_generator.state == state


@pytest.mark.parametrize("channel, amps, message", [
    (ClassicalChannel(np.eye(3)), None, "code alphabet does not match the channel input"),
    (ClassicalChannel(np.eye(2)), np.ones(3), "need 4 amplitudes"),
], ids=["alphabet", "amplitude-count"])
def test_block_simulation_rejects_a_mismatched_channel_or_amplitude_count(channel, amps,
                                                                          message):
    rng = Rng(7)
    state = rng.generator.bit_generator.state
    with pytest.raises(ShapeMismatch, match=f"^{message}$"):
        simulate_block_protocol(channel, repetition_code(2, 1, 2), amps, 1000, rng)
    assert rng.generator.bit_generator.state == state


def test_a_block_code_that_disagrees_with_its_codebook_fails_typed():
    # n was once a field of its own: n = 3 over two-letter codewords made
    # decode end in an untyped IndexError. It is now read off the codebook.
    code = BlockCode(k=1, d=2, copies=1, codebook=np.array([[0, 0], [1, 1]]))
    assert code.n == 2
    with pytest.raises(ShapeMismatch, match="^need 2 outputs a row, 2 channel inputs$"):
        code.decode(np.zeros((2, 3), dtype=np.intp), ClassicalChannel(np.eye(2)))
    for book in (np.zeros((3, 2), dtype=np.intp), np.zeros((2, 0), dtype=np.intp),
                 np.zeros(2, dtype=np.intp)):
        with pytest.raises(ShapeMismatch, match=r"^need a codebook of 2\^1 nonempty rows$"):
            BlockCode(k=1, d=2, copies=1, codebook=book)
    with pytest.raises(ShapeMismatch, match=r"^need codebook letters in 0\.\.1$"):
        BlockCode(k=1, d=2, copies=1, codebook=np.array([[0, 2], [1, 1]]))
    # k is checked before any d^k is computed
    with pytest.raises(TooLarge, match="messages exceed the codebook cap"):
        BlockCode(k=10**9, d=2, copies=1, codebook=np.zeros((2, 1), int))


def test_simulation_matches_exact_repetition():
    channel = associated_channel(trine_povm())
    code = repetition_code(1, 15, 2)
    run = simulate_block_protocol(channel, code, None, 100_000, Rng(9))
    exact = cloning_error_rate(channel.matrix, 15).mean()
    assert exact < 1e-3
    assert abs(run.error_rate - exact) < 3 * run.standard_error + 1e-4


def test_the_simulation_rule_follows_the_codebook_not_the_constructor():
    # a BlockCode once carried a kind beside its codebook: "repetition"
    # over [[1], [0]] simulated an error of 0.937 against an exact 0.066,
    # over [[0, 1], [1, 0]] ended in numpy's matmul ValueError, and
    # "random" with copies > 1 failed its own decode's shape check
    channel = ClassicalChannel(np.array([[0.9, 0.1], [0.2, 0.8]]))
    trials = 100_000

    def within_5_sigma(book, exact):
        code = BlockCode(k=1, d=2, copies=3, codebook=np.array(book))
        run = simulate_block_protocol(channel, code, None, trials, Rng(21))
        assert abs(run.error_rate - exact) <= 5.0 * math.sqrt(exact * (1 - exact) / trials)

    within_5_sigma([[1], [0]], cloning_error_rate(channel.matrix, 3).mean())
    # ML over the 2^6 output strings: each word's log-likelihood rounded
    # to 12 decimals, ties to message 0, error averaged over both messages
    words = np.repeat([[0, 1], [1, 0]], 3, axis=1)
    strings = np.array(list(itertools.product((0, 1), repeat=6)))
    logw = np.log(channel.matrix)
    ll = np.array([logw[w, strings].sum(axis=1) for w in words])
    dec = np.argmax(np.round(ll, 12), axis=0)
    prob = np.exp(ll)
    within_5_sigma([[0, 1], [1, 0]], (prob[0, dec != 0].sum() + prob[1, dec != 1].sum()) / 2)
    # a hand-built digit codebook is a repetition code
    hand = BlockCode(k=1, d=2, copies=3, codebook=np.array([[0], [1]]))
    runs = [simulate_block_protocol(channel, code, None, trials, Rng(22))
            for code in (hand, repetition_code(1, 3, 2))]
    assert_same_array(*(np.float64([r.error_rate, r.standard_error]).view(np.uint64)
                        for r in runs))
    assert_same_array(*(r.decoded_distribution.view(np.uint64) for r in runs))


def test_random_code_beats_uncoded_below_capacity():
    bsc = binary_symmetric_channel(0.1)
    coded = random_codebook(4, 16, 2, Rng(11))
    uncoded = repetition_code(4, 1, 2)
    run_coded = simulate_block_protocol(bsc, coded, None, 100_000, Rng(12))
    run_uncoded = simulate_block_protocol(bsc, uncoded, None, 100_000, Rng(12))
    assert run_coded.error_rate < run_uncoded.error_rate


def test_rate_above_capacity_fails():
    bsc = binary_symmetric_channel(0.1)
    code = random_codebook(8, 8, 2, Rng(13))
    run = simulate_block_protocol(bsc, code, None, 100_000, Rng(14))
    assert run.error_rate > 0.1


def test_statevector_consistency_path():
    code = repetition_code(1, 2, 2)
    amps = np.array([0.6, 0.8], dtype=complex)
    dist = block_protocol_statevector_distribution(trine_povm(), code, amps)
    assert dist.sum() == pytest.approx(1.0, abs=1e-12)
    # exact classical computation of the same decoded distribution
    channel = associated_channel(trine_povm())
    errs = cloning_error_rate(channel.matrix, 2)
    ref0 = 0.36 * (1 - errs[0]) + 0.64 * errs[1]
    assert dist[0] == pytest.approx(ref0, abs=1e-12)


def test_statevector_path_size_cap():
    code = repetition_code(1, 5, 2)
    with pytest.raises(TooLarge):
        block_protocol_statevector_distribution(
            trine_povm(), code, np.array([1.0, 0.0])
        )


def test_channel_sampling_statistics():
    bsc = binary_symmetric_channel(0.25)
    letters = np.zeros(50_000, dtype=np.int64)
    out = bsc.sample(letters, Rng(19))
    assert abs(out.mean() - 0.25) < 0.01


# ---------------------------------------------------------------------------
# block-coding hot paths against their first-release forms
# ---------------------------------------------------------------------------


def random_channel(seed, d, m, zeros, mirror):
    """Random d x m channel, optionally with zero entries (never a zero
    row) and with row 1 the reverse of row 0, which makes ML ties."""
    g = Rng(seed).generator
    mat = g.random((d, m))
    if zeros:
        mat[g.random((d, m)) < 0.3] = 0.0
        mat[:, 0] += mat.sum(axis=1) == 0.0
    if mirror:
        mat[1] = mat[0, ::-1]
    return ClassicalChannel(mat / mat.sum(axis=1, keepdims=True))


seeds = st.integers(0, 2**32 - 1)
channels = st.builds(
    random_channel, seeds, st.integers(2, 3), st.integers(2, 4),
    st.booleans(), st.booleans(),
)


def assert_same_array(a, b):
    assert a.dtype == b.dtype
    assert np.array_equal(a, b)


def capacity_or_bounds(capacity, channel, tol):
    # at most 2,000 iterations, so a slow channel ends in NotConverged
    try:
        with mock.patch.object(coding, "_MAX_ITER", 2000):
            cap = capacity(channel, tol=tol)
    except NotConverged as exc:
        return exc.lower, exc.upper
    return cap.capacity, cap.upper_bound, cap.p_x.tobytes(), cap.iterations, cap.gap


@settings(max_examples=60)
@given(channel=channels, tol=st.sampled_from([1e-4, 1e-8, 1e-10]))
def test_blahut_arimoto_matches_the_wrapped_iteration(channel, tol):
    assert (capacity_or_bounds(blahut_arimoto, channel, tol)
            == capacity_or_bounds(blahut_arimoto_wrapped, channel, tol))


@settings(max_examples=200)
@given(seed=seeds, d=st.integers(2, 3), m=st.integers(2, 4))
def test_capacity_is_the_mutual_information_at_its_input(seed, d, m):
    # one divergence formula serves both, so the lower bound is the same bits
    channel = random_channel(seed, d, m, zeros=True, mirror=False)
    try:
        with mock.patch.object(coding, "_MAX_ITER", 2000):
            cap = blahut_arimoto(channel, tol=1e-8)
    except NotConverged:
        assume(False)
    assert cap.capacity == mutual_information(cap.p_x, channel)


@settings(max_examples=60)
@given(channel=channels, trials=st.integers(0, 500), n=st.integers(1, 12), seed=seeds)
def test_channel_sample_matches_the_broadcast_comparison(channel, trials, n, seed):
    letters = Rng(seed).generator.integers(0, channel.inputs, size=(trials, n))
    assert_same_array(
        channel.sample(letters, Rng(seed, 1)),
        channel_sample_broadcast(channel.matrix, letters, Rng(seed, 1)),
    )


# letters of any leading shape; channels with 300 outputs count in uint16
@settings(max_examples=80)
@given(channel=channels | st.builds(random_channel, seeds, st.integers(2, 3),
                                    st.just(300), st.booleans(), st.booleans()),
       lead=st.lists(st.integers(0, 30), max_size=2), k=st.integers(1, 3), seed=seeds)
def test_channel_sample_of_any_shape_matches_the_broadcast_comparison(channel, lead, k,
                                                                      seed):
    letters = Rng(seed).generator.integers(0, channel.inputs, size=(*lead, k))
    assert_same_array(
        channel.sample(letters, Rng(seed, 1)),
        channel_sample_broadcast(channel.matrix, letters, Rng(seed, 1)),
    )


@settings(max_examples=80)
@given(channel=channels, n=st.integers(0, 6))
def test_confusion_matrix_matches_a_decode_of_every_output_string(channel, n):
    conf = coding._confusion_matrix(channel.matrix, n)
    assert np.max(np.abs(conf - confusion_by_strings(channel.matrix, n))) <= 1e-12


@settings(max_examples=80)
@given(channel=channels, n=st.integers(0, 30))
def test_confusion_rows_are_distributions_whose_errors_are_the_exact_ml_error(channel,
                                                                              n):
    conf = coding._confusion_matrix(channel.matrix, n)
    errs = cloning_error_rate(channel.matrix, n)
    assert np.max(np.abs(conf.sum(axis=1) - 1.0)) <= 1e-12
    off_diagonal = np.where(np.eye(channel.inputs, dtype=bool), 0.0, conf).sum(axis=1)
    assert np.max(np.abs(off_diagonal - errs)) <= 1e-14


# trials = blocks * rows + extra: none, part of one row block, whole
# blocks, and whole blocks plus a part; binary and ternary codewords,
# each letter sent up to three times
@settings(max_examples=80)
@given(channel=channels, k=st.integers(1, 8), extra_n=st.integers(0, 3),
       copies=st.integers(1, 3), blocks=st.integers(0, 2), extra=st.integers(0, 300),
       seed=seeds)
def test_random_decode_in_row_blocks_matches_the_full_table(
    channel, k, extra_n, copies, blocks, extra, seed
):
    d = channel.inputs
    assume(d**k <= 256)
    book = random_codebook(k, k + extra_n, d, Rng(seed)).codebook
    code = BlockCode(k=k, d=d, copies=copies, codebook=book)
    rows = max(1, qcore._BLOCK_BYTES // (8 * max(d**k, code.n * (d - 1))))
    trials = blocks * rows + extra % rows
    outputs = Rng(seed, 1).generator.integers(0, channel.outputs, size=(trials, code.n))
    assert_same_array(
        code.decode(outputs, channel), random_decode_full_table(code, outputs, channel)
    )


# 16 to 2,187 codewords, so row blocks of 2,048 down to 29 rows; trials
# as in the test above
@settings(max_examples=60)
@given(channel=channels, k=st.integers(4, 11), extra_n=st.integers(0, 3),
       blocks=st.integers(0, 3), extra=st.integers(0, 300), seed=seeds)
def test_random_decode_matches_the_strided_gather(channel, k, extra_n, blocks,
                                                  extra, seed):
    d = channel.inputs
    assume(d**k <= 2187)
    code = random_codebook(k, k + extra_n, d, Rng(seed))
    rows = max(1, qcore._BLOCK_BYTES // (8 * d**k))
    trials = blocks * rows + extra % rows
    outputs = Rng(seed, 1).generator.integers(0, channel.outputs, size=(trials, code.n))
    assert_same_array(code.decode(outputs, channel),
                      random_decode_strided_gather(code, outputs, channel))


def rechecked_rows(code, outputs, channel):
    """``decode``'s messages and the number of rows it decided by the fold."""
    with mock.patch.object(coding, "_ml_argmax", wraps=coding._ml_argmax) as fold:
        decoded = code.decode(outputs, channel)
    return decoded, sum(len(call.args[0]) for call in fold.call_args_list)


def zero_in_every_output(seed, d, m, shift):
    """Random d x m channel whose output j has probability 0 under input
    (j + shift) mod d: two adjacent outputs zero different inputs, so no
    row is all zeros."""
    mat = Rng(seed).generator.random((d, m))
    mat[(np.arange(m) + shift) % d, np.arange(m)] = 0.0
    return ClassicalChannel(mat / mat.sum(axis=1, keepdims=True))


def draw_outputs(channel, code, trials, seed):
    return Rng(seed, 1).generator.integers(0, channel.outputs, size=(trials, code.n))


# each row sees an output of probability 0, so its score misses the
# fold's _LOG_ZERO terms and the filter must send it to the fold
@settings(max_examples=60)
@given(seed=seeds, d=st.integers(2, 3), m=st.integers(2, 4), shift=st.integers(0, 2),
       k=st.integers(1, 5), extra_n=st.integers(0, 3), copies=st.integers(1, 3),
       trials=st.integers(1, 300))
def test_random_decode_folds_every_row_that_sees_an_output_of_probability_zero(
    seed, d, m, shift, k, extra_n, copies, trials
):
    assume(d**k <= 243)
    channel = zero_in_every_output(seed, d, m, shift)
    book = random_codebook(k, k + extra_n, d, Rng(seed)).codebook
    code = BlockCode(k=k, d=d, copies=copies, codebook=book)
    outputs = draw_outputs(channel, code, trials, seed)
    decoded, folded = rechecked_rows(code, outputs, channel)
    assert folded == trials
    assert_same_array(decoded, random_decode_full_table(code, outputs, channel))


@settings(max_examples=40)
@given(channel=st.builds(random_channel, seeds, st.just(2), st.just(2),
                         st.booleans(), st.booleans()),
       k=st.integers(1, 6), extra_n=st.integers(0, 3), copies=st.integers(1, 2),
       trials=st.integers(0, 300), seed=seeds)
def test_random_decode_reads_boolean_letters_as_zero_and_one(channel, k, extra_n,
                                                             copies, trials, seed):
    # a boolean codebook once indexed the log-likelihoods as a mask and
    # ended in an IndexError
    book = random_codebook(k, k + extra_n, 2, Rng(seed)).codebook
    code = BlockCode(k=k, d=2, copies=copies, codebook=book == 1)
    outputs = draw_outputs(channel, code, trials, seed)
    assert_same_array(code.decode(outputs == 1, channel),
                      random_decode_full_table(code, outputs, channel))


def test_random_decode_breaks_the_exact_ties_of_a_useless_channel_to_message_0():
    # under BSC(1/2) every codeword is equally likely: each row's scores
    # tie exactly, so each row takes the fold, whose tie rule picks index 0
    code = random_codebook(6, 16, 2, Rng(0))
    outputs = draw_outputs(binary_symmetric_channel(0.5), code, 500, 0)
    decoded, folded = rechecked_rows(code, outputs, binary_symmetric_channel(0.5))
    assert folded == 500
    assert_same_array(decoded, np.zeros((500, 6), dtype=np.int64))


def test_random_decode_folds_a_lead_that_12_decimal_rounding_erases():
    # log W(0|1) - log W(0|0) = 4e-13: the scores rank message 1 first, but
    # both log-likelihoods round to -0.691149177897, and the fold's tie
    # rule picks message 0
    q = 0.501 * (1 + 4e-13)
    channel = ClassicalChannel(np.array([[0.501, 0.499], [q, 1.0 - q]]))
    code = BlockCode(k=1, d=2, copies=1, codebook=np.array([[0], [1]]))
    decoded, folded = rechecked_rows(code, np.zeros((3, 1), dtype=np.intp), channel)
    assert folded == 3
    assert_same_array(decoded, np.zeros((3, 1), dtype=np.int64))


def test_random_decode_folds_only_a_few_rows_of_a_channel_without_zeros():
    # the rows the filter keeps skip the fold; the rest are mostly exact
    # ties between codewords with the same letters on each output value
    channel = random_channel(0, 2, 3, False, False)
    code = random_codebook(6, 16, 2, Rng(0))
    outputs = draw_outputs(channel, code, 2000, 0)
    decoded, folded = rechecked_rows(code, outputs, channel)
    assert 0 < folded < 500
    assert_same_array(decoded, random_decode_full_table(code, outputs, channel))


def test_random_decode_tables_are_checked_before_they_are_built():
    cases = [
        # 1,024 codewords of length 16 over a 16,384-output channel: the
        # per-position tables take 2 GiB
        (random_codebook(10, 16, 2, Rng(0)),
         ClassicalChannel(np.full((2, 2**14), 2.0**-14)), 2147614720),
        # 65,536 codewords of 9 letters over 256 inputs and one output: the
        # tables take 4.7 MB, the one-hot letters 1.2 GB
        (BlockCode(k=2, d=256, copies=1,
                   codebook=np.zeros((2**16, 9), dtype=np.intp)),
         ClassicalChannel(np.ones((256, 1))), 1207959552),
    ]
    for code, channel, size in cases:
        outputs = np.zeros((1, code.n), dtype=np.intp)
        tracemalloc.start()
        try:
            with pytest.raises(TooLarge, match=f"^the decode tables would take {size} "
                               "bytes, over the budget of 1073741824$"):
                code.decode(outputs, channel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**22


@pytest.mark.parametrize("letters, message", [
    # -1 used to read the last input's thresholds, 2 ended in numpy's
    # IndexError and a fraction in a TypeError
    ([[0, -1]], r"^need input letters in 0\.\.1$"),
    ([[2, 0]], r"^need input letters in 0\.\.1$"),
    ([[0.5, 0.0]], r"^need integer input letters, not float64$"),
    # a 0-d letter ended in an IndexError from letters.shape[-1]
    (1, r"^need input letters along at least one axis$"),
], ids=["negative", "past-the-inputs", "fraction", "no-axis"])
def test_channel_sample_rejects_letters_outside_the_inputs(letters, message):
    channel = ClassicalChannel(np.array([[0.5, 0.25, 0.25], [0.0, 0.5, 0.5]]))
    with pytest.raises(ShapeMismatch, match=message):
        channel.sample(np.array(letters), Rng(0))


def test_channel_sample_counts_past_the_byte_range():
    # 300 outputs: the comparisons are counted in uint16
    channel = random_channel(5, 3, 300, zeros=True, mirror=False)
    letters = Rng(6).generator.integers(0, 3, size=(40, 7))
    out = channel.sample(letters, Rng(6, 1))
    assert out.max() > 255
    assert_same_array(out, channel_sample_broadcast(channel.matrix, letters, Rng(6, 1)))


def test_channel_sample_never_passes_the_last_output():
    # the first row sums to 1 - 4e-13, which the constructor accepts, so
    # the largest uniform below 1 lies past its last cumulative sum
    channel = ClassicalChannel(np.array([[0.5, 0.5 - 4e-13], [0.25, 0.75]]))
    top = SimpleNamespace(generator=SimpleNamespace(
        random=lambda shape: np.full(shape, 1.0 - 2.0**-53)))
    out = channel.sample(np.zeros((3, 5), dtype=np.int64), top)
    assert (out == channel.outputs - 1).all()
    assert (repetition_code(1, 5, 2).decode(out, channel) == 1).all()


def random_amplitudes(seed, n):
    """n complex amplitudes, about a third of them zero (never all)."""
    g = Rng(seed).generator
    amps = g.standard_normal(n) + 1j * g.standard_normal(n)
    amps[g.random(n) < 0.3] = 0.0
    amps[0] += np.all(amps == 0.0)
    return amps


# trials around the row block: 1, one short of it, exactly it, one over,
# and several blocks plus a part; repetition and random codes of 1 to 20
# copies, a random code's rows of n letters and a repetition code's of k
@settings(max_examples=40)
@given(channel=channels, random_code=st.booleans(), k=st.integers(1, 4),
       extra=st.integers(0, 8), copies=st.integers(1, 20), amplitudes=st.booleans(),
       which=st.sampled_from(["one", "short", "block", "over", "blocks"]),
       blocks=st.integers(2, 3), part=st.integers(1, 10**6), seed=seeds)
def test_block_simulation_in_row_blocks_matches_the_whole_arrays(
    channel, random_code, k, extra, copies, amplitudes, which, blocks, part, seed
):
    d = channel.inputs
    if random_code:
        book = random_codebook(k, k + extra, d, Rng(seed)).codebook
        code = BlockCode(k=k, d=d, copies=copies, codebook=book)
    else:
        code = repetition_code(k, copies, d)
    rows = max(1, qcore._BLOCK_BYTES // (8 * (code.n if random_code else k)))
    trials = {"one": 1, "short": rows - 1, "block": rows, "over": rows + 1,
              "blocks": blocks * rows + 1 + part % (rows - 1)}[which]
    amps = random_amplitudes(seed, d**k) if amplitudes else None
    run = simulate_block_protocol(channel, code, amps, trials, Rng(seed, 1))
    rate, se, dist = block_protocol_whole_arrays(channel, code, amps, trials,
                                                 Rng(seed, 1))
    assert run.trials == trials
    assert_same_array(np.float64([run.error_rate, run.standard_error]).view(np.uint64),
                      np.float64([rate, se]).view(np.uint64))
    assert_same_array(run.decoded_distribution.view(np.uint64), dist.view(np.uint64))


def test_block_simulation_holds_no_trials_by_n_arrays():
    # each 100k x 36 array of the whole-array form takes 29 MB
    channel = associated_channel(trine_povm())
    code = repetition_code(4, 9, 2)
    tracemalloc.start()
    try:
        simulate_block_protocol(channel, code, None, 100_000, Rng(3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_repetition_simulation_past_the_count_vector_cap_fails_before_any_draw():
    # 3,000,001 count vectors for 3,000,000 copies over 2 outputs; the
    # simulation used to draw and decode every copy, for 5 s a trial
    code = repetition_code(1, 3_000_000, 2)
    with pytest.raises(TooLarge, match="^count vectors for n = 3000000 exceed the cap"):
        simulate_block_protocol(binary_symmetric_channel(0.1), code, None, 1, Rng(0))


@settings(max_examples=80)
@given(n=st.integers(0, 60), m=st.integers(1, 6))
def test_count_vectors_match_the_cut_enumeration(n, m):
    size = math.comb(n + m - 1, m - 1)
    if size > coding._COUNT_VECTOR_CAP:
        with pytest.raises(TooLarge):
            coding._count_vectors(n, m)
        return
    assume(size <= 300_000)  # keeps the Python-loop oracle fast
    counts = coding._count_vectors(n, m)
    assert counts.flags.f_contiguous  # one contiguous column per output
    assert_same_array(counts, count_vectors_from_cuts(n, m))


# 2 to 6 outputs, wider than `channels`
wide_channels = st.builds(
    random_channel, seeds, st.integers(2, 3), st.integers(2, 6),
    st.booleans(), st.booleans(),
)


@settings(max_examples=80)
@given(channel=wide_channels, n=st.integers(0, 6))
def test_exact_ml_error_matches_the_sum_over_outcome_strings(channel, n):
    errs = cloning_error_rate(channel.matrix, n)
    ref = exact_ml_error_by_strings(channel.matrix, n)
    assert np.max(np.abs(errs - ref)) <= 1e-14


def random_distribution(g, m):
    """A distribution on m outcomes, about a third of them zero (never all)."""
    p = g.random(m)
    p[g.random(m) < 0.3] = 0.0
    p[0] += p.sum() == 0.0
    return p / p.sum()


@settings(max_examples=60)
@given(m=st.integers(1, 7), n=st.integers(0, 60), d=st.integers(1, 4), seed=seeds)
def test_identical_rows_give_every_error_to_all_but_the_first(m, n, d, seed):
    # every count vector ties and goes to row 0, and the multinomial
    # weights of the vectors a row can give sum to 1
    assume(math.comb(n + m - 1, m - 1) <= 100_000)
    row = random_distribution(Rng(seed).generator, m)
    errs = cloning_error_rate(np.tile(row, (d, 1)), n)
    assert errs[0] == 0.0
    assert np.max(np.abs(errs[1:] - 1.0), initial=0.0) <= 1e-12


@settings(max_examples=60)
@given(m=st.integers(1, 7), n=st.integers(1, 60), seed=seeds, data=st.data())
def test_rows_with_disjoint_supports_are_never_confused(m, n, seed, data):
    # a count vector inside one row's support rules out every other row,
    # and one across two supports has weight 0 under each
    assume(math.comb(n + m - 1, m - 1) <= 100_000)
    g = Rng(seed).generator
    d = data.draw(st.integers(1, m))
    owner = np.concatenate([np.arange(d), g.integers(0, d, m - d)])
    g.shuffle(owner)
    table = np.zeros((d, m))
    table[owner, np.arange(m)] = g.random(m) + 0.1
    table /= table.sum(axis=1, keepdims=True)
    assert np.array_equal(cloning_error_rate(table, n), np.zeros(d))


def test_count_vectors_within_their_cap_still_fit_the_byte_budget():
    # n = 2, m = 1000: 500,500 rows pass the row cap, but the array would
    # take 4 GB
    assert math.comb(1001, 999) <= coding._COUNT_VECTOR_CAP
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge, match="4004000000 bytes, over the budget"):
            coding._count_vectors(2, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("d, m, n", [(2, 4, 150), (2, 2, 300_000), (5, 3, 900),
                                     (3, 6, 20), (1, 7, 14), (1000, 1, 3), (500, 2, 1)])
def test_exact_ml_error_stays_within_the_bytes_it_checks(d, m, n):
    # 585,276 count vectors at (2, 4, 150); a peak past the checked bytes
    # would make the budget check a guess. The error and the confusion
    # matrix share the check. The confusion matrix once peaked at
    # 8,020,173 bytes against 8,016,080 checked at (1000, 1, 3), and at
    # 2,020,123 against 2,012,128 at (500, 2, 1): the table's logs and
    # their temporaries went uncounted.
    rows = math.comb(n + m - 1, m - 1)
    table = np.full((d, m), 1.0 / m)
    table[0] = np.arange(1, m + 1) / (m * (m + 1) / 2)
    real_check = qcore._check_bytes
    for law in (cloning_error_rate, coding._confusion_matrix):
        checked = []

        def record(what, nbytes, *args):
            checked.append((what, nbytes))
            real_check(what, nbytes, *args)

        tracemalloc.start()
        try:
            with mock.patch.object(coding, "_check_bytes", record):
                law(table, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert checked[0] == ("the count-vector ML error",
                              8 * (rows * (m + d + 5) + n + 1 + d * (d + 1 + 4 * m)))
        assert 8 * rows * (m + d) < peak <= checked[0][1]


def test_exact_ml_error_past_the_byte_budget_fails_before_building_anything():
    # 1,000,001 count vectors fit the cap, but 1000 rows of
    # log-likelihoods over them would take 8 GB
    table = np.full((1000, 2), 0.5)
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge, match="the count-vector ML error would take "
                           "8072080064 bytes, over the budget"):
            cloning_error_rate(table, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@settings(max_examples=30)
@given(channel=channels, n_uses=st.integers(1, 8), seed=seeds)
def test_cloning_error_exact_and_sampled_agree(channel, n_uses, seed):
    # a diagonal POVM whose computational-basis rows are the table
    table = channel.matrix
    povm = Povm(tuple(np.diag(table[:, a]) for a in range(table.shape[1])))
    basis = CloningBasis(states=tuple(np.eye(table.shape[0])), table=table)
    exact = cloning_error_rate(table, n_uses)
    trials = 20_000
    sampled = cloning_error_rate_sampled(basis, n_uses, trials=trials, rng=Rng(seed))
    # standard deviation of the sampled average under the exact rates,
    # which may overshoot [0, 1] by rounding
    p = np.clip(exact, 0.0, 1.0)
    sigma = math.sqrt(np.sum(p * (1.0 - p)) / trials) / p.size
    assert abs(sampled.average - exact.mean()) <= 4.0 * sigma + 1e-12
