import contextlib
import dataclasses
import itertools
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
import warnings
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from measrep import cli, coding, io, qcore, rms, subroutines, vnsynth
from measrep.coding import cloning_error_rate
from oracles import (
    hermiticity_defect_povm_file,
    nan_povm_file,
    partition_povm_from_list,
    random_instrument,
    random_povm,
)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_validate_builtin(capsys):
    code, out = run_cli(capsys, "validate", "trine")
    assert code == 0
    assert "completeness_defect" in out


def test_validate_bad_file(tmp_path, capsys):
    bad = qcore.Povm(tuple(0.9 * e for e in qcore.von_neumann_povm(2).elements))
    path = tmp_path / "bad.json"
    io.save_measurement(bad, path)
    code, _ = run_cli(capsys, "validate", str(path))
    assert code == 1


def test_validate_nan_file(tmp_path, capsys):
    path = str(nan_povm_file(tmp_path / "nan.json"))
    code = cli.main(["validate", path])
    assert code == 1
    assert path in capsys.readouterr().err


@pytest.mark.parametrize("kind, elements, where", [
    ("povm", [[[[1e308, 0.0]]]], "element 0"),
    ("instrument", [[[[[0.0, 1e100]]]]], "outcome 0 Kraus 0"),
], ids=["povm", "instrument"])
def test_validate_rejects_an_entry_too_large_to_square(tmp_path, capsys, kind, elements,
                                                       where):
    # the 1 x 1 POVM [1e308] used to print three numpy RuntimeWarnings, for
    # overflows in the norm and in (e + e^dagger) / 2, and report an
    # infinite eigenvalue; the norm of K^dagger K overflowed for the Kraus
    # operator [1e100 i]
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"kind": kind, "dim": 1, "outcomes": 1,
                                "elements": elements}), encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["validate", str(path)])
    err = capsys.readouterr().err
    assert code == 1 and caught == []
    assert err.splitlines() == [f"error: {path}: {where}: entries must lie below "
                                "1e50 in magnitude"]


def test_validate_invalid_builtin_shows_report(capsys):
    code, out = run_cli(capsys, "validate", "noisy-z:1.5,0.2", "--json")
    assert code == 1
    rows = {r["name"]: r for r in json.loads(out.splitlines()[-1])["rows"]}
    assert rows["completeness_defect"]["status"] == "FAIL"
    assert rows["min_eigenvalue[1]"]["value"] == pytest.approx(-0.5, abs=1e-12)
    assert "violation: element 1: negative eigenvalue" in out


@pytest.mark.parametrize("name,exit_code", [("trine", 0), ("noisy-z:1.5,0.2", 1)])
def test_validate_checks_a_povm_once(monkeypatch, capsys, name, exit_code):
    calls = []
    check = qcore.validate_povm
    monkeypatch.setattr(qcore, "validate_povm", lambda p: calls.append(p) or check(p))
    code, out = run_cli(capsys, "validate", name)
    assert code == exit_code
    assert "completeness_defect" in out
    assert len(calls) == 1


def test_validate_invalid_instrument_shows_its_normalization_defect(tmp_path, capsys):
    inst = qcore.lueders_instrument(qcore.trine_povm())
    scaled = qcore.Instrument(tuple(tuple(2 * k for k in g) for g in inst.kraus))
    path = tmp_path / "scaled.json"
    io.save_measurement(scaled, path)
    code, doc = json_rows(capsys, "validate", str(path))
    assert code == 1
    assert doc["rows"] == [{"name": "normalization_defect",
                            "value": scaled.normalization_defect(),
                            "stderr": None, "status": "FAIL"}]


def test_synth_invalid_builtin_fails_validation(capsys):
    code = cli.main(["synth", "noisy-z:1.5,0.2", "--n", "1"])
    err = capsys.readouterr().err
    assert code == 1
    assert "negative eigenvalue" in err


# "²" passes str.isdigit but not int(); "٣" (Arabic-Indic three) once
# read as vn:3
@pytest.mark.parametrize("name", ["vn:\u00b2", "vn:\u0663"])
def test_vn_sizes_take_ascii_digits_only(capsys, name):
    code = cli.main(["validate", name])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == ("measrep: usage error: expected vn:d with an integer "
                            f"d >= 1, got {name!r}\n")


@pytest.mark.parametrize("argv", [("reproduce-paper",)] + [
    (name, "trine") for name in cli.COMMANDS if name != "reproduce-paper"])
def test_negative_seed_is_usage_error(capsys, argv):
    # SeedSequence takes no negative entropy
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--seed", "-1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --seed: expected an integer >= 0, got -1" in captured.err


def test_synth_runs_thousands_of_uses_without_recursion(capsys):
    # one outcome keeps every byte figure tiny, so only the walk's depth
    # grows; it once ended in a RecursionError
    code, out = run_cli(capsys, "synth", "vn:1", "--n", "3000")
    assert code == 0
    assert "epsilon_implemented" in out


def test_malformed_builtin_is_usage_error(capsys):
    code = cli.main(["synth", "noisy-z:abc,1"])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.strip().splitlines()) == 1


def test_synth_trine(capsys):
    code, out = run_cli(capsys, "synth", "trine", "--n", "2")
    assert code == 0
    assert "0.0555555555556" in out


def test_synth_rotated_projective_measurement(tmp_path, capsys):
    # the implemented element's diagonal lands a few ulps outside [0, 1]
    t = np.radians(1.0)
    v0 = np.array([np.cos(t), np.sin(t)], dtype=complex)
    v1 = np.array([-np.sin(t), np.cos(t)], dtype=complex)
    path = tmp_path / "rotated.json"
    io.save_measurement(qcore.Povm((np.outer(v0, v0), np.outer(v1, v1))), path)
    code, out = run_cli(capsys, "synth", str(path), "--n", "2", "--json")
    assert code == 0
    rows = {r["name"]: r["value"] for r in json.loads(out.splitlines()[-1])["rows"]}
    assert abs(rows["epsilon_implemented"] - rows["epsilon"]) < 1e-12


def test_rms_command(capsys):
    code, out = run_cli(capsys, "rms", "trine", "--n", "2", "--samples", "2000")
    assert code == 0
    assert "epsilon_monte_carlo" in out


# built-ins as Lueders instruments, and instrument files given as
# (d_in, d_out, Kraus operators per outcome), the one Haar isometry's
# blocks split into groups of those sizes; each at one seed. W pads a
# short or empty group with zero operators
@pytest.mark.parametrize("measurement, seed", [
    ("trine", 200), ("vn:3", 30), ("degenerate-qutrit", 1000),
    ((3, 2, (2, 2, 2)), 200), ((2, 3, (1, 1)), 7), ((2, 2, (3, 1, 2)), 5),
    ((3, 2, (2, 0, 3)), 9),
])
def test_postmeas_is_exact_at_every_seed(tmp_path, capsys, measurement, seed):
    if isinstance(measurement, str):
        arg = measurement
    else:
        d_in, d_out, sizes = measurement
        (ops,) = random_instrument(d_in, d_out, 1, sum(sizes), qcore.Rng(8)).kraus
        ends = np.cumsum(sizes)
        groups = tuple(ops[end - size:end] for size, end in zip(sizes, ends))
        arg = str(tmp_path / "inst.json")
        io.save_measurement(qcore.Instrument(groups), arg)
    code, out = json_rows(capsys, "postmeas", arg, "--seed", str(seed))
    assert code == 0
    rows = [(r["name"], r["value"], r["status"]) for r in out["rows"]]
    assert rows == [("statistics_error", 0.0, "PASS"), ("instrument_error", 0.0, "PASS")]
    assert json_rows(capsys, "postmeas", arg)[1]["rows"] == out["rows"]


def test_postmeas_command(capsys):
    code, out = run_cli(capsys, "postmeas", "trine")
    assert code == 0
    assert "PASS" in out


def test_postmeas_fails_on_an_isometry_with_two_outcomes_swapped(monkeypatch, capsys):
    build = subroutines.build_measurement_isometry

    def swapped(target):
        iso = build(target)
        w = iso.matrix.reshape(iso.d_out, iso.m, iso.r, iso.d_in)[:, [1, 0, 2]]
        return dataclasses.replace(iso, matrix=w.reshape(iso.matrix.shape))

    monkeypatch.setattr(subroutines, "build_measurement_isometry", swapped)
    code, out = json_rows(capsys, "postmeas", "trine")
    assert code == 1
    assert [r["status"] for r in out["rows"]] == ["FAIL", "FAIL"]


@pytest.mark.parametrize("argv, message", [
    (("block", "trine", "--trials", "0"), "0 < 1 trials"),
    (("block", "trine", "--trials", "-5"), "-5 < 1 trials"),
    (("block", "trine", "--copies", "0"), "need k >= 1, copies >= 1, d >= 2"),
    (("block", "trine", "--k", "0"), "need k >= 1, copies >= 1, d >= 2"),
    (("synth", "trine", "--n", "0"), "n_uses must be >= 1"),
    (("synth", "trine", "--n", "-1"), "n_uses must be >= 1"),
    (("rms", "trine", "--n", "0"), "n_uses must be >= 1"),
    (("rms", "trine", "--n", "-1"), "n_uses must be >= 1"),
    (("clone", "trine", "--max-n", "0"), "0 < 1 uses"),
    (("clone", "trine", "--max-n", "-2"), "-2 < 1 uses"),
])
def test_counts_below_one_fail_with_a_typed_error(capsys, argv, message):
    assert cli.main(list(argv)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["synth", "rms"])
def test_search_beyond_the_terms_budget_fails_with_a_typed_error(capsys, command):
    # 3^9 dense 512 x 512 string tensors, real in the trine's own frame,
    # would take 41 GB
    tracemalloc.start()
    try:
        code = cli.main([command, "trine", "--n", "9"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == (
        "error: search terms of 3^9 strings would take 41278242816 bytes, "
        "over the budget of 1073741824\n")
    assert peak < 2**20


# which ``_eigvalsh`` call fails, from its input and the number of calls
# before it; each read site has its own case
FAILING_READS = {
    "stack": lambda a, k: a.ndim == 3,  # exhaustive: a stack of partitions
    "start": lambda a, k: k == 0,  # hill climb: the closed-form start
    "neighbour": lambda a, k: k == 1,  # hill climb: a neighbour of that start
    # _finish: the winner's own Q_0, complex where the trine's terms are real
    "winner": lambda a, k: a.dtype.kind == "c",
}


@pytest.mark.parametrize("n_uses, site", [
    ("2", "stack"), ("3", "start"), ("3", "neighbour"), ("3", "winner")])
@pytest.mark.filterwarnings("error")
def test_eigensolver_failure_is_a_typed_error(monkeypatch, capsys, n_uses, site):
    # LAPACK reports a failed eigensolve as NaN eigenvalues; the real
    # gufunc, here on NaN input, also flags an invalid value, which numpy
    # would print as a RuntimeWarning (here: raise) before the error
    solve = vnsynth._eigvalsh
    for fail in (lambda a, **kw: np.full(a.shape[:-1], np.nan),
                 lambda a, **kw: solve(np.full_like(a, np.nan), **kw)):
        count = itertools.count()

        def eigvalsh(a, **kw):
            failing = FAILING_READS[site](a, next(count))
            return fail(a, **kw) if failing else solve(a, **kw)
        monkeypatch.setattr(vnsynth, "_eigvalsh", eigvalsh)
        assert cli.main(["synth", "trine", "--n", n_uses]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: eigenvalues did not converge\n"


@pytest.mark.parametrize("k", ["17", "45", "70", "20000"])
def test_block_beyond_the_codebook_cap_fails_with_a_typed_error(capsys, k):
    # 2^17 messages exceed the cap; 2^45 once ended in a 256 TiB
    # allocation, 2^70 in a numpy ValueError, and 2^20000 in a ValueError
    # from printing a number of over 4,300 digits
    argv = ["block", "trine", "--k", k, "--copies", "1", "--trials", "10"]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: 2^{k} messages exceed the codebook cap of 65536\n"


BUDGET = "bytes, over the budget of 1073741824"


# each once ended in a traceback, or ran for minutes before failing
@pytest.mark.parametrize("argv, message", [
    (("validate", "vn:20000"),
     f"the von Neumann elements would take 128000000000000 {BUDGET}"),
    (("rms", "trine", "--samples", str(10**15)),
     f"the Haar states would take 32000000000000000 {BUDGET}"),
    (("reproduce-paper", "--samples", str(10**15)),
     f"the Haar states would take 32000000000000000 {BUDGET}"),
    (("block", "trine", "--trials", str(10**15)),
     f"the trials' messages and a codeword would take 8000000000000040 {BUDGET}"),
    (("block", "trine", "--copies", str(10**9), "--trials", "1"),
     f"the trials' messages and a codeword would take 8000000008 {BUDGET}"),
    (("block", "trine", "--k", "20000"),
     "2^20000 messages exceed the codebook cap of 65536"),
    *((("synth", "trine", "--n", str(n)),
       f"an assignment of 3^{n} outcome strings would take at least 2^64 {BUDGET}")
      for n in (10**7, 3 * 10**7, 10**8)),
    (("clone", "trine", "--max-n", "100000"),
     "count vectors for n = 100000 exceed the cap of 2000000"),
    # 5,000 digits: past int()'s limit of 4,300
    (("validate", "vn:" + "9" * 5000),
     f"the von Neumann elements would take at least 2^64 {BUDGET}"),
])
def test_oversized_inputs_fail_at_once_with_one_typed_error(capsys, argv, message):
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code = cli.main(list(argv))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert elapsed < 2.0
    assert peak < 2**20


def test_capacity_rejects_a_nan_tolerance_at_once(capsys):
    # it once ran all 100,000 Blahut-Arimoto iterations first
    start = time.perf_counter()
    assert cli.main(["capacity", "trine", "--tol", "nan"]) == 1
    assert time.perf_counter() - start < 0.5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: tol must be positive\n"


@pytest.mark.parametrize("command, message", [("capacity", "tol must be positive")])
@pytest.mark.parametrize("tol", ["-1e-9", "-0.5e-300"])
def test_a_negative_tolerance_in_exponent_form_reaches_the_typed_error(capsys, command,
                                                                       message, tol):
    # argparse once read "-1e-9" as an option: "expected one argument", exit 2
    assert cli.main([command, "trine", "--tol", tol]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["capacity"])
def test_a_tolerance_that_is_not_a_number_is_a_usage_error(capsys, command):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "trine", "--tol", "-x"])
    assert exc.value.code == 2
    assert "argument --tol: expected one argument" in capsys.readouterr().err


def test_postmeas_at_a_zero_tolerance_is_an_exact_check(capsys):
    code, out = json_rows(capsys, "postmeas", "trine")
    assert code == 0
    assert [(r["value"], r["status"]) for r in out["rows"]] == [(0.0, "PASS")] * 2


def test_clone_command(capsys):
    code, out = run_cli(capsys, "clone", "trine", "--max-n", "3")
    assert code == 0
    assert "chernoff_exponent_nats" in out


def test_capacity_command(capsys):
    code, out = run_cli(capsys, "capacity", "trine")
    assert code == 0
    assert "capacity_bits" in out


def test_block_command(capsys):
    code, out = run_cli(
        capsys, "block", "trine", "--k", "1", "--copies", "3", "--trials", "5000"
    )
    assert code == 0
    assert "block_error_rate" in out


# (seed, d, m, k, copies): a random channel's d^k messages of k symbols
@pytest.mark.parametrize("seed, d, m, k, copies", [
    (1, 2, 2, 2, 3), (2, 2, 4, 3, 5), (3, 3, 3, 2, 2), (4, 3, 2, 3, 4), (5, 2, 3, 1, 4),
])
def test_block_error_exact_is_the_mean_over_every_message(tmp_path, capsys, seed, d, m,
                                                          k, copies):
    path = str(tmp_path / "available.json")
    io.save_measurement(random_povm(d, m, qcore.Rng(seed)), path)
    code, doc = json_rows(capsys, "block", path, "--k", str(k), "--copies", str(copies),
                          "--seed", str(seed))
    assert code == 0
    rows = {r["name"]: r for r in doc["rows"]}
    exact = rows["block_error_exact"]["value"]
    errs = cloning_error_rate(coding.associated_channel(io.load_povm(path)).matrix, copies)
    if k == 1:
        assert exact == errs.mean()
    brute = np.mean([1.0 - np.prod(1.0 - errs[list(message)])
                     for message in itertools.product(range(d), repeat=k)])
    assert abs(exact - brute) <= 1e-15
    run = rows["block_error_rate"]
    assert abs(run["value"] - exact) <= 5.0 * run["stderr"]


def test_seed_reproducibility(capsys):
    _, out_a = run_cli(capsys, "rms", "trine", "--seed", "7", "--samples", "2000")
    _, out_b = run_cli(capsys, "rms", "trine", "--seed", "7", "--samples", "2000")
    # wall time differs; result rows must not
    rows_a = [l for l in out_a.splitlines() if not l.startswith("#")]
    rows_b = [l for l in out_b.splitlines() if not l.startswith("#")]
    assert rows_a == rows_b


def test_csv_output(tmp_path, capsys):
    out_file = tmp_path / "report.csv"
    code, _ = run_cli(capsys, "capacity", "trine", "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "name,value,stderr,status"
    assert lines[1].startswith("capacity_bits,")


@pytest.mark.parametrize("target, reason", [
    ("", "Is a directory"),
    ("missing/report.csv", "No such file or directory"),
], ids=["a-directory", "in-a-missing-directory"])
def test_an_out_path_that_cannot_be_written_fails_with_a_typed_error(tmp_path, capsys,
                                                                     target, reason):
    out = tmp_path / target
    assert cli.main(["validate", "trine", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --out {out}: cannot be written ({reason})\n"
    assert not (tmp_path / "missing").exists()


def test_json_output(capsys):
    code, out = run_cli(capsys, "capacity", "trine", "--json")
    assert code == 0
    doc = json.loads(out.splitlines()[-1])
    assert doc["command"] == "capacity"
    assert any(r["name"] == "capacity_bits" for r in doc["rows"])


def test_reproduce_paper_passes(capsys):
    code, out = run_cli(capsys, "reproduce-paper", "--samples", "20000")
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS") >= 20


def test_reproduce_paper_seed_stable(capsys):
    _, a = run_cli(capsys, "reproduce-paper", "--seed", "7", "--samples", "5000")
    _, b = run_cli(capsys, "reproduce-paper", "--seed", "7", "--samples", "5000")
    rows_a = [l for l in a.splitlines() if not l.startswith("#")]
    rows_b = [l for l in b.splitlines() if not l.startswith("#")]
    assert rows_a == rows_b


def test_reproduce_paper_override_negative_control(tmp_path, capsys):
    tampered = qcore.noisy_z_povm(0.9, 0.8)
    path = tmp_path / "tampered.json"
    io.save_measurement(tampered, path)
    code, out = run_cli(
        capsys, "reproduce-paper", "--samples", "5000", "--override", str(path)
    )
    assert code == 1
    assert "FAIL" in out


@pytest.mark.parametrize("override, status", [(None, "PASS"),
                                              ("noisy-z:0.9,0.8", "FAIL")])
def test_lambda_max_rows_read_the_protocols_own_q0(capsys, override, status):
    argv = ["reproduce-paper", "--samples", "2000"]
    argv += ["--override", override] if override else []
    _, doc = json_rows(capsys, *argv)
    rows = {r["name"]: r for r in doc["rows"]}
    povm = io.load_povm(override) if override else qcore.trine_povm()
    for n in range(1, 7):
        protocol = vnsynth.trine_optimal_protocol(n, povm).protocol
        q0 = protocol.coarse[0]
        if protocol.basis is None:
            lam_max = qcore.hermitian_eig(q0)[0][0]
        else:
            lam_max = q0.max()
        row = rows[f"lambda_max_n={n}"]
        assert row["value"] == pytest.approx(lam_max, abs=1e-14)
        assert row["status"] == status
    if override:
        # the no-zero partition of noisy-z:0.9,0.8: Q_0 = I - M_1^(x N)
        for n in range(1, 7):
            assert rows[f"lambda_max_n={n}"]["value"] == pytest.approx(
                1.0 - 0.1**n, abs=1e-14)


@pytest.mark.parametrize("override, status", [(None, "PASS"),
                                              ("noisy-z:0.9,0.8", "FAIL")])
def test_optimum_rows_solve_the_protocols_own_box(capsys, override, status):
    argv = ["reproduce-paper", "--samples", "2000"]
    argv += ["--override", override] if override else []
    _, doc = json_rows(capsys, *argv)
    rows = {r["name"]: r for r in doc["rows"]}
    povm = io.load_povm(override) if override else qcore.trine_povm()
    for n in range(1, 7):
        protocol = vnsynth.trine_optimal_protocol(n, povm).protocol
        q0 = protocol.coarse[0]
        w = qcore.hermitian_eig(q0)[0] if protocol.basis is None else q0
        sol = vnsynth.solve_box_quadratic_qubit(
            *(min(max(float(v), 0.0), 1.0) for v in (w.min(), w.max())))
        expected = {f"optimal_error_n={n}": sol.epsilon}
        if n == 2:
            expected.update(two_use_optimal_error=sol.epsilon,
                            two_use_x_star=sol.x_star, two_use_y_star=sol.y_star)
        for name, value in expected.items():
            assert rows[name]["value"] == pytest.approx(value, abs=1e-14)
            assert rows[name]["status"] == status


def test_reproduce_paper_override_reaches_the_n_use_protocols(tmp_path, capsys):
    # the implemented elements come from the override's own protocols and
    # states: on noisy-z they miss the trine's, and on the trine turned by
    # a real rotation, which keeps every error, they meet them, while its
    # cloning and outcome-table rows still fail
    t = 0.3
    u = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
    rotated = str(tmp_path / "rotated.json")
    elements = tuple(u @ e @ u.T for e in qcore.trine_povm().elements)
    io.save_measurement(qcore.Povm(elements), rotated)
    for override, expected in (("noisy-z:0.9,0.8", "FAIL"), (rotated, "PASS")):
        code, doc = json_rows(
            capsys, "reproduce-paper", "--samples", "2000", "--override", override
        )
        assert code == 1
        status = {r["name"]: r["status"] for r in doc["rows"]}
        for name in [f"implemented_element_deviation_n={n}" for n in range(1, 7)] + [
            "single_use_element_deviation"
        ]:
            assert status[name] == expected, (override, name)
    assert [r["name"] for r in doc["rows"] if r["status"] == "FAIL"] == [
        "two_use_cloning_error", "two_use_cloning_error_mc",
        "cloning_table_deviation", "two_use_joint_distribution_deviation"]


@pytest.mark.parametrize("override", [None, "noisy-z:0.9,0.8"])
def test_two_use_q0_rows_are_the_no_zero_partitions_eigenvalues(capsys, override):
    argv = ["reproduce-paper", "--samples", "2000"]
    argv += ["--override", override] if override else []
    _, doc = json_rows(capsys, *argv)
    values = {r["name"]: r["value"] for r in doc["rows"]}
    rows = [values[f"two_use_Q0_eigenvalue[{i}]"] for i in range(4)]
    # the spectrum of the coarse element the N = 2 protocol holds, a
    # vector for the commuting noisy-Z elements
    povm = io.load_povm(override) if override else qcore.trine_povm()
    q0 = vnsynth.trine_optimal_protocol(2, povm).protocol.coarse[0]
    assert q0.ndim == (1 if override else 2)
    evals = np.sort(q0 if q0.ndim == 1 else np.linalg.eigvalsh(q0))[::-1]
    assert np.array_equal(np.array(rows).view(np.uint64), evals.view(np.uint64))
    # which is the sum of the string tensors with a zero
    strings = itertools.product(range(povm.outcomes), repeat=2)
    bits = [0 if 0 in s else 1 for s in strings]
    ref, _ = qcore.hermitian_eig(partition_povm_from_list(povm, 2, bits)[0])
    assert np.abs(evals - ref).max() <= 1e-15


def test_a_wrong_corner_box_minimiser_fails_a_noisy_z_optimum_row(capsys, monkeypatch):
    # the corner (lo, hi) returned wherever the minimiser is (hi, lo): no
    # trine row lands on that corner, so only the noisy-Z points show it
    right = vnsynth._box_minimiser

    def wrong_corner(lo, hi):
        x, y, value = right(lo, hi)
        if (x, y) == (hi, lo):
            x, y = lo, hi
            value = ((1.0 - x - y) ** 2 + (1.0 - x) * y) / 3.0
        return x, y, value

    monkeypatch.setattr(vnsynth, "_box_minimiser", wrong_corner)
    code, doc = json_rows(capsys, "reproduce-paper", "--samples", "2000")
    assert code == 1
    failed = [r["name"] for r in doc["rows"] if r["status"] == "FAIL"]
    assert "noisy_z_optimum_p=0.7_q=0.7" in failed


REPORT_RUNS = [
    ("validate", "trine"), ("synth", "trine"), ("rms", "trine", "--samples", "2000"),
    ("postmeas", "trine"), ("clone", "trine"), ("capacity", "trine"),
    ("block", "trine", "--trials", "2000"), ("reproduce-paper", "--samples", "2000"),
    ("reproduce-paper", "--samples", "2000", "--override", "noisy-z:0.9,0.8"),
]


@pytest.mark.parametrize("argv", REPORT_RUNS, ids=" ".join)
def test_every_row_of_a_report_has_its_own_name(capsys, argv):
    # the CSV that --out writes is keyed by name
    _, doc = json_rows(capsys, *argv)
    names = [r["name"] for r in doc["rows"]]
    assert names and len(set(names)) == len(names)


def test_the_row_name_runs_cover_every_command():
    assert {argv[0] for argv in REPORT_RUNS} == set(cli.COMMANDS)


def test_cli_runs_without_scipy():
    src = Path(cli.__file__).resolve().parents[1]
    script = (
        "import sys\n"
        "import measrep.cli\n"
        "assert measrep.cli.main(['clone', 'trine', '--max-n', '6']) == 0\n"
        "assert measrep.cli.main(['block', 'trine', '--k', '1']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)},
                          check=True)
    assert proc.stdout.splitlines()[-1] == "[]"


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2
    assert "no-such-command" in capsys.readouterr().err


def json_rows(capsys, *argv):
    code, out = run_cli(capsys, *argv, "--json")
    return code, json.loads(out.splitlines()[-1])


@pytest.mark.parametrize("before, before_code, argv", [
    (("synth", "trine", "--tol", "1e-3"), 2, ("synth", "trine", "--n", "1")),
    (("synth", "trine", "--n", "3"), 0, ("synth", "trine")),
])
def test_main_calls_in_one_process_share_no_state(capsys, before, before_code, argv):
    def rows():
        code, report = json_rows(capsys, *argv)
        return code, [(r["name"], r["value"]) for r in report["rows"]]

    cli._build_parser.cache_clear()
    first = rows()
    try:
        code = cli.main(list(before))
    except SystemExit as exc:  # argparse rejects an option
        code = exc.code
    assert code == before_code
    capsys.readouterr()
    assert rows() == first


REPRODUCE_PAPER_ROWS = [
    "two_use_cloning_error", "two_use_cloning_error_mc", "two_use_optimal_error",
    "two_use_x_star", "two_use_y_star",
    *(f"two_use_Q0_eigenvalue[{i}]" for i in range(4)),
    *(f"{row}_n={n}" for n in range(1, 7)
      for row in ("optimal_error", "lambda_max", "implemented_element_deviation")),
    "single_use_element_deviation", "single_use_naive_error",
    "noisy_z_optimum_p=0.95_q=0.6", "noisy_z_optimum_p=0.6_q=0.95",
    "noisy_z_optimum_p=0.7_q=0.7", "noisy_z_optimum_p=0.8_q=0.6",
    "noisy_z_gamma", "noisy_z_error", "cloning_table_deviation",
    "two_use_joint_distribution_deviation",
]


def test_reproduce_paper_row_contract(capsys):
    # the benchmark's checks rely on these 37 names, in this order
    code, doc = json_rows(capsys, "reproduce-paper")
    assert code == 0
    assert [r["name"] for r in doc["rows"]] == REPRODUCE_PAPER_ROWS
    assert all(r["status"] == "PASS" for r in doc["rows"])


@pytest.mark.parametrize("noise, value, status", [
    (0.0, 0.0, "PASS"),
    # (0.9 * 2/3 + 0.1/3)^2 - 4/9 = -13/300 at the |00><00| entry of M_0 x M_0
    (0.1, 13 / 300, "FAIL"),
])
def test_reproduce_paper_joint_row_is_exact(tmp_path, capsys, noise, value, status):
    # the row reads no random states: each M_a x M_b on span{|00>, |11>}
    # against its closed form
    noisy = qcore.Povm(tuple((1 - noise) * e + noise / 3 * np.eye(2)
                             for e in qcore.trine_povm().elements))
    io.save_measurement(noisy, tmp_path / "trine.json")
    _, doc = json_rows(capsys, "reproduce-paper", "--samples", "2000",
                       "--override", str(tmp_path / "trine.json"))
    row = doc["rows"][-1]
    assert row["name"] == "two_use_joint_distribution_deviation"
    assert row["value"] == pytest.approx(value, abs=1e-15)
    assert row["status"] == status


def test_reproduce_paper_override_four_outcomes(tmp_path, capsys):
    plus = np.full((2, 2), 0.5)
    minus = np.array([[0.5, -0.5], [-0.5, 0.5]])
    four = qcore.Povm((np.diag([0.5, 0.0]), np.diag([0.0, 0.5]), plus / 2, minus / 2))
    path = tmp_path / "four.json"
    io.save_measurement(four, path)
    code, doc = json_rows(
        capsys, "reproduce-paper", "--samples", "2000", "--override", str(path)
    )
    assert code == 1
    status = {r["name"]: r["status"] for r in doc["rows"]}
    assert len(status) == len(set(REPRODUCE_PAPER_ROWS))
    assert status["cloning_table_deviation"] == "FAIL"
    assert status["two_use_joint_distribution_deviation"] == "FAIL"


@pytest.mark.parametrize("override, dim", [
    ("vn:3", 3), ("degenerate-qutrit", 3), ("vn:1", 1), ("qutrit-instrument", 3),
])
def test_reproduce_paper_override_must_be_a_qubit(tmp_path, capsys, override, dim):
    if override == "qutrit-instrument":
        override = str(tmp_path / "inst.json")
        io.save_measurement(
            qcore.lueders_instrument(qcore.degenerate_qutrit_povm()), override
        )
    code = cli.main(["reproduce-paper", "--samples", "2000", "--override", override])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert override in captured.err
    assert f"dimension {dim}" in captured.err


@pytest.mark.parametrize("argv", [
    ("validate",),
    ("synth", "--n", "1"),
    ("rms", "--n", "1", "--samples", "10"),
    ("postmeas",),
    ("clone", "--max-n", "1"),
    ("capacity",),
    ("block", "--trials", "10"),
    ("reproduce-paper", "--samples", "10", "--override"),
])
def test_a_hermiticity_defect_over_the_tolerance_fails_at_load(tmp_path, capsys,
                                                                argv):
    # qcore.HERMITICITY_RTOL is 1e-10 and the elements have norm < 1
    path = hermiticity_defect_povm_file(tmp_path / "over.json", 1.3e-10)
    code = cli.main([*argv, str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert ("element 0: not Hermitian (defect 1.300e-10)"
            in captured.out + captured.err)


@pytest.mark.parametrize("argv", [
    ("validate",),
    ("postmeas",),
    ("synth", "--n", "1"),
    ("synth", "--n", "2"),
    ("synth", "--n", "3"),
    ("rms", "--n", "2", "--samples", "100"),
])
def test_a_hermiticity_defect_under_the_tolerance_passes(tmp_path, capsys, argv):
    # element 0's defect 8.5e-11 passes validate; the protocol is summed
    # from the symmetrised elements the search scored, so no later
    # eigensolve rejects it
    path = hermiticity_defect_povm_file(tmp_path / "under.json", 8.5e-11)
    code, doc = json_rows(capsys, argv[0], str(path), *argv[1:])
    assert code == 0
    assert "FAIL" not in {r["status"] for r in doc["rows"]}
    rows = {r["name"]: r["value"] for r in doc["rows"]}
    if argv[0] in ("synth", "rms"):
        eps = rows["epsilon"] if argv[0] == "synth" else rows["epsilon_closed_form"]
        assert abs(rows["epsilon_implemented"] - eps) <= 1e-9


def test_rms_monte_carlo_reads_its_own_substream(tmp_path, capsys):
    # 16 outcome strings: the search hill-climbs from substream 0
    povm = random_povm(2, 4, qcore.Rng(3))
    path = tmp_path / "m4.json"
    io.save_measurement(povm, path)
    _, out = json_rows(capsys, "rms", str(path), "--n", "2", "--samples", "500",
                       "--seed", "5")
    syn = vnsynth.synthesize(io.load_povm(str(path)), 2, qcore.Rng(5))
    est = rms.rms_monte_carlo_povm(
        vnsynth.implemented_povm(syn.prep, syn.protocol),
        qcore.von_neumann_povm(2), 500, qcore.Rng(5, 1),
    )
    rows = {r["name"]: r["value"] for r in out["rows"]}
    assert rows["epsilon_monte_carlo"] == est.value


def test_rms_agrees_with_synth(tmp_path, capsys):
    # 9 outcome strings: hill climbing alone ends above the optimum here
    path = tmp_path / "m3.json"
    io.save_measurement(random_povm(2, 3, qcore.Rng(2)), path)
    _, synth = json_rows(capsys, "synth", str(path), "--n", "2")
    _, est = json_rows(capsys, "rms", str(path), "--n", "2", "--samples", "2000")
    synth_rows = {r["name"]: r["value"] for r in synth["rows"]}
    rms_rows = {r["name"]: r["value"] for r in est["rows"]}
    assert rms_rows["epsilon_closed_form"] == synth_rows["epsilon"]
    assert rms_rows["epsilon_implemented"] == synth_rows["epsilon_implemented"]
    # both searched all 2^8 partitions of the 9 strings
    assert rms_rows["partitions_evaluated"] == synth_rows["partitions_evaluated"] == 256


@pytest.mark.parametrize("argv", [
    ("synth", "--n", "2"),
    ("rms", "--n", "2", "--samples", "2000"),
    ("clone", "--max-n", "3"),
])
def test_instrument_file_reads_as_its_induced_povm(tmp_path, capsys, argv):
    path = tmp_path / "inst.json"
    io.save_measurement(qcore.lueders_instrument(qcore.trine_povm()), path)
    code, trine = json_rows(capsys, argv[0], "trine", *argv[1:])
    assert code == 0
    code, inst = json_rows(capsys, argv[0], str(path), *argv[1:])
    assert code == 0
    # the induced POVM sqrt(E)^2 matches the trine up to rounding
    assert [r["name"] for r in inst["rows"]] == [r["name"] for r in trine["rows"]]
    for a, b in zip(inst["rows"], trine["rows"]):
        assert a["value"] == pytest.approx(b["value"], abs=1e-12)


@pytest.mark.parametrize("argv", [
    ("validate", "trine", "--samples", "5"),
    ("synth", "trine", "--tol", "1e-3"),
    ("rms", "trine", "--max-n", "3"),
    ("postmeas", "trine", "--max-n", "3"),
    ("clone", "trine", "--samples", "5"),
    ("capacity", "trine", "--samples", "5"),
    ("block", "trine", "--tol", "1e-3"),
    ("reproduce-paper", "--max-n", "3"),
    ("postmeas", "trine", "--samples", "5"),
    ("postmeas", "trine", "--tol", "0"),
])
def test_subcommand_rejects_unread_option(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2
    assert argv[-2] in capsys.readouterr().err


def test_digest_covers_the_content_of_an_input_file(tmp_path, capsys):
    # trine and noisy-z:0.9,0.8, saved in turn at one path, once shared
    # the digest 19f5086e5df770b2
    path = str(tmp_path / "measurement.json")
    digests = []
    for povm in (qcore.trine_povm(), qcore.noisy_z_povm(0.9, 0.8)):
        io.save_measurement(povm, path)
        digests.append(json_rows(capsys, "validate", path)[1]["inputs_digest"])
    assert digests[0] != digests[1]


def test_digest_hashes_a_file_by_its_content_not_its_path(tmp_path, capsys):
    # byte-identical trine files at a/m.json and b/m.json once got the
    # validate digests 36735272a35536a8 and 3cc92d1cb34f6478
    paths = [tmp_path / folder / "m.json" for folder in ("a", "b", "c")]
    for path in paths:
        path.parent.mkdir()
        io.save_measurement(qcore.trine_povm(), path)
    text = paths[2].read_text(encoding="utf-8")
    paths[2].write_text(text.replace("\n", " ", 1), encoding="utf-8")  # one byte

    def digest(path, n_uses):
        code, doc = json_rows(capsys, "synth", str(path), "--n", n_uses)
        assert code == 0
        return doc["inputs_digest"]

    assert digest(paths[0], "1") == digest(paths[1], "1")
    assert len({digest(paths[0], "1"), digest(paths[2], "1"), digest(paths[0], "2")}) == 3


def test_clone_repairs_a_later_colliding_pair(tmp_path, capsys):
    # this qutrit once exited 1 with a TrivialMeasurement
    m = np.array([[0.5, 0.0, 0.3], [0.0, 0.5, 0.0], [0.3, 0.0, 0.5]])
    path = tmp_path / "qutrit.json"
    io.save_measurement(qcore.Povm((m, np.eye(3) - m)), path)
    code, doc = json_rows(capsys, "clone", str(path), "--max-n", "2")
    assert code == 0
    rows = {row["name"]: row["value"] for row in doc["rows"]}
    table = [[rows[f"P(a={a}|i={i})"] for a in range(2)] for i in range(3)]
    assert np.allclose(table, [[0.8, 0.2], [0.5, 0.5], [0.2, 0.8]], atol=1e-12)


@pytest.mark.parametrize("name", ["trine", "noisy-z:0.9,0.8", "vn:2"])
def test_a_file_that_shadows_a_built_in_name_leaves_the_digest(
        tmp_path, monkeypatch, capsys, name):
    # the built-in is read, not the file; with a file named trine the
    # digest once read 2e28602c6aa7cc3c against f3be8270fb83fe9d
    monkeypatch.chdir(tmp_path)
    before = json_rows(capsys, "validate", name)
    io.save_measurement(qcore.degenerate_qutrit_povm(), name)
    after = json_rows(capsys, "validate", name)
    assert before[0] == after[0] == 0
    assert after[1]["inputs_digest"] == before[1]["inputs_digest"]
    assert after[1]["rows"] == before[1]["rows"]


@pytest.mark.parametrize("name", ["missing.json", "bad\0name"], ids=["missing", "nul"])
def test_a_path_the_digest_cannot_read_is_still_a_usage_error(capsys, name):
    assert cli.main(["validate", name]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"measrep: usage error: no such file or built-in: {name!r}\n"


def test_readme_options_table_lists_the_flags_each_command_reads():
    # PAPER.md repeats README's table
    actual = {name: {cli.OPTIONS[dest][0] for dest in inputs
                     if cli.OPTIONS[dest][0].startswith("--")}
              for name, (_, _, inputs) in cli.COMMANDS.items()}
    for doc in ("README.md", "PAPER.md"):
        text = (Path(__file__).resolve().parent.parent / doc).read_text(encoding="utf-8")
        table = text[text.index("| command | options |"):].split("\n\n")[0]
        documented = {}
        for line in table.splitlines()[2:]:
            command, options = line.strip("|").split("|")
            flags = re.findall(r"`(--[a-z-]+)", options)
            documented[command.strip().strip("`")] = set(flags)
        assert documented == actual, doc


@pytest.mark.parametrize("command", ["validate", "synth"])
def test_a_directory_is_a_malformed_file(tmp_path, capsys, command):
    # reading a directory once ended in an IsADirectoryError traceback
    assert cli.main([command, str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {tmp_path}: cannot be read (")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("argv, option, values", [
    (("capacity", "trine"), "--tol", ("1e-6", "1e-9")),
    (("reproduce-paper",), "--samples", ("2000", "3000")),
])
def test_digest_covers_every_read_option(capsys, argv, option, values):
    digests = {json_rows(capsys, *argv, option, v)[1]["inputs_digest"] for v in values}
    assert len(digests) == 2


# two valid values of every input, each quick on trine. The positional
# measurement keeps one: postmeas prints (0.0, PASS) twice on every input
INPUT_VALUES = {
    "measurement": ("trine",),
    "n_uses": ("1", "2"),
    "samples": ("200", "300"),
    "tol": ("1e-3", "1e-9"),
    "max_n": ("1", "2"),
    "k": ("1", "2"),
    "copies": ("1", "2"),
    "trials": ("200", "300"),
    "override": ("trine", "noisy-z:0.9,0.8"),
}
READ_OPTIONS = [(command, dest) for command, (_, _, inputs) in cli.COMMANDS.items()
                for dest in inputs if cli.OPTIONS[dest][0].startswith("--")]


def test_every_input_has_its_values():
    assert INPUT_VALUES.keys() == cli.OPTIONS.keys()


@pytest.mark.parametrize("command, dest", READ_OPTIONS,
                         ids=[f"{c} {cli.OPTIONS[d][0]}" for c, d in READ_OPTIONS])
def test_every_option_a_command_reads_changes_its_rows(capsys, command, dest):
    # postmeas once read --tol, and printed the same rows at every value
    def rows(i):
        argv = [command]
        for d in cli.COMMANDS[command][2]:
            flag = cli.OPTIONS[d][0]
            value = INPUT_VALUES[d][i if d == dest else 0]
            argv += [flag, value] if flag.startswith("--") else [value]
        code, doc = json_rows(capsys, *argv)
        assert code in (0, 1)
        return doc["rows"]

    assert rows(0) != rows(1)


# values at and past each bound, a non-number, and no mid-size count:
# capacity --tol 1e-300 and --max-n or --trials near 10^4 run long
# without reaching a cap
BOUNDARY_VALUES = ("-1", "0", "1", "2", str(10**18), "nan", "inf", "x")
BUILT_INS = ("trine", "noisy-z:0.9,0.8", "vn:1", "vn:3", "degenerate-qutrit")


@pytest.fixture(scope="module")
def saved_instrument(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("saved") / "instrument.json")
    io.save_measurement(random_instrument(2, 2, 3, 1, qcore.Rng(4)), path)
    return path


@st.composite
def command_lines(draw, saved):
    """argv for one command: each input it reads at a valid value or its
    default, then at most one value swapped for a boundary value, or an
    option that only another command reads."""
    command = draw(st.sampled_from(sorted(cli.COMMANDS)))
    inputs = cli.COMMANDS[command][2]
    argv = [command]
    for dest in inputs + ("seed",):
        if dest == "seed":
            flag, values = "--seed", ("0", "7")
        else:
            flag = cli.OPTIONS[dest][0]
            values = ((*BUILT_INS, saved) if dest in ("measurement", "override")
                      else INPUT_VALUES[dest])
        value = draw(st.sampled_from(values))
        if not flag.startswith("--"):
            argv.append(value)
        elif draw(st.booleans()):  # else its default
            argv += [flag, value]
    positions = [i for i, arg in enumerate(argv) if i and not arg.startswith("--")]
    unread = sorted(cli.OPTIONS[d][0] for d in cli.OPTIONS.keys() - set(inputs)
                    if cli.OPTIONS[d][0].startswith("--"))
    change = draw(st.sampled_from(("none", "boundary", "unread")))
    if change == "boundary" and positions:
        argv[draw(st.sampled_from(positions))] = draw(st.sampled_from(BOUNDARY_VALUES))
    elif change == "unread":
        argv += [draw(st.sampled_from(unread)), "1"]
    if draw(st.booleans()):
        argv.append("--json")
    return argv


def assert_ends_in_an_exit_code(argv):
    """Run ``cli.main(argv)``: it returns 0 or 1 or exits 2, and nothing else
    escapes; stderr holds no warning and at most one ``error:`` line; and
    no PASS row is non-finite."""
    out, err = StringIO(), StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            assert exc.code == 2
            code = 2
    assert code in (0, 1, 2)
    assert caught == [] and "Warning" not in err.getvalue()
    assert sum("error:" in line for line in err.getvalue().splitlines()) <= 1
    for line in out.getvalue().splitlines():
        if line.endswith("  PASS"):
            assert math.isfinite(float(line.split()[1])), line


@settings(max_examples=200)
@given(data=st.data())
def test_generated_command_lines_end_in_an_exit_code(saved_instrument, data):
    assert_ends_in_an_exit_code(data.draw(command_lines(saved_instrument)))


# the file reader's half: a valid POVM or instrument document, left as it
# is about half the time, else with one mutation from a fixed menu
SPECIAL_ENTRIES = (math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324)
BAD_PAIRS = ([1.0], [1.0, 0.0, 0.0], "1", [True, 0.0], [[0.0, 0.0], 0.0], None)
MUTATIONS = ("entry", "non-hermitian", "completeness", "dim", "kind", "pair",
             "doubled")
# every command but reproduce-paper reads a measurement; small options each
SECOND_COMMANDS = (("synth", "--n", "1"), ("rms", "--n", "1", "--samples", "200"),
                   ("postmeas",), ("clone", "--max-n", "2"),
                   ("capacity", "--tol", "1e-3"), ("block", "--trials", "200"))


@st.composite
def measurement_documents(draw):
    """A random POVM (d <= 3, m <= 4) or instrument (d_in, d_out <= 2,
    m <= 3, one or two Kraus operators an outcome) as a file document, then
    none or one of ``MUTATIONS``."""
    rng = qcore.Rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        povm = random_povm(draw(st.integers(1, 3)), draw(st.integers(1, 4)), rng)
        doc = {"kind": "povm", "dim": povm.dim, "outcomes": povm.outcomes,
               "elements": [io._matrix_to_json(e) for e in povm.elements]}
        matrices = doc["elements"]
    else:
        inst = random_instrument(draw(st.integers(1, 2)), draw(st.integers(1, 2)),
                                 draw(st.integers(1, 3)), draw(st.integers(1, 2)), rng)
        doc = {"kind": "instrument", "dim": inst.dim_in, "outcomes": inst.outcomes,
               "elements": [[io._matrix_to_json(k) for k in group]
                            for group in inst.kraus]}
        matrices = [k for group in doc["elements"] for k in group]
    mutation = draw(st.just("none") | st.sampled_from(MUTATIONS))
    matrix = draw(st.sampled_from(matrices))
    row = draw(st.sampled_from(matrix))
    col = draw(st.integers(0, len(row) - 1))
    if mutation == "entry":
        row[col][draw(st.integers(0, 1))] = draw(st.sampled_from(SPECIAL_ENTRIES))
    elif mutation == "non-hermitian":  # one entry moved, its mirror not
        row[col][1] += 0.25
    elif mutation == "completeness":
        matrix[:] = [[[0.5 * re, 0.5 * im] for re, im in r] for r in matrix]
    elif mutation == "dim":
        doc["dim"] = draw(st.sampled_from((doc["dim"] + 1, doc["dim"] - 1, "2", 2.0)))
    elif mutation == "kind":
        doc["kind"] = {"povm": "instrument", "instrument": "povm"}[doc["kind"]]
    elif mutation == "pair":
        row[col] = draw(st.sampled_from(BAD_PAIRS))
    elif mutation == "doubled":
        doc["elements"].append(doc["elements"][0])
        doc["outcomes"] += draw(st.integers(0, 1))  # the header kept, or counting it
    return doc


@settings(max_examples=150)
@given(doc=measurement_documents(), second=st.sampled_from(SECOND_COMMANDS))
# an entry near 1e308 once overflowed inside validation, with three numpy
# RuntimeWarnings
@example(doc={"kind": "povm", "dim": 1, "outcomes": 1, "elements": [[[[1e308, 0.0]]]]},
         second=("rms", "--n", "1", "--samples", "200"))
def test_generated_measurement_files_end_in_an_exit_code(tmp_path_factory, doc, second):
    path = str(tmp_path_factory.getbasetemp() / "generated.json")
    Path(path).write_text(json.dumps(doc), encoding="utf-8")  # NaN and inf as literals
    assert_ends_in_an_exit_code(["validate", path])
    assert_ends_in_an_exit_code([second[0], path, *second[1:]])
