import itertools
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from measrep import cli, io, qcore, rms, vnsynth
from oracles import (
    nan_povm_file,
    partition_povm_from_list,
    postmeas_deviations_per_state,
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
# (d_in, d_out, outcomes, Kraus operators per outcome)
@pytest.mark.parametrize("measurement, samples", [
    ("trine", 200), ("vn:3", 30), ("degenerate-qutrit", 1000),
    ((3, 2, 3, 2), 200), ((2, 3, 2, 1), 7),
])
def test_postmeas_matches_the_per_state_loop(tmp_path, capsys, measurement, samples):
    if isinstance(measurement, str):
        arg, inst = measurement, qcore.lueders_instrument(io.load_povm(measurement))
    else:
        inst = random_instrument(*measurement, qcore.Rng(8))
        arg = str(tmp_path / "inst.json")
        io.save_measurement(inst, arg)
    code, out = json_rows(capsys, "postmeas", arg, "--samples", str(samples),
                          "--seed", "3")
    assert code == 0
    rows = {r["name"]: r["value"] for r in out["rows"]}
    worst_p, worst_s = postmeas_deviations_per_state(inst, samples, 3)
    assert abs(rows["max_probability_deviation"] - worst_p) <= 1e-12
    assert abs(rows["max_poststate_deviation"] - worst_s) <= 1e-12


def test_postmeas_command(capsys):
    code, out = run_cli(capsys, "postmeas", "trine", "--samples", "20")
    assert code == 0
    assert "PASS" in out


@pytest.mark.parametrize("argv, message", [
    (("block", "trine", "--trials", "0"), "0 < 1 trials"),
    (("block", "trine", "--trials", "-5"), "-5 < 1 trials"),
    (("postmeas", "trine", "--samples", "0"), "0 < 1 samples"),
    (("postmeas", "trine", "--samples", "-3"), "-3 < 1 samples"),
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
    # 3^9 dense 512 x 512 string tensors would take 82 GB
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
        "error: search terms of 3^9 strings would take 82556485632 bytes, "
        "over the budget of 1073741824\n")
    assert peak < 2**20


@pytest.mark.parametrize("n_uses, fails_on", [
    ("2", 3),  # exhaustive: the stack of partitions
    ("3", 3),  # hill climb: a start's Q_0, as a stack of one
    ("3", 2),  # hill climb: one neighbour
])
@pytest.mark.filterwarnings("error")
def test_eigensolver_failure_is_a_typed_error(monkeypatch, capsys, n_uses, fails_on):
    # LAPACK reports a failed eigensolve as NaN eigenvalues; the real
    # gufunc, here on NaN input, also flags an invalid value, which numpy
    # would print as a RuntimeWarning (here: raise) before the error
    solve = vnsynth._eigvalsh
    for fail in (lambda a, **kw: np.full(a.shape[:-1], np.nan),
                 lambda a, **kw: solve(np.full_like(a, np.nan), **kw)):
        monkeypatch.setattr(vnsynth, "_eigvalsh", lambda a, **kw: (
            fail(a, **kw) if a.ndim == fails_on else solve(a, **kw)))
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


def test_reproduce_paper_override_reaches_the_n_use_protocols(capsys):
    # the implemented elements come from the override's own protocols
    code, doc = json_rows(
        capsys, "reproduce-paper", "--samples", "2000", "--override", "noisy-z:0.9,0.8"
    )
    assert code == 1
    status = {r["name"]: r["status"] for r in doc["rows"]}
    for name in [f"implemented_element_deviation_n={n}" for n in range(1, 7)] + [
        "single_use_element_deviation"
    ]:
        assert status[name] == "FAIL", name


@pytest.mark.parametrize("override", [None, "noisy-z:0.9,0.8"])
def test_two_use_q0_rows_are_the_no_zero_partitions_eigenvalues(capsys, override):
    argv = ["reproduce-paper", "--samples", "2000"]
    argv += ["--override", override] if override else []
    _, doc = json_rows(capsys, *argv)
    rows = [r["value"] for r in doc["rows"]
            if r["name"].startswith("two_use_Q0_eigenvalue_")]
    povm = io.load_povm(override) if override else qcore.trine_povm()
    strings = itertools.product(range(povm.outcomes), repeat=2)
    bits = [0 if 0 in s else 1 for s in strings]
    q0 = partition_povm_from_list(povm, 2, bits)[0]
    evals, _ = qcore.hermitian_eig(q0)
    assert len(rows) == 4
    assert np.array_equal(np.array(rows).view(np.uint64), evals.view(np.uint64))


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
    "two_use_Q0_eigenvalue_0.888888888889", "two_use_Q0_eigenvalue_0.666666666667",
    "two_use_Q0_eigenvalue_0.666666666667", "two_use_Q0_eigenvalue_0",
    *(f"{row}_n={n}" for n in range(1, 7)
      for row in ("optimal_error", "lambda_max", "implemented_element_deviation")),
    "single_use_element_deviation", "single_use_naive_error",
    "noisy_z_region_p=0.95_q=0.6", "noisy_z_region_p=0.6_q=0.95",
    "noisy_z_region_p=0.7_q=0.7", "noisy_z_region_p=0.8_q=0.6",
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
])
def test_subcommand_rejects_unread_option(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2
    assert argv[-2] in capsys.readouterr().err


@pytest.mark.parametrize("argv, option, values", [
    (("postmeas", "trine", "--samples", "5"), "--tol", ("1e-6", "1e-9")),
    (("reproduce-paper",), "--samples", ("2000", "3000")),
])
def test_digest_covers_every_read_option(capsys, argv, option, values):
    digests = {json_rows(capsys, *argv, option, v)[1]["inputs_digest"] for v in values}
    assert len(digests) == 2

