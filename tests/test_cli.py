import json

import numpy as np
import pytest

from measrep import cli, io, qcore
from oracles import nan_povm_file


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
    code, _ = run_cli(capsys, "validate", str(nan_povm_file(tmp_path / "nan.json")))
    assert code == 1


def test_synth_invalid_builtin_fails_validation(capsys):
    code = cli.main(["synth", "noisy-z:1.5,0.2", "--n", "1"])
    err = capsys.readouterr().err
    assert code == 1
    assert "negative eigenvalue" in err


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


def test_postmeas_command(capsys):
    code, out = run_cli(capsys, "postmeas", "trine", "--samples", "20")
    assert code == 0
    assert "PASS" in out


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


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2
