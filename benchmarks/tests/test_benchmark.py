"""The benchmark's own tests: contract, checks, negative controls, smoke runs.

Run with ``python -m pytest benchmarks/tests``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

measrep = run._import_measrep()


def _job(tmp_path, workload, label, seed=5):
    jobs = workloads.build_jobs(workload, seed, tmp_path, {label: 1})
    workloads.write_inputs(jobs, tmp_path)
    return jobs[0]


def _run(job):
    return run.run_job(measrep, job.kind, job.argv, job.params)[2]


def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(tracing.PER_LAYER)


def test_same_seed_same_inputs(tmp_path):
    a = workloads.build_jobs("estimate-code", 9, tmp_path, workloads.TINY["estimate-code"])
    b = workloads.build_jobs("estimate-code", 9, tmp_path, workloads.TINY["estimate-code"])
    assert [j.argv for j in a] == [j.argv for j in b]
    for x, y in zip(a, b):
        if x.povm is not None:
            assert all(np.array_equal(e, f) for e, f in zip(x.povm.elements,
                                                            y.povm.elements))


def test_generated_povms_are_valid():
    rng = np.random.default_rng(0)
    for d, ranks in ((2, [1, 1]), (2, [2, 1, 1, 2]), (3, [1, 2]), (4, [4, 1])):
        povm = workloads.random_povm(rng, d, ranks)
        assert measrep.qcore.validate_povm(povm).ok


def test_no_zero_epsilon_matches_the_partition_it_names():
    povm = measrep.qcore.trine_povm()
    for n in (1, 2, 3):
        assert abs(workloads.no_zero_epsilon(povm, n) - 3.0**-n / 2) < 1e-14


def test_synth_check_rejects_a_perturbed_epsilon(tmp_path):
    job = _job(tmp_path, "synth-strings", "synth trine N=3")
    outcome = _run(job)
    assert checks.check_job(job, outcome) is None
    doc = json.loads(outcome["stdout"].strip().splitlines()[-1])
    for row in doc["rows"]:
        if row["name"] == "epsilon":
            row["value"] += 1e-6
    outcome["stdout"] = json.dumps(doc)
    assert checks.check_job(job, outcome) is not None
    assert run.judge([job], [[outcome]])[0].startswith("fail")


def test_tampered_override_counts_as_a_failure(tmp_path):
    trine = measrep.qcore.trine_povm()
    noisy = measrep.qcore.Povm(tuple(0.9 * e + 0.1 / 3 * np.eye(2) for e in trine.elements))
    path = tmp_path / "tampered.json"
    measrep.io.save_measurement(noisy, path)
    job = workloads.Job(index=0, label="reproduce-paper", kind="reproduce", params={},
                        argv=("reproduce-paper", "--override", str(path), "--json"))
    outcome = _run(job)
    assert outcome["rc"] == 1
    assert run.judge([job], [[outcome]])[0].startswith("fail")


def test_random_code_matches_the_reference_and_catches_a_change(tmp_path):
    job = _job(tmp_path, "estimate-code", "random-code k=6 n=32 trials=5000")
    outcome = _run(job)
    assert checks.check_job(job, outcome) is None
    code, result = outcome["result"]
    dist = result.decoded_distribution.copy()
    dist[0], dist[1] = dist[0] + 1.0 / 5000, dist[1] - 1.0 / 5000
    changed = type(result)(result.error_rate, result.standard_error, result.trials, dist)
    assert checks.check_job(job, {"result": (code, changed)}) is not None


def test_only_the_named_synth_defect_is_excused():
    job = workloads.Job(index=0, label="synth", kind="synth", params={})
    ulp = {"rc": 1, "stdout": "", "stderr": checks.SYNTH_ULP_ERROR + "\n"}
    assert checks.known_defect(job, ulp) == "synth-ulp"
    assert checks.known_defect(job, dict(ulp, stderr="error: other\n")) is None
    assert run.judge([job], [[ulp]]) == ["known-defect: synth-ulp"]


def test_reproduce_paper_mc_row_defect_is_named_but_nothing_else():
    # reproduce-paper checks its Monte Carlo row at 3 sigma; this seed misses
    job = workloads.Job(index=0, label="reproduce-paper", kind="reproduce", params={},
                        argv=("reproduce-paper", "--seed", "318300629", "--json"))
    outcome = _run(job)
    assert outcome["rc"] == 1
    assert checks.known_defect(job, outcome) == "reproduce-mc-3sigma"
    doc = json.loads(outcome["stdout"].strip().splitlines()[-1])
    doc["rows"][0]["status"] = "FAIL"
    assert checks.known_defect(job, dict(outcome, stdout=json.dumps(doc))) is None


# A two-outcome qutrit measurement drawn by the generator: its channel's
# third input sits close to the optimal output distribution, so that
# input's weight decays too slowly for Blahut-Arimoto to certify 1e-10.
SLOW_CAPACITY_POVM = (
    ([[0.5007639425352507, 0.01742716364932009, -0.33470216628379834],
      [0.01742716364932009, 0.5368855508716367, 0.30408846700146974],
      [-0.33470216628379834, 0.30408846700146974, 0.5020707021752014]],
     [[0.0, -0.01422623870466006, -0.15883466052997264],
      [0.01422623870466006, 0.0, -0.10690569249278084],
      [0.15883466052997264, 0.10690569249278084, 0.0]]),
)


def test_capacity_iteration_cap_is_named_but_nothing_else(tmp_path):
    re, im = (np.array(a) for a in SLOW_CAPACITY_POVM[0])
    first = re + 1j * im
    povm = measrep.qcore.Povm((first, np.eye(3) - first))
    job = workloads.Job(index=0, label="capacity d=3", kind="capacity", params={},
                        povm=povm, file=str(tmp_path / "slow.json"))
    job.argv = ("capacity", job.file, "--tol", "1e-10", "--json")
    measrep.io.save_measurement(povm, job.file)
    outcome = _run(job)
    assert outcome["rc"] == 1
    assert checks.known_defect(job, outcome) == "capacity-max-iter"
    assert checks.known_defect(job, dict(outcome, stderr="error: other\n")) is None
    assert checks.check_job(job, outcome) is not None


def test_output_that_changes_between_passes_fails(tmp_path):
    job = _job(tmp_path, "estimate-code", "validate d=2")
    first = _run(job)
    second = dict(first, stderr="different")
    assert run.judge([job], [[first, first]]) == ["ok"]
    assert run.judge([job], [[first, second]])[0].startswith("fail")


def test_pass_count_depends_on_seconds_only():
    assert run.passes_for("synth-strings", 0) == 2
    assert run.passes_for("synth-strings", 20) == 2
    assert run.passes_for("synth-strings", 3 * run.PASS_REFERENCE_S["synth-strings"]) == 3


def test_set_up_sample_in_a_new_process():
    stages, probe_s = run.setup_sample_in_new_process("synth-dim", 3)
    assert 0 < stages["import_s"] < stages["cpu_s"] < 60 and 0 < probe_s < 1
    assert not list(run.OUT.glob("setup-synth-dim-3-*"))


def test_tail_keeps_ten_jobs_above():
    value, pct, above = run.tail(list(range(40)))
    assert (value, pct, above) == (29, 75.0, 10)


def test_tracer_wraps_every_binding_and_restores_it():
    original = measrep.qcore.tensor
    assert measrep.vnsynth.tensor is original
    tracer = tracing.Tracer()
    tracer.install(measrep)
    try:
        assert measrep.qcore.tensor is not original
        assert measrep.vnsynth.tensor is measrep.qcore.tensor
        assert measrep.tensor is measrep.qcore.tensor
        measrep.vnsynth.exhaustive_search(measrep.qcore.trine_povm(), 1)
    finally:
        tracer.uninstall()
    assert measrep.qcore.tensor is original and measrep.vnsynth.tensor is original
    spans = tracer.summary()
    assert spans["vnsynth.exhaustive_search"]["calls"] == 1
    assert tracer.scored_in_search() == spans["vnsynth.solve_box_quadratic_qubit"]["calls"]
    # three strings: tensors built for the search and again for the result
    assert spans["qcore.tensor"]["calls"] == 6


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke_run(workload):
    result = run.run_workload(workload, 2, 0, trace=False,
                              counts=workloads.TINY[workload], quiet=True)
    assert result["correct"], result["failures"]
    # two passes: the fewest a run makes, so outputs are compared between passes
    assert result["timed"]["passes"] == 2
    assert result["attempted"] == 2 * sum(workloads.TINY[workload].values())
    line = json.loads(run.final_line(result, False))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == {name for name, _ in run.END_TO_END}
    assert all(m["value"] > 0 for m in line["metrics"].values())


def test_traced_smoke_run_reports_every_layer_metric():
    result = run.run_workload("estimate-code", 2, 0, trace=True,
                              counts=workloads.TINY["estimate-code"], quiet=True)
    assert result["correct"], result["failures"]
    line = json.loads(run.final_line(result, True))
    assert set(line["metrics"]) == {name for name, _, _ in tracing.PER_LAYER}
    assert line["metrics"]["cli.main.calls"]["value"] == 8
    assert line["metrics"]["coding.simulate_block_protocol.peak_alloc_mb"]["value"] > 0


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "synth-strings",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
