"""Record the outputs of a fixed set of seeded jobs in ``tests/data/ledger.json``.

    PYTHONPATH=src python tests/ledger.py

The jobs are the tiny classes of every benchmark workload at seed 1
(``benchmarks/workloads.TINY``), run as the benchmark runs them
(``benchmarks/run.run_job``); ``synth`` at N = 1..5 on ``trine`` and
``vn:2``; and ``reproduce-paper --seed 0``. Each entry keeps a job's exit
code, stderr and ``--json`` document without ``wall_time`` (its
``inputs_digest`` hashes an input file's bytes, not its temporary path),
or the result fields of a random-code job. ``test_ledger`` replays every entry and asks
for the same bits, so any change that moves a seeded output shows as a
diff against this file. Inputs are written to a temporary directory, and
nothing under ``benchmarks/`` changes.
"""

from __future__ import annotations

import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
LEDGER = HERE / "data" / "ledger.json"
sys.path.insert(0, str(HERE.parent / "benchmarks"))

import run  # noqa: E402
import workloads  # noqa: E402

INPUTS = "<inputs>"  # stands for the temporary input directory


def versions() -> dict:
    """The software whose arithmetic the recorded bits depend on: Python,
    numpy, and the BLAS numpy was built against."""
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas["name"], "blas_version": blas["version"]}


def _jobs(workdir: Path) -> list:
    """(kind, argv, params) of every ledger job, in order, with the
    workloads' generated inputs written under ``workdir``."""
    jobs = []
    for workload, counts in workloads.TINY.items():
        built = workloads.build_jobs(workload, 1, workdir / workload, counts)
        workloads.write_inputs(built, workdir / workload)
        jobs += [(job.kind, job.argv, job.params) for job in built]
    for name in ("trine", "vn:2"):
        jobs += [("synth", ("synth", name, "--n", str(n), "--json"), {})
                 for n in range(1, 6)]
    jobs.append(("reproduce", ("reproduce-paper", "--seed", "0", "--json"), {}))
    return jobs


def _entry(argv, outcome) -> dict:
    """What one job's outcome must repeat, as JSON-ready values."""
    if "result" in outcome:
        code, result = outcome["result"]
        return {"argv": list(argv), "codebook": code.codebook.tolist(),
                "error_rate": result.error_rate,
                "standard_error": result.standard_error,
                "trials": result.trials,
                "decoded_distribution": result.decoded_distribution.tolist()}
    lines = outcome["stdout"].strip().splitlines()
    doc = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if doc is not None:
        del doc["wall_time"]
    error = outcome.get("error")
    return {"argv": list(argv), "rc": outcome.get("rc"),
            "error": error and error.strip().splitlines()[-1],
            "stderr": outcome["stderr"], "json": doc}


def entries() -> list:
    """Run every ledger job in a fresh temporary directory; one entry each,
    with the directory's path written as ``INPUTS``."""
    measrep = run._import_measrep()
    with tempfile.TemporaryDirectory() as tmp:
        out = []
        for kind, argv, params in _jobs(Path(tmp)):
            entry = _entry(argv, run.run_job(measrep, kind, argv, params)[2])
            out.append(json.loads(json.dumps(entry).replace(tmp, INPUTS)))
    return out


def main() -> None:
    LEDGER.parent.mkdir(exist_ok=True)
    doc = {"versions": versions(), "entries": entries()}
    LEDGER.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(doc['entries'])} entries to {LEDGER}")


if __name__ == "__main__":
    main()
