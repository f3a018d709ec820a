"""Run one measrep benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload synth-strings --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 20 --trace 0

A workload is a seeded, fixed list of jobs (see ``workloads.py``). One
client drives it in a closed loop in this process: each job is one
in-process ``measrep.cli.main(argv)`` call with its output captured,
or, for random-codebook coding, one pair of library calls. The timed
phase runs a fixed number of whole passes over the list, at least two:
``--seconds`` over the workload's pass time on the reference host,
rounded. The host's speed never changes the number of passes, so every
run times the same jobs the same number of times. Output checks run
after the timed phase; outputs must also repeat exactly between passes.

Job times are host-normalised process CPU times. On a shared 2-vCPU VM
the hypervisor took up to a tenth of the wall time from the process in
bursts, and the host's speed changed by up to 1.5x within seconds. The
process's CPU time leaves the stolen time out; for this single-threaded,
in-process loop it equals wall time on an idle host. For the speed
changes, a fixed probe computation runs before every job and each job's
CPU time is scaled by ``PROBE_REFERENCE_S`` over the median CPU time of
the probes around it: the time the job would take on a host where the
probe takes ``PROBE_REFERENCE_S``. Raw wall times are printed and kept in
the result file next to the reported values.

Set-up is measured ``SETUP_SAMPLES`` times per run: once in this process
and once in each of ``SETUP_SAMPLES - 1`` fresh processes that do the
same set-up and exit. A sample is the process's CPU time from its start
to the end of set-up, scaled by probes taken right after it, and
``setup_s`` is the median sample.

With ``--trace 0`` the last stdout line holds the end-to-end metrics.
With ``--trace 1`` the run times half the passes untraced, then as many
with every layer function wrapped (``tracing.py``), and the last line
holds the per-layer metrics of one pass plus the tracing overhead.
Result and span files go to ``benchmarks/out/``.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread: a single client, and no more threads than CPUs on any
# machine. Set before numpy loads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("synth-strings", "synth-dim", "estimate-code")
# Host-normalised seconds of one pass over each full job list on the
# reference host; sets the number of passes from ``--seconds``.
PASS_REFERENCE_S = {"synth-strings": 10.0, "synth-dim": 10.0, "estimate-code": 9.0}
SETUP_SAMPLES = 5
SETUP_PROBES = 9

END_TO_END = (
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Tiny job per kind, run once before timing so lazy imports and first
# calls are paid in set-up.
WARMUP = {
    "synth": ("synth", "trine", "--n", "1", "--json"),
    "rms": ("rms", "trine", "--n", "1", "--samples", "100", "--json"),
    "postmeas": ("postmeas", "trine", "--samples", "5", "--json"),
    "clone": ("clone", "trine", "--max-n", "2", "--json"),
    "capacity": ("capacity", "trine", "--json"),
    "block": ("block", "trine", "--k", "1", "--copies", "1", "--trials", "100",
              "--json"),
    "validate": ("validate", "trine", "--json"),
    "reproduce": ("reproduce-paper", "--samples", "200", "--json"),
}
WARMUP_RANDOM_CODE = {"k": 2, "n": 4, "trials": 100, "channel": [[0.75, 0.25],
                      [0.25, 0.75]], "code_seed": 0, "run_seed": 1}

# Median probe CPU time on the 2-vCPU VM the baseline was measured on,
# in its fast periods.
PROBE_REFERENCE_S = 0.00176
PROBE_WINDOW = 4  # probes on each side of a job that set its host speed
_g = np.random.default_rng(0).standard_normal((2, 16, 16))
_PROBE_MATRIX = (_g[0] + 1j * _g[1]) + (_g[0] + 1j * _g[1]).conj().T


def probe() -> float:
    """CPU time of a fixed mix of small eigensolves and tuple building."""
    t0 = time.process_time()
    for i in range(60):
        np.linalg.eigvalsh(_PROBE_MATRIX)
        tuple((i >> k) & 1 for k in range(16))
    return time.process_time() - t0


def median_probe() -> float:
    return statistics.median(probe() for _ in range(SETUP_PROBES))


def passes_for(workload: str, seconds: float) -> int:
    """Whole passes that fill ``seconds`` on the reference host, at least two."""
    return max(2, round(seconds / PASS_REFERENCE_S[workload]))


def _import_measrep():
    """Import measrep from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    try:
        import measrep
        import measrep.cli
    except ImportError as exc:
        raise SystemExit(f"error: cannot import measrep from {src}: {exc}")
    if Path(measrep.__file__).resolve().parent != (src / "measrep").resolve():
        raise SystemExit(f"error: measrep imported from {measrep.__file__}, "
                         f"not from {src}")
    return measrep


# ---------------------------------------------------------------------------
# Jobs
# ---------------------------------------------------------------------------


def _random_code_job(measrep, p):
    coding, rng = measrep.coding, measrep.qcore.Rng
    code = coding.random_codebook(p["k"], p["n"], 2, rng(p["code_seed"]))
    channel = coding.ClassicalChannel(p["channel"])
    run = coding.simulate_block_protocol(channel, code, None, p["trials"],
                                         rng(p["run_seed"]))
    return code, run


def run_job(measrep, kind, argv, params):
    """Run one job; returns its wall time, CPU time and outcome."""
    out, err = io.StringIO(), io.StringIO()
    outcome = {}
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            if kind == "random-code":
                outcome["result"] = _random_code_job(measrep, params)
            else:
                outcome["rc"] = measrep.cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            outcome["rc"] = exc.code
        except Exception:  # a job failure must not stop the run; record it
            outcome["error"] = traceback.format_exc(limit=3)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    outcome["stdout"], outcome["stderr"] = out.getvalue(), err.getvalue()
    return wall, cpu, outcome


@dataclass
class Timed:
    """Per-job times and outcomes of a timed phase, one entry per pass."""

    times: list  # raw wall seconds
    scaled: list  # host-normalised CPU seconds
    outcomes: list
    passes: int
    elapsed: float  # raw wall seconds of the phase, probes included
    probe_s: float  # median probe CPU time

    def jobs_per_s(self) -> float:
        return sum(map(len, self.scaled)) / sum(map(sum, self.scaled))

    def raw_jobs_per_s(self) -> float:
        return sum(map(len, self.times)) / self.elapsed


def run_passes(measrep, jobs, passes, tracer=None) -> Timed:
    """Closed loop over ``passes`` whole passes, with a host-speed probe
    before each job."""
    times = [[] for _ in jobs]
    cpu = [[] for _ in jobs]
    outcomes = [[] for _ in jobs]
    order, probes = [], []
    t0 = time.perf_counter()
    for _ in range(passes):
        for job in jobs:
            probes.append(probe())
            if tracer is not None:
                tracer.job = job.index
            wall, cpu_s, outcome = run_job(measrep, job.kind, job.argv, job.params)
            times[job.index].append(wall)
            cpu[job.index].append(cpu_s)
            outcomes[job.index].append(outcome)
            order.append(job.index)
    elapsed = time.perf_counter() - t0
    probes.append(probe())
    scaled = [[] for _ in jobs]
    seen = [0] * len(jobs)
    for k, i in enumerate(order):
        local = statistics.median(probes[max(0, k - PROBE_WINDOW):k + PROBE_WINDOW + 2])
        scaled[i].append(cpu[i][seen[i]] * PROBE_REFERENCE_S / local)
        seen[i] += 1
    return Timed(times, scaled, outcomes, passes, elapsed, statistics.median(probes))


def _fingerprint(outcome):
    """What must repeat exactly when the same seeded job runs again."""
    if "result" in outcome:
        code, run = outcome["result"]
        return (run.error_rate, run.decoded_distribution.tobytes(),
                code.codebook.tobytes())
    doc = None
    lines = outcome["stdout"].strip().splitlines()
    if lines:
        try:
            doc = json.loads(lines[-1])
            doc.pop("wall_time", None)
        except ValueError:
            doc = lines[-1]
    return outcome.get("rc"), outcome.get("error"), outcome["stderr"], \
        json.dumps(doc, sort_keys=True)


def judge(jobs, outcomes):
    """Status per job: ok, known-defect, or a failure reason."""
    statuses = []
    for job, runs in zip(jobs, outcomes):
        first = runs[0]
        if any(_fingerprint(r) != _fingerprint(first) for r in runs[1:]):
            statuses.append("fail: output differs between passes")
        elif defect := checks.known_defect(job, first):
            statuses.append(f"known-defect: {defect}")
        else:
            reason = checks.check_job(job, first)
            statuses.append("ok" if reason is None else f"fail: {reason}")
    return statuses


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def prepare(workload, seed, workdir, counts):
    """Generate the seeded inputs and oracles and write the files."""
    if workdir.exists():
        shutil.rmtree(workdir)
    jobs = workloads.build_jobs(workload, seed, workdir, counts)
    workloads.write_inputs(jobs, workdir)
    return jobs


def warm_up(measrep, jobs):
    for kind in sorted({job.kind for job in jobs}):
        if kind == "random-code":
            run_job(measrep, kind, (), WARMUP_RANDOM_CODE)
        else:
            run_job(measrep, kind, WARMUP[kind], {})


def set_up(workload, seed, workdir, counts):
    """This process's set-up: import, inputs, oracles, warm-up.

    Returns the measrep module, the jobs, the stage times and the median
    probe taken right after. Stage times are CPU seconds; ``cpu_s`` counts
    from process start and ``wall_s`` from this script's start.
    """
    measrep = _import_measrep()
    c_import = time.process_time()
    jobs = prepare(workload, seed, workdir, counts)
    c_prep = time.process_time()
    warm_up(measrep, jobs)
    c_ready = time.process_time()
    stages = {"import_s": c_import, "prep_s": c_prep - c_import,
              "warm_up_s": c_ready - c_prep, "cpu_s": c_ready,
              "wall_s": time.perf_counter() - _T_START}
    return measrep, jobs, stages, median_probe()


def setup_sample_in_new_process(workload, seed):
    """One whole set-up in a fresh interpreter; returns its stages and probe."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--setup-only"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    probe_s = doc.pop("probe_s")
    return doc, probe_s


def setup_only(workload, seed):
    """Entry point of a set-up sample process: set up, report, clean up."""
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"setup-{workload}-{seed}-{os.getpid()}"
    try:
        _, _, stages, probe_s = set_up(workload, seed, workdir, None)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(dict(stages, probe_s=probe_s)))


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def tail(values):
    """Value at the highest percentile with at least ten values above it."""
    ordered = sorted(values)
    n = len(ordered)
    above = min(10, n - 1)
    return ordered[n - 1 - above], 100.0 * (n - above) / n, above


def environment(measrep, workload, seed, n_jobs):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "measrep").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return {
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "measrep": measrep.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "workload": workload,
        "seed": seed,
        "jobs": n_jobs,
    }


def _git_sha():
    """HEAD commit read from ``.git`` without running git; 'none' outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            loose = git / ref
            if loose.exists():
                return loose.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "none"


def class_table(jobs, times, statuses):
    rows = {}
    for job, t, status in zip(jobs, times, statuses):
        row = rows.setdefault(job.label, {"jobs": 0, "times": [], "failed": 0})
        row["jobs"] += 1
        row["times"].append(statistics.median(t))
        row["failed"] += status != "ok"
    return {label: {"jobs": r["jobs"], "median_s": statistics.median(r["times"]),
                    "failed": r["failed"]} for label, r in rows.items()}


def run_workload(workload, seed, seconds, trace, counts=None, quiet=False):
    """Set up, time, check and measure one workload; returns the result.

    ``counts`` (tiny smoke lists) also keeps set-up to this process.
    """
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{workload}-{seed}-{os.getpid()}"
    try:
        measrep, jobs, stages, setup_probe = set_up(workload, seed, workdir, counts)
        samples = [(stages, setup_probe)]
        if counts is None:
            samples += [setup_sample_in_new_process(workload, seed)
                        for _ in range(SETUP_SAMPLES - 1)]

        passes = passes_for(workload, seconds)
        if trace:
            passes = max(1, passes // 2)
        cpu0 = time.process_time()
        timed = run_passes(measrep, jobs, passes)
        cpu_s = time.process_time() - cpu0
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        outcomes = [list(o) for o in timed.outcomes]
        if trace:
            tracer = tracing.Tracer()
            tracer.install(measrep)
            try:
                traced = run_passes(measrep, jobs, passes, tracer)
                tracer.alloc_phase = True
                for i in tracer.alloc_jobs():
                    run_job(measrep, jobs[i].kind, jobs[i].argv, jobs[i].params)
            finally:
                tracer.uninstall()
            for runs, more in zip(outcomes, traced.outcomes):
                runs.extend(more)
        statuses = judge(jobs, outcomes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    per_job = [statistics.median(t) for t in timed.scaled]
    raw_per_job = [statistics.median(t) for t in timed.times]
    tail_s, tail_pct, above = tail(per_job)
    attempted = sum(map(len, outcomes))
    failed = sum(len(o) for o, s in zip(outcomes, statuses) if s != "ok")
    result = {
        "env": environment(measrep, workload, seed, len(jobs)),
        "end_to_end": {
            "setup_s": statistics.median(st["cpu_s"] * PROBE_REFERENCE_S / p
                                         for st, p in samples),
            "jobs_per_s": timed.jobs_per_s(),
            "job_p50_s": statistics.median(per_job),
            "job_tail_s": tail_s,
            "peak_rss_mb": peak_rss_mb,
        },
        "raw": {
            "setup_s": statistics.median(st["wall_s"] for st, _ in samples),
            "jobs_per_s": timed.raw_jobs_per_s(),
            "job_p50_s": statistics.median(raw_per_job),
            "job_tail_s": tail(raw_per_job)[0],
            "probe_s": timed.probe_s,
        },
        "failed_frac": failed / attempted,
        "job_tail": {"percentile": tail_pct, "jobs_above": above,
                     "jobs": len(jobs)},
        "setup": {"samples": [dict(st, probe_s=p) for st, p in samples]},
        "timed": {"passes": timed.passes, "seconds": timed.elapsed, "cpu_s": cpu_s},
        "classes": class_table(jobs, timed.scaled, statuses),
        "jobs": [[job.label, t, s] for job, t, s in zip(jobs, timed.times, statuses)],
        "failures": {f"{job.index} {job.label}": s
                     for job, s in zip(jobs, statuses) if s != "ok"},
        "correct": all(s == "ok" or s.startswith("known-defect") for s in statuses),
        "attempted": attempted,
        "failed": failed,
    }
    if trace:
        result["per_layer"] = tracer.per_layer(
            traced.passes, timed.jobs_per_s() / traced.jobs_per_s() - 1.0)
        result["spans"] = tracer.summary()
        result["traced"] = {"passes": traced.passes, "seconds": traced.elapsed}
        if counts is None:
            tracer.write(OUT / f"spans-{workload}-seed{seed}.jsonl")
    if counts is None:
        path = OUT / f"result-{workload}-seed{seed}-trace{int(trace)}.json"
        path.write_text(json.dumps(result, indent=1, sort_keys=True))
    if not quiet:
        print_report(result, trace)
    return result


def print_report(result, trace):
    env = result["env"]
    print("# env " + json.dumps(env, sort_keys=True))
    t = result["timed"]
    print(f"# {env['workload']}: {env['jobs']} jobs x {t['passes']} passes "
          f"in {t['seconds']:.2f} s (one client, closed loop)")
    for label, row in sorted(result["classes"].items()):
        print(f"#   {label:<40} jobs={row['jobs']:<3} median={row['median_s']:.4f} s"
              f"  failed={row['failed']}")
    tail_info = result["job_tail"]
    units = dict(END_TO_END)
    for name, value in result["end_to_end"].items():
        note = ""
        if name in result["raw"]:
            note = f"  (host-normalised CPU; raw wall {result['raw'][name]:.6g})"
        if name == "job_tail_s":
            note += (f"  (p{tail_info['percentile']:.1f} of {tail_info['jobs']} jobs, "
                     f"{tail_info['jobs_above']} above)")
        print(f"{name} = {value:.6g} {units[name]}{note}")
    print(f"# probe median {result['raw']['probe_s'] * 1e3:.4f} ms CPU "
          f"(reference {PROBE_REFERENCE_S * 1e3:.4f} ms)")
    print("# set-up samples (CPU s, wall s, probe ms): " + ", ".join(
        f"({x['cpu_s']:.4f}, {x['wall_s']:.4f}, {x['probe_s'] * 1e3:.4f})"
        for x in result["setup"]["samples"]))
    causes = {}
    for status in result["failures"].values():
        causes[status] = causes.get(status, 0) + 1
    print(f"failed_frac = {result['failed_frac']:.6g} fraction "
          f"({result['failed']} of {result['attempted']} attempted; jobs per cause: "
          f"{json.dumps(causes, sort_keys=True)})")
    if trace:
        print(f"# spans per pass: {'name':<44} {'calls':>9} {'total_s':>10} "
              f"{'self_s':>10}")
        passes = result["traced"]["passes"]
        for name, s in sorted(result["spans"].items()):
            print(f"#   {name:<56} {s['calls'] / passes:>9.1f} "
                  f"{s['s'] / passes:>10.4f} {s['self_s'] / passes:>10.4f}")
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        for name, value in result["per_layer"].items():
            print(f"{name} = {value:.6g} {units[name]}")


def final_line(result, trace):
    if trace:
        metrics = {name: {"value": result["per_layer"][name], "unit": unit}
                   for name, unit, _ in tracing.PER_LAYER}
    else:
        metrics = {name: {"value": result["end_to_end"][name], "unit": unit}
                   for name, unit in END_TO_END}
    return json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def run_all(args):
    """Every workload, each in its own process, then one summary."""
    summary, ok = [], True
    for workload in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            ok = False
            summary.append(f"{workload}: exit {proc.returncode}")
            continue
        doc = json.loads(lines[-1])
        ok = ok and doc["correct"]
        summary.append(f"{workload}: correct={doc['correct']} failed={doc['failed']}"
                       f"/{doc['attempted']}")
        for name, m in doc["metrics"].items():
            summary.append(f"  {workload}.{name} = {m['value']:.6g} {m['unit']}")
    print("\n".join(["# summary"] + summary))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_only:
        setup_only(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(final_line(result, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
