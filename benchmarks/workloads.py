"""Seeded job lists for the measrep benchmark workloads.

A workload is a fixed list of jobs drawn from the workload seed. Each
job is one ``measrep`` CLI invocation (``cli.main(argv)``) on a
generated measurement file, or, for random-codebook block coding,
which the CLI has no route for, one call pair of the library's public
functions. The program only ever sees the generated files and argv.

Every list is stratified: the seed draws the measurement entries, ranks
and per-job RNG seeds, while the number of jobs in each shape
class (outcomes m, uses N, dimension d, codebook size, ...) is fixed.
Job cost depends mostly on the shape class, so a fixed class mix keeps
the run-to-run spread of the end-to-end metrics small while the
random entries still cover the whole family.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

# Each class: (name, kind, params, count). ``count`` jobs of the class
# are drawn per list.
#
# synth-strings: qubit POVMs, 8-256 outcome strings, operator dimension
# 4-16, so the per-candidate scoring loop of the partition search
# dominates. (m, N) = (2, 3) and (3, 2) take the exhaustive path (at most
# 12 strings); the rest hill-climb. About a tenth of the jobs are the
# built-in trine at N = 3, 4, 5. A random 256-string job (m = 4, N = 4)
# takes 2.6 to 6 s depending on the draw, so there is only one; trine
# N = 5 (243 strings, fixed input) carries the large-string case with
# little run-to-run spread. The class sizes put the list's median job
# inside the ~33 ms classes (m = 3, N = 3 and trine N = 3), not on the
# step between them and the 10-17 ms classes, so job_p50_s does not
# jump between the two from seed to seed.
SYNTH_STRINGS = (
    ("synth d=2 m=2 N=3", "synth", {"d": 2, "m": 2, "n": 3}, 6),
    ("synth d=2 m=3 N=2", "synth", {"d": 2, "m": 3, "n": 2}, 6),
    ("synth d=2 m=2 N=4", "synth", {"d": 2, "m": 2, "n": 4}, 6),
    ("synth d=2 m=4 N=2", "synth", {"d": 2, "m": 4, "n": 2}, 6),
    ("synth d=2 m=3 N=3", "synth", {"d": 2, "m": 3, "n": 3}, 10),
    ("synth d=2 m=4 N=3", "synth", {"d": 2, "m": 4, "n": 3}, 6),
    ("synth d=2 m=3 N=4", "synth", {"d": 2, "m": 3, "n": 4}, 10),
    ("synth d=2 m=4 N=4", "synth", {"d": 2, "m": 4, "n": 4}, 1),
    ("synth trine N=3", "synth", {"builtin": "trine", "d": 2, "m": 3, "n": 3}, 4),
    ("synth trine N=4", "synth", {"builtin": "trine", "d": 2, "m": 3, "n": 4}, 3),
    ("synth trine N=5", "synth", {"builtin": "trine", "d": 2, "m": 3, "n": 5}, 1),
)

# synth-dim: two-outcome qutrit and ququart POVMs, 8-32 strings and
# dimension 27-256, so dense sums, eigvalsh and hermitian_eig's
# degenerate-cluster tie-break dominate. Dimension 243/256 jobs are 2
# of the 42 jobs, though about half of a pass's time. Random qutrits at N = 5 are left out: their
# hill climb takes 288 to 1005 evaluations (5 to 17 s) depending on the
# draw, so one such job would set the workload's run-to-run spread by
# itself. The degenerate qutrit at N = 5 covers 32 strings at dimension
# 243 with the same work for every seed.
SYNTH_DIM = (
    ("synth d=3 m=2 N=3", "synth", {"d": 3, "m": 2, "n": 3}, 12),
    ("synth d=4 m=2 N=3", "synth", {"d": 4, "m": 2, "n": 3}, 14),
    ("synth d=3 m=2 N=4", "synth", {"d": 3, "m": 2, "n": 4}, 10),
    ("synth degenerate-qutrit N=4", "synth",
     {"builtin": "degenerate-qutrit", "d": 3, "m": 2, "n": 4}, 4),
    ("synth d=4 m=2 N=4", "synth", {"d": 4, "m": 2, "n": 4}, 1),
    ("synth degenerate-qutrit N=5", "synth",
     {"builtin": "degenerate-qutrit", "d": 3, "m": 2, "n": 5}, 1),
)

# estimate-code: every other subcommand plus random-codebook block
# coding. The partition search appears only as the tiny N = 2 search
# inside ``rms``, so this is the bypass workload for search changes.
# The ML decoder runs both ways: per-symbol repetition decoding (light)
# and full random-codebook decoding, whose trials x d^k log-likelihood
# table reaches 41 MB at k = 8 with 20k trials.
_CLONE = tuple(
    (f"clone d=2 m={m} max-n={mx}", "clone", {"d": 2, "m": m, "max_n": mx}, 1)
    for m in (2, 3, 4)
    for mx in (6, 33, 60)
)
# The outcome count m is a class dimension here: the block simulation's
# largest temporary (trials x n x m) sets the workload's peak RSS. Copies
# take the ends of the 5..9 range; the k = 1 jobs draw from all of it.
# Three jobs each at k = 3, copies = 9 (about 0.26 s) are the 7th to 12th
# longest jobs, so job_tail_s (the 11th longest) sits on a plateau and
# does not step when one of the rare slow capacity jobs (below) joins
# the top ten.
_BLOCK = tuple(
    (f"block d=2 k={k} copies={c} m={m}", "block",
     {"d": 2, "k": k, "copies": c, "m": m}, 3 if (k, c) == (3, 9) else 1)
    for k in (2, 3, 4)
    for c in (5, 9)
    for m in (2, 4)
)
# Latin square over (k, n, trials): each level of each factor appears
# three times.
_RANDOM_CODE = tuple(
    (f"random-code k={k} n={n} trials={t}", "random-code",
     {"k": k, "n": n, "trials": t}, 1)
    for k, n, t in (
        (6, 16, 20000), (6, 24, 10000), (6, 32, 5000),
        (7, 16, 10000), (7, 24, 5000), (7, 32, 20000),
        (8, 16, 5000), (8, 24, 20000), (8, 32, 10000),
    )
)
# Blahut-Arimoto's iteration count is heavy-tailed over random channels,
# so now and then a capacity job takes 1 to 3.5 s instead of 10 ms; see
# checks.py (capacity-max-iter). The counts put the median job (50th of
# 100) in the middle of the rms jobs with m = 2, 3 (about 40 ms), not on
# a step between classes.
ESTIMATE_CODE = (
    ("rms d=2 m=2", "rms", {"d": 2, "m": 2}, 4),
    ("rms d=2 m=3", "rms", {"d": 2, "m": 3}, 4),
    ("rms d=2 m=4", "rms", {"d": 2, "m": 4}, 4),
    ("postmeas d=2", "postmeas", {"d": 2, "m": None}, 6),
    ("postmeas d=3", "postmeas", {"d": 3, "m": None}, 6),
    ("capacity d=2", "capacity", {"d": 2, "m": None}, 6),
    ("capacity d=3", "capacity", {"d": 3, "m": None}, 6),
    ("block d=2 k=1", "block", {"d": 2, "k": 1, "copies": None}, 8),
    ("validate d=2", "validate", {"d": 2, "m": None}, 8),
    ("validate d=3", "validate", {"d": 3, "m": None}, 8),
    ("reproduce-paper", "reproduce", {}, 6),
) + _CLONE + _BLOCK + _RANDOM_CODE

WORKLOADS = {
    "synth-strings": SYNTH_STRINGS,
    "synth-dim": SYNTH_DIM,
    "estimate-code": ESTIMATE_CODE,
}

# Cheap classes of each workload, used by the benchmark's smoke tests.
TINY = {
    "synth-strings": {"synth d=2 m=2 N=3": 1, "synth d=2 m=3 N=3": 1,
                      "synth trine N=3": 1},
    "synth-dim": {"synth d=3 m=2 N=3": 2},
    "estimate-code": {"rms d=2 m=3": 1, "postmeas d=3": 1, "capacity d=3": 1,
                      "block d=2 k=1": 1, "validate d=2": 1,
                      "reproduce-paper": 1, "clone d=2 m=3 max-n=6": 1,
                      "block d=2 k=2 copies=5 m=2": 1,
                      "random-code k=6 n=16 trials=20000": 1},
}

_WORKLOAD_TAG = {"synth-strings": 1, "synth-dim": 2, "estimate-code": 3}


@dataclass
class Job:
    """One benchmark job: a CLI argv, or a library call for random codes."""

    index: int
    label: str
    kind: str
    params: dict
    argv: tuple = ()
    povm: object = None  # measurement written to ``file`` at set-up
    file: Optional[str] = None
    oracle: dict = field(default_factory=dict)


def random_povm(rng: np.random.Generator, d: int, ranks):
    """Random POVM M_a = S^-1/2 A_a S^-1/2 with A_a = G_a G_a^dagger.

    G_a is a complex Gaussian d x rank_a matrix. The caller keeps the
    total rank at least d, so S = sum_a A_a is invertible and the
    elements are positive and sum to the identity.
    """
    from measrep.qcore import Povm

    parts = []
    for r in ranks:
        g = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
        parts.append(g @ g.conj().T)
    w, v = np.linalg.eigh(sum(parts))
    s_inv_half = (v / np.sqrt(w)) @ v.conj().T
    elems = []
    for a in parts:
        m = s_inv_half @ a @ s_inv_half
        elems.append((m + m.conj().T) / 2)
    return Povm(tuple(elems))


def _draw_ranks(rng: np.random.Generator, d: int, m: int):
    """Element ranks uniform in 1..min(d, 2) for qubits, 1..d otherwise,
    redrawn until the total rank reaches d."""
    top = 2 if d == 2 else d
    while True:
        ranks = [int(r) for r in rng.integers(1, top + 1, size=m)]
        if sum(ranks) >= d:
            return ranks


def _draw_povm(rng, d, m):
    m = int(rng.integers(2, 5)) if m is None else m
    return random_povm(rng, d, _draw_ranks(rng, d, m))


def no_zero_epsilon(povm, n_uses: int) -> float:
    """Epsilon of the 'no zero outcome -> 1' partition, in closed form.

    Strings without outcome 0 sum to (I - M_0)^(x N), so Q_0 has
    eigenvalues 1 - prod of N eigenvalues of I - M_0; its extremes come
    from the extreme eigenvalues of I - M_0.
    """
    from measrep import vnsynth

    mu = np.linalg.eigvalsh(np.eye(povm.dim) - povm.elements[0])
    mu = np.clip(mu, 0.0, 1.0)
    lam_min = float(np.clip(1.0 - mu[-1] ** n_uses, 0.0, 1.0))
    lam_max = float(np.clip(1.0 - mu[0] ** n_uses, 0.0, 1.0))
    return vnsynth.solve_box_quadratic_qubit(lam_min, lam_max).epsilon


def _builtin_povm(name: str):
    from measrep import qcore

    return {"trine": qcore.trine_povm,
            "degenerate-qutrit": qcore.degenerate_qutrit_povm}[name]()


def _make_job(rng, index, label, kind, params, workdir: Path) -> Job:
    job = Job(index=index, label=label, kind=kind, params=dict(params))
    seed = str(int(rng.integers(0, 2**31)))
    path = str(workdir / f"m{index:04d}.json")
    if kind == "synth":
        if "builtin" in params:
            povm = _builtin_povm(params["builtin"])
            target = params["builtin"]
        else:
            povm = _draw_povm(rng, params["d"], params["m"])
            job.povm, job.file, target = povm, path, path
        job.argv = ("synth", target, "--n", str(params["n"]), "--seed", seed,
                    "--json")
        job.oracle["no_zero_epsilon"] = no_zero_epsilon(povm, params["n"])
        if params.get("builtin") == "trine":
            job.oracle["trine_epsilon"] = 3.0 ** -params["n"] / 2.0
        return job
    if kind == "reproduce":
        job.argv = ("reproduce-paper", "--seed", seed, "--json")
        return job
    if kind == "random-code":
        job.params["channel"] = _dyadic_channel(rng)
        job.params["code_seed"] = int(seed)
        job.params["run_seed"] = int(rng.integers(0, 2**31))
        return job
    job.povm, job.file = _draw_povm(rng, params["d"], params.get("m")), path
    if kind == "rms":
        argv = ["rms", path, "--n", "2", "--samples", "100000"]
    elif kind == "postmeas":
        argv = ["postmeas", path]
    elif kind == "clone":
        argv = ["clone", path, "--max-n", str(params["max_n"])]
    elif kind == "capacity":
        argv = ["capacity", path, "--tol", "1e-10"]
    elif kind == "block":
        copies = params["copies"] or int(rng.integers(5, 10))
        job.params["copies"] = copies
        argv = ["block", path, "--k", str(params["k"]), "--copies", str(copies)]
    elif kind == "validate":
        argv = ["validate", path]
    else:
        raise ValueError(f"unknown job kind {kind!r}")
    job.argv = tuple(argv) + ("--seed", seed, "--json")
    return job


def _dyadic_channel(rng) -> list:
    """Binary-input channel with 2-4 outputs and entries in (1/64)Z.

    Dyadic entries make each row sum to exactly 1 in binary floating
    point, so the channel is the same bits on every machine.
    """
    m = int(rng.integers(2, 5))
    rows = []
    for _ in range(2):
        cuts = np.sort(rng.choice(np.arange(1, 64), size=m - 1, replace=False))
        counts = np.diff(np.concatenate(([0], cuts, [64])))
        rows.append([float(c) / 64.0 for c in counts])
    return rows


def build_jobs(workload: str, seed: int, workdir: Path,
               counts: Optional[dict] = None) -> list:
    """The workload's seeded job list, in run order.

    ``counts`` overrides the number of jobs per class label (classes not
    named are dropped); the smoke tests use it to run a tiny list.
    """
    rng = np.random.default_rng([_WORKLOAD_TAG[workload], seed])
    queues = []
    for label, kind, params, count in WORKLOADS[workload]:
        if counts is not None:
            count = counts.get(label, 0)
        queues.append([(label, kind, params)] * count)
    # Round-robin over the classes: every seed runs the jobs in the same
    # class order, so allocator state, and with it peak RSS, does not
    # depend on a shuffle.
    plan = [q[i] for i in range(max(map(len, queues))) for q in queues if i < len(q)]
    return [_make_job(rng, i, *entry, workdir=workdir) for i, entry in enumerate(plan)]


def write_inputs(jobs, workdir: Path) -> None:
    """Write each job's generated measurement with measrep's own writer."""
    from measrep import io

    workdir.mkdir(parents=True, exist_ok=True)
    for job in jobs:
        if job.povm is not None:
            io.save_measurement(job.povm, job.file)
