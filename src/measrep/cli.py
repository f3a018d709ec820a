"""Command-line front end.

One subcommand per library capability plus ``reproduce-paper``, a
self-checking harness that recomputes the closed-form constants of the
trine and noisy-Z measurement families and verifies them row by row.
Human-readable tables go to standard output; ``--out`` writes the same
rows as CSV; ``--json`` dumps the raw report.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from . import coding, io, qcore, rms, subroutines, vnsynth
from .errors import MalformedName, MeasrepError, ShapeMismatch, TooFewSamples
from .qcore import Rng

_QUBIT_VN = qcore.von_neumann_povm(2)


@dataclass
class RunReport:
    """Result table of one CLI invocation."""

    command: str
    inputs_digest: str
    seed: int
    rows: List[Tuple[str, float, Optional[float], str]] = field(default_factory=list)
    wall_time: float = 0.0

    def add(self, name: str, value: float, stderr: Optional[float] = None,
            ok: Optional[bool] = None):
        """Append a row; ``ok`` marks it PASS or FAIL, None leaves it unchecked."""
        status = "" if ok is None else "PASS" if ok else "FAIL"
        self.rows.append((name, float(value), stderr, status))

    def failed(self) -> bool:
        return any(status == "FAIL" for _, _, _, status in self.rows)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(repr(p).encode())
    return h.hexdigest()[:16]


def _fmt(v: float) -> str:
    return f"{v:.12g}"


def _print_report(report: RunReport, args) -> None:
    width = max((len(name) for name, *_ in report.rows), default=10)
    print(f"# {report.command}  seed={report.seed}  digest={report.inputs_digest}")
    for name, value, stderr, status in report.rows:
        line = f"{name:<{width}}  {_fmt(value)}"
        if stderr is not None:
            line += f"  +/- {_fmt(stderr)}"
        if status:
            line += f"  {status}"
        print(line)
    print(f"# wall time {report.wall_time:.3f} s")
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write("name,value,stderr,status\n")
            for name, value, stderr, status in report.rows:
                se = _fmt(stderr) if stderr is not None else ""
                fh.write(f"{name},{_fmt(value)},{se},{status}\n")
    if args.json:
        doc = {
            "command": report.command,
            "inputs_digest": report.inputs_digest,
            "seed": report.seed,
            "wall_time": report.wall_time,
            "rows": [
                {"name": n, "value": v, "stderr": s, "status": st}
                for n, v, s, st in report.rows
            ],
        }
        print(json.dumps(doc, sort_keys=True))


# ---------------------------------------------------------------------------
# Subcommands: each adds its rows to the report that ``main`` prints
# ---------------------------------------------------------------------------


def _cmd_validate(args, report: RunReport) -> None:
    obj = io.read_measurement(args.measurement)
    if isinstance(obj, qcore.Instrument):
        defect = obj.normalization_defect()
        report.add("normalization_defect", defect,
                   ok=defect <= qcore.NORMALIZATION_ATOL)
        return
    rep = qcore.validate_povm(obj)
    report.add("completeness_defect", rep.completeness_defect, ok=rep.ok)
    for a, lo in enumerate(rep.min_eigenvalues):
        report.add(f"min_eigenvalue[{a}]", lo)
    for v in rep.violations:
        print(f"violation: {v}")


def _cmd_synth(args, report: RunReport) -> None:
    syn = vnsynth.synthesize(io.load_povm(args.measurement), args.n_uses,
                             Rng(args.seed))
    report.add("partitions_evaluated", syn.evaluated)
    sol = syn.solution
    report.add("epsilon", sol.epsilon)
    # same optimum under the normalization without the 1/m outcome
    # average (differs by a constant factor, argmin unchanged)
    report.add("epsilon_unaveraged", sol.epsilon * math.sqrt(2.0))
    report.add("x_star", sol.x_star)
    report.add("y_star", sol.y_star)
    report.add("lambda_min", sol.lam_min)
    report.add("lambda_max", sol.lam_max)
    report.add("ancilla_qubits", syn.prep.ancilla_qubits)
    impl = vnsynth.implemented_povm(syn.prep, syn.protocol)
    report.add("epsilon_implemented", rms.rms_exact_povm(impl, _QUBIT_VN))


def _cmd_rms(args, report: RunReport) -> None:
    rng = Rng(args.seed)
    syn = vnsynth.synthesize(io.load_povm(args.measurement), args.n_uses, rng)
    impl = vnsynth.implemented_povm(syn.prep, syn.protocol)
    report.add("partitions_evaluated", syn.evaluated)
    report.add("epsilon_closed_form", syn.solution.epsilon)
    report.add("epsilon_implemented", rms.rms_exact_povm(impl, _QUBIT_VN))
    # the search's restarts read substream 0, the Haar states substream 1
    est = rms.rms_monte_carlo_povm(impl, _QUBIT_VN, args.samples, rng.split(1))
    report.add("epsilon_monte_carlo", est.value, est.standard_error)


def _cmd_postmeas(args, report: RunReport) -> None:
    if args.samples < 1:
        raise TooFewSamples(f"{args.samples} < 1 samples")
    obj = io.load_measurement(args.measurement)
    inst = obj if isinstance(obj, qcore.Instrument) else qcore.lueders_instrument(obj)
    iso = subroutines.build_measurement_isometry(inst)
    psi = qcore.haar_states(inst.dim_in, min(args.samples, 200), Rng(args.seed))
    prob, post = iso.apply(psi)
    # reference: the sub-channel outputs sum_k K rho K^dagger per state
    rho = psi[:, :, None] * np.conj(psi[:, None, :])
    ref = np.zeros(prob.shape + (inst.dim_out, inst.dim_out), dtype=complex)
    for a, group in enumerate(inst.kraus):
        for k in group:
            ref[:, a] += k @ rho @ qcore.dagger(k)
    p_ref = np.trace(ref, axis1=-2, axis2=-1).real
    worst_p = float(np.max(np.abs(prob - p_ref)))
    both = (prob > 1e-14) & (p_ref > 1e-12)
    dev = post[both] - ref[both] / p_ref[both][:, None, None]
    worst_s = float(np.max(np.linalg.norm(dev, axis=(1, 2)), initial=0.0))
    report.add("max_probability_deviation", worst_p, ok=worst_p <= args.tol)
    report.add("max_poststate_deviation", worst_s, ok=worst_s <= args.tol)


def _cmd_clone(args, report: RunReport) -> None:
    if args.max_n < 1:
        raise TooFewSamples(f"{args.max_n} < 1 uses")
    available = io.load_povm(args.measurement)
    basis = subroutines.select_cloning_basis(available)
    d = available.dim
    for i in range(d):
        for a in range(available.outcomes):
            report.add(f"P(a={a}|i={i})", basis.table[i, a])
    exponent = min(
        subroutines.chernoff_information(basis.table[i], basis.table[j])
        for i in range(d)
        for j in range(i + 1, d)
    )
    report.add("chernoff_exponent_nats", exponent)
    # largest n first, so a sweep past the count-vector limits fails at once
    errs = [subroutines.cloning_error_rate(basis, n)
            for n in range(args.max_n, 0, -1)]
    for n, err in enumerate(reversed(errs), 1):
        report.add(f"error_n={n}", err.average)


def _cmd_capacity(args, report: RunReport) -> None:
    channel = coding.associated_channel(io.load_povm(args.measurement))
    cap = coding.blahut_arimoto(channel, tol=args.tol)
    report.add("capacity_bits", cap.capacity)
    report.add("upper_bound_bits", cap.upper_bound)
    report.add("gap_bits", cap.gap)
    report.add("iterations", cap.iterations)
    for x, px in enumerate(cap.p_x):
        report.add(f"p_x[{x}]", px)


def _cmd_block(args, report: RunReport) -> None:
    available = io.load_povm(args.measurement)
    channel = coding.associated_channel(available)
    code = coding.repetition_code(args.k, args.copies, available.dim)
    report.add("block_length", code.n)
    report.add("rate_targets_per_use", code.rate_targets_per_use)
    report.add("rate_uses_per_target", code.rate_uses_per_target)
    run = coding.simulate_block_protocol(
        channel, code, None, args.trials, Rng(args.seed)
    )
    report.add("block_error_rate", run.error_rate, run.standard_error)
    if args.k == 1:
        exact = coding.exact_repetition_error(channel, args.copies)
        report.add("block_error_exact", float(exact.mean()))


# ---------------------------------------------------------------------------
# reproduce-paper
# ---------------------------------------------------------------------------


def _table_deviation(table: np.ndarray, ref: np.ndarray) -> float:
    """Largest entry-wise deviation from a reference table; 1 if shapes differ."""
    if table.shape != ref.shape:
        return 1.0
    return float(np.max(np.abs(table - ref)))


def _paper_rows(trine: qcore.Povm, samples: int, rng: Rng):
    """The paper's closed-form claims as (name, value, expected, tol, stderr).

    A row passes when |value - expected| <= tol, or, for a Monte Carlo
    row (stderr set), when it lies within 3 standard errors.
    """
    clone_error = 1.0 / (9.0 * math.sqrt(3.0))
    # the paper's N-use protocols on the measurement under check, each
    # built once: outcome 0 is declared when any use fires outcome 0
    syns = [vnsynth.trine_optimal_protocol(n, trine) for n in range(1, 7)]

    # two-use cloning protocol: the N = 2 partition, with the states
    # copied in the computational basis
    proto2 = syns[1].protocol
    e = np.eye(4, dtype=complex)
    prep_clone = vnsynth.StatePrep(ancilla_qubits=0, states=(e[:, 0], e[:, 3]))
    impl_clone = vnsynth.implemented_povm(prep_clone, proto2)
    yield ("two_use_cloning_error", rms.rms_exact_povm(impl_clone, _QUBIT_VN),
           clone_error, 1e-12, None)
    est = rms.rms_monte_carlo_povm(impl_clone, _QUBIT_VN, samples, rng.split(1))
    yield ("two_use_cloning_error_mc", est.value, clone_error, None,
           est.standard_error)

    # two-use optimum over deterministic partitions
    sol2 = vnsynth.solve_box_quadratic_qubit(0.0, 1.0 - 3.0**-2)
    yield "two_use_optimal_error", sol2.epsilon, 1.0 / 18.0, 1e-12, None
    yield "two_use_x_star", sol2.x_star, 8.0 / 9.0, 1e-12, None
    yield "two_use_y_star", sol2.y_star, 1.0 / 18.0, 1e-12, None

    # spectrum of the two-use coarse element for outcome 0: the sum, in
    # lexicographic order, of the string tensors M_a x M_b with a zero
    tensors = [[qcore.tensor(e1, e2) for e2 in trine.elements]
               for e1 in trine.elements]
    outcomes = range(trine.outcomes)
    q0 = sum(tensors[a][b] for a in outcomes for b in outcomes if 0 in (a, b))
    evals, _ = qcore.hermitian_eig(q0)
    for val, ref in zip(evals, (8.0 / 9.0, 2.0 / 3.0, 2.0 / 3.0, 0.0)):
        yield f"two_use_Q0_eigenvalue_{_fmt(ref)}", val, ref, 1e-10, None

    # N-use closed form, checked against the synthesized implementation
    impls = []
    for n, syn in enumerate(syns, 1):
        yield f"optimal_error_n={n}", syn.solution.epsilon, 3.0**-n / 2.0, 1e-10, None
        yield f"lambda_max_n={n}", syn.solution.lam_max, 1.0 - 3.0**-n, 1e-10, None
        impls.append(vnsynth.implemented_povm(syn.prep, syn.protocol))
        ref0 = np.diag([1.0 - 3.0**-n, 3.0**-n / 2.0]).astype(complex)
        dev = qcore.frobenius(impls[-1].elements[0] - ref0)
        yield f"implemented_element_deviation_n={n}", dev, 0.0, 1e-10, None

    # single-use implemented element and the naive single-use error
    dev1 = qcore.frobenius(
        impls[0].elements[0] - np.diag([2.0 / 3.0, 1.0 / 6.0]).astype(complex)
    )
    yield "single_use_element_deviation", dev1, 0.0, 1e-10, None
    naive = qcore.Povm((np.diag([2.0 / 3.0, 0.0]), np.diag([1.0 / 3.0, 1.0])))
    yield ("single_use_naive_error", rms.rms_exact_povm(naive, _QUBIT_VN),
           1.0 / (3.0 * math.sqrt(3.0)), 1e-12, None)

    # noisy-Z regions: boundary classification plus the rotation angle
    for p, q, region in (
        (0.95, 0.6, "rotate-zero"),
        (0.6, 0.95, "rotate-one"),
        (0.7, 0.7, "trivial"),
        (0.8, 0.6, "trivial"),  # exactly on p = (1+q)/2
    ):
        params = vnsynth.classify_noisy_z(p, q)
        yield (f"noisy_z_region_p={p}_q={q}",
               1.0 if params.region == region else 0.0, 1.0, 1e-10, None)
    # gamma is the amplitude <00|u0> of the synthesized first state
    gamma = vnsynth.classify_noisy_z(0.95, 0.6).gamma
    res = vnsynth.noisy_z_optimal(0.95, 0.6)
    yield "noisy_z_gamma", gamma, abs(res.prep.states[0][0]), 1e-12, None
    yield "noisy_z_error", res.solution.epsilon, (1.0 - 0.6) / 2.0, 1e-10, None

    # cloning outcome table
    table_ref = np.array([[2.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0],
                          [0.0, 0.5, 0.5]])
    dev = _table_deviation(coding.associated_channel(trine).matrix, table_ref)
    yield "cloning_table_deviation", dev, 0.0, 1e-12, None

    # joint outcome distribution of two uses on alpha|00> + beta|11>: each
    # M_a x M_b compressed onto span{|00>, |11>}, whose 2 x 2 matrix C_ab
    # gives P(a, b) = (conj(alpha), conj(beta)) C_ab (alpha, beta)^T
    c0, c1 = np.diag([4.0 / 9.0, 0.0]), np.diag([1.0 / 9.0, 0.0])
    same = np.array([[1.0 / 36.0, 1.0 / 12.0], [1.0 / 12.0, 0.25]])
    other = same * [[1.0, -1.0], [-1.0, 1.0]]
    ref = np.array([[c0, c1, c1], [c1, same, other], [c1, other, same]])
    span = np.ix_([0, 3], [0, 3])
    joint = np.array([[t[span] for t in row] for row in tensors])
    yield ("two_use_joint_distribution_deviation", _table_deviation(joint, ref),
           0.0, 1e-10, None)


def _cmd_reproduce_paper(args, report: RunReport) -> None:
    trine = io.load_povm(args.override) if args.override else qcore.trine_povm()
    if trine.dim != 2:
        # the two-use cloning rows prepare states in dimension 4
        raise ShapeMismatch(f"--override {args.override}: reproduce-paper needs "
                            f"a qubit measurement, got dimension {trine.dim}")
    for name, value, expected, tol, stderr in _paper_rows(
        trine, args.samples, Rng(args.seed)
    ):
        bound = tol if stderr is None else max(3.0 * stderr, 1e-12)
        report.add(name, value, stderr, ok=abs(value - expected) <= bound)


# ---------------------------------------------------------------------------
# Command table and runner
# ---------------------------------------------------------------------------

# dest -> (flag, argparse keywords) of every input a subcommand may read
OPTIONS = {
    "measurement": ("measurement", dict(
        help="JSON file (POVM or instrument) or built-in name (trine, "
             "noisy-z:p,q, vn:d, degenerate-qutrit)")),
    "n_uses": ("--n", dict(type=int, default=2,
                           help="number of uses of the available measurement")),
    "samples": ("--samples", dict(type=int, default=100_000,
                                  help="Monte Carlo sample count")),
    "tol": ("--tol", dict(type=float, default=1e-6, help="numerical tolerance")),
    "max_n": ("--max-n", dict(type=int, default=6,
                              help="largest number of uses to sweep")),
    "k": ("--k", dict(type=int, default=1, help="message length")),
    "copies": ("--copies", dict(type=int, default=5,
                                help="repetitions per message symbol")),
    "trials": ("--trials", dict(type=int, default=100_000,
                                help="simulated block transmissions")),
    "override": ("--override", dict(
        help="replace the built-in trine with a measurement file")),
}

# name -> (command, help, inputs it reads); the inputs also form the digest
COMMANDS = {
    "validate": (_cmd_validate, "validate a measurement file", ("measurement",)),
    "synth": (_cmd_synth, "partition search + program + states",
              ("measurement", "n_uses")),
    "rms": (_cmd_rms, "closed-form and Monte Carlo error",
            ("measurement", "n_uses", "samples")),
    "postmeas": (_cmd_postmeas, "post-measurement sub-routine check on "
                 "min(--samples, 200) Haar states", ("measurement", "samples", "tol")),
    "clone": (_cmd_clone, "basis selection + error curves", ("measurement", "max_n")),
    "capacity": (_cmd_capacity, "associated-channel capacity", ("measurement", "tol")),
    "block": (_cmd_block, "block-coding protocol simulation",
              ("measurement", "k", "copies", "trials")),
    "reproduce-paper": (_cmd_reproduce_paper,
                        "recompute and check the closed-form constants",
                        ("override", "samples")),
}


@functools.cache  # parse_args leaves the parser as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="measrep",
        description="Reproduce one quantum measurement with repeated uses "
                    "of another.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, inputs) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text, description=help_text)
        for dest in inputs:
            flag, kw = OPTIONS[dest]
            p.add_argument(flag, **(dict(kw, dest=dest) if flag[0] == "-" else kw))
        p.add_argument("--seed", type=int, default=0, help="64-bit RNG seed")
        p.add_argument("--json", action="store_true",
                       help="also print the raw report as JSON")
        p.add_argument("--out", help="write the result table as CSV")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    func, _, inputs = COMMANDS[args.command]
    report = RunReport(
        args.command, _digest(*(getattr(args, d) for d in inputs)), args.seed
    )
    t0 = time.perf_counter()
    try:
        func(args, report)
    except MalformedName as exc:
        print(f"measrep: usage error: {exc}", file=sys.stderr)
        return 2
    except MeasrepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report.wall_time = time.perf_counter() - t0
    _print_report(report, args)
    return 1 if report.failed() else 0


if __name__ == "__main__":
    sys.exit(main())
