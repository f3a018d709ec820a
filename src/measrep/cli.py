"""Command-line front end.

One subcommand per library capability plus ``reproduce-paper``, a
self-checking harness that recomputes the closed-form constants of the
trine and noisy-Z measurement families and verifies them row by row.
Human-readable tables go to standard output; ``--out`` writes the same
rows as CSV; ``--json`` dumps the raw report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from . import coding, io, qcore, rms, subroutines, vnsynth
from .errors import MalformedName, MeasrepError
from .qcore import Rng


@dataclass
class RunReport:
    """Result table of one CLI invocation."""

    command: str
    inputs_digest: str
    seed: int
    rows: List[Tuple[str, float, Optional[float], str]] = field(default_factory=list)
    wall_time: float = 0.0

    def add(self, name: str, value: float, stderr: Optional[float] = None,
            status: str = ""):
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
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write("name,value,stderr,status\n")
            for name, value, stderr, status in report.rows:
                se = _fmt(stderr) if stderr is not None else ""
                fh.write(f"{name},{_fmt(value)},{se},{status}\n")
    if getattr(args, "json", False):
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
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_validate(args) -> int:
    report = RunReport("validate", _digest(args.measurement), args.seed)
    t0 = time.perf_counter()
    obj = io.load_measurement(args.measurement)
    if isinstance(obj, qcore.Povm):
        rep = qcore.validate_povm(obj)
        report.add("completeness_defect", rep.completeness_defect,
                   status="PASS" if rep.ok else "FAIL")
        for a, lo in enumerate(rep.min_eigenvalues):
            report.add(f"min_eigenvalue[{a}]", lo)
        for v in rep.violations:
            print(f"violation: {v}")
        ok = rep.ok
    else:
        defect = obj.normalization_defect()
        report.add("normalization_defect", defect,
                   status="PASS" if defect <= 1e-9 else "FAIL")
        ok = defect <= 1e-9
    report.wall_time = time.perf_counter() - t0
    _print_report(report, args)
    return 0 if ok else 1


def _cmd_synth(args) -> int:
    report = RunReport("synth", _digest(args.measurement, args.n_uses), args.seed)
    t0 = time.perf_counter()
    available = io.load_measurement(args.measurement)
    if available.outcomes**args.n_uses <= vnsynth.EXHAUSTIVE_STRING_CAP:
        result = vnsynth.exhaustive_search(available, args.n_uses)
    else:
        result = vnsynth.hill_climb_search(available, args.n_uses,
                                           rng=Rng(args.seed))
    report.add("partitions_evaluated", result.evaluated)
    sol = result.solution
    report.add("epsilon", sol.epsilon)
    # same optimum under the normalization without the 1/m outcome
    # average (differs by a constant factor, argmin unchanged)
    report.add("epsilon_unaveraged", sol.epsilon * math.sqrt(2.0))
    report.add("x_star", sol.x_star)
    report.add("y_star", sol.y_star)
    report.add("lambda_min", sol.lam_min)
    report.add("lambda_max", sol.lam_max)
    prep = vnsynth.construct_states(result.protocol, (sol.x_star, sol.y_star))
    report.add("ancilla_qubits", prep.ancilla_qubits)
    impl = vnsynth.implemented_povm(prep, result.protocol)
    m0 = impl.elements[0]
    closed = rms.rms_closed_form_qubit(
        float(m0[0, 0].real), float(m0[1, 1].real), complex(m0[0, 1])
    )
    report.add("epsilon_implemented", closed)
    report.wall_time = time.perf_counter() - t0
    _print_report(report, args)
    return 0


def _cmd_rms(args) -> int:
    report = RunReport(
        "rms", _digest(args.measurement, args.n_uses, args.samples), args.seed
    )
    t0 = time.perf_counter()
    available = io.load_measurement(args.measurement)
    result = vnsynth.hill_climb_search(available, args.n_uses, rng=Rng(args.seed))
    sol = result.solution
    prep = vnsynth.construct_states(result.protocol, (sol.x_star, sol.y_star))
    impl = vnsynth.implemented_povm(prep, result.protocol)
    target = qcore.von_neumann_povm(2)
    report.add("epsilon_closed_form", sol.epsilon)
    est = rms.rms_monte_carlo_povm(impl, target, args.samples, Rng(args.seed))
    report.add("epsilon_monte_carlo", est.value, est.standard_error)
    report.wall_time = time.perf_counter() - t0
    _print_report(report, args)
    return 0


def _cmd_postmeas(args) -> int:
    report = RunReport(
        "postmeas", _digest(args.measurement, args.samples), args.seed
    )
    t0 = time.perf_counter()
    obj = io.load_measurement(args.measurement)
    inst = obj if isinstance(obj, qcore.Instrument) else qcore.lueders_instrument(obj)
    rng = Rng(args.seed)
    n_states = min(args.samples, 200)
    worst_p = worst_s = 0.0
    for _ in range(n_states):
        psi = qcore.haar_state(inst.dim_in, rng)
        rho = qcore.density(psi)
        for a, prob, post in subroutines.run_post_measurement(inst, psi):
            out = np.zeros((inst.dim_out, inst.dim_out), dtype=complex)
            for k in inst.kraus[a]:
                out += k @ rho @ qcore.dagger(k)
            p_ref = float(np.trace(out).real)
            worst_p = max(worst_p, abs(prob - p_ref))
            if post is not None and p_ref > 1e-12:
                worst_s = max(worst_s, qcore.frobenius(post - out / p_ref))
    ok = worst_p <= args.tol and worst_s <= args.tol
    report.add("max_probability_deviation", worst_p,
               status="PASS" if worst_p <= args.tol else "FAIL")
    report.add("max_poststate_deviation", worst_s,
               status="PASS" if worst_s <= args.tol else "FAIL")
    report.wall_time = time.perf_counter() - t0
    _print_report(report, args)
    return 0 if ok else 1


def _cmd_clone(args) -> int:
    report = RunReport(
        "clone", _digest(args.measurement, args.max_n), args.seed
    )
    t0 = time.perf_counter()
    available = io.load_measurement(args.measurement)
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
    for n in range(1, args.max_n + 1):
        err = subroutines.cloning_error_rate(available, basis, n, mode="exact")
        report.add(f"error_n={n}", err.average)
    report.wall_time = time.perf_counter() - t0
    _print_report(report, args)
    return 0


def _cmd_capacity(args) -> int:
    report = RunReport("capacity", _digest(args.measurement, args.tol), args.seed)
    t0 = time.perf_counter()
    available = io.load_measurement(args.measurement)
    if isinstance(available, qcore.Instrument):
        available = qcore.induced_povm(available)
    channel = coding.associated_channel(available)
    cap = coding.blahut_arimoto(channel, tol=args.tol)
    report.add("capacity_bits", cap.capacity)
    report.add("upper_bound_bits", cap.upper_bound)
    report.add("gap_bits", cap.gap)
    report.add("iterations", cap.iterations)
    for x, px in enumerate(cap.p_x):
        report.add(f"p_x[{x}]", px)
    report.wall_time = time.perf_counter() - t0
    _print_report(report, args)
    return 0


def _cmd_block(args) -> int:
    report = RunReport(
        "block",
        _digest(args.measurement, args.k, args.copies, args.trials),
        args.seed,
    )
    t0 = time.perf_counter()
    available = io.load_measurement(args.measurement)
    if isinstance(available, qcore.Instrument):
        available = qcore.induced_povm(available)
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
    report.wall_time = time.perf_counter() - t0
    _print_report(report, args)
    return 0


# ---------------------------------------------------------------------------
# reproduce-paper
# ---------------------------------------------------------------------------


def _check(report: RunReport, name: str, value: float, expected: float,
           tol: float = 1e-10, stderr: Optional[float] = None):
    if stderr is not None:
        ok = abs(value - expected) <= max(3.0 * stderr, 1e-12)
    else:
        ok = abs(value - expected) <= tol
    report.add(name, value, stderr, "PASS" if ok else "FAIL")


def _cmd_reproduce_paper(args) -> int:
    report = RunReport("reproduce-paper", _digest(args.override), args.seed)
    t0 = time.perf_counter()
    trine = (
        io.load_measurement(args.override) if args.override else qcore.trine_povm()
    )
    if isinstance(trine, qcore.Instrument):
        trine = qcore.induced_povm(trine)
    target = qcore.von_neumann_povm(2)
    rng = Rng(args.seed)

    # two-use cloning protocol: copy in the computational basis, declare
    # outcome 0 when any use fires outcome 0
    proto2 = vnsynth.build_partition_povm(
        trine, 2, lambda s: 0 if 0 in s else 1, 2
    )
    e = np.eye(4, dtype=complex)
    prep_clone = vnsynth.StatePrep(
        n_measured=2, ancilla_qubits=0, states=(e[:, 0], e[:, 3])
    )
    impl_clone = vnsynth.implemented_povm(prep_clone, proto2)
    m0 = impl_clone.elements[0]
    eps_clone = rms.rms_closed_form_qubit(
        float(m0[0, 0].real), float(m0[1, 1].real), complex(m0[0, 1])
    )
    _check(report, "two_use_cloning_error", eps_clone, 1.0 / (9.0 * math.sqrt(3.0)),
           tol=1e-12)
    est = rms.rms_monte_carlo_povm(impl_clone, target, args.samples, rng.split(1))
    _check(report, "two_use_cloning_error_mc", est.value,
           1.0 / (9.0 * math.sqrt(3.0)), stderr=est.standard_error)

    # two-use optimum
    sol2 = vnsynth.solve_box_quadratic_qubit(0.0, 1.0 - 3.0**-2)
    _check(report, "two_use_optimal_error", sol2.epsilon, 1.0 / 18.0, tol=1e-12)
    _check(report, "two_use_x_star", sol2.x_star, 8.0 / 9.0, tol=1e-12)
    _check(report, "two_use_y_star", sol2.y_star, 1.0 / 18.0, tol=1e-12)

    # spectrum of the two-use coarse element for outcome 0
    evals, _ = qcore.hermitian_eig(proto2.coarse[0])
    for val, ref in zip(evals, (8.0 / 9.0, 2.0 / 3.0, 2.0 / 3.0, 0.0)):
        _check(report, f"two_use_Q0_eigenvalue_{_fmt(ref)}", val, ref)

    # N-use closed form, checked against the synthesized implementation
    for n in range(1, 7):
        syn = vnsynth.trine_optimal_protocol(n)
        _check(report, f"optimal_error_n={n}", syn.solution.epsilon,
               3.0**-n / 2.0)
        _check(report, f"lambda_max_n={n}", syn.solution.lam_max, 1.0 - 3.0**-n)
        impl = vnsynth.implemented_povm(syn.prep, syn.protocol)
        ref0 = np.diag([1.0 - 3.0**-n, 3.0**-n / 2.0]).astype(complex)
        dev = qcore.frobenius(impl.elements[0] - ref0)
        _check(report, f"implemented_element_deviation_n={n}", dev, 0.0)

    # single-use implemented element and the naive single-use error
    syn1 = vnsynth.trine_optimal_protocol(1)
    impl1 = vnsynth.implemented_povm(syn1.prep, syn1.protocol)
    dev1 = qcore.frobenius(
        impl1.elements[0] - np.diag([2.0 / 3.0, 1.0 / 6.0]).astype(complex)
    )
    _check(report, "single_use_element_deviation", dev1, 0.0)
    eps_naive = rms.rms_closed_form_qubit(2.0 / 3.0, 0.0)
    _check(report, "single_use_naive_error", eps_naive,
           1.0 / (3.0 * math.sqrt(3.0)), tol=1e-12)

    # noisy-Z regions: boundary classification plus the rotation angle
    for p, q, region in (
        (0.95, 0.6, "rotate-zero"),
        (0.6, 0.95, "rotate-one"),
        (0.7, 0.7, "trivial"),
        (0.8, 0.6, "trivial"),  # exactly on p = (1+q)/2
    ):
        params = vnsynth.classify_noisy_z(p, q)
        _check(report, f"noisy_z_region_p={p}_q={q}",
               1.0 if params.region == region else 0.0, 1.0)
    params = vnsynth.classify_noisy_z(0.95, 0.6)
    gamma_ref = math.sqrt((3.0 * 0.6 - 1.0) / (2.0 * (0.95 + 0.6 - 1.0)))
    _check(report, "noisy_z_gamma", params.gamma, gamma_ref, tol=1e-12)
    res = vnsynth.noisy_z_optimal(0.95, 0.6)
    _check(report, "noisy_z_error", res.solution.epsilon, (1.0 - 0.6) / 2.0)

    # cloning outcome table
    channel = coding.associated_channel(trine)
    table_ref = np.array([[2.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0],
                          [0.0, 0.5, 0.5]])
    if channel.matrix.shape == table_ref.shape:
        dev = float(np.max(np.abs(channel.matrix - table_ref)))
    else:
        dev = 1.0
    _check(report, "cloning_table_deviation", dev, 0.0, tol=1e-12)

    # joint outcome distribution of two uses on alpha|00> + beta|11>
    g = rng.split(2).generator
    worst = 0.0
    for _ in range(10):
        z = g.standard_normal(2) + 1j * g.standard_normal(2)
        z /= np.linalg.norm(z)
        alpha, beta = z
        psi = np.zeros(4, dtype=complex)
        psi[0], psi[3] = alpha, beta
        aa, bb = abs(alpha) ** 2, abs(beta) ** 2
        cross = float((alpha * np.conj(beta) + np.conj(alpha) * beta).real) / 12.0
        ref = np.array([
            [4.0 / 9.0 * aa, aa / 9.0, aa / 9.0],
            [aa / 9.0, 1.0 / 36.0 + 2.0 / 9.0 * bb + cross,
             1.0 / 36.0 + 2.0 / 9.0 * bb - cross],
            [aa / 9.0, 1.0 / 36.0 + 2.0 / 9.0 * bb - cross,
             1.0 / 36.0 + 2.0 / 9.0 * bb + cross],
        ])
        for a1 in range(trine.outcomes):
            for a2 in range(trine.outcomes):
                op = qcore.tensor(trine.elements[a1], trine.elements[a2])
                prob = float(np.real(np.conj(psi) @ (op @ psi)))
                if ref.shape == (3, 3):
                    worst = max(worst, abs(prob - ref[a1, a2]))
                else:
                    worst = 1.0
    _check(report, "two_use_joint_distribution_deviation", worst, 0.0)

    report.wall_time = time.perf_counter() - t0
    _print_report(report, args)
    return 0 if not report.failed() else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="measrep",
        description="Reproduce one quantum measurement with repeated uses "
                    "of another.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, measurement=True):
        if measurement:
            p.add_argument("measurement",
                           help="JSON file or built-in name (trine, "
                                "noisy-z:p,q, vn:d, degenerate-qutrit)")
        p.add_argument("--seed", type=int, default=0, help="64-bit RNG seed")
        p.add_argument("--samples", type=int, default=100_000,
                       help="Monte Carlo sample count")
        p.add_argument("--tol", type=float, default=1e-6,
                       help="numerical tolerance")
        p.add_argument("--max-n", dest="max_n", type=int, default=6,
                       help="largest number of uses to sweep")
        p.add_argument("--json", action="store_true",
                       help="also print the raw report as JSON")
        p.add_argument("--out", help="write the result table as CSV")

    p = sub.add_parser("validate", help="validate a measurement file")
    common(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("synth", help="partition search + program + states")
    common(p)
    p.add_argument("--n", dest="n_uses", type=int, default=2,
                   help="number of uses of the available measurement")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("rms", help="closed-form and Monte Carlo error")
    common(p)
    p.add_argument("--n", dest="n_uses", type=int, default=2)
    p.set_defaults(func=_cmd_rms)

    p = sub.add_parser("postmeas", help="post-measurement sub-routine check")
    common(p)
    p.set_defaults(func=_cmd_postmeas)

    p = sub.add_parser("clone", help="basis selection + error curves")
    common(p)
    p.set_defaults(func=_cmd_clone)

    p = sub.add_parser("capacity", help="associated-channel capacity")
    common(p)
    p.set_defaults(func=_cmd_capacity)

    p = sub.add_parser("block", help="block-coding protocol simulation")
    common(p)
    p.add_argument("--k", type=int, default=1, help="message length")
    p.add_argument("--copies", type=int, default=5,
                   help="repetitions per message symbol")
    p.add_argument("--trials", type=int, default=100_000)
    p.set_defaults(func=_cmd_block)

    p = sub.add_parser("reproduce-paper",
                       help="recompute and check the closed-form constants")
    common(p, measurement=False)
    p.add_argument("--override",
                   help="replace the built-in trine with a measurement file")
    p.set_defaults(func=_cmd_reproduce_paper)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MalformedName as exc:
        print(f"measrep: usage error: {exc}", file=sys.stderr)
        return 2
    except MeasrepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
