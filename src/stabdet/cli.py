"""Command-line front end.

Commands: state, rdm, check, minimal, counterexample.  Exit codes: 0 for
success / Determined, 2 for parse or configuration errors, 3 for Inconsistent,
4 for Underdetermined.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .f2_pauli import DENSE_MATRIX_CAP, format_pauli, support
from .stabilizer import (
    _require_valid,
    density_matrix,
    format_density_matrix,
    minimal_support_set,
    parse_generator_file,
    stabilizer_rdm,
)
from .graph_state import canonical_generators, parse_graph_file, state_vector
from .determination import (
    DETERMINED,
    INCONSISTENT,
    UNDERDETERMINED,
    DEFAULT_TOL,
    RdmConstraintSet,
    forcing_chain_mixed,
    forcing_chain_pure,
    parse_rdm_file,
    verify_counterexample,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INCONSISTENT = 3
EXIT_UNDERDETERMINED = 4

_STATUS_EXIT = {DETERMINED: EXIT_OK, INCONSISTENT: EXIT_INCONSISTENT,
                UNDERDETERMINED: EXIT_UNDERDETERMINED}


class CommandError(Exception):
    """Parse or configuration failure; maps to exit code 2."""


def _cap(text: str) -> int:
    try:
        cap = int(text)
    except ValueError:
        cap = -1
    if cap < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return cap


def _tolerance(text: str) -> float:
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not 0 < tol < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be a finite positive number, got {text!r}")
    return tol


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise CommandError(f"cannot read {path}: {exc}")


def _emit(args, name: str, content: str) -> None:
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / name).write_text(content)
    else:
        sys.stdout.write(f"# {name}\n{content}")


def cmd_state(args) -> int:
    try:
        graph = parse_graph_file(_read(args.graph), cap=args.cap)
        vec = state_vector(graph, cap=args.cap)
        rho = density_matrix(canonical_generators(graph), cap=args.cap)
    except ValueError as exc:
        raise CommandError(str(exc))
    _emit(args, "state.txt", format_density_matrix(vec[:, None]))  # one entry a line
    _emit(args, "rho.txt", format_density_matrix(rho))
    return EXIT_OK


def cmd_rdm(args) -> int:
    try:
        gens = parse_generator_file(_read(args.generators))
        named = []
        owner = {}
        for spec in args.omega:
            omega = sorted({int(tok) for tok in spec.split(",")})
            name = "rdm_" + "".join(str(j) for j in omega) + ".txt"
            first = owner.setdefault(name, omega)
            if first != omega:
                raise ValueError(f"omega {first} and omega {omega} both map to {name}")
            named.append((omega, name))
        for omega, name in named:
            rho = stabilizer_rdm(gens, omega, cap=args.cap)
            _emit(args, name, format_density_matrix(rho))
    except ValueError as exc:
        raise CommandError(str(exc))
    return EXIT_OK


def cmd_check(args) -> int:
    try:
        # Graph holds an n x n matrix, so the vertex cap stays; the chains
        # build a 2^n array only to walk a failing family or render a step.
        graph = parse_graph_file(_read(args.graph), cap=args.cap)
        gens = canonical_generators(graph)
        if args.rdm:
            rdms = parse_rdm_file(_read(args.rdm), graph.n)
        else:
            supports = [support(m) for m in gens.generators]
            rdms = RdmConstraintSet(graph.n, {w: stabilizer_rdm(gens, w, cap=args.cap)
                                              for w in supports})
        chain = forcing_chain_pure if args.pure else forcing_chain_mixed
        report = chain(graph, gens, rdms, tol=args.tol)
    except ValueError as exc:
        raise CommandError(str(exc))

    log = report.forcing_log
    if args.json:
        print(json.dumps({"status": report.status,
                          "residual": report.max_residual,
                          "steps": log.steps,
                          "rules": log.counts(),
                          "message": report.message}))
    else:
        print("Reconstruction report")
        print(f"  mode: {'pure' if args.pure else 'mixed'}")
        print(f"  forcing steps: {log.steps}")
        for rule, count in log.counts().items():
            print(f"    {rule}: {count}")
        if report.message:
            print(f"  note: {report.message}")
        try:
            last = log[-1] if log else None
        except ValueError:  # a chain's step is not rendered above DENSE_VECTOR_CAP qubits
            last = None
        if last is not None:
            print(f"  last step: entries {last.indices} by rule {last.rule!r}")
        print(f"status={report.status} residual={report.max_residual:.6g}")
    return _STATUS_EXIT[report.status]


def cmd_minimal(args) -> int:
    try:
        gens = parse_generator_file(_read(args.generators))
        _require_valid(gens)
        supports = minimal_support_set(gens)
    except ValueError as exc:
        raise CommandError(str(exc))
    for omega in sorted(supports, key=lambda w: (len(w), sorted(w))):
        print(",".join(str(j) for j in sorted(omega)))
    return EXIT_OK


def cmd_counterexample(args) -> int:
    report = verify_counterexample(tol=args.tol)
    if args.json:
        print(json.dumps({
            "trace_distance": report.trace_distance,
            "shared_supports": {",".join(map(str, sorted(w))): dev
                                for w, dev in report.shared_supports.items()},
            "full_set_status": report.full_set_status,
            "all_pass": report.all_pass,
        }))
    else:
        for name, gens in (("path-graph", report.graph_generators),
                           ("competing", report.impostor_generators)):
            print(f"{name} generators: {' '.join(map(format_pauli, gens.generators))}")
        print(f"trace distance between the two states: {report.trace_distance:.6g} "
              f"({'> 0.1' if report.states_differ else 'NOT > 0.1'})")
        for w, dev in sorted(report.shared_supports.items(),
                             key=lambda kv: sorted(kv[0])):
            print(f"  marginal on {sorted(w)} agrees to {dev:.3g}")
        print(f"shrunken-support marginals all agree: {report.marginals_agree}")
        for w, dev in sorted(report.distinguishing_supports.items(),
                             key=lambda kv: sorted(kv[0])):
            tag = "distinguishes" if dev > args.tol else "agrees"
            print(f"  full support {sorted(w)}: {tag} (deviation {dev:.3g})")
        print(f"full-support family separates the states: {report.full_set_distinguishes}")
        print(f"full-support family result: {report.full_set_status}")
    return EXIT_OK if report.all_pass else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="stabdet")
    sub = parser.add_subparsers(dest="command", required=True)

    options = {
        "--tol": dict(type=_tolerance, default=DEFAULT_TOL,
                      help="absolute tolerance for equality checks"),
        "--cap": dict(type=_cap, default=DENSE_MATRIX_CAP,
                      help=f"dense-size cap in qubits (default {DENSE_MATRIX_CAP})"),
        "--json": dict(action="store_true",
                       help="emit a machine-readable summary"),
        "--out": dict(default=None, help="output directory (default: stdout)"),
    }

    def common(p, *flags):
        for flag in flags:
            p.add_argument(flag, **options[flag])

    p = sub.add_parser("state", help="graph file -> state vector and density matrix")
    p.add_argument("graph")
    common(p, "--cap", "--out")
    p.set_defaults(func=cmd_state)

    p = sub.add_parser("rdm", help="generator file -> reduced density matrices")
    p.add_argument("generators")
    p.add_argument("--omega", action="append", required=True,
                   help="comma-separated qubit indices; repeatable")
    common(p, "--cap", "--out")
    p.set_defaults(func=cmd_rdm)

    p = sub.add_parser("check", help="run the determination check on a graph")
    p.add_argument("graph")
    p.add_argument("--rdm", default=None,
                   help="constraint file (default: self-check from the graph)")
    p.add_argument("--pure", action="store_true",
                   help="use the pure-state chain instead of the mixed one")
    common(p, "--tol", "--cap", "--json")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("minimal", help="minimal support set of a generator file")
    p.add_argument("generators")
    p.set_defaults(func=cmd_minimal)

    p = sub.add_parser("counterexample",
                       help="verify the 4-qubit shrunken-support counterexample")
    common(p, "--tol", "--json")
    p.set_defaults(func=cmd_counterexample)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except CommandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
