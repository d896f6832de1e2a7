#!/usr/bin/env python3
"""Walk through the four-qubit shrunken-support counterexample.

Prints the generators of the path-graph state and of the rank-2 mixed state
whose generator set drops one window, then the marginal deviations that
``verify_counterexample`` reports: only the full generator-support family
separates the two states.

    PYTHONPATH=src python3 scripts/counterexample_demo.py
"""

import argparse

from stabdet.cli import _tolerance
from stabdet.determination import (
    COUNTEREXAMPLE_IMPOSTOR_GENERATORS,
    verify_counterexample,
)
from stabdet.f2_pauli import DEFAULT_TOL, format_pauli
from stabdet.graph_state import Graph, canonical_generators


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)
    args = parser.parse_args()

    graph_gens = canonical_generators(Graph.path(4))
    report = verify_counterexample(tol=args.tol)

    print("path-graph generators: ",
          " ".join(format_pauli(m) for m in graph_gens.generators))
    print("competing generators:  ", " ".join(COUNTEREXAMPLE_IMPOSTOR_GENERATORS))
    print(f"trace distance: {report.trace_distance:.6f}")
    print()

    print("marginals on the shrunken support family:")
    for omega, dev in sorted(report.shared_supports.items(), key=lambda kv: sorted(kv[0])):
        print(f"  qubits {sorted(omega)}: max deviation {dev:.3g}")
    print()

    print("marginals on the full generator-support family:")
    for omega, dev in report.distinguishing_supports.items():
        tag = "distinguishes" if dev > args.tol else "agrees"
        print(f"  qubits {sorted(omega)}: {tag} (max deviation {dev:.3g})")
    print()

    print(f"full-support reconstruction status: {report.full_set_status}")
    print("all checks pass" if report.all_pass else "SOME CHECK FAILED")
    return 0 if report.all_pass else 1


if __name__ == "__main__":
    raise SystemExit(main())
