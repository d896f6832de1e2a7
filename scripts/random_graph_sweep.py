#!/usr/bin/env python3
"""Sweep random graphs and confirm both reconstruction chains succeed.

For each sampled graph the script builds the exact marginal family on the
canonical generator supports, one closed-form RDM per support as the
``stabdet check`` self-check does, runs the pure-state and mixed
reconstructions, and reports worst-case residuals (against the explicit state
vector and density matrix) and forcing-log sizes per qubit count.

    PYTHONPATH=src python3 scripts/random_graph_sweep.py --trials 20
"""

import argparse
import time
from dataclasses import dataclass, field

import numpy as np

from stabdet.cli import _tolerance
from stabdet.determination import (
    DETERMINED,
    RdmConstraintSet,
    forcing_chain_mixed,
    forcing_chain_pure,
)
from stabdet.f2_pauli import DEFAULT_TOL, support
from stabdet.graph_state import Graph, canonical_generators, state_vector
from stabdet.stabilizer import density_matrix, stabilizer_rdm

EDGE_PROBABILITY = 0.5


@dataclass
class SweepTally:
    count: int = 0
    pure_residual: float = 0.0
    mixed_residual: float = 0.0
    log_sizes: list = field(default_factory=list)


def sample_graph(n: int, rng: np.random.Generator) -> Graph:
    theta = np.triu((rng.random((n, n)) < EDGE_PROBABILITY).astype(np.uint8), k=1)
    return Graph(theta + theta.T)


def run_sweep(args: argparse.Namespace) -> dict:
    rng = np.random.default_rng(args.seed)
    tallies: dict[int, SweepTally] = {}
    for _ in range(args.trials):
        n = int(rng.integers(args.min_qubits, args.max_qubits + 1))
        g = sample_graph(n, rng)
        gens = canonical_generators(g)
        rdms = RdmConstraintSet(n, {support(m): stabilizer_rdm(gens, support(m))
                                    for m in gens.generators})

        pure = forcing_chain_pure(g, gens, rdms, tol=args.tol)
        mixed = forcing_chain_mixed(g, gens, rdms, tol=args.tol)
        if pure.status != DETERMINED or mixed.status != DETERMINED:
            raise RuntimeError(f"reconstruction failed on edges {g.edges}")

        tally = tallies.setdefault(n, SweepTally())
        tally.count += 1
        tally.pure_residual = max(
            tally.pure_residual,
            float(np.max(np.abs(pure.state - state_vector(g)))))
        tally.mixed_residual = max(
            tally.mixed_residual,
            float(np.max(np.abs(mixed.state - density_matrix(gens)))))
        tally.log_sizes.append(len(mixed.forcing_log))
    return tallies


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=100)
    parser.add_argument("--min-qubits", type=int, default=2)
    parser.add_argument("--max-qubits", type=int, default=6)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)
    args = parser.parse_args()
    if not 0 <= args.min_qubits <= args.max_qubits:
        parser.error("need 0 <= --min-qubits <= --max-qubits, got "
                     f"{args.min_qubits} and {args.max_qubits}")

    start = time.perf_counter()
    tallies = run_sweep(args)
    elapsed = time.perf_counter() - start

    print(f"{args.trials} graphs, seed {args.seed}, {elapsed:.1f}s")
    print(f"{'n':>3} {'graphs':>7} {'pure residual':>14} "
          f"{'mixed residual':>15} {'mixed log size':>15}")
    for n in sorted(tallies):
        t = tallies[n]
        sizes = f"{min(t.log_sizes)}..{max(t.log_sizes)}"
        print(f"{n:>3} {t.count:>7} {t.pure_residual:>14.3e} "
              f"{t.mixed_residual:>15.3e} {sizes:>15}")
    print("all reconstructions returned Determined")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
