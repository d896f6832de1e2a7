#!/usr/bin/env python3
"""Print a digest of the generator-set path over a fixed corpus of sets.

Two checkouts that print the same digest give the same validation reports,
pivoted forms, closed-form RDMs, graph-form reductions and minimal support
sets: run the script from each and ``diff`` the outputs.

    PYTHONPATH=src python3 scripts/form_digest.py --min-qubits 1 --max-qubits 8

For every n in the range the corpus takes SETS random general-form sets:
a random graph's canonical generators under a random local Clifford layer,
with random signs, recombined by a random invertible matrix.  Each set comes
in four variants: the full set; a prefix of l < n generators; the set with
one generator replaced by a random Pauli operator of any phase (most often
invalid); and the set with its last generator replaced by a product of the
others (dependent).  Each variant prints one line: its coordinates, its
validation report, and the first 16 hex digits of a sha256 of, in turn, its
form, its RDMs on three random index sets (and on all qubits for n <= 8),
its ``lc_to_graph`` (theta, gates) and its minimal support set.  A part that
does not apply to the variant prints ``-``.
"""

import argparse
import hashlib

import numpy as np

from stabdet.f2_pauli import PauliOperator
from stabdet.graph_state import Graph, LocalCliffordLayer, canonical_generators, lc_to_graph
from stabdet.stabilizer import (
    GeneratorSet,
    minimal_support_set,
    product,
    recombine_generators,
    stabilizer_rdm,
    validate,
)

FULL_WINDOW_MAX_QUBITS = 8
SETS = 12  # full sets per qubit count


def short_hash(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def random_general_form(n: int, rng: np.random.Generator) -> GeneratorSet:
    theta = np.triu((rng.random((n, n)) < 0.5).astype(np.uint8), k=1)
    layer = LocalCliffordLayer(tuple(tuple(str(gate) for gate in rng.choice(
        list("HSXZ"), size=int(rng.integers(0, 4)))) for _ in range(n)))
    ops = []
    for g in canonical_generators(Graph(theta + theta.T)).generators:
        g = layer.conjugate(g)
        ops.append(PauliOperator((g.phase_exp + 2 * int(rng.integers(0, 2))) % 4, g.u, g.v, n))
    while True:
        try:
            return recombine_generators(GeneratorSet(tuple(ops), n),
                                        rng.integers(0, 2, size=(n, n)))
        except ValueError:  # singular over GF(2): draw again
            pass


def variants(gens: GeneratorSet, rng: np.random.Generator):
    """(name, set) for the four variants of one full set."""
    n, ops = gens.n, gens.generators
    yield "full", gens
    yield "prefix", GeneratorSet(ops[:int(rng.integers(0, n))], n)
    s = int(rng.integers(n))
    other = PauliOperator(int(rng.integers(4)), int(rng.integers(1 << n)),
                          int(rng.integers(1 << n)), n)
    yield "replaced", GeneratorSet(ops[:s] + (other,) + ops[s + 1:], n)
    last = PauliOperator(*product([g.row for g in ops[:-1]], (1 << (n - 1)) - 1), n)
    yield "dependent", GeneratorSet(ops[:-1] + (last,), n)


def line(gens: GeneratorSet, rng: np.random.Generator) -> str:
    n = gens.n
    report = validate(gens)
    form = rdms = graph = "-"
    if report.ok:
        form = short_hash(repr([(pivot, *row) for pivot, row in gens.rows]).encode())
        omegas = [sorted(rng.choice(n, size=int(rng.integers(1, min(n, 4) + 1)),
                                    replace=False).tolist()) for _ in range(3)]
        if n <= FULL_WINDOW_MAX_QUBITS:
            omegas.append(list(range(n)))
        rdms = short_hash(b"".join(stabilizer_rdm(gens, w).tobytes() for w in omegas))
        if gens.l == n:
            g, layer = lc_to_graph(gens)
            graph = short_hash(g.theta.tobytes() + repr(layer.gates).encode())
    minimal = short_hash(repr(sorted(sorted(w) for w in minimal_support_set(gens))).encode())
    flags = "".join("+" if f else "-" for f in (report.commuting, report.independent,
                                                report.hermitian))
    return (f"l={gens.l} valid={flags} problems={list(report.problems)} form={form} "
            f"rdms={rdms} graph={graph} minimal={minimal}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--min-qubits", type=int, default=1)
    parser.add_argument("--max-qubits", type=int, default=8)
    args = parser.parse_args()
    if not 1 <= args.min_qubits <= args.max_qubits:
        parser.error("need 1 <= --min-qubits <= --max-qubits")

    for n in range(args.min_qubits, args.max_qubits + 1):
        rng = np.random.default_rng(n)
        for i in range(SETS):
            for name, gens in variants(random_general_form(n, rng), rng):
                print(f"n={n} set={i} {name}: {line(gens, rng)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
