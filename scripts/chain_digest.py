#!/usr/bin/env python3
"""Print a digest of both forcing chains over a fixed corpus of families.

Two checkouts that print the same digest give the same reports: run the
script from each and ``diff`` the outputs.

    PYTHONPATH=src python3 scripts/chain_digest.py > digest.txt

The corpus takes, for every n from 1 to --max-qubits, the path graph and
five random graphs, each with its canonical generating set and one random
recombination of it.  Each generating set gets 13 families of marginals on
its generator supports: exact; one diagonal or off-diagonal entry moved by
0.05, 1e-6 or 1e-10; one support dropped; Hermitian noise of 1e-11, 1e-7 or
1e-4 on every block; the full window; every support grown by one qubit.
Both chains run on every family at tol 1e-12, 1e-9 and 1e-3.  Each run
prints one line: the run's coordinates, status, log length, steps per rule,
repr of the largest residual, the first 16 hex digits of a sha256 of the
state's bytes (after + 0, so -0.0 and +0.0 agree), and the message.
"""

import argparse
import hashlib

import numpy as np

from stabdet.determination import (
    RdmConstraintSet,
    forcing_chain_mixed,
    forcing_chain_pure,
)
from stabdet.f2_pauli import support
from stabdet.graph_state import Graph, canonical_generators
from stabdet.stabilizer import recombine_generators, stabilizer_rdm

RANDOM_GRAPHS = 5
TOLS = (1e-12, 1e-9, 1e-3)
SHIFTS = (0.05, 1e-6, 1e-10)
NOISES = (1e-11, 1e-7, 1e-4)
CHAINS = (("pure", forcing_chain_pure), ("mixed", forcing_chain_mixed))


def random_graph(n: int, rng: np.random.Generator) -> Graph:
    theta = np.triu((rng.random((n, n)) < 0.5).astype(np.uint8), k=1)
    return Graph(theta + theta.T)


def random_recombination(gens, rng: np.random.Generator):
    while True:
        try:
            return recombine_generators(gens, rng.integers(0, 2, size=(gens.n, gens.n)))
        except ValueError:  # singular over GF(2): draw again
            pass


def families(gens, rng: np.random.Generator):
    """(name, {support: matrix}) for the 13 families on gens' supports."""
    n = gens.n
    supports = sorted({support(m) for m in gens.generators}, key=sorted)
    exact = {w: stabilizer_rdm(gens, w) for w in supports}
    yield "exact", exact
    for kind in ("diagonal", "off-diagonal"):
        for shift in SHIFTS:
            w = supports[rng.integers(len(supports))]
            dim = 1 << len(w)
            blocks = dict(exact)
            m = blocks[w].copy()
            i = int(rng.integers(dim))
            if kind == "diagonal":
                m[i, i] += shift
            else:
                j = (i + int(rng.integers(1, dim))) % dim
                delta = shift * np.exp(2j * np.pi * rng.random())
                m[i, j] += delta
                m[j, i] += np.conj(delta)
            blocks[w] = m
            yield f"{kind}+{shift:g}", blocks
    dropped = dict(exact)
    del dropped[supports[rng.integers(len(supports))]]
    yield "dropped", dropped
    for noise in NOISES:
        blocks = {}
        for w, m in exact.items():
            a = rng.normal(size=m.shape) + 1j * rng.normal(size=m.shape)
            blocks[w] = m + noise * (a + a.conj().T) / 2
        yield f"noise{noise:g}", blocks
    yield "window", {frozenset(range(n)): stabilizer_rdm(gens, range(n))}
    grown = {}
    for w in supports:
        outside = sorted(set(range(n)) - w)
        w = w | set(outside[:1])
        grown[w] = stabilizer_rdm(gens, w)
    yield "grown", grown


def digest(report) -> str:
    rules = ",".join(f"{rule}:{count}" for rule, count in report.forcing_log.counts().items())
    state = ("-" if report.state is None
             else hashlib.sha256((report.state + 0).tobytes()).hexdigest()[:16])
    return (f"{report.status} steps={len(report.forcing_log)} rules={rules} "
            f"residual={report.max_residual!r} state={state} message={report.message!r}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--max-qubits", type=int, default=7)
    args = parser.parse_args()
    if args.max_qubits < 1:
        parser.error(f"need --max-qubits >= 1, got {args.max_qubits}")

    rng = np.random.default_rng(0)
    for n in range(1, args.max_qubits + 1):
        graphs = [Graph.path(n)] + [random_graph(n, rng) for _ in range(RANDOM_GRAPHS)]
        for gi, g in enumerate(graphs):
            canonical = canonical_generators(g)
            sets = (("canonical", canonical),
                    ("recombined", random_recombination(canonical, rng)))
            for set_name, gens in sets:
                for family, blocks in families(gens, rng):
                    rdms = RdmConstraintSet(n, blocks)
                    for tol in TOLS:
                        for chain_name, chain in CHAINS:
                            report = chain(g, gens, rdms, tol=tol)
                            print(f"n={n} graph={gi} {set_name} {family} tol={tol:g} "
                                  f"{chain_name}: {digest(report)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
