"""The three benchmark workloads.

Each workload makes its inputs from the seed, runs one op at a time through
a call hook (``tracer.untraced`` or ``Tracer.call``), and checks each op's
output with the reference code in ``oracle``, never with the code it times.

* ``marginals``: the ``stabdet rdm`` path on general-form generator sets with
  n = 12-14.  Each RDM costs 2^n Pauli products today.
* ``determination``: family build plus both forcing chains on graphs with
  n = 5-8.  The mixed chain's 4^n/2 entry loop dominates.
* ``cli``: a fixed cycle of ``stabdet`` subprocesses.  Only this workload pays
  interpreter start, ``import stabdet.cli`` and text I/O on every op.
"""

from __future__ import annotations

import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import oracle

TOL = 1e-9


def _closed_neighbourhoods(adj: list) -> list:
    """Distinct supports of the canonical graph generators, in vertex order."""
    out = []
    for s in range(len(adj)):
        w = oracle.closed_neighbourhood(adj, s)
        if w not in out:
            out.append(w)
    return out


def _dropped_status(supports: list, dropped: frozenset) -> str:
    """Status after removing one support: a remaining superset covers it."""
    covered = any(w >= dropped for w in supports if w != dropped)
    return "Determined" if covered else "Underdetermined"


def _pick_omegas(rng: random.Random, adj: list, count: int) -> list:
    """One omega that holds a generator support (so k > 0) when some closed
    neighbourhood has at most 4 qubits, the rest random with |omega| in 2..4."""
    n = len(adj)
    small = [w for w in _closed_neighbourhoods(adj) if len(w) <= 4]
    omegas = [sorted(rng.choice(small))] if small else []
    while len(omegas) < count:
        omegas.append(sorted(rng.sample(range(n), rng.choice((2, 3, 4)))))
    return omegas


def _minimal_supports(gens: list) -> set:
    masks = [oracle.support_mask(op) for op in gens]
    return {oracle.mask_to_set(m) for m in masks
            if not any(m | o == o and m != o for o in masks)}


class _Library:
    """Defaults for the workloads that call stabdet in-process."""

    def probes(self) -> dict:
        return {}

    @staticmethod
    def counts(out) -> dict:
        return {}

    @staticmethod
    def peak_rss_kb() -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# marginals
# ---------------------------------------------------------------------------

class Marginals(_Library):
    SIZES = (12, 13, 14)
    TINY_SIZES = (4, 5, 6)
    DENSITIES = (0.15, 0.35)
    OMEGAS_PER_OP = 3
    CYCLES = 4

    def __init__(self, seed: int, tiny: bool):
        from stabdet.graph_state import lc_to_graph
        from stabdet.stabilizer import (minimal_support_set, parse_generator_file,
                                        stabilizer_rdm, validate)
        self._fns = (parse_generator_file, validate, lc_to_graph,
                     minimal_support_set, stabilizer_rdm)
        rng = random.Random(f"marginals:{seed}")
        sizes = self.TINY_SIZES if tiny else self.SIZES
        self.specs = []
        for _ in range(self.CYCLES):
            for n in sizes:
                for density in self.DENSITIES:
                    adj = oracle.random_graph(rng, n, density)
                    base, mixed = oracle.random_general_form(rng, adj)
                    self.specs.append({
                        "n": n, "base": base, "mixed": mixed,
                        "text": oracle.generator_file_text(mixed, n),
                        "omegas": _pick_omegas(rng, adj, self.OMEGAS_PER_OP),
                    })
        self.cycle = len(sizes) * len(self.DENSITIES)
        self._reference = {}

    def op(self, i: int, call):
        parse, validate, lc_to_graph, minimal, rdm = self._fns
        spec = self.specs[i % len(self.specs)]
        gens = call("stabilizer.parse_generator_file", parse, spec["text"])
        report = call("stabilizer.validate", validate, gens)
        if not report.ok:
            raise ValueError("; ".join(report.problems))
        graph, layer = call("graph_state.lc_to_graph", lc_to_graph, gens)
        supports = call("stabilizer.minimal_support_set", minimal, gens)
        rdms = [call("stabilizer.stabilizer_rdm", rdm, gens, w) for w in spec["omegas"]]
        return {"theta": graph.theta, "gates": layer.gates, "minimal": supports,
                "rdms": rdms}

    def reference(self, i: int) -> list:
        """Oracle (rho, k) per omega, from the generators before recombination."""
        key = i % len(self.specs)
        if key not in self._reference:
            spec = self.specs[key]
            self._reference[key] = [oracle.marginal(spec["base"], w, spec["n"])
                                    for w in spec["omegas"]]
        return self._reference[key]

    def check(self, i: int, out) -> str:
        spec = self.specs[i % len(self.specs)]
        n = spec["n"]
        for w, got, (ref, _) in zip(spec["omegas"], out["rdms"], self.reference(i)):
            problem = oracle.is_projector_rdm(got)
            if problem:
                return f"RDM on {w}: {problem}"
            if np.max(np.abs(got - ref)) > TOL:
                return f"RDM on {w} differs from the recombination-free reference"
        theta = out["theta"]
        adj = [sum(int(theta[s, t]) << t for t in range(n)) for s in range(n)]
        for g, op in enumerate(spec["mixed"]):
            image = oracle.from_letters(*oracle.conjugate_letters(
                *oracle.to_letters(op, n), out["gates"]))
            if not oracle.in_graph_group(image, adj):
                return f"generator {g} conjugated by the layer is not in the graph's group"
        if set(out["minimal"]) != _minimal_supports(spec["mixed"]):
            return "minimal support set differs from the reference"
        return ""

    @staticmethod
    def corrupt(out):
        out["rdms"][0] = out["rdms"][0].copy()
        out["rdms"][0][0, 0] += 0.25
        return out

    def input_stats(self) -> dict:
        sizes = [len(w) for s in self.specs for w in s["omegas"]]
        ks = [k for i in range(len(self.specs)) for _, k in self.reference(i)]
        return {
            "n": dict(sorted(_histogram(s["n"] for s in self.specs).items())),
            "omega_size": dict(sorted(_histogram(sizes).items())),
            "share_k_positive": sum(k > 0 for k in ks) / len(ks),
        }

    def probes(self) -> dict:
        """ns per f2_pauli.multiply / commutes and us per f2_rank, timed on
        this workload's own generators and generator matrices."""
        from stabdet.f2_pauli import commutes, f2_rank, multiply
        from stabdet.stabilizer import generator_matrix, parse_generator_file
        sets = [parse_generator_file(s["text"]) for s in self.specs[:self.cycle]]
        pairs = [(a, b) for gs in sets for a in gs.generators for b in gs.generators]
        matrices = [generator_matrix(gs) for gs in sets]

        def per_call(fn, args_list, reps=5):
            times = []
            for _ in range(reps):
                t = time.perf_counter()
                for args in args_list:
                    fn(*args)
                times.append((time.perf_counter() - t) / len(args_list))
            return statistics.median(times)

        return {
            "f2_pauli.multiply_ns": (1e9 * per_call(multiply, pairs), "ns"),
            "f2_pauli.commutes_ns": (1e9 * per_call(commutes, pairs), "ns"),
            "f2_pauli.f2_rank_us": (1e6 * per_call(f2_rank, [(m,) for m in matrices] * 20), "us"),
        }



# ---------------------------------------------------------------------------
# determination
# ---------------------------------------------------------------------------

class Determination(_Library):
    SIZES = (5, 6, 7, 8)
    TINY_SIZES = (3, 4)
    DENSITIES = (0.3, 0.6)
    FAMILIES = ("exact", "perturbed", "dropped")
    CYCLES = 8
    PERTURBATION = 0.05

    def __init__(self, seed: int, tiny: bool):
        from stabdet.determination import (RdmConstraintSet, forcing_chain_mixed,
                                           forcing_chain_pure)
        from stabdet.graph_state import Graph, canonical_generators
        from stabdet.stabilizer import stabilizer_rdm
        self._fns = (canonical_generators, stabilizer_rdm, RdmConstraintSet,
                     forcing_chain_pure, forcing_chain_mixed)
        rng = random.Random(f"determination:{seed}")
        sizes = self.TINY_SIZES if tiny else self.SIZES
        self.specs = []
        for _ in range(self.CYCLES):
            for family in self.FAMILIES:
                for n in sizes:
                    for density in self.DENSITIES:
                        adj = oracle.random_graph(rng, n, density)
                        supports = _closed_neighbourhoods(adj)
                        spec = {"n": n, "adj": adj, "family": family,
                                "graph": Graph(oracle.graph_theta(adj)),
                                "supports": supports, "expected": "Determined"}
                        # The first density slot takes an off-diagonal entry
                        # or a covered support, the second a diagonal entry or
                        # an uncovered support (when one exists), so that every
                        # seed has the same mix of rejection paths.
                        first_slot = density == self.DENSITIES[0]
                        if family == "perturbed":
                            w = rng.choice(supports)
                            dim = 1 << len(w)
                            i = rng.randrange(dim)
                            j = (i + rng.randrange(1, dim)) % dim if first_slot else i
                            i, j = min(i, j), max(i, j)
                            delta = self.PERTURBATION * (
                                1 if i == j else np.exp(2j * np.pi * rng.random()))
                            spec.update(target=w, entry=(i, j), delta=delta,
                                        expected="Inconsistent")
                        elif family == "dropped":
                            want = "Determined" if first_slot else "Underdetermined"
                            pool = [w for w in supports
                                    if _dropped_status(supports, w) == want]
                            w = rng.choice(pool or supports)
                            spec.update(target=w, expected=_dropped_status(supports, w))
                        self.specs.append(spec)
        self.cycle = len(self.FAMILIES) * len(sizes) * len(self.DENSITIES)

    def op(self, i: int, call):
        canonical, rdm, constraint_set, pure_chain, mixed_chain = self._fns
        spec = self.specs[i % len(self.specs)]
        graph = spec["graph"]
        gens = call("graph_state.canonical_generators", canonical, graph)
        blocks = {w: call("stabilizer.stabilizer_rdm", rdm, gens, sorted(w))
                  for w in spec["supports"]}
        if spec["family"] == "perturbed":
            (a, b), delta = spec["entry"], spec["delta"]
            m = blocks[spec["target"]].copy()
            m[a, b] += delta
            if a != b:
                m[b, a] += np.conj(delta)
            blocks[spec["target"]] = m
        elif spec["family"] == "dropped":
            del blocks[spec["target"]]
        rdms = call("determination.RdmConstraintSet", constraint_set, spec["n"], blocks)
        pure = call("determination.forcing_chain_pure", pure_chain, graph, gens, rdms)
        mixed = call("determination.forcing_chain_mixed", mixed_chain, graph, gens, rdms)
        return {"pure": pure, "mixed": mixed}

    def check(self, i: int, out) -> str:
        spec = self.specs[i % len(self.specs)]
        dim = 1 << spec["n"]
        for chain, steps in (("pure", dim), ("mixed", dim * (dim + 1) // 2)):
            report = out[chain]
            if report.status != spec["expected"]:
                return (f"{chain} chain on a {spec['family']} family returned "
                        f"{report.status}, expected {spec['expected']}")
            if report.status != "Determined":
                continue
            if len(report.forcing_log) != steps:
                return f"{chain} chain logged {len(report.forcing_log)} steps, expected {steps}"
            vec = oracle.graph_state_vector(spec["adj"])
            want = vec if chain == "pure" else np.outer(vec, vec)
            if np.max(np.abs(report.state - want)) > TOL:
                return f"{chain} chain's Determined state is not (-1)^f(x)/sqrt(2^n)"
        return ""

    @staticmethod
    def corrupt(out):
        out["mixed"].status = "Corrupted"
        return out

    def input_stats(self) -> dict:
        return {
            "n": dict(sorted(_histogram(s["n"] for s in self.specs).items())),
            "status": dict(sorted(_histogram(s["expected"] for s in self.specs).items())),
        }

    @staticmethod
    def counts(out) -> dict:
        c = {"determination.forcing_chain_pure.steps": len(out["pure"].forcing_log),
             "determination.forcing_chain_mixed.steps": len(out["mixed"].forcing_log)}
        for status in ("Determined", "Inconsistent", "Underdetermined"):
            c[f"determination.status.{status}"] = int(out["mixed"].status == status)
        return c


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

class Cli:
    """A fixed cycle of 17 stabdet commands, run one at a time as children.

    Per cycle: ``check`` self-checks on n = 4..8, ``check --pure`` and
    ``check --json``, ``check --rdm`` with an exact, a perturbed and a subset
    family, ``rdm`` on generator files with n = 6, 9, 12, ``state --out``,
    ``minimal``, ``counterexample`` and one malformed graph file.
    """

    CYCLES = 4
    CHILD_TIMEOUT_S = 60

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.workdir = workdir
        workdir.mkdir(parents=True)
        rng = random.Random(f"cli:{seed}")
        check_sizes = (3, 4) if tiny else (4, 5, 6, 7, 8)
        mid = 4 if tiny else 6
        rdm_sizes = (4, 5) if tiny else (6, 9, 12)
        minimal_size = 5 if tiny else 10
        self.specs = []
        for c in range(self.CYCLES):
            def write(name, text):
                path = workdir / f"c{c}_{name}"
                path.write_text(text)
                return path.name

            graphs = {n: oracle.random_graph(rng, n, 0.4) for n in check_sizes + (mid,)}
            for n in check_sizes:
                self._add("check", ["check", write(f"g{n}.graph", oracle.graph_file_text(graphs[n]))],
                          0, expect_text="status=Determined")
            g_mid = write(f"mid.graph", oracle.graph_file_text(graphs[mid]))
            self._add("check", ["check", g_mid, "--pure"], 0,
                      expect_text="status=Determined")
            self._add("check", ["check", g_mid, "--json"], 0, status="Determined",
                      steps=(1 << mid) * ((1 << mid) + 1) // 2)

            fam_adj = oracle.random_graph(rng, mid, 0.4)
            fam_graph = write("fam.graph", oracle.graph_file_text(fam_adj))
            supports = _closed_neighbourhoods(fam_adj)
            gens = oracle.graph_generators(fam_adj)
            exact = {w: oracle.marginal(gens, w, mid)[0] for w in supports}
            perturbed = dict(exact)
            w = rng.choice(supports)
            perturbed[w] = exact[w].copy()
            perturbed[w][0, 1] += 0.05
            perturbed[w][1, 0] += 0.05
            uncovered = [w for w in supports
                         if _dropped_status(supports, w) == "Underdetermined"]
            dropped = rng.choice(uncovered or supports)
            subset = {k: v for k, v in exact.items() if k != dropped}
            sub_status = _dropped_status(supports, dropped)
            for name, blocks, status in (("exact", exact, "Determined"),
                                         ("perturbed", perturbed, "Inconsistent"),
                                         ("subset", subset, sub_status)):
                path = write(f"{name}.rdm", oracle.rdm_family_text(blocks))
                self._add("check_rdm", ["check", fam_graph, "--rdm", path, "--json"],
                          {"Determined": 0, "Inconsistent": 3, "Underdetermined": 4}[status],
                          status=status)

            for n in rdm_sizes:
                adj = oracle.random_graph(rng, n, 0.3)
                base, mixed = oracle.random_general_form(rng, adj)
                omegas = _pick_omegas(rng, adj, 2)
                path = write(f"r{n}.gens", oracle.generator_file_text(mixed, n))
                argv = ["rdm", path]
                for om in omegas:
                    argv += ["--omega", ",".join(map(str, om))]
                self._add("rdm", argv, 0,
                          rdms=[oracle.marginal(base, om, n)[0] for om in omegas])

            self._add("state", ["state", g_mid, "--out", "state_out"], 0,
                      vector=oracle.graph_state_vector(graphs[mid]))

            adj = oracle.random_graph(rng, minimal_size, 0.3)
            _, mixed = oracle.random_general_form(rng, adj)
            path = write("min.gens", oracle.generator_file_text(mixed, minimal_size))
            self._add("minimal", ["minimal", path], 0, minimal=_minimal_supports(mixed))

            self._add("counterexample", ["counterexample"], 0,
                      expect_text="full-support family result: Determined")

            bad = write("bad.graph", "5\n0 1\n1 2\nthree four\n")
            self._add("error", ["check", bad], 2, expect_err="error:")
        self.cycle = len(self.specs) // self.CYCLES
        self.max_child_rss_kb = 0

    def _add(self, kind, argv, exit_code, **expect):
        self.specs.append({"kind": kind, "argv": argv, "exit": exit_code, **expect})

    def run_child(self, argv: list) -> tuple:
        """Run one child to completion; returns (exit code, stdout, stderr)."""
        with open(self.workdir / "stdout", "w+") as out, \
                open(self.workdir / "stderr", "w+") as err:
            proc = subprocess.Popen([sys.executable] + argv, stdout=out, stderr=err,
                                    cwd=self.workdir)
            timer = threading.Timer(self.CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
            self.max_child_rss_kb = max(self.max_child_rss_kb, usage.ru_maxrss)
            out.seek(0)
            err.seek(0)
            return proc.returncode, out.read(), err.read()

    def op(self, i: int, call):
        spec = self.specs[i % len(self.specs)]
        argv = ["-m", "stabdet.cli"] + spec["argv"]
        code, out, err = call(f"cli.{spec['kind']}", self.run_child, argv)
        return {"exit": code, "stdout": out, "stderr": err}

    def check(self, i: int, out) -> str:
        spec = self.specs[i % len(self.specs)]
        try:
            return self._check(spec, out)
        finally:
            shutil.rmtree(self.workdir / "state_out", ignore_errors=True)

    def _check(self, spec, out) -> str:
        if out["exit"] != spec["exit"]:
            return f"{' '.join(spec['argv'])}: exit {out['exit']}, expected {spec['exit']}"
        stdout = out["stdout"]
        if "expect_text" in spec and spec["expect_text"] not in stdout:
            return f"{spec['kind']}: output lacks {spec['expect_text']!r}"
        if "expect_err" in spec and not out["stderr"].startswith(spec["expect_err"]):
            return f"{spec['kind']}: stderr lacks {spec['expect_err']!r}"
        if "status" in spec:
            summary = json.loads(stdout)
            if summary["status"] != spec["status"]:
                return f"{spec['kind']}: status {summary['status']}, expected {spec['status']}"
            if "steps" in spec and summary["steps"] != spec["steps"]:
                return f"{spec['kind']}: {summary['steps']} steps, expected {spec['steps']}"
        if "rdms" in spec:
            blocks = [b.splitlines()[1:] for b in stdout.split("# ")[1:]]
            if len(blocks) != len(spec["rdms"]):
                return f"rdm printed {len(blocks)} matrices, expected {len(spec['rdms'])}"
            for got, want in zip(blocks, spec["rdms"]):
                if np.max(np.abs(oracle.parse_matrix(got) - want)) > TOL:
                    return "rdm output differs from the closed-form reference"
        if "vector" in spec:
            outdir = self.workdir / "state_out"
            vec = np.array([complex(t) for t in
                            (outdir / "state.txt").read_text().split()[1:]])
            rho = oracle.parse_matrix((outdir / "rho.txt").read_text().splitlines())
            want = spec["vector"]
            if np.max(np.abs(vec - want)) > TOL or \
                    np.max(np.abs(rho - np.outer(want, want))) > TOL:
                return "state output differs from (-1)^f(x)/sqrt(2^n)"
        if "minimal" in spec:
            got = {frozenset(int(t) for t in ln.split(",")) for ln in stdout.split()}
            if got != spec["minimal"]:
                return "minimal output differs from the reference"
        return ""

    @staticmethod
    def corrupt(out):
        out["exit"] = 99
        return out

    def input_stats(self) -> dict:
        return {"commands_per_cycle": dict(sorted(_histogram(
            s["kind"] for s in self.specs[:self.cycle]).items()))}

    def probes(self) -> dict:
        """Bare interpreter start and the extra cost of ``import stabdet.cli``,
        each the median of five children."""
        def median_child(argv):
            times = []
            for _ in range(5):
                t = time.perf_counter()
                code, _, err = self.run_child(argv)
                times.append(time.perf_counter() - t)
                if code != 0:
                    raise RuntimeError(f"probe {argv} failed: {err.strip()}")
            return statistics.median(times)

        bare = median_child(["-c", "pass"])
        imported = median_child(["-c", "import stabdet.cli"])
        return {"interpreter_s": (bare, "s"), "import_s": (imported - bare, "s")}

    @staticmethod
    def counts(out) -> dict:
        return {}

    def peak_rss_kb(self) -> int:
        return self.max_child_rss_kb

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def _histogram(values) -> dict:
    out = {}
    for v in values:
        out[v] = out.get(v, 0) + 1
    return out
