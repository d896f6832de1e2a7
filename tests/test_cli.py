import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stabdet
from stabdet.cli import main
from stabdet.determination import (
    DETERMINED,
    RdmConstraintSet,
    forcing_chain_mixed,
    forcing_chain_pure,
    format_rdm_file,
    parse_rdm_file,
)
from stabdet.graph_state import Graph, canonical_generators, format_graph_file, parse_graph_file
from stabdet.stabilizer import (
    density_matrix,
    format_generator_file,
    parse_density_matrix,
    parse_generator_file,
    GeneratorSet,
)
from stabdet.f2_pauli import DENSE_MATRIX_CAP, support

from conftest import edited


@pytest.fixture
def p4_file(tmp_path):
    path = tmp_path / "p4.graph"
    path.write_text(format_graph_file(Graph.path(4)))
    return str(path)


@pytest.fixture
def ghz3_file(tmp_path):
    path = tmp_path / "ghz3.gens"
    path.write_text(format_generator_file(
        GeneratorSet.from_strings(3, ["XXX", "ZZI", "IZZ"])))
    return str(path)


def test_state_command(p4_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["state", p4_file, "--out", str(out)]) == 0
    state_text = (out / "state.txt").read_text()
    lines = [ln for ln in state_text.splitlines() if ln.strip()]
    assert lines[0] == "dim=16"
    amps = [complex(ln) for ln in lines[1:]]
    assert all(abs(abs(a) - 0.25) < 1e-12 for a in amps)
    rho = parse_density_matrix((out / "rho.txt").read_text())
    assert abs(np.trace(rho) - 1) < 1e-9


def test_state_single_edge_stdout(tmp_path, capsys):
    path = tmp_path / "edge.graph"
    path.write_text("2\n0 1\n")
    assert main(["state", str(path)]) == 0
    out = capsys.readouterr().out
    assert "dim=4" in out


def test_state_zero_vertices(tmp_path, capsys):
    path = tmp_path / "empty.graph"
    path.write_text("0\n")
    assert main(["state", str(path)]) == 0
    out = capsys.readouterr().out.split()
    assert out.count("dim=1") == 2
    assert out.count("1+0j") == 2


def test_state_malformed_edge_line(tmp_path, capsys):
    path = tmp_path / "bad.graph"
    path.write_text("3\n0 1\nxyz\n")
    assert main(["state", str(path)]) == 2
    assert "line 3" in capsys.readouterr().err


def test_rdm_command(ghz3_file, tmp_path):
    out = tmp_path / "out"
    assert main(["rdm", ghz3_file, "--omega", "0,1", "--out", str(out)]) == 0
    rho = parse_density_matrix((out / "rdm_01.txt").read_text())
    assert np.allclose(rho, np.diag([0.5, 0, 0, 0.5]))


def test_rdm_full_omega(ghz3_file, tmp_path):
    out = tmp_path / "out"
    assert main(["rdm", ghz3_file, "--omega", "0,1,2", "--out", str(out)]) == 0
    rho = parse_density_matrix((out / "rdm_012.txt").read_text())
    gens = GeneratorSet.from_strings(3, ["XXX", "ZZI", "IZZ"])
    assert np.max(np.abs(rho - density_matrix(gens))) < 1e-11


def test_rdm_out_of_range(ghz3_file, capsys):
    assert main(["rdm", ghz3_file, "--omega", "0,7"]) == 2


def test_rdm_distinct_omegas_with_one_name(tmp_path, capsys):
    gens_path = tmp_path / "p13.gens"
    gens_path.write_text(format_generator_file(canonical_generators(Graph.path(13))))
    out = tmp_path / "out"
    argv = ["rdm", str(gens_path), "--out", str(out)]
    assert main(argv + ["--omega", "1,2", "--omega", "12"]) == 2
    err = capsys.readouterr().err
    assert "[1, 2]" in err and "[12]" in err and "rdm_12.txt" in err
    assert not (out / "rdm_12.txt").exists()
    # the same omega twice, in any order, still writes its one file
    assert main(argv + ["--omega", "1,2", "--omega", "2,1"]) == 0
    assert parse_density_matrix((out / "rdm_12.txt").read_text()).shape == (4, 4)


def test_rdm_repeated_index_names_the_set(ghz3_file, tmp_path):
    out = tmp_path / "out"
    assert main(["rdm", ghz3_file, "--omega", "1,1", "--out", str(out)]) == 0
    assert [p.name for p in out.iterdir()] == ["rdm_1.txt"]
    assert np.allclose(parse_density_matrix((out / "rdm_1.txt").read_text()),
                       np.eye(2) / 2)


def test_check_self_mode(p4_file, capsys):
    assert main(["check", p4_file]) == 0
    out = capsys.readouterr().out
    assert "status=Determined" in out


def test_check_pure_mode_json(p4_file, capsys):
    assert main(["check", p4_file, "--pure", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "Determined"
    assert payload["residual"] < 1e-12


def test_check_reports_steps_per_rule(p4_file, capsys):
    n, dim = 4, 16
    counts = {"trace-normalization": 1, "diagonal-uniform": dim - 1,
              "sign-translation": n * dim // 2, "minor-chain": dim - 1 - n,
              "minor-completion": (dim - 1) * (dim - 2) // 2 - n * dim // 2 + n}
    assert main(["check", p4_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rules"] == counts
    assert sum(payload["rules"].values()) == payload["steps"] == dim * (dim + 1) // 2
    assert main(["check", p4_file]) == 0
    out = capsys.readouterr().out
    assert all(f"    {rule}: {count}\n" in out for rule, count in counts.items())


def test_check_subset_rdms_nonzero_exit(p4_file, tmp_path, capsys):
    # the shrunken-support family from the counterexample
    rho = density_matrix(canonical_generators(Graph.path(4)))
    rdms = RdmConstraintSet.from_state(
        rho, [{0, 1, 2}, {0, 3}, {1, 3}, {2, 3}], 4)
    rdm_path = tmp_path / "subset.rdm"
    rdm_path.write_text(format_rdm_file(rdms))
    code = main(["check", p4_file, "--rdm", str(rdm_path)])
    assert code == 4
    assert "status=Underdetermined" in capsys.readouterr().out


def test_check_perturbed_rdms_inconsistent(p4_file, tmp_path, capsys):
    gens = canonical_generators(Graph.path(4))
    rho = density_matrix(gens)

    def bump(m):
        m[0, 0] += 0.01
    rdms = edited(RdmConstraintSet.from_state(rho, [support(m) for m in gens.generators], 4),
                  frozenset({0, 1}), bump)
    rdm_path = tmp_path / "bad.rdm"
    rdm_path.write_text(format_rdm_file(rdms))
    code = main(["check", p4_file, "--rdm", str(rdm_path)])
    assert code == 3
    out = capsys.readouterr().out
    assert "status=Inconsistent" in out
    assert "rule" in out


def test_check_unread_block_inconsistent(p4_file, tmp_path, capsys):
    # P4's marginal on {0, 3} is I/4; no generator reads that block
    gens = canonical_generators(Graph.path(4))
    rdms = RdmConstraintSet.from_state(
        density_matrix(gens), [support(m) for m in gens.generators], 4)
    rdms = RdmConstraintSet(4, {**rdms.constraints,
                                frozenset({0, 3}): np.diag([1, 0, 0, 0]).astype(complex)})
    rdm_path = tmp_path / "unread.rdm"
    rdm_path.write_text(format_rdm_file(rdms))
    for mode in ([], ["--pure"]):
        assert main(["check", p4_file, "--rdm", str(rdm_path)] + mode) == 3
        out = capsys.readouterr().out
        assert "constraint on qubits [0, 3] deviates by 0.75" in out
        assert "status=Inconsistent" in out


def test_check_decides_beyond_the_dense_cap(tmp_path, capsys):
    # A Determined verdict builds no 2^n array: a 12-vertex self-check at
    # --cap 12 reports its 4^12/2-odd steps; at 13 vertices the last step,
    # which only a 2^n array renders, is left out.
    for n in (12, 13):
        path = tmp_path / f"p{n}.graph"
        path.write_text(format_graph_file(Graph.path(n)))
        assert main(["check", str(path), "--cap", str(n), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "Determined"
        assert payload["steps"] == 2 ** n * (2 ** n + 1) // 2
        assert main(["check", str(path), "--cap", str(n)]) == 0
        out = capsys.readouterr().out
        assert f"  forcing steps: {payload['steps']}\n" in out
        assert ("last step" in out) == (n == 12)


@pytest.mark.parametrize("text, complaint", [
    ("omega: 0,1\ndim=x\n", "line 2: expected a 'dim=<2^k>' header, got 'dim=x'"),
    ("omega: 0,1\ndim=-1\n", "line 2: expected a 'dim=<2^k>' header, got 'dim=-1'"),
    ("omega: 0,1\n\ndim=4\n1 0 0 0\n0 0 0 0\n0 0 q 0\n0 0 0 0\n",
     "line 6: bad matrix entry in '0 0 q 0'"),
    ("omega: 0,1\ndim=4\n1 0 0 0\n", "line 2: expected 4 matrix rows, got 1"),
    ("omega: 0,1\ndim=2\n1 0\n0 0\n", "line 2: omega [0, 1] needs dim=4, got dim=2"),
    ("omega: 0,7\ndim=4\n",
     "line 1: bad index list 'omega: 0,7' (index out of range for 4 qubits: [0, 7])"),
])
def test_constraint_file_errors_name_their_line(text, complaint, p4_file, tmp_path, capsys):
    rdm_path = tmp_path / "bad.rdm"
    rdm_path.write_text(text)
    assert main(["check", p4_file, "--rdm", str(rdm_path)]) == 2
    assert capsys.readouterr().err == f"error: {complaint}\n"


_FILE_TEXT = st.lists(st.one_of(
    st.sampled_from(["omega: 0", "omega: 0,1", "omega: 1,0", "omega:", "dim=1", "dim=2",
                     "dim=4", "dim=0", "dim=-2", "dim=x", "0.5+0j 0", "0.5 0", "1 0 0 0",
                     "nan 0", "1e999j 0", "2", "0 1", "1 1", "XZ", "-ZX", "+", "", " "]),
    st.text(alphabet="0123456789 ,:=+-.jeXYZIomegadimn\t", max_size=12)), max_size=12)


@settings(max_examples=300, deadline=None)
@given(_FILE_TEXT)
def test_text_parsers_raise_only_value_errors(lines):
    text = "\n".join(lines)
    for parse in (parse_generator_file, lambda t: parse_graph_file(t, cap=DENSE_MATRIX_CAP),
                  lambda t: parse_rdm_file(t, 2), parse_density_matrix):
        try:
            parse(text)
        except ValueError:
            pass


def test_non_finite_rdm_is_config_error(p4_file, tmp_path, capsys):
    gens = canonical_generators(Graph.path(4))
    text = format_rdm_file(RdmConstraintSet.from_state(
        density_matrix(gens), [support(m) for m in gens.generators], 4))
    rdm_path = tmp_path / "nan.rdm"
    rdm_path.write_text(re.sub(r"\S+[+-]\S+j", "nan+0j", text))
    for mode in ([], ["--pure"]):
        assert main(["check", p4_file, "--rdm", str(rdm_path)] + mode) == 2
        assert "non-finite" in capsys.readouterr().err
    # a NaN copy of one block appended after the exact family
    first = text.split("\n\n")[0]
    rdm_path.write_text(text + "\n" + re.sub(r"\S+[+-]\S+j", "nan+0j", first))
    assert main(["check", p4_file, "--rdm", str(rdm_path)]) == 2
    assert "repeated block" in capsys.readouterr().err


def test_minimal_command(ghz3_file, p4_file, tmp_path, capsys):
    assert main(["minimal", ghz3_file]) == 0
    assert capsys.readouterr().out.strip() == "0,1,2"
    gens_path = tmp_path / "p4.gens"
    gens_path.write_text(format_generator_file(
        canonical_generators(Graph.path(4))))
    assert main(["minimal", str(gens_path)]) == 0
    assert capsys.readouterr().out.split() == ["0,1,2", "1,2,3"]


@pytest.mark.parametrize("lines, problem", [
    (["XI", "ZI"], "generators 0 and 1 anticommute"),
    (["XX", "ZZ", "YY"], "binary parts are linearly dependent over GF(2)"),
])
def test_minimal_rejects_invalid_set(lines, problem, tmp_path, capsys):
    path = tmp_path / "bad.gens"
    path.write_text("\n".join(["2"] + lines) + "\n")
    assert main(["minimal", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error: invalid generator set: {problem}\n"


@pytest.mark.parametrize("argv, text, complaint", [
    (["minimal"], "-1\n", "expected qubit count, got '-1'"),
    (["rdm", "--omega", "0"], "-1\n", "expected qubit count, got '-1'"),
    (["state"], "-2\n", "expected vertex count, got '-2'"),
    (["check"], "-2\n", "expected vertex count, got '-2'"),
])
def test_negative_count_is_config_error(argv, text, complaint, tmp_path, capsys):
    path = tmp_path / "negative"
    path.write_text(text)
    assert main(argv[:1] + [str(path)] + argv[1:]) == 2
    assert capsys.readouterr().err == f"error: line 1: {complaint}\n"


def test_counterexample_command(capsys):
    assert main(["counterexample"]) == 0
    out = capsys.readouterr().out
    assert "trace distance" in out
    assert "Determined" in out
    # the two states compared, by their generator lists
    assert out.startswith("path-graph generators: XZII ZXZI IZXZ IIZX\n"
                          "competing generators: XZII ZXZI IIZX\n")


def test_counterexample_tag_follows_tol(capsys):
    assert main(["counterexample", "--tol", "0.3"]) == 1
    out = capsys.readouterr().out
    assert "agrees (deviation 0.125)" in out and "distinguishes" not in out


def test_zero_qubit_graph_is_determined(tmp_path, capsys):
    # No tables: the largest deviation is 0.0 and the log is the trace
    # normalization alone.
    g = Graph(np.zeros((0, 0), dtype=np.uint8))
    for chain in (forcing_chain_pure, forcing_chain_mixed):
        report = chain(g, canonical_generators(g), RdmConstraintSet(0, {}))
        assert (report.status, len(report.forcing_log), report.max_residual) == \
            (DETERMINED, 1, 0.0)
    path = tmp_path / "empty.graph"
    path.write_text("0\n")
    for extra in ([], ["--pure"]):
        assert main(["check", str(path), "--json", *extra]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["status"], payload["steps"]) == (DETERMINED, 1)


def test_counterexample_json(capsys):
    assert main(["counterexample", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["all_pass"]
    assert payload["trace_distance"] > 0.1


def test_outputs_are_reproducible(p4_file, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["state", p4_file, "--out", str(a)])
    main(["state", p4_file, "--out", str(b)])
    assert (a / "state.txt").read_bytes() == (b / "state.txt").read_bytes()
    assert (a / "rho.txt").read_bytes() == (b / "rho.txt").read_bytes()


def test_missing_file_is_config_error(capsys):
    assert main(["state", "/nonexistent.graph"]) == 2


def test_bad_tol_is_config_error(p4_file, capsys):
    for tol in ("-1", "nan", "inf", "abc"):
        assert main(["check", p4_file, "--tol", tol]) == 2
        assert main(["counterexample", "--tol", tol]) == 2
        complaint = f"must be a finite positive number, got {tol!r}"
        assert capsys.readouterr().err.count(complaint) == 2


# Options a subcommand never reads are not registered on it.
_UNREAD_OPTIONS = [("state", "--tol"), ("state", "--json"),
                   ("rdm", "--tol"), ("rdm", "--json"),
                   ("check", "--out"),
                   ("minimal", "--tol"), ("minimal", "--cap"),
                   ("minimal", "--json"), ("minimal", "--out"),
                   ("counterexample", "--cap"), ("counterexample", "--out")]


@pytest.mark.parametrize("command, option", _UNREAD_OPTIONS)
def test_unread_option_is_parse_error(command, option, p4_file, ghz3_file,
                                      tmp_path, capsys):
    argv = {"state": [p4_file], "rdm": [ghz3_file, "--omega", "0"],
            "check": [p4_file], "minimal": [ghz3_file], "counterexample": []}
    value = {"--tol": ["1e-9"], "--cap": ["10"], "--json": [],
             "--out": [str(tmp_path / "out")]}
    assert main([command] + argv[command] + [option] + value[option]) == 2
    assert f"unrecognized arguments: {option}" in capsys.readouterr().err


def test_cap_flag(p4_file, ghz3_file, tmp_path, capsys):
    assert main(["state", p4_file, "--cap", "2"]) == 2
    assert "cap" in capsys.readouterr().err
    assert main(["rdm", ghz3_file, "--omega", "0,1", "--cap", "1"]) == 2
    assert "cap" in capsys.readouterr().err
    assert main(["check", p4_file, "--cap", "3"]) == 2
    assert "cap" in capsys.readouterr().err
    # the graph parser keeps its vertex cap with a supplied family too
    gens = canonical_generators(Graph.path(4))
    rdm_path = tmp_path / "exact.rdm"
    rdm_path.write_text(format_rdm_file(RdmConstraintSet.from_state(
        density_matrix(gens), [support(m) for m in gens.generators], 4)))
    assert main(["check", p4_file, "--rdm", str(rdm_path), "--cap", "3"]) == 2
    assert "cap" in capsys.readouterr().err
    # a cap that fits
    assert main(["state", p4_file, "--cap", "4", "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("command", ["state", "rdm", "check"])
def test_bad_cap_is_usage_error(command, p4_file, ghz3_file, capsys):
    argv = {"state": [p4_file], "rdm": [ghz3_file, "--omega", "0"], "check": [p4_file]}
    for cap in ("-1", "-3", "ten"):
        assert main([command] + argv[command] + ["--cap", cap]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert f"argument --cap: must be a non-negative integer, got '{cap}'" in err


@pytest.mark.parametrize("command", ["state", "check"])
def test_oversized_header_is_refused_before_allocating(command, tmp_path, capsys):
    # a dense 10^7 x 10^7 adjacency matrix would take 100 TB
    path = tmp_path / "huge.graph"
    path.write_text("10000000\n0 1\n")
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err == "error: dense rendering cap exceeded: n=10000000 > 10\n"


def test_cli_import_loads_no_scipy():
    src = str(Path(stabdet.__file__).resolve().parents[1])
    code = ("import sys, stabdet.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True).stdout
    assert out.strip() == "[]"
