"""End-to-end command line tests, run in process via main(argv)."""

from __future__ import annotations

import collections
import contextlib
import fractions
import io
import json
import os
import re
import resource
import subprocess
import sys
import time
import weakref
from pathlib import Path

import pytest

from suplat import cli, contexts, hasse, linalg, subspaces
from suplat.admissibility import ks_to_text
from suplat.cli import build_parser, load_structure, main
from suplat.contexts import structure_to_dict
from suplat.datasets import builtin_structure, dataset_names
from suplat.linalg import ExactMatrix, GaussianRational
from suplat.subspaces import Subspace
from suplat.valuation import Mode, report_to_text

from helpers import completed_grid_3, grid_3, reference_report


GOLDEN = Path(__file__).parent / "golden"
# A child process's environment, with this checkout's src/ on its path.
CHILD_ENV = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
BUILTIN_STATES = (("pauli-qubit", "qubit_state10", "1,0"), ("cabello-3", "cabello_state0001", "0,0,0,1"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def qubit_file(tmp_path):
    path = tmp_path / "qubit.json"
    path.write_text(json.dumps(structure_to_dict(builtin_structure("pauli-qubit"))))
    return str(path)


def test_datasets_list(capsys):
    code, out, err = run(capsys, "datasets", "list")
    assert code == 0
    assert out.splitlines() == ["pauli-qubit", "cabello-3"]
    assert err == ""


def test_datasets_export_round_trips(capsys, tmp_path):
    code, out, _ = run(capsys, "datasets", "export", "cabello-3")
    assert code == 0
    path = tmp_path / "exported.json"
    path.write_text(out)
    loaded = load_structure(str(path))
    assert structure_to_dict(loaded) == structure_to_dict(builtin_structure("cabello-3"))


@pytest.mark.parametrize("name", ["pauli-qubit", "cabello-3"])
def test_datasets_export_matches_golden(capsys, name):
    code, out, err = run(capsys, "datasets", "export", name)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / f"{name}_export.json").read_text(encoding="utf-8")


def test_datasets_export_needs_name(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["datasets", "export"])
    assert exc.value.code == 2


def test_datasets_list_takes_no_name(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["datasets", "list", "cabello-3"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_unknown_dataset_fails_cleanly(capsys):
    code, out, err = run(capsys, "lattice", "--dataset", "nonesuch")
    assert code == 1
    assert out == ""
    assert err.startswith("error: unknown dataset 'nonesuch'")


def test_validate_ok(capsys, qubit_file):
    code, out, err = run(capsys, "validate", qubit_file)
    assert code == 0
    assert out == "ok: dimension 2, 3 context(s): Sigma_z, Sigma_x, Sigma_y\n"
    assert err == ""


def test_validate_reports_offending_context(capsys, tmp_path):
    data = structure_to_dict(builtin_structure("pauli-qubit"))
    # a valid projector that breaks orthogonality within its context
    data["contexts"][1]["projectors"][0]["matrix"] = [["1", "0"], ["0", "0"]]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "validate", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert "Sigma_x" in err


def test_validate_locates_bad_literal(capsys, tmp_path):
    data = structure_to_dict(builtin_structure("pauli-qubit"))
    data["contexts"][0]["projectors"][1]["matrix"][1][0] = "0.5"
    path = tmp_path / "literal.json"
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, "validate", str(path))
    assert code == 1
    assert "contexts[0].projectors[1].matrix[1][0]" in err


def test_validate_locates_first_of_repeated_bad_literals(capsys, tmp_path):
    # Each distinct literal is parsed once, so the error names its first location.
    data = structure_to_dict(builtin_structure("cabello-3"))
    data["contexts"][0]["projectors"][1]["matrix"][1][0] = "0.5"
    data["contexts"][2]["projectors"][3]["matrix"][0][2] = "0.5"
    path = tmp_path / "literal.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out) == (1, "")
    assert err == (
        "error: contexts[0].projectors[1].matrix[1][0]:"
        " unexpected trailing characters (position 1 in '0.5')\n"
    )


def test_validate_locates_damaged_shared_atom(capsys, tmp_path):
    # S1 and S2 share their first atom; only S2's copy is scaled, so the
    # error names S2's occurrence although S1's copy loads first.
    data = structure_to_dict(builtin_structure("cabello-3"))
    atom = data["contexts"][1]["projectors"][0]
    atom["matrix"] = [["2" if lit == "1" else lit for lit in row] for row in atom["matrix"]]
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out) == (1, "")
    assert err == "error: contexts[1].projectors[0]: projector 'P1': matrix squared differs from the matrix\n"


def test_validate_rejects_a_reflection(capsys, tmp_path):
    # [[1, 0], [0, -1]] is Hermitian with eigenvalues 1 and -1: no projector.
    data = structure_to_dict(builtin_structure("pauli-qubit"))
    data["contexts"][0]["projectors"][0]["matrix"] = [["1", "0"], ["0", "-1"]]
    path = tmp_path / "reflection.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out) == (1, "")
    assert err == "error: contexts[0].projectors[0]: projector 'z+': matrix squared differs from the matrix\n"


def test_validate_rejects_a_full_rank_atom(capsys, tmp_path):
    projectors = [
        {"name": "I", "matrix": [["1", "0"], ["0", "1"]]},
        {"name": "P", "matrix": [["1", "0"], ["0", "0"]]},
    ]
    path = tmp_path / "identity.json"
    path.write_text(json.dumps({"dimension": 2, "contexts": [{"name": "C", "projectors": projectors}]}))
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out) == (1, "")
    assert err == "error: contexts[0]: context 'C': atom 'I' is trivial (rank 2 of 2)\n"


@pytest.mark.parametrize("damage, law", [
    ("drop", "atoms do not sum to the identity"),
    ("overlap", "atoms 'P1' and 'P4' are not orthogonal"),
])
def test_validate_locates_context_law_error(capsys, tmp_path, damage, law):
    # The second context takes the first one's name, so only its path tells them apart.
    data = structure_to_dict(builtin_structure("cabello-3"))
    ctx = data["contexts"][1]
    ctx["name"] = "S1"
    if damage == "drop":
        ctx["projectors"].pop()
    else:
        ctx["projectors"][3]["matrix"] = ctx["projectors"][0]["matrix"]
    path = tmp_path / "context.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out) == (1, "")
    assert err == f"error: contexts[1]: context 'S1': {law}\n"


@pytest.mark.parametrize("separator", ["\n", "\r", "\u2028"], ids=["LF", "CR", "U+2028"])
def test_validate_rejects_line_break_in_context_name(capsys, tmp_path, separator):
    # Every text output prints a context name on one line.
    data = structure_to_dict(builtin_structure("pauli-qubit"))
    data["contexts"][1]["name"] = f"Sigma{separator}x"
    path = tmp_path / "name.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out) == (1, "")
    assert err == "error: contexts[1]: 'name' must be printable (no line break or control character)\n"


@pytest.mark.parametrize("matrix, location", [
    (["10", ["0", "0"]], "matrix[0]: expected a row of 2 scalar literals"),
    ([[1, 0], ["0", "0"]], "matrix[0][0]: entries must be scalar literal strings"),
    ([["1", ["0"]], ["0", "0"]], "matrix[0][1]: entries must be scalar literal strings"),
], ids=["string-row", "int-entries", "list-entry"])
def test_validate_checks_what_only_resembles_a_validated_matrix(capsys, tmp_path, matrix, location):
    # The first atom's matrix [["1", "0"], ["0", "0"]] is validated first.  Each later
    # matrix has its length, and tuple("10") equals its first row, yet none is that matrix.
    data = structure_to_dict(builtin_structure("pauli-qubit"))
    assert data["contexts"][0]["projectors"][0]["matrix"] == [["1", "0"], ["0", "0"]]
    data["contexts"][1]["projectors"][0]["matrix"] = matrix
    path = tmp_path / "resembles.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out) == (1, "")
    assert err == f"error: contexts[1].projectors[0].{location}\n"


def test_validate_rejects_non_ascii_digit(capsys, tmp_path):
    # "١" is ARABIC-INDIC DIGIT ONE: once read as 1, so the file validated
    data = structure_to_dict(builtin_structure("pauli-qubit"))
    data["contexts"][0]["projectors"][0]["matrix"][0][0] = "١"
    path = tmp_path / "digit.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out) == (1, "")
    assert err == "error: contexts[0].projectors[0].matrix[0][0]: expected a number or imaginary unit 'i' (position 0 in '١')\n"


def test_state_rejects_non_ascii_digit(capsys):
    code, out, err = run(capsys, "eval", "--dataset", "pauli-qubit", "--state", "١,0", "--mode", "invariant")
    assert (code, out) == (1, "")
    assert err == "error: --state component 1: expected a number or imaginary unit 'i' (position 0 in '١')\n"


def test_validate_names_empty_literal(capsys, tmp_path):
    data = structure_to_dict(builtin_structure("pauli-qubit"))
    data["contexts"][0]["projectors"][0]["matrix"][0][1] = ""
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out) == (1, "")
    assert err == "error: contexts[0].projectors[0].matrix[0][1]: empty literal (position 0 in '')\n"


@pytest.mark.parametrize("literal", ["1/2+-1/2i", "1/2--1/2i", "1/2+-i"])
def test_validate_rejects_sign_after_sign(capsys, tmp_path, literal):
    data = structure_to_dict(builtin_structure("pauli-qubit"))
    data["contexts"][2]["projectors"][0]["matrix"][0][1] = literal
    path = tmp_path / "signs.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out) == (1, "")
    assert err == f"error: contexts[2].projectors[0].matrix[0][1]: sign after sign (position 4 in {literal!r})\n"


@pytest.mark.parametrize("component", ["1+-2i", "1--2i", "1+-i"])
@pytest.mark.parametrize("command", ["eval", "admissibility", "hasse"])
def test_state_rejects_sign_after_sign(capsys, command, component):
    extra = ["--scope", "all"] if command == "hasse" else []
    code, out, err = run(
        capsys, command, "--dataset", "pauli-qubit", "--state", f"0,{component}", "--mode", "invariant", *extra
    )
    assert (code, out) == (1, "")
    assert err == f"error: --state component 2: sign after sign (position 2 in {component!r})\n"


def test_validate_rejects_non_json(capsys, tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("not json {")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 1
    assert "not valid JSON" in err


def test_validate_rejects_boolean_dimension(capsys, tmp_path):
    data = structure_to_dict(builtin_structure("pauli-qubit"))
    data["dimension"] = True
    path = tmp_path / "booldim.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "validate", str(path))
    assert code == 1
    assert out == ""
    assert err == "error: 'dimension' must be a positive integer\n"


def test_short_row_error_is_short_for_a_huge_dimension(capsys, tmp_path):
    data = structure_to_dict(builtin_structure("pauli-qubit"))
    path = tmp_path / "huge.json"
    for dimension, shown in ((3, "3"), (2**64 - 1, str(2**64 - 1)), (2**64, "2**64 or more"), (10**4000, "2**64 or more")):
        data["dimension"] = dimension
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "validate", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: contexts[0].projectors[0].matrix[0]: expected a row of {shown} scalar literals\n"


def test_validate_rejects_deeply_nested_json(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    code, out, err = run(capsys, "validate", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {path}: not valid JSON:")
    assert "Traceback" not in err


def test_validate_and_ks_search_build_no_lattice(capsys, tmp_path, monkeypatch):
    path = tmp_path / "cabello.json"
    path.write_text(json.dumps(structure_to_dict(builtin_structure("cabello-3"))))
    structure = load_structure(str(path))
    assert all(c.lattice is c.lattice for c in structure.contexts)

    def refuse(context):
        raise AssertionError(f"lattice of {context.name} built")

    monkeypatch.setattr(contexts, "InvariantLattice", refuse)
    code, out, err = run(capsys, "validate", str(path))
    assert (code, err) == (0, "")
    assert out == "ok: dimension 4, 3 context(s): S1, S2, S6\n"
    code, out, err = run(capsys, "ks-search", str(path))
    assert (code, err) == (0, "")
    assert out.startswith("solutions: 40\n")


def test_ks_search_runs_past_the_recursion_limit(capsys, tmp_path):
    # one context per search level: 1500 levels exceed the default limit
    z = [
        {"name": "z+", "matrix": [["1", "0"], ["0", "0"]]},
        {"name": "z-", "matrix": [["0", "0"], ["0", "1"]]},
    ]
    x = [
        {"name": "x+", "matrix": [["1/2", "1/2"], ["1/2", "1/2"]]},
        {"name": "x-", "matrix": [["1/2", "-1/2"], ["-1/2", "1/2"]]},
    ]
    copies = [{"name": f"Sigma_z{i}", "projectors": z} for i in range(1500)]
    path = tmp_path / "deep.json"
    path.write_text(json.dumps({"dimension": 2, "contexts": copies}))
    code, out, err = run(capsys, "ks-search", str(path))
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[0] == "solutions: 2"
    assert lines[1] == " ".join(f"Sigma_z{i}:1" for i in range(1500))
    assert lines[2] == " ".join(f"Sigma_z{i}:2" for i in range(1500))
    # Sigma_x shares no atom with the copies: each of its choices heads both chains
    path.write_text(json.dumps({"dimension": 2, "contexts": [{"name": "Sigma_x", "projectors": x}] + copies}))
    code, out, err = run(capsys, "ks-search", str(path))
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert (lines[0], len(lines)) == ("solutions: 4", 5)
    assert lines[1:] == [
        f"Sigma_x:{a} " + " ".join(f"Sigma_z{i}:{b}" for i in range(1500)) for a in (1, 2) for b in (1, 2)
    ]


def test_validate_rejects_non_utf8(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"dimension": 2, "contexts": "\xff"}')
    code, out, err = run(capsys, "validate", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {path}: not valid UTF-8: 'utf-8' codec can't decode byte 0xff")
    assert "Traceback" not in err


def test_numbers_past_the_digit_limit_are_located(capsys, tmp_path):
    limit = sys.get_int_max_str_digits()
    if limit == 0:
        pytest.skip("int conversion has no digit limit in this interpreter")
    number = "1" + "0" * limit  # one digit past the limit
    path = tmp_path / "long.json"
    path.write_text('{"dimension": ' + number + ', "contexts": []}')
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {path}: Exceeds the limit ({limit} digits)")
    code, out, err = run(capsys, "eval", "--dataset", "pauli-qubit", "--state", number + ",0", "--mode", "invariant")
    assert (code, out) == (1, "")
    assert err.startswith(f"error: --state component 1: Exceeds the limit ({limit} digits)")


def test_validate_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "validate", str(tmp_path / "absent.json"))
    assert code == 1
    assert err.startswith("error:")


def test_lattice_text_output(capsys):
    code, out, _ = run(capsys, "lattice", "--dataset", "pauli-qubit", "--context", "Sigma_z")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "lattice Sigma_z: 4 members"
    assert "  0 = {0}" in lines
    assert "  1+2 = span{(1, 0), (0, 1)}" in lines


def test_lattice_structured_output(capsys):
    code, out, _ = run(capsys, "lattice", "--dataset", "cabello-3", "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"S1", "S2", "S6"}
    assert len(payload["S1"]) == 16
    dims = [entry["dim"] for entry in payload["S1"]]
    assert dims == sorted(dims)


def test_lattice_unknown_context(capsys):
    code, _, err = run(capsys, "lattice", "--dataset", "pauli-qubit", "--context", "Sigma_w")
    assert code == 1
    assert "unknown context 'Sigma_w'" in err


def test_lattice_context_builds_only_that_lattice(capsys, tmp_path, monkeypatch):
    path = tmp_path / "cabello.json"
    path.write_text(json.dumps(structure_to_dict(builtin_structure("cabello-3"))))
    _, full_text, _ = run(capsys, "lattice", str(path))
    _, full_json, _ = run(capsys, "lattice", str(path), "--format", "structured")
    original = contexts.InvariantLattice

    def only_s6(context):
        assert context.name == "S6", f"lattice of {context.name} built"
        return original(context)

    monkeypatch.setattr(contexts, "InvariantLattice", only_s6)
    code, out, err = run(capsys, "lattice", str(path), "--context", "S6")
    assert (code, err) == (0, "")
    assert out == full_text[full_text.index("lattice S6:"):]
    code, out, err = run(capsys, "lattice", str(path), "--context", "S6", "--format", "structured")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"S6": json.loads(full_json)["S6"]}
    code, out, err = run(capsys, "lattice", str(path), "--context", "S9")
    assert (code, out, err) == (1, "", "error: unknown context 'S9'\n")


def test_eval_text(capsys, qubit_file):
    code, out, _ = run(capsys, "eval", qubit_file, "--state", "1,0", "--mode", "invariant")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "state: 1,0"
    assert lines[1] == "mode: invariant"
    assert lines[2] == "allocated: Sigma_z"
    assert "Sigma_z.1 = 1" in lines
    assert "Sigma_z.2 = 0" in lines
    assert "Sigma_x.1 = 0/0" in lines
    assert "Sigma_y.2 = 0/0" in lines


def test_eval_structured(capsys):
    code, out, _ = run(
        capsys,
        "eval",
        "--dataset",
        "pauli-qubit",
        "--state",
        "1,i",
        "--mode",
        "hilbert",
        "--format",
        "structured",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["state"] == ["1", "i"]
    assert payload["mode"] == "hilbert"
    assert payload["entries"]["Sigma_y.1+2"] == "1"
    # (1, i) is the -1 eigenvector of the y spin observable
    assert "1" in [payload["entries"][f"Sigma_y.{k}"] for k in ("1", "2")]


def test_eval_rejects_bad_state(capsys):
    code, _, err = run(
        capsys, "eval", "--dataset", "pauli-qubit", "--state", "1,oops", "--mode", "invariant"
    )
    assert code == 1
    assert err.startswith("error: --state component 2:")
    code, out, err = run(
        capsys, "eval", "--dataset", "pauli-qubit", "--state", "1,,0", "--mode", "invariant"
    )
    assert (code, out) == (1, "")
    assert err == "error: --state component 2: empty literal (position 0 in '')\n"


def test_eval_rejects_zero_state(capsys):
    code, _, err = run(
        capsys, "eval", "--dataset", "pauli-qubit", "--state", "0,0", "--mode", "invariant"
    )
    assert code == 1
    assert "zero vector" in err


def test_eval_rejects_wrong_length_state(capsys):
    code, _, err = run(
        capsys, "eval", "--dataset", "cabello-3", "--state", "1,0", "--mode", "invariant"
    )
    assert code == 1
    assert "length 2" in err


def test_admissibility_text(capsys):
    code, out, _ = run(
        capsys,
        "admissibility",
        "--dataset",
        "cabello-3",
        "--state",
        "0,0,0,1",
        "--mode",
        "invariant",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "context S1: true=1 false=3 gap=0 rule1=satisfied rule2=satisfied"
    assert lines[1] == "context S2: true=1 false=3 gap=0 rule1=satisfied rule2=satisfied"
    assert lines[2].startswith("context S6: true=0 false=0 gap=4")
    assert lines[3] == "overall: rule1=ok rule2=ok"


def test_admissibility_structured(capsys):
    code, out, _ = run(
        capsys,
        "admissibility",
        "--dataset",
        "pauli-qubit",
        "--state",
        "1,1",
        "--mode",
        "hilbert",
        "--format",
        "structured",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["rule1_ok"] is True
    by_name = {row["context"]: row for row in payload["contexts"]}
    assert by_name["Sigma_x"]["true"] == 1
    assert by_name["Sigma_z"]["no_true_atom"] is True


def test_admissibility_builds_no_lattice(capsys, tmp_path, monkeypatch):
    # built-ins are cached with their lattices, so load fresh copies from files
    paths = {}
    for name, _, _ in BUILTIN_STATES:
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(structure_to_dict(builtin_structure(name))))

    def refuse(context):
        raise AssertionError(f"lattice of {context.name} built")

    monkeypatch.setattr(contexts, "InvariantLattice", refuse)
    for name, stem, state in BUILTIN_STATES:
        for mode in ("invariant", "hilbert"):
            code, out, err = run(capsys, "admissibility", str(paths[name]), "--state", state, "--mode", mode)
            assert (code, err) == (0, "")
            assert out == (GOLDEN / f"{stem}_admissibility_{mode}.txt").read_text(encoding="utf-8")


def test_eval_makes_no_containment_row_reduction(capsys, monkeypatch):
    expected = {
        (name, mode): report_to_text(reference_report(builtin_structure(name), state.split(","), Mode(mode))[0])
        for name, _, state in BUILTIN_STATES
        for mode in ("invariant", "hilbert")
    }

    def refuse(self, vector):
        raise AssertionError("contains_vector called")

    monkeypatch.setattr(Subspace, "contains_vector", refuse)
    for name, stem, state in BUILTIN_STATES:
        for mode in ("invariant", "hilbert"):
            code, out, err = run(capsys, "eval", "--dataset", name, "--state", state, "--mode", mode)
            assert (code, err) == (0, "")
            assert out == expected[name, mode]
            if name == "pauli-qubit":
                assert out == (GOLDEN / f"{stem}_{mode}.txt").read_text(encoding="utf-8")


def test_ks_search_text_deterministic(capsys):
    code, first, _ = run(capsys, "ks-search", "--dataset", "cabello-3")
    assert code == 0
    lines = first.splitlines()
    assert lines[0] == "solutions: 40"
    assert len(lines) == 41
    assert lines[1] == "S1:1 S2:1 S6:1"
    code, second, _ = run(capsys, "ks-search", "--dataset", "cabello-3")
    assert first == second


@pytest.mark.parametrize("name", ["pauli-qubit", "cabello-3"])
@pytest.mark.parametrize("fmt,suffix", [("text", "txt"), ("structured", "json")])
def test_ks_search_matches_golden(capsys, name, fmt, suffix):
    code, out, err = run(capsys, "ks-search", "--dataset", name, "--format", fmt)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / f"{name}_ks_search.{suffix}").read_text(encoding="utf-8")


@pytest.mark.parametrize("argv", [
    ["eval", "--state=0,0,0,1", "--mode", "invariant"],
    ["admissibility", "--state=0,0,0,1", "--mode", "invariant"],
    ["hasse", "--state=0,0,0,1", "--mode", "invariant", "--scope", "all"],
    ["ks-search"],
], ids=lambda argv: argv[0])
def test_exported_file_matches_the_dataset(capsys, tmp_path, argv):
    # S1 and S2 share their first atom: the built-in as one projector, the
    # loaded file as two equal ones.  Ranges numbered by object identity
    # once gave 64 colorings from the built-in and 40 from the file.
    path = tmp_path / "cabello.json"
    path.write_text(run(capsys, "datasets", "export", "cabello-3")[1])
    from_file = run(capsys, *argv, str(path))
    assert from_file[0] == 0 and from_file[2] == ""
    assert from_file == run(capsys, *argv, "--dataset", "cabello-3")


def test_ks_search_structured(capsys):
    code, out, _ = run(
        capsys, "ks-search", "--dataset", "pauli-qubit", "--format", "structured"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 8
    assert payload["solutions"][0] == {"Sigma_z": 1, "Sigma_x": 1, "Sigma_y": 1}


def test_hasse_stdout(capsys):
    code, out, _ = run(
        capsys,
        "hasse",
        "--dataset",
        "pauli-qubit",
        "--state",
        "1,0",
        "--mode",
        "invariant",
        "--scope",
        "Sigma_z",
    )
    assert code == 0
    assert out.startswith('digraph "Sigma_z" {')
    assert out.endswith("}\n")
    assert out.count("->") == 4


# rotated-4.json is structure_to_dict(random_structure(random.Random(3), 4)):
# contexts A, B, C on C^4 with dense complex entries over mixed denominators,
# two atoms shared by A and B, and a rank-2 atom in C.
ROTATED = str(GOLDEN / "rotated-4.json")


@pytest.mark.parametrize(
    "argv,golden",
    [
        (["lattice", ROTATED], "rotated-4_lattice.txt"),
        (["lattice", ROTATED, "--format", "structured"], "rotated-4_lattice.json"),
        (["hasse", ROTATED, "--state", "1,-2+2i,-1/2+2i,1/2+i", "--mode", "invariant", "--scope", "all"],
         "rotated-4_hasse_all.dot"),
    ],
    ids=["lattice-text", "lattice-structured", "hasse-all"],
)
def test_rotated_structure_matches_golden(capsys, argv, golden):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")


def test_lattice_and_eval_construct_no_fraction(capsys, tmp_path, monkeypatch):
    path = tmp_path / "cabello.json"
    path.write_text(json.dumps(structure_to_dict(builtin_structure("cabello-3"))))
    made = []
    original = fractions.Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    # Every Fraction(...) call goes through __new__; src builds none.
    monkeypatch.setattr(fractions.Fraction, "__new__", counting)
    assert fractions.Fraction(1, 2) and made == [(1, 2)]
    made.clear()
    for argv in (["lattice", str(path)], ["lattice", str(path), "--format", "structured"],
                 ["eval", str(path), "--state", "0,0,0,1", "--mode", "invariant"],
                 ["eval", str(path), "--state", "1,1/2,-i,0", "--mode", "hilbert", "--format", "structured"]):
        code, _, err = run(capsys, *argv)
        assert (code, err) == (0, "")
    assert made == []


def test_lattice_build_eval_and_lattice_construct_no_member_subspace(capsys, tmp_path, monkeypatch):
    # A lattice holds its members' rows and wraps them in subspaces only when
    # ``members`` is read, which building it, eval and lattice do not: loading
    # makes one subspace per distinct atom range and eval one for the state's
    # ray, however many members the lattices have.  Subspaces are counted
    # through both paths: the constructor and ``_subspace``, in each module
    # that binds it.
    path = tmp_path / "cabello.json"
    path.write_text(json.dumps(structure_to_dict(builtin_structure("cabello-3"))))
    made = []
    original, wrap = Subspace.__init__, subspaces._subspace

    def counting(self, *args, **kwargs):
        made.append(args)
        original(self, *args, **kwargs)

    def wrapping(*args):
        made.append(args)
        return wrap(*args)

    monkeypatch.setattr(Subspace, "__init__", counting)
    binders = [m for name, m in sys.modules.items() if name.startswith("suplat.") and vars(m).get("_subspace") is wrap]
    assert {"suplat.subspaces", "suplat.contexts", "suplat.operators"} <= {m.__name__ for m in binders}
    for module in binders:
        monkeypatch.setattr(module, "_subspace", wrapping)
    for name in dataset_names():
        structure = builtin_structure(name)
        made.clear()
        assert sum(len(contexts.InvariantLattice(c).bases) for c in structure.contexts) > 0
        assert made == []
    assert run(capsys, "validate", str(path))[0] == 0
    loaded = len(made)
    made.clear()
    for argv, rays in ((["lattice", str(path)], 0), (["lattice", str(path), "--format", "structured"], 0),
                       (["eval", str(path), "--state", "0,0,0,1", "--mode", "invariant"], 1),
                       (["eval", str(path), "--state", "1,1/2,-i,0", "--mode", "hilbert", "--format", "structured"], 1)):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "") and "S1" in out
        assert len(made) == loaded + rays, argv
        made.clear()


def test_hasse_output_file(capsys, tmp_path):
    target = tmp_path / "graph.dot"
    code, out, _ = run(
        capsys,
        "hasse",
        "--dataset",
        "cabello-3",
        "--state",
        "0,0,0,1",
        "--mode",
        "invariant",
        "--scope",
        "all",
        "-o",
        str(target),
    )
    assert code == 0
    assert out == ""
    text = target.read_text()
    assert text.startswith('digraph "structure" {')
    assert "tooltip=" in text


# A DOT quoted string on one line: characters other than a double quote or
# a backslash, and backslash escapes.
QUOTED_DOT_STRING = re.compile(r'"(?:[^"\\\n]|\\.)*"')


def test_hasse_escapes_quotes_and_backslashes(capsys, tmp_path):
    data = structure_to_dict(builtin_structure("pauli-qubit"))
    plain = tmp_path / "plain.json"
    plain.write_text(json.dumps(data))
    data["contexts"][0]["name"] = 'Sig"ma\\z'
    odd = tmp_path / "odd.json"
    odd.write_text(json.dumps(data))
    for odd_scope, plain_scope in (('Sig"ma\\z', "Sigma_z"), ("all", "all")):
        code, out, err = run(capsys, "hasse", str(odd), "--state", "1,0", "--mode", "invariant",
                             "--scope", odd_scope)
        assert (code, err) == (0, "")
        assert '"' not in QUOTED_DOT_STRING.sub("", out)
        _, plain_out, _ = run(capsys, "hasse", str(plain), "--state", "1,0", "--mode", "invariant",
                              "--scope", plain_scope)
        assert out == plain_out.replace("Sigma_z", 'Sig\\"ma\\\\z')
        if odd_scope == "all":
            assert '"Sig\\"ma\\\\z.0" [label="0" tooltip="Sig\\"ma\\\\z:0 Sigma_x:0 Sigma_y:0"' in out
        else:
            assert out.startswith('digraph "Sig\\"ma\\\\z" {\n  rankdir=BT;\n  subgraph "cluster_Sig\\"ma\\\\z" {\n')
            assert '    label="Sig\\"ma\\\\z";\n' in out
            assert '  "Sig\\"ma\\\\z.0" -> "Sig\\"ma\\\\z.2";\n' in out


def test_hasse_makes_no_containment_test(capsys, monkeypatch):
    def refuse(self, other):
        raise AssertionError("containment test made")

    monkeypatch.setattr(Subspace, "is_subspace_of", refuse)
    for scope, edges in (("S1", 32), ("all", 112)):
        code, out, err = run(capsys, "hasse", "--dataset", "cabello-3", "--state", "0,0,0,1",
                             "--mode", "invariant", "--scope", scope)
        assert (code, err) == (0, "")
        assert out.count("->") == edges


def test_hasse_of_an_11_atom_context_is_fast(capsys, tmp_path):
    # Covers come from one candidate per atom, not from all pairs of the
    # 2048 members, which took over 3 s.
    k = 11
    path = tmp_path / "diag11.json"
    path.write_text(json.dumps({"dimension": k, "contexts": [{"name": "D", "projectors": [
        {"name": f"e{i}", "matrix": [["1" if r == c == i else "0" for c in range(k)] for r in range(k)]}
        for i in range(k)
    ]}]}))
    start = time.perf_counter()
    code, out, err = run(capsys, "hasse", str(path), "--state", ",".join(["1"] + ["0"] * (k - 1)),
                         "--mode", "invariant", "--scope", "D")
    assert time.perf_counter() - start < 1.5
    assert (code, err) == (0, "")
    assert out.count("->") == k * 2 ** (k - 1)
    assert out.count(" [label=") == 2 ** k


def _diag_projectors(n, names):
    """Projectors onto the standard basis vectors of C^n, one per name."""
    return [
        {"name": name, "matrix": [["1" if r == c == i else "0" for c in range(n)] for r in range(n)]}
        for i, name in enumerate(names)
    ]


def test_hasse_scope_builds_only_the_drawn_lattice(capsys, tmp_path, monkeypatch):
    path = tmp_path / "cabello.json"
    path.write_text(json.dumps(structure_to_dict(builtin_structure("cabello-3"))))
    argv = ["hasse", str(path), "--state", "0,0,0,1", "--mode", "invariant"]
    _, drawn, _ = run(capsys, *argv, "--scope", "S6")
    built = []
    original = contexts.InvariantLattice

    def counting(context):
        built.append(context.name)
        return original(context)

    monkeypatch.setattr(contexts, "InvariantLattice", counting)
    code, out, err = run(capsys, *argv, "--scope", "S6")
    assert (code, err, out, built) == (0, "", drawn, ["S6"])
    assert out.count(" [label=") == 16 and out.count("->") == 32
    # The merged diagram and eval build each context's lattice once.
    for args in ([*argv, "--scope", "all"], ["eval", *argv[1:]]):
        built.clear()
        code, out, err = run(capsys, *args)
        assert (code, err, built) == (0, "", ["S1", "S2", "S6"]), args


def test_hasse_of_one_context_sorts_no_node(capsys, monkeypatch):
    # One lattice's members are in member order already, each under its own
    # key, so only the merged diagram sorts its nodes.
    sources = [(["--dataset", "cabello-3"], "0,0,0,1", ("S1", "S2", "S6")),
               ([ROTATED], "1,-2+2i,-1/2+2i,1/2+i", ("A", "B", "C"))]
    argvs = [
        ["hasse", *source, "--state", state, "--mode", mode, "--scope", scope]
        for source, state, scopes in sources for scope in scopes for mode in ("invariant", "hilbert")
    ]
    drawn = [run(capsys, *argv) for argv in argvs]

    def refuse(subspaces):
        raise AssertionError("nodes sorted")

    monkeypatch.setattr(hasse, "_sort_order", refuse)
    for argv, expected in zip(argvs, drawn):
        assert expected[0] == 0 and run(capsys, *argv) == expected, argv
    with pytest.raises(AssertionError, match="nodes sorted"):
        main(["hasse", ROTATED, "--state", "1,0,0,0", "--mode", "invariant", "--scope", "all"])


def test_lattice_formats_each_distinct_entry_once(capsys, tmp_path, monkeypatch):
    k = 7
    path = tmp_path / "diag7.json"
    path.write_text(json.dumps({"dimension": k, "contexts": [
        {"name": "D", "projectors": _diag_projectors(k, [f"e{i}" for i in range(k)])}]}))
    argvs = [["lattice", source, "--format", fmt] for source in (ROTATED, str(path)) for fmt in ("text", "structured")]
    printed = [run(capsys, *argv) for argv in argvs]
    original = linalg.format_scalar
    calls = collections.Counter()

    def counting(z):
        calls[z._a, z._b, z._d] += 1
        return original(z)

    for module in [m for name, m in sys.modules.items() if name.startswith("suplat")]:
        if getattr(module, "format_scalar", None) is original:
            monkeypatch.setattr(module, "format_scalar", counting)
    for argv, expected in zip(argvs, printed):
        calls.clear()
        assert expected[0] == 0 and run(capsys, *argv) == expected, argv
        assert set(calls.values()) == {1}, argv
    assert set(calls) == {(0, 0, 1), (1, 0, 1)}  # diag-7's 128 members print two distinct entries


def test_hasse_of_a_small_context_beside_a_wide_one(capsys, tmp_path, monkeypatch):
    # P splits C^14 into e1 and its complement, which is a member of D's
    # lattice too (the grey border); D's 16384 members are never built.
    n = 14
    rest = [["1" if r == c and r else "0" for c in range(n)] for r in range(n)]
    path = tmp_path / "pair14.json"
    path.write_text(json.dumps({"dimension": n, "contexts": [
        {"name": "P", "projectors": _diag_projectors(n, ["e1"]) + [{"name": "rest", "matrix": rest}]},
        {"name": "D", "projectors": _diag_projectors(n, [f"e{i + 1}" for i in range(n)])},
    ]}))
    original = contexts.InvariantLattice

    def only_p(context):
        assert context.name == "P", f"lattice of {context.name} built"
        return original(context)

    monkeypatch.setattr(contexts, "InvariantLattice", only_p)
    start = time.perf_counter()
    code, out, err = run(capsys, "hasse", str(path), "--state=" + ",".join(["1"] + ["0"] * (n - 1)),
                         "--mode", "invariant", "--scope", "P")
    assert time.perf_counter() - start < 0.5  # about 2 s when D's lattice was built
    assert (code, err) == (0, "")
    assert out == (
        'digraph "P" {\n'
        "  rankdir=BT;\n"
        '  subgraph "cluster_P" {\n'
        '    label="P";\n'
        '    "P.0" [label="0" shape=circle style=filled fillcolor=black fontcolor=white];\n'
        '    "P.1" [label="1" shape=box style=filled fillcolor=black fontcolor=white color=grey penwidth=3];\n'
        '    "P.2" [label="2" shape=circle style=filled fillcolor=black fontcolor=white color=grey penwidth=3];\n'
        '    "P.1+2" [label="1+2" shape=box style=filled fillcolor=black fontcolor=white];\n'
        "  }\n"
        '  "P.0" -> "P.1";\n'
        '  "P.0" -> "P.2";\n'
        '  "P.1" -> "P.1+2";\n'
        '  "P.2" -> "P.1+2";\n'
        "}\n"
    )


def test_eval_and_hasse_hash_no_scalar(capsys, tmp_path, monkeypatch):
    # Memberships and values come from atom masks, so no basis is hashed:
    # only ks-search reads the structure's numbering of the atom ranges.
    n = 10
    path = tmp_path / "diag10.json"
    path.write_text(json.dumps({"dimension": n, "contexts": [
        {"name": "D", "projectors": _diag_projectors(n, [f"e{i}" for i in range(n)])},
    ]}))
    # E shares e1 with D and splits the rest of C^3 into (0,1,1) and (0,1,-1),
    # so at e2 only D is allocated and E's members are certified across contexts.
    shared = tmp_path / "shared.json"
    half = [["0", "0", "0"], ["0", "1/2", "1/2"], ["0", "1/2", "1/2"]]
    flip = [["0", "0", "0"], ["0", "1/2", "-1/2"], ["0", "-1/2", "1/2"]]
    shared.write_text(json.dumps({"dimension": 3, "contexts": [
        {"name": "D", "projectors": _diag_projectors(3, ["e1", "e2", "e3"])},
        {"name": "E", "projectors": _diag_projectors(3, ["e1"]) + [
            {"name": "p", "matrix": half}, {"name": "m", "matrix": flip}]},
    ]}))
    calls = []
    original = GaussianRational.__hash__

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(GaussianRational, "__hash__", counting)
    state = "--state=" + ",".join(["1"] + ["0"] * (n - 1))
    at_e2 = ["--state=0,1,0", "--mode", "invariant"]
    outs = []
    for argv in (["eval", str(path), state, "--mode", "invariant"],
                 ["hasse", str(path), state, "--mode", "invariant", "--scope", "D"],
                 ["admissibility", str(shared)] + at_e2,
                 ["hasse", str(shared)] + at_e2 + ["--scope", "all"]):
        code, out, err = run(capsys, *argv)
        assert (code, err, len(calls)) == (0, "", 0), argv
        outs.append(out)
    assert outs[1].count("->") == n * 2 ** (n - 1)
    assert outs[2].splitlines()[:2] == [
        "context D: true=1 false=2 gap=0 rule1=satisfied rule2=satisfied",
        "context E: true=0 false=1 gap=2 rule1=vacuous rule2=violated",
    ]
    # e1 and its complement are members of both lattices, each one node
    assert '"D.1" [label="1" tooltip="D:1 E:1"' in outs[3]
    assert '"D.2+3" [label="2+3" tooltip="D:2+3 E:2+3"' in outs[3]


def test_commands_call_no_scalar_arithmetic(capsys, tmp_path, monkeypatch):
    # Every command runs on atom masks and the scalars' integer triples, so
    # the operators are library API only: with each of them refused, every
    # call prints what it printed before.  The exported file is written
    # first, because deriving a projector's matrix does call them.
    cabello = tmp_path / "cabello.json"
    cabello.write_text(json.dumps(structure_to_dict(builtin_structure("cabello-3"))))
    argvs = []
    for path, state in ((str(cabello), "0,0,0,1"), (ROTATED, "1,-2+2i,-1/2+2i,1/2+i")):
        scopes = ["all"] + [c.name for c in load_structure(path).contexts]
        argvs += [["validate", path]] + [["lattice", path, "--format", f] for f in ("text", "structured")]
        for command in ("eval", "admissibility"):
            for mode in ("invariant", "hilbert"):
                argvs += [[command, path, "--state", state, "--mode", mode, "--format", f]
                          for f in ("text", "structured")]
        argvs += [["hasse", path, "--state", state, "--mode", "invariant", "--scope", s] for s in scopes]
        argvs += [["ks-search", path, "--format", f] for f in ("text", "structured")]
    expected = [run(capsys, *argv) for argv in argvs]
    assert all(code == 0 and err == "" for code, _, err in expected)

    def refuse(*args):
        raise AssertionError("a scalar operator was called")

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__",
                 "__rtruediv__", "inverse", "__neg__", "conjugate"):
        monkeypatch.setattr(GaussianRational, name, refuse)
    for argv, before in zip(argvs, expected):
        assert run(capsys, *argv) == before, argv


def test_builtin_commands_call_no_scalar_arithmetic(capsys, monkeypatch):
    # A built-in atom is a name and a ray's range, so building a dataset derives
    # no matrix: with every operator refused, each call builds it and prints what it did.
    argvs = []
    for dataset, state in (("cabello-3", "0,0,0,1"), ("pauli-qubit", "1,i")):
        at = ["--dataset", dataset, "--state", state, "--mode", "invariant"]
        argvs += [["eval", *at], ["hasse", *at, "--scope", "all"], ["ks-search", "--dataset", dataset]]
    expected = [run(capsys, *argv) for argv in argvs]
    assert all(code == 0 and err == "" for code, _, err in expected)

    def refuse(*args):
        raise AssertionError("a scalar operator was called")

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__",
                 "__rtruediv__", "inverse", "__neg__", "conjugate"):
        monkeypatch.setattr(GaussianRational, name, refuse)
    for argv, before in zip(argvs, expected):
        builtin_structure.cache_clear()
        assert run(capsys, *argv) == before, argv


def test_hasse_failure_leaves_no_file(capsys, tmp_path):
    target = tmp_path / "never.dot"
    code, _, err = run(
        capsys,
        "hasse",
        "--dataset",
        "pauli-qubit",
        "--state",
        "1,0",
        "--mode",
        "invariant",
        "--scope",
        "Sigma_w",
        "-o",
        str(target),
    )
    assert code == 1
    assert err.startswith("error:")
    assert not target.exists()


class _Held:
    """Stands for the memory a failing call holds until its traceback is freed."""


def _out_of_memory(held: list):
    def handler(args):
        payload = _Held()
        held.append(weakref.ref(payload))
        raise MemoryError

    return handler


class _Stderr(io.StringIO):
    """A stderr that notes, at each write, whether the failed call's memory is still held."""

    def __init__(self, held: list) -> None:
        super().__init__()
        self.held, self.alive = held, []

    def write(self, text: str) -> int:
        self.alive.extend(ref() is not None for ref in self.held)
        return super().write(text)


@pytest.mark.parametrize("handler", ["_run_ks_search", "_run_hasse"])
def test_out_of_memory_is_one_error_line(capsys, tmp_path, monkeypatch, handler):
    # The line is printed only once the traceback, and with it what the
    # failed call held, is freed; an -o target is left as it was.
    held = []
    monkeypatch.setattr(cli, handler, _out_of_memory(held))
    stderr = _Stderr(held)
    monkeypatch.setattr(sys, "stderr", stderr)
    target = tmp_path / "graph.dot"
    target.write_text("ORIGINAL CONTENT\n")
    argv = {
        "_run_ks_search": ["ks-search", "--dataset", "cabello-3"],
        "_run_hasse": ["hasse", "--dataset", "pauli-qubit", "--state", "1,0", "--mode", "invariant",
                       "--scope", "all", "-o", str(target)],
    }[handler]
    code, out, _ = run(capsys, *argv)
    assert (code, out, stderr.getvalue()) == (1, "", "error: out of memory\n")
    assert len(held) == 1 and stderr.alive and not any(stderr.alive)
    assert target.read_text() == "ORIGINAL CONTENT\n" and os.listdir(tmp_path) == ["graph.dot"]


def test_hasse_write_errors_name_the_output_path(capsys, tmp_path, monkeypatch):
    # The DOT goes to a file beside the target first; an error names that
    # file only when a killed run left it there.
    argv = ["hasse", "--dataset", "pauli-qubit", "--state", "1,0", "--mode", "invariant", "--scope", "all"]
    missing = tmp_path / "missing" / "x.dot"
    code, out, err = run(capsys, *argv, "-o", str(missing))
    assert (code, out, err) == (1, "", f"error: [Errno 2] No such file or directory: {str(missing)!r}\n")
    folder = tmp_path / "folder"
    folder.mkdir()
    code, out, err = run(capsys, *argv, "-o", str(folder))
    assert (code, out, err) == (1, "", f"error: [Errno 21] Is a directory: {str(folder)!r}\n")
    assert sorted(os.listdir(tmp_path)) == ["folder"] and os.listdir(folder) == []
    monkeypatch.setattr(os, "getpid", lambda: 4242)
    stale = tmp_path / "x.dot.4242.tmp"
    stale.write_text("left by a killed run\n")
    code, out, err = run(capsys, *argv, "-o", str(tmp_path / "x.dot"))
    assert (code, out, err) == (1, "", f"error: [Errno 17] File exists: {str(stale)!r}\n")
    assert stale.read_text() == "left by a killed run\n" and not (tmp_path / "x.dot").exists()


def test_failed_hasse_write_keeps_the_target(tmp_path):
    # A file size limit set in the child alone cuts the 120 KB DOT short.
    k = 9
    path = tmp_path / "diag9.json"
    path.write_text(json.dumps({"dimension": k, "contexts": [{"name": "D", "projectors": _diag_projectors(
        k, [f"e{i}" for i in range(k)])}]}))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    target = out_dir / "graph.dot"
    target.write_bytes(b"ORIGINAL CONTENT\n")
    state = "--state=" + ",".join(["1"] + ["0"] * (k - 1))
    proc = subprocess.run(
        [sys.executable, "-m", "suplat.cli", "hasse", str(path), state, "--mode", "invariant",
         "--scope", "D", "-o", str(target)],
        capture_output=True, env=CHILD_ENV,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (8192, 8192)),
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith(b"error: ") and proc.stderr.count(b"\n") == 1
    assert target.read_bytes() == b"ORIGINAL CONTENT\n"
    assert os.listdir(out_dir) == ["graph.dot"]


def test_closed_stdout_ends_quietly(tmp_path):
    # Each command's output is cut after one line, and it must write nothing
    # to stderr.  lattice, eval and hasse write 80 KB to 1.4 MB, more than a
    # pipe buffer holds, so a write after the reader has gone fails and they
    # must exit 1; export may end before the reader goes, so it may exit 0 or
    # 1.  Unbuffered, stdout's buffer is a raw file that may take part of a
    # write; the rest must still be written.
    k = 12
    path = tmp_path / "diag12.json"
    path.write_text(json.dumps({"dimension": k, "contexts": [{"name": "D", "projectors": _diag_projectors(
        k, [f"e{i}" for i in range(k)])}]}))
    state = "--state=" + ",".join(["1"] + ["0"] * (k - 1))
    commands = (
        (["lattice", str(path)], b"lattice D: 4096 members\n", {1}),
        (["eval", str(path), state, "--mode", "invariant"], b"state: 1,0,0,0,0,0,0,0,0,0,0,0\n", {1}),
        (["hasse", str(path), state, "--mode", "invariant", "--scope", "D"], b'digraph "D" {\n', {1}),
        (["datasets", "export", "cabello-3"], b"{\n", {0, 1}),
    )
    env = {name: value for name, value in CHILD_ENV.items() if name != "PYTHONUNBUFFERED"}
    for argv, first_line, codes in commands:
        with contextlib.ExitStack() as stack:  # the buffered and the unbuffered run side by side
            runs = [(unbuffered, stack.enter_context(subprocess.Popen(
                [sys.executable, "-m", "suplat.cli", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                env={**env, **unbuffered},
            ))) for unbuffered in ({}, {"PYTHONUNBUFFERED": "1"})]
            for unbuffered, proc in runs:
                assert proc.stdout.readline() == first_line
                proc.stdout.close()
                err = proc.stderr.read()
                assert (proc.wait() in codes, err) == (True, b""), (argv, unbuffered, proc.returncode)


def test_ks_search_lists_the_colorings_of_grid_3(tmp_path):
    # 4.6 MB of structured output; the whole call, start-up included, has 10 s.
    rays, structure = grid_3()
    assert (rays, len(structure.contexts)) == (49, 26)
    path = tmp_path / "grid3.json"
    path.write_text(json.dumps(structure_to_dict(structure)))
    done = subprocess.run([sys.executable, "-m", "suplat.cli", "ks-search", str(path), "--format", "structured"],
                          capture_output=True, env=CHILD_ENV, timeout=10)
    assert (done.returncode, done.stderr) == (0, b"")
    found = json.loads(done.stdout)
    assert found["count"] == len(found["solutions"]) == 31104


def test_ks_search_decides_completed_grid_3_under_a_memory_cap(tmp_path):
    # The set has no coloring, and the search must say so inside an address
    # space of 100000 KiB (what ulimit -v 100000 sets) and 60 s.  Both formats
    # also finish under 30000 KiB, so the cap leaves about threefold headroom.
    rays, structure = completed_grid_3()
    assert (rays, len(structure.contexts)) == (109, 86)
    path = tmp_path / "completed.json"
    path.write_text(json.dumps(structure_to_dict(structure)))
    cap = 100000 * 1024
    for fmt, expected in (("text", b"solutions: 0\n"), ("structured", b'{\n  "count": 0,\n  "solutions": []\n}\n')):
        done = subprocess.run(
            [sys.executable, "-m", "suplat.cli", "ks-search", str(path), "--format", fmt],
            capture_output=True, env=CHILD_ENV, timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        )
        assert (done.returncode, done.stderr, done.stdout) == (0, b"", expected), fmt


# Every command whose output must not depend on the hash seed, with its exit
# code.  Files are named relative to the working directory, where
# test_output_is_the_same_under_two_hash_seeds writes them.
HASH_SEED_COMMANDS = [
    (0, ["datasets", "list"]),
    (0, ["datasets", "export", "pauli-qubit"]),
    (0, ["datasets", "export", "cabello-3"]),
    (0, ["lattice", "--dataset", "pauli-qubit", "--format", "structured"]),
    (0, ["validate", "qubit.json"]),
    (1, ["validate", "signs.json"]),
    (1, ["validate", "scaled.json"]),
    (1, ["validate", "reflection.json"]),
    (1, ["validate", "incomplete.json"]),
    (1, ["validate", "linebreak.json"]),
    *[(0, [*argv, source]) for argv in (
        ["eval", "--mode", "invariant", "--state=0,0,0,1"],
        ["admissibility", "--mode", "invariant", "--state=0,0,0,1"],
        ["hasse", "--mode", "invariant", "--scope", "all", "--state=0,0,0,1"],
        ["ks-search"],
    ) for source in ("cabello.json", "--dataset=cabello-3")],
    (0, ["lattice", "--dataset", "cabello-3", "--context", "S1"]),
    (0, ["eval", "--dataset", "pauli-qubit", "--state", "1,0", "--mode", "invariant"]),
    (0, ["admissibility", "--dataset", "cabello-3", "--state", "0,0,0,1", "--mode", "invariant"]),
    (0, ["hasse", "--dataset", "cabello-3", "--state", "0,0,0,1", "--mode", "invariant", "--scope", "all",
         "-o", "cabello.dot"]),
    *[(0, ["ks-search", "--dataset", name, "--format", fmt])
      for fmt in ("text", "structured") for name in ("pauli-qubit", "cabello-3")],
    (0, ["hasse", "--dataset", "pauli-qubit", "--state", "1,0", "--mode", "invariant", "--scope", "all"]),
    (0, ["hasse", "--dataset", "cabello-3", "--state", "0,0,0,1", "--mode", "invariant", "--scope", "all"]),
    (0, ["hasse", "--dataset", "cabello-3", "--state", "0,0,0,1", "--mode", "invariant", "--scope", "S6"]),
    (0, ["hasse", "--dataset", "pauli-qubit", "--state", "1,0", "--mode", "invariant", "--scope", "Sigma_x"]),
    (0, ["lattice", "--dataset", "cabello-3", "--context", "S6", "--format", "structured"]),
    *[(0, [command, "--dataset", name, "--state", state, "--mode", mode, "--format", fmt])
      for name, state in (("pauli-qubit", "1,0"), ("cabello-3", "0,0,0,1"))
      for command in ("eval", "admissibility")
      for mode, fmt in (("hilbert", "text"), ("invariant", "structured"))],
]

# Prints as JSON each canary set of argv[1] in its iteration order.
CANARY_CHILD = "import json, sys; json.dump([list(set(names)) for names in json.loads(sys.argv[1])], sys.stdout)"

# Runs the commands of argv[2] through main, each on freshly built datasets
# as in a new process, and prints as JSON each canary set of argv[1] in its
# iteration order, then each command's exit code, stdout (and its -o file)
# and stderr.
HASH_SEED_CHILD = """
import contextlib, io, json, sys
from suplat.cli import main
from suplat.datasets import builtin_structure
runs = []
for argv in json.loads(sys.argv[2]):
    builtin_structure.cache_clear()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if "-o" in argv:
        with open(argv[argv.index("-o") + 1], encoding="utf-8") as dot:
            out.write(dot.read())
    runs.append([code, out.getvalue(), err.getvalue()])
json.dump([[list(set(names)) for names in json.loads(sys.argv[1])], runs], sys.stdout)
"""


def canary_orders(canaries, seed):
    done = subprocess.run(
        [sys.executable, "-c", CANARY_CHILD, json.dumps(canaries)],
        capture_output=True, check=True, env=dict(CHILD_ENV, PYTHONHASHSEED=str(seed)),
    )
    return json.loads(done.stdout)


def seed_that_reorders(canaries):
    """The first seed from 2 to 20 that iterates every canary set in another order than seed 1."""
    first = canary_orders(canaries, 1)
    for seed in range(2, 21):
        if all(a != b for a, b in zip(first, canary_orders(canaries, seed), strict=True)):
            return seed
    raise AssertionError(f"no seed from 2 to 20 reorders every canary set of seed 1: {first}")


def test_output_is_the_same_under_two_hash_seeds(capsys, tmp_path):
    # Seed 1 and the seed chosen here iterate each canary set of compared
    # names (the datasets, and each one's contexts) in different orders, so
    # output that follows the order of a set of names differs between the two
    # children.  The seed is chosen at run time because the hash function,
    # and so each seed's orders, changes between Python versions.
    exported = {name: run(capsys, "datasets", "export", name)[1] for name in dataset_names()}
    reflection = json.loads(exported["pauli-qubit"])
    scaled, incomplete, linebreak = (json.loads(exported["cabello-3"]) for _ in range(3))
    reflection["contexts"][0]["projectors"][0]["matrix"] = [["1", "0"], ["0", "-1"]]
    atom = scaled["contexts"][1]["projectors"][0]
    atom["matrix"] = [["2" if lit == "1" else lit for lit in row] for row in atom["matrix"]]
    incomplete["contexts"][1]["projectors"].pop()
    linebreak["contexts"][1]["name"] = "S\n2"
    files = {
        "qubit.json": exported["pauli-qubit"],
        "cabello.json": exported["cabello-3"],
        "signs.json": exported["pauli-qubit"].replace('"-1/2i"', '"0+-1/2i"'),
        "reflection.json": json.dumps(reflection),
        "scaled.json": json.dumps(scaled),
        "incomplete.json": json.dumps(incomplete),
        "linebreak.json": json.dumps(linebreak),
    }
    canaries = [dataset_names(), *([c.name for c in builtin_structure(name).contexts] for name in dataset_names())]
    seeds = (1, seed_that_reorders(canaries))
    child_argv = [sys.executable, "-c", HASH_SEED_CHILD, json.dumps(canaries),
                  json.dumps([argv for _, argv in HASH_SEED_COMMANDS])]
    with contextlib.ExitStack() as stack:
        children = []
        for seed in seeds:
            cwd = tmp_path / str(seed)
            cwd.mkdir()
            for name, text in files.items():
                (cwd / name).write_text(text, encoding="utf-8")
            children.append(stack.enter_context(subprocess.Popen(
                child_argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=cwd,
                env=dict(CHILD_ENV, PYTHONHASHSEED=str(seed)),
            )))
        results = []
        for child in children:
            out, err = child.communicate(timeout=60)
            assert (child.returncode, err) == (0, b"")
            results.append(json.loads(out))
    (orders, runs), (other_orders, other_runs) = results
    assert all(a != b for a, b in zip(orders, other_orders, strict=True)), (orders, other_orders)
    assert [code for code, _, _ in runs] == [code for code, _ in HASH_SEED_COMMANDS]
    assert all(err == "" for code, _, err in runs if code == 0)
    assert runs == other_runs


class CountingStdout(io.StringIO):
    """An in-memory stdout that counts its non-empty writes."""

    writes = 0

    def write(self, text):
        self.writes += bool(text)
        return super().write(text)


CABELLO_STATE = ["--dataset", "cabello-3", "--state", "0,0,0,1", "--mode", "invariant"]


@pytest.mark.parametrize("argv", [
    ["validate", "QUBIT_FILE"],
    ["datasets", "list"],
    ["datasets", "export", "cabello-3"],
    ["lattice", "--dataset", "cabello-3"],
    ["lattice", "--dataset", "cabello-3", "--format", "structured"],
    ["eval", *CABELLO_STATE],
    ["eval", *CABELLO_STATE, "--format", "structured"],
    ["admissibility", *CABELLO_STATE],
    ["admissibility", *CABELLO_STATE, "--format", "structured"],
    ["ks-search", "--dataset", "cabello-3"],
    ["ks-search", "--dataset", "cabello-3", "--format", "structured"],
    ["hasse", *CABELLO_STATE, "--scope", "all"],
], ids=" ".join)
def test_one_write_to_an_in_memory_stdout(qubit_file, argv):
    # One write lets an in-memory stdout keep the output string instead of
    # copying it, which the benchmark's peak memory depends on.
    out = CountingStdout()
    with contextlib.redirect_stdout(out):
        code = main([qubit_file if arg == "QUBIT_FILE" else arg for arg in argv])
    assert (code, out.writes) == (0, 1)


def test_source_is_exclusive(capsys, qubit_file):
    with pytest.raises(SystemExit) as exc:
        main(["eval", qubit_file, "--dataset", "pauli-qubit", "--state", "1,0", "--mode", "invariant"])
    assert exc.value.code == 2
    assert "--dataset" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--state", "1,0", "--mode", "invariant"])
    assert exc.value.code == 2
    assert "--dataset" in capsys.readouterr().err


def test_state_and_mode_required(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--dataset", "pauli-qubit", "--mode", "invariant"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--dataset", "pauli-qubit", "--state", "1,0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--dataset", "pauli-qubit", "--state", "1,0", "--mode", "sideways"])
    assert exc.value.code == 2


def test_command_required(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_parser_prog_name():
    assert build_parser().prog == "suplat"
    assert build_parser() is not build_parser()


def test_main_builds_one_parser_and_leaks_no_option(capsys, monkeypatch):
    built = []

    def counting():
        built.append(build_parser())
        return built[-1]

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    code, out, err = run(capsys, "ks-search", "--dataset", "pauli-qubit", "--format", "structured")
    assert (code, err) == (0, "")
    assert out == (GOLDEN / "pauli-qubit_ks_search.json").read_text(encoding="utf-8")
    code, out, err = run(capsys, "admissibility", "--dataset", "pauli-qubit", "--state", "1,0", "--mode", "hilbert")
    assert (code, err) == (0, "")
    assert out == (GOLDEN / "qubit_state10_admissibility_hilbert.txt").read_text(encoding="utf-8")
    code, out, err = run(capsys, "ks-search", "--dataset", "cabello-3")
    assert (code, err) == (0, "")
    assert out == (GOLDEN / "cabello-3_ks_search.txt").read_text(encoding="utf-8")
    # --state and --mode of the admissibility call must not carry over
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--dataset", "pauli-qubit"])
    assert exc.value.code == 2
    assert "--state" in capsys.readouterr().err
    code, out, err = run(capsys, "eval", "--dataset", "pauli-qubit", "--state", "1,0", "--mode", "invariant")
    assert (code, err) == (0, "")
    assert out == (GOLDEN / "qubit_state10_invariant.txt").read_text(encoding="utf-8")
    assert len(built) == 1


def test_eval_and_lattice_hash_no_member(capsys, monkeypatch, tmp_path):
    # Labels come from atom masks and values from supports, so no member
    # subspace is hashed on these paths.
    diag = {
        "dimension": 5,
        "contexts": [{
            "name": "D",
            "projectors": [
                {"name": f"e{i}", "matrix": [["1" if r == c == i else "0" for c in range(5)] for r in range(5)]}
                for i in range(5)
            ],
        }],
    }
    diag_path = tmp_path / "diag5.json"
    diag_path.write_text(json.dumps(diag))
    cabello_path = tmp_path / "cabello.json"
    cabello_path.write_text(json.dumps(structure_to_dict(builtin_structure("cabello-3"))))
    calls = []
    for kind in (Subspace, ExactMatrix):  # a member's basis is its rows, which hash without a matrix
        original = kind.__hash__

        def counting(self, original=original):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(kind, "__hash__", counting)
    for argv in (
        ["eval", str(diag_path), "--state", "1,0,0,0,0", "--mode", "invariant"],
        ["eval", str(diag_path), "--state", "1,1,0,0,0", "--mode", "invariant"],
        ["lattice", str(diag_path)],
        ["eval", str(cabello_path), "--state", "0,0,0,1", "--mode", "hilbert"],
    ):
        calls.clear()
        code, _, err = run(capsys, *argv)
        assert (code, err, len(calls)) == (0, "", 0), argv


def test_readme_eval_example_matches_output(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    command = "$ suplat eval --dataset pauli-qubit --state 1,0 --mode invariant\n"
    block = readme[readme.index(command) + len(command):]
    expected = block[:block.index("```")]
    code, out, err = run(capsys, *command.split()[2:])
    assert (code, err) == (0, "")
    assert out == expected


def test_readme_library_example_matches_its_comments(capsys, cabello):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("## Library use"):]
    block = section[section.index("```python\n") + len("```python\n"):]
    block = block[:block.index("```")]
    exec(compile(block, "README.md", "exec"), {})
    expected = [line.split("#")[1].strip() for line in block.splitlines() if "print(" in line]
    assert expected == ["0", "40", "True", "0/0", "1"]
    assert capsys.readouterr().out.splitlines() == expected
    assert "`S1:1 S2:1 S6:1`" in section
    assert ks_to_text(cabello).splitlines()[1] == "S1:1 S2:1 S6:1"


@pytest.mark.parametrize("module", ["suplat.cli", "suplat"])
def test_import_loads_no_costly_stdlib_module(module):
    # Each of these took milliseconds to import, and every command line
    # call would pay for them; none of them is needed to run a command.
    costly = ("dataclasses", "inspect", "fractions", "decimal", "typing")
    src = str(Path(cli.__file__).parents[1])
    probe = f"import sys; sys.path.insert(0, {src!r}); import {module}; print(*[m for m in {costly!r} if m in sys.modules])"
    done = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.split() == []
