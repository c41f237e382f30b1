"""End-to-end command line tests, run in process via main(argv)."""

from __future__ import annotations

import fractions
import json
import re
from pathlib import Path

import pytest

from suplat import cli, contexts
from suplat.cli import build_parser, load_structure, main
from suplat.contexts import structure_to_dict
from suplat.datasets import builtin_structure
from suplat.linalg import ExactMatrix
from suplat.subspaces import Subspace
from suplat.valuation import Mode, report_to_text

from helpers import reference_report


GOLDEN = Path(__file__).parent / "golden"
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
    assert structure.lattices is structure.lattices

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
    contexts = [{"name": f"Sigma_z{i}", "projectors": z} for i in range(1500)]
    path = tmp_path / "deep.json"
    path.write_text(json.dumps({"dimension": 2, "contexts": contexts}))
    code, out, err = run(capsys, "ks-search", str(path))
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[0] == "solutions: 2"
    assert lines[1] == " ".join(f"Sigma_z{i}:1" for i in range(1500))
    assert lines[2] == " ".join(f"Sigma_z{i}:2" for i in range(1500))


def test_validate_rejects_non_utf8(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"dimension": 2, "contexts": "\xff"}')
    code, out, err = run(capsys, "validate", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {path}: not valid UTF-8: 'utf-8' codec can't decode byte 0xff")
    assert "Traceback" not in err


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


def test_source_is_exclusive(capsys, qubit_file):
    with pytest.raises(SystemExit) as exc:
        main(["eval", qubit_file, "--dataset", "pauli-qubit", "--state", "1,0", "--mode", "invariant"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--state", "1,0", "--mode", "invariant"])
    assert exc.value.code == 2


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
    original = ExactMatrix.__hash__

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(ExactMatrix, "__hash__", counting)
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
