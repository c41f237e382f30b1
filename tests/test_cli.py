"""End-to-end command line tests, run in process via main(argv)."""

from __future__ import annotations

import json

import pytest

from suplat import contexts
from suplat.cli import build_parser, load_structure, main
from suplat.contexts import structure_to_dict
from suplat.datasets import builtin_structure


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


def test_datasets_export_needs_name(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["datasets", "export"])
    assert exc.value.code == 2


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
    assert err.startswith("error:")


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


def test_ks_search_text_deterministic(capsys):
    code, first, _ = run(capsys, "ks-search", "--dataset", "cabello-3")
    assert code == 0
    lines = first.splitlines()
    assert lines[0] == "solutions: 40"
    assert len(lines) == 41
    assert lines[1] == "S1:1 S2:1 S6:1"
    code, second, _ = run(capsys, "ks-search", "--dataset", "cabello-3")
    assert first == second


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
