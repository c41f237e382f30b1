"""Command line interface.

Commands: validate, lattice, eval, admissibility, ks-search, hasse,
datasets.  Structures come either from a JSON file or from a built-in
dataset.  Exit codes: 0 on success, 1 when validation or evaluation
fails or stdout is closed before everything is written (with nothing
on stderr), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache

from .admissibility import (
    admissibility_to_dict,
    admissibility_to_text,
    check_admissibility,
    ks_search,
    ks_to_dict,
    ks_to_text,
)
from .contexts import Structure, structure_from_dict, structure_to_dict
from .datasets import builtin_structure, dataset_names
from .hasse import emit_dot
from .linalg import parse_scalar
from .valuation import (
    Mode,
    evaluate_structure,
    report_to_dict,
    report_to_text,
)

TEXT = "text"
STRUCTURED = "structured"


def load_structure(path: str) -> Structure:
    """Read, parse and fully validate a structure file."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except (json.JSONDecodeError, RecursionError) as err:
            # RecursionError: nesting deeper than the decoder's recursion limit.
            raise ValueError(f"{path}: not valid JSON: {err}") from err
        except UnicodeDecodeError as err:
            raise ValueError(f"{path}: not valid UTF-8: {err}") from err
    return structure_from_dict(data)


def _structure_from_args(args: argparse.Namespace) -> Structure:
    if args.dataset is not None:
        return builtin_structure(args.dataset)
    return load_structure(args.file)


def _parse_state(text: str) -> tuple:
    state = []
    for number, part in enumerate(text.split(","), start=1):
        try:
            state.append(parse_scalar(part.strip()))
        except ValueError as err:
            raise ValueError(f"--state component {number}: {err}") from err
    return tuple(state)


def _add_source_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("file", nargs="?", help="structure JSON file")
    parser.add_argument("--dataset", help="built-in dataset name instead of a file")


def _add_format_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=[TEXT, STRUCTURED], default=TEXT)


def _add_state_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--state", required=True, help="comma-separated scalar literals")
    parser.add_argument(
        "--mode",
        required=True,
        choices=[m.value for m in Mode],
        help="invariant: gaps outside allocated lattices; hilbert: bivalent by containment",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="suplat",
        description="Invariant-subspace lattices, three-valued valuations and Hasse diagrams",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="validate a structure file")
    p_validate.add_argument("file")

    p_lattice = sub.add_parser("lattice", help="list lattice members")
    _add_source_arguments(p_lattice)
    p_lattice.add_argument("--context", help="limit to one context")
    _add_format_argument(p_lattice)

    p_eval = sub.add_parser("eval", help="evaluate every lattice member at a state")
    _add_source_arguments(p_eval)
    _add_state_arguments(p_eval)
    _add_format_argument(p_eval)

    p_adm = sub.add_parser("admissibility", help="judge the two rules per context")
    _add_source_arguments(p_adm)
    _add_state_arguments(p_adm)
    _add_format_argument(p_adm)

    p_ks = sub.add_parser("ks-search", help="enumerate bivalent colorings")
    _add_source_arguments(p_ks)
    _add_format_argument(p_ks)

    p_hasse = sub.add_parser("hasse", help="emit a DOT Hasse diagram")
    _add_source_arguments(p_hasse)
    _add_state_arguments(p_hasse)
    p_hasse.add_argument("--scope", required=True, help="a context name, or 'all'")
    p_hasse.add_argument("-o", "--output", help="write DOT here instead of stdout")

    p_data = sub.add_parser("datasets", help="list or export built-in datasets")
    data_sub = p_data.add_subparsers(dest="action", required=True)
    data_sub.add_parser("list", help="print the built-in dataset names")
    p_export = data_sub.add_parser("export", help="print a built-in dataset as structure JSON")
    p_export.add_argument("name", help="dataset name")

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` reuses; parsing leaves no state in it."""
    return build_parser()


def _require_source(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    if (args.file is None) == (args.dataset is None):
        parser.error("provide exactly one structure source: a file or --dataset")


def _run_validate(args: argparse.Namespace) -> int:
    structure = load_structure(args.file)
    names = ", ".join(c.name for c in structure.contexts)
    print(f"ok: dimension {structure.ambient_dim}, {len(structure.contexts)} context(s): {names}")
    return 0


def _run_lattice(args: argparse.Namespace) -> int:
    structure = _structure_from_args(args)
    if args.context is None:
        lattices = structure.lattices
    else:  # only the named context's lattice is enumerated
        lattices = [structure.find_lattice(args.context)]
        if lattices[0] is None:
            raise ValueError(f"unknown context {args.context!r}")
    if args.format == STRUCTURED:
        payload = {
            lat.name: [
                {"label": label, "dim": m.dim, "basis": m.basis_literals()}
                for m, label in zip(lat.members, lat.labels())
            ]
            for lat in lattices
        }
        print(json.dumps(payload, indent=2))
        return 0
    for lat in lattices:
        print(f"lattice {lat.name}: {len(lat.members)} members")
        for member, label in zip(lat.members, lat.labels()):
            print(f"  {label} = {member}")
    return 0


def _run_eval(args: argparse.Namespace) -> int:
    structure = _structure_from_args(args)
    report = evaluate_structure(structure, _parse_state(args.state), Mode(args.mode))
    if args.format == STRUCTURED:
        print(json.dumps(report_to_dict(report), indent=2))
    else:
        print(report_to_text(report), end="")
    return 0


def _run_admissibility(args: argparse.Namespace) -> int:
    structure = _structure_from_args(args)
    valuation = evaluate_structure(structure, _parse_state(args.state), Mode(args.mode))
    report = check_admissibility(valuation)
    if args.format == STRUCTURED:
        print(json.dumps(admissibility_to_dict(report), indent=2))
    else:
        print(admissibility_to_text(report), end="")
    return 0


def _run_ks_search(args: argparse.Namespace) -> int:
    structure = _structure_from_args(args)
    solutions = ks_search(structure)
    if args.format == STRUCTURED:
        print(json.dumps(ks_to_dict(structure, solutions), indent=2))
    else:
        print(ks_to_text(structure, solutions), end="")
    return 0


def _run_hasse(args: argparse.Namespace) -> int:
    structure = _structure_from_args(args)
    report = evaluate_structure(structure, _parse_state(args.state), Mode(args.mode))
    # Render fully before touching the output file so failures leave nothing behind.
    dot = emit_dot(report, args.scope)
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(dot)
    else:
        print(dot, end="")
    return 0


def _run_datasets(args: argparse.Namespace) -> int:
    if args.action == "list":
        for name in dataset_names():
            print(name)
        return 0
    structure = builtin_structure(args.name)
    print(json.dumps(structure_to_dict(structure), indent=2))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command not in ("validate", "datasets"):
        _require_source(parser, args)
    handler = {
        "validate": _run_validate,
        "datasets": _run_datasets,
        "lattice": _run_lattice,
        "eval": _run_eval,
        "admissibility": _run_admissibility,
        "ks-search": _run_ks_search,
        "hasse": _run_hasse,
    }[args.command]
    try:
        status = handler(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader closed stdout.  Send what is still buffered to the null
        # device, so the flush at interpreter exit reports nothing either.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
