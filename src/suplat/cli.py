"""Command line interface.

Commands: validate, lattice, eval, admissibility, ks-search, hasse,
datasets.  Structures come either from a JSON file or from a built-in
dataset.  Exit codes: 0 on success, 1 when validation or evaluation fails,
memory runs out or a write is cut off for any reason, whatever
PYTHONUNBUFFERED is (a closed stdout leaves stderr empty), 2 on usage errors.
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
    ks_to_json,
    ks_to_text,
)
from .contexts import Structure, structure_from_dict, structure_to_dict
from .datasets import builtin_structure, dataset_names
from .hasse import emit_dot
from .linalg import parse_scalar
from .subspaces import _Literals
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
        except ValueError as err:  # a number longer than the int digit limit
            raise ValueError(f"{path}: {err}") from err
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
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("file", nargs="?", help="structure JSON file")
    source.add_argument("--dataset", help="built-in dataset name instead of a file")


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


def _formatted(fmt: str, to_text, to_dict, *objects) -> str:
    """The output of a reporting command: text, or the dict as indented JSON."""
    if fmt == STRUCTURED:
        return json.dumps(to_dict(*objects), indent=2) + "\n"
    return to_text(*objects)


def _lattices_to_text(lattices) -> str:
    literals = _Literals()  # one per call: each distinct entry and row object is rendered once
    return "".join(
        f"lattice {lat.name}: {len(lat.bases)} members\n"
        + "".join(f"  {label} = {literals.text(basis)}\n" for basis, label in zip(lat.bases, lat.labels()))
        for lat in lattices
    )


def _lattices_to_dict(lattices) -> dict:
    literals = _Literals()
    return {
        lat.name: [
            {"label": label, "dim": len(basis), "basis": literals.rows(basis)}
            for basis, label in zip(lat.bases, lat.labels())
        ]
        for lat in lattices
    }


def _run_validate(args: argparse.Namespace) -> str:
    structure = load_structure(args.file)
    names = ", ".join(c.name for c in structure.contexts)
    return f"ok: dimension {structure.ambient_dim}, {len(structure.contexts)} context(s): {names}\n"


def _run_lattice(args: argparse.Namespace) -> str:
    structure = _structure_from_args(args)
    if args.context is None:
        lattices = structure.lattices
    else:  # only the named context's lattice is enumerated
        lattices = [c.lattice for c in structure.contexts if c.name == args.context]
        if not lattices:
            raise ValueError(f"unknown context {args.context!r}")
    return _formatted(args.format, _lattices_to_text, _lattices_to_dict, lattices)


def _valuation(args: argparse.Namespace):
    return evaluate_structure(_structure_from_args(args), _parse_state(args.state), Mode(args.mode))


def _run_eval(args: argparse.Namespace) -> str:
    return _formatted(args.format, report_to_text, report_to_dict, _valuation(args))


def _run_admissibility(args: argparse.Namespace) -> str:
    report = check_admissibility(_valuation(args))
    return _formatted(args.format, admissibility_to_text, admissibility_to_dict, report)


def _run_ks_search(args: argparse.Namespace) -> str:
    to_output = ks_to_json if args.format == STRUCTURED else ks_to_text
    return to_output(_structure_from_args(args))


def _run_hasse(args: argparse.Namespace) -> str:
    return emit_dot(_valuation(args), args.scope)


def _run_datasets(args: argparse.Namespace) -> str:
    if args.action == "list":
        return "".join(f"{name}\n" for name in dataset_names())
    return json.dumps(structure_to_dict(builtin_structure(args.name)), indent=2) + "\n"


def _write_stdout(text: str) -> None:
    """Write all of ``text`` to stdout, or raise.

    An in-memory stdout gets one write, so it keeps the string uncopied.  A
    real stdout's buffer is written until it takes every byte: unbuffered,
    it is a raw file, and the text layer drops the rest of a short write.
    """
    buffer = getattr(sys.stdout, "buffer", None)
    if buffer is None:
        sys.stdout.write(text)
        return
    view = memoryview(text.encode(sys.stdout.encoding, sys.stdout.errors))
    while view:
        view = view[buffer.write(view):]
    sys.stdout.flush()


def _replace_file(path: str, text: str) -> None:
    """Write ``text`` to ``path`` whole or not at all: to a new file beside
    it, renamed onto ``path`` once written, or removed if the write fails.
    An error names ``path``, unless the file beside it already exists."""
    partial = f"{path}.{os.getpid()}.tmp"
    try:
        handle = open(partial, "x", encoding="utf-8")
        try:
            with handle:
                handle.write(text)
            os.replace(partial, path)
        except BaseException:
            os.remove(partial)
            raise
    except FileExistsError:
        raise  # left by a run that was killed: the user must see its name
    except OSError as err:
        raise OSError(err.errno, err.strerror, path) from None


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
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
        # Rendered in full before anything is written: a failure leaves -o's target untouched.
        text = handler(args)
        if getattr(args, "output", None) is None:
            _write_stdout(text)
        else:
            _replace_file(args.output, text)
        return 0
    except BrokenPipeError:
        # The reader closed stdout.  Send what is still buffered to the null
        # device, so the flush at interpreter exit reports nothing either.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except MemoryError:
        pass  # reported below, once the traceback and what the call held are freed
    print("error: out of memory", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
