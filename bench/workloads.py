"""The benchmark workloads: structure files written from a seed, and the CLI
invocations run on them, each with the facts its output must show.

Every invocation's time goes to one end-to-end metric, named after its
subcommand.  The seed picks the rotations and the state (an atom ray, so
at least one lattice is allocated).  ``hasse --scope`` draws every context
in turn, so that the cost of the Hasse calls does not depend on the seed.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import oracle
import structures as st

WORKLOADS = ("ks-sets", "wide-context", "merged-pair")

# Subcommand metrics, in the order a pass runs them for one structure.
SUBCOMMANDS = (
    "validate_s",
    "lattice_s",
    "eval_invariant_s",
    "eval_hilbert_s",
    "admissibility_s",
    "ks_search_s",
    "hasse_context_s",
    "hasse_all_s",
)
REJECT = "reject_s"
NO_HASSE = SUBCOMMANDS[:6]
ALL = SUBCOMMANDS


@dataclass
class Invocation:
    """One CLI call and what a correct run of it prints."""

    key: str  # stable name, used to pin the output digest
    metric: str
    argv: list
    check: Callable[[str], list] = field(repr=False)  # stdout -> problems found
    exit_code: int = 0
    error: str = ""  # substring of the stderr error line when exit_code is 1


def _problem(ok: bool, text: str) -> list:
    return [] if ok else [text]


def _count_lines(out: str, pattern: str) -> int:
    return len(re.findall(pattern, out, flags=re.MULTILINE))


def _structure_invocations(spec: st.Spec, path: Path, rng: random.Random, metrics, expected_colorings: int) -> list:
    """The invocations of ``metrics`` on one structure file."""
    sizes = [len(atoms) for _, atoms in spec.contexts]
    names = [name for name, _ in spec.contexts]
    state_ray = rng.choice([ray for _, atoms in spec.contexts for _, ray in atoms])
    state = st.state_literal(state_ray)
    allocated = [
        name for name, atoms in spec.contexts
        if any(st.ray_key(ray) == st.ray_key(state_ray) for _, ray in atoms)
    ]
    entries = sum(2 ** k for k in sizes)
    f = str(path)

    def validate(out):
        want = f"ok: dimension {spec.dim}, {len(names)} context(s): {', '.join(names)}\n"
        return _problem(out == want, f"validate printed {out[:80]!r}")

    def lattice(out):
        got = re.findall(r"^lattice (\S+): (\d+) members$", out, flags=re.MULTILINE)
        want = [(n, str(2 ** k)) for n, k in zip(names, sizes)]
        return _problem(got == want, f"lattice sizes {got} != {want}")

    def evaluation(mode):
        def check(out):
            values = re.findall(r"^\S+ = (\S+)$", out, flags=re.MULTILINE)
            problems = _problem(len(values) == entries, f"{len(values)} entries, expected {entries}")
            problems += _problem(f"allocated: {', '.join(allocated)}\n" in out, f"allocated != {allocated}")
            if mode == "hilbert":
                problems += _problem("0/0" not in values, "gap in hilbert mode")
            return problems
        return check

    def admissibility(out):
        rows = _count_lines(out, r"^context \S+: true=")
        return _problem(rows == len(names) and "\noverall: rule1=" in out, f"{rows} context rows")

    def ks_search(out):
        head = re.match(r"solutions: (\d+)\n", out)
        count = int(head.group(1)) if head else -1
        lines = out.count("\n") - 1
        return _problem(count == expected_colorings == lines,
                        f"{count} colorings ({lines} lines), expected {expected_colorings}")

    def hasse(node_count, edge_count):
        def check(out):
            nodes = _count_lines(out, r'^\s+"[^"]+" \[')
            edges = _count_lines(out, r'^  "[^"]+" -> "')
            problems = _problem(nodes == node_count, f"{nodes} nodes, expected {node_count}")
            if edge_count is not None:
                problems += _problem(edges == edge_count, f"{edges} edges, expected {edge_count}")
            return problems
        return check

    # "--state=" keeps argparse from reading a leading minus sign as an option.
    state_args = [f"--state={state}", "--mode", "invariant"]
    table = {
        "validate_s": (["validate", f], validate),
        "lattice_s": (["lattice", f], lattice),
        "eval_invariant_s": (["eval", f] + state_args, evaluation("invariant")),
        "eval_hilbert_s": (["eval", f, f"--state={state}", "--mode", "hilbert"], evaluation("hilbert")),
        "admissibility_s": (["admissibility", f] + state_args, admissibility),
        "ks_search_s": (["ks-search", f], ks_search),
        "hasse_all_s": (["hasse", f] + state_args + ["--scope", "all"], None),
    }
    calls = []
    for metric in metrics:
        if metric == "hasse_context_s":
            for name, k in zip(names, sizes):
                argv = ["hasse", f] + state_args + ["--scope", name]
                calls.append(Invocation(f"hasse_context {spec.name} {name}", metric, argv,
                                        hasse(2 ** k, k * 2 ** (k - 1))))
            continue
        argv, check = table[metric]
        if metric == "hasse_all_s":
            check = hasse(oracle.distinct_member_count(spec), None)
        calls.append(Invocation(f"{metric[:-2]} {spec.name}", metric, argv, check))
    return calls


def _reject(key: str, path: Path, error: str) -> Invocation:
    return Invocation(key, REJECT, ["validate", str(path)],
                      lambda out: _problem(out == "", "output on a rejected file"), 1, error)


def _write(workdir: Path, name: str, data: dict) -> Path:
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(data, indent=1), encoding="utf-8")
    return path


NOT_IDEMPOTENT = "squared differs from the matrix"
INCOMPLETE = "do not sum to the identity"


def build(workload: str, seed: int, workdir: Path) -> list:
    """Write the workload's input files under ``workdir``; return one pass."""
    rng = random.Random(f"{workload}:{seed}")
    plan = []  # (spec, metrics, expected coloring count)
    rejects = []  # (spec, to_json keyword, expected error)
    if workload == "ks-sets":
        peres, cabello = st.peres_24(), st.cabello_18()
        plan = [
            (st.pauli_qubit(), ALL, 8),
            (st.cabello_3(), ALL, 40),
            (cabello, ("validate_s", "ks_search_s"), 0),
            (peres, ("validate_s",), 0),
            (st.grid_3(), ("validate_s", "ks_search_s"), 31104),
        ]
        last = (len(peres.contexts) - 1, 3)
        rejects = [
            (peres, {"scaled_atom": last}, NOT_IDEMPOTENT),
            (cabello, {"dropped_atom": (len(cabello.contexts) - 1, 3)}, INCOMPLETE),
        ]
    elif workload == "wide-context":
        rot, diag = st.rot(6, rng), st.diag(7)
        plan = [
            (diag, NO_HASSE, 7),
            (rot, NO_HASSE, 6),
            # The O(N^3) Hasse reduction takes seconds at k = 6 or 7, so the Hasse
            # calls of this workload run on a narrower, unrotated context.
            (st.diag(5), ("hasse_context_s", "hasse_all_s"), 5),
        ]
        rejects = [
            (diag, {"scaled_atom": (0, 6)}, NOT_IDEMPOTENT),
            (rot, {"dropped_atom": (0, 5)}, INCOMPLETE),
        ]
    elif workload == "merged-pair":
        pairs = [st.merged_pair(5, keep, rng) for keep in (1, 3)]
        for spec, keep in zip(pairs, (1, 3)):
            plan.append((spec, ALL, keep + (5 - keep) ** 2))
        rejects = [
            (pairs[0], {"dropped_atom": (1, 4)}, INCOMPLETE),
            (pairs[1], {"scaled_atom": (1, 4)}, NOT_IDEMPOTENT),
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")

    calls = []
    for spec, metrics, colorings in plan:
        path = _write(workdir, spec.name, st.to_json(spec))
        calls += _structure_invocations(spec, path, rng, metrics, colorings)
    for spec, damage, error in rejects:
        name = f"{spec.name}-{'scaled' if 'scaled_atom' in damage else 'dropped'}"
        calls.append(_reject(f"reject {name}", _write(workdir, name, st.to_json(spec, **damage)), error))
    return calls
