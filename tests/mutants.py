"""Mutation check: tier-1 must fail on every edit listed in MUTANTS.

Each mutant is (file under src/suplat, old text, new text); the old text
occurs exactly once in the file.  For each one, src/, tests/, README.md
and pyproject.toml are copied to a temporary directory, the edit is
applied, and tier-1 runs there with -x.  An unedited copy runs first and
must pass, so a broken environment cannot pass for a caught mutant.  Exit
status 1 names each mutant that tier-1 did not catch.

pytest does not collect this file.  Run it from anywhere:

    python tests/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MUTANTS = [
    # The row elimination on the scalars' triples (linalg._insert_rows).
    ("linalg.py", "p, q, m = d * a, d * b, a * a + b * b", "p, q, m = d * a, -d * b, a * a + b * b"),
    ("linalg.py", "p * e + q * c", "p * e - q * c"),
    ("linalg.py", "if b or a != d:  # the leading entry is not 1", "if b:"),
    # The scalar operators and matrix products, one formula each.
    ("linalg.py", "b * f + e * d", "b * f - e * d"),
    ("linalg.py", "a * e + b * c", "a * e - b * c"),
    ("linalg.py", "self + -other", "self + other"),
    ("linalg.py", "other.inverse()", "other.conjugate()"),
    ("linalg.py", "_dot(r, c)", "_dot(r, c, -1)"),
    ("linalg.py", "_dot(r, v)", "_dot(r, v, -1)"),
    # The member order: the sparse key, and one sort per call.
    ("subspaces.py", "(1, -x, a, b)", "(1, x, a, b)"),
    ("subspaces.py", "key + [0]", "key + [2]"),
    ("subspaces.py", "if a > 0 or a == 0 and b > 0 else", "if a > 0 else"),
    ("hasse.py", "if len(in_scope) > 1:", "if False:"),
    # Output bytes and valuation.
    ("linalg.py", 'sep = "" if b < 0 else "+"', 'sep = "+"'),
    ("hasse.py", "HasseGraph(tuple(nodes), tuple(edges))", "HasseGraph(tuple(nodes), tuple(reversed(edges)))"),
    ("admissibility.py", "{i + 1}\" for i in range(len(ctx.atoms))", "{i + 1}\" for i in reversed(range(len(ctx.atoms)))"),
    ("valuation.py", ") == context.rank(mask)", ") >= context.rank(mask)"),
    ("hasse.py", "{ids[i]} -> {ids[j]}", "{ids[i]} -> {ids[i]}"),
    # The value types' one constructor.
    ("frozen.py", "zip(fields, values)", "zip(reversed(fields), values)"),
    ("frozen.py", "if named or len(values) != len(fields):", "if named:"),
]


def tier1_fails(edit: tuple[str, str, str] | None) -> bool:
    """Run tier-1 -x on a fresh copy of the repository, with the edit applied if given."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name, ignore=shutil.ignore_patterns("__pycache__"))
        for name in ("pyproject.toml", "README.md"):
            shutil.copy(ROOT / name, copy)
        if edit is not None:
            target = copy / "src" / "suplat" / edit[0]
            text = target.read_text()
            if text.count(edit[1]) != 1:
                raise SystemExit(f"{edit[0]}: {edit[1]!r} does not occur exactly once")
            target.write_text(text.replace(edit[1], edit[2]))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}  # pyproject puts src/ on the path
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"],
            cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        return run.returncode != 0


def main() -> int:
    if tier1_fails(None):
        print("tier-1 fails on the unedited copy")
        return 1
    survivors = []
    for edit in MUTANTS:
        caught = tier1_fails(edit)
        print(f"{'caught' if caught else 'SURVIVED'}: {edit[0]}: {edit[1]!r} -> {edit[2]!r}")
        if not caught:
            survivors.append(edit)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants caught")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
