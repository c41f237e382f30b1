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
    # A row the insertion need not clear is kept as the same object, so lattice members share it.
    ("linalg.py", "            if f._a or f._b:\n                basis[k] = _minus_multiple(w, f, v, lead)",
     "            if True:\n                basis[k] = _minus_multiple(w, f, v, lead)"),
    # Each step writes the entries it fixes: the cleared zero at the column it is
    # told, the scaled lead's 1; and a new pivot goes in by bisection.
    ("linalg.py", "_minus_multiple(v, f, basis[k], c)", "_minus_multiple(v, f, basis[k], k)"),
    ("linalg.py", "v = (*v[:lead], _ONE, *[", "v = (*v[:lead], x, *["),
    ("linalg.py", "at = bisect_left(pivots, lead)", "at = len(pivots)"),
    # The projector laws, each a loop that stops at the first failing entry: the
    # adjoint's conjugate sign, and the target 1 or 0 of (row c_i of P) . b_k.
    ("operators.py", "x._b != -y._b", "x._b != y._b"),
    ("operators.py", "a != (d if i == k else 0)", "a != d"),
    # The context laws: an inner product is zero only if its imaginary part is too,
    # and an atom is trivial at full rank as well as at rank 0.
    ("contexts.py", "if x or y:", "if x:"),
    ("contexts.py", "r == 0 or r == n", "r == 0"),
    # The constructor is the only check of the context laws, and a projector's
    # matrix is derived from its range: the sum of the u u* / <u, u>.
    ("contexts.py", "        setfield(self, \"atoms\", atoms)\n", "        setfield(self, \"atoms\", atoms)\n        return\n"),
    ("operators.py", "x * y.conjugate()", "x * y"),
    # The scalar operators and matrix products, one formula each.
    ("linalg.py", "b * f + e * d", "b * f - e * d"),
    ("linalg.py", "a * e + b * c", "a * e - b * c"),
    ("linalg.py", "self + -other", "self + other"),
    ("linalg.py", "other.inverse()", "other.conjugate()"),
    ("linalg.py", "_dot(r, c)", "_dot(r, c, -1)"),
    ("linalg.py", "_dot(r, v)", "_dot(r, v, -1)"),
    # The member order: the sparse key of each row, and one sort per call.
    ("subspaces.py", "(1, -j, a, b)", "(1, j, a, b)"),
    ("subspaces.py", "key.append(0)", "key.append(2)"),
    ("subspaces.py", "        key.append(0)\n", ""),
    ("subspaces.py", "if a > 0 or a == 0 and b > 0 else", "if a > 0 else"),
    ("hasse.py", "if len(in_scope) > 1:", "if False:"),
    # Output bytes and valuation.
    ("linalg.py", 'sep = "" if b < 0 else "+"', 'sep = "+"'),
    # A row's text is kept by the id of the row, so only for one call, while the row lives.
    ("subspaces.py", "self.row_texts: dict[int, str] = {}", 'self.row_texts = globals().setdefault("_ROW_TEXTS", {})'),
    ("hasse.py", "HasseGraph(tuple(nodes), tuple(edges))", "HasseGraph(tuple(nodes), tuple(reversed(edges)))"),
    ("admissibility.py", "{i + 1}\" for i in range(len(ctx.atoms))", "{i + 1}\" for i in reversed(range(len(ctx.atoms)))"),
    ("valuation.py", ") == context.rank(mask)", ") >= context.rank(mask)"),
    ("hasse.py", "{ids[i]} -> {ids[j]}", "{ids[i]} -> {ids[i]}"),
    # Output that follows a set's iteration order, which the hash seed sets.
    ("datasets.py", "return tuple(_TABLES)", "return tuple(set(_TABLES))"),
    # The value types' one constructor.
    ("frozen.py", "zip(fields, values)", "zip(reversed(fields), values)"),
    ("frozen.py", "if named or len(values) != len(fields):", "if named:"),
    # The matrix's one constructor, over rows, and its read-only fields.
    ("linalg.py", "            if len(r) != cols:\n", "            if False:\n"),
    ("linalg.py", "if not set(map(type, chain.from_iterable(grid))) <= _SCALAR_TYPE:", "if False:"),
    ("linalg.py", "    __setattr__, __delattr__ = Frozen.__setattr__, Frozen.__delattr__\n", "    __delattr__ = Frozen.__delattr__\n"),
    ("linalg.py", "return ExactMatrix, (self.grid, self.cols)", "return ExactMatrix, (self.grid,)"),
    # The subspace's one constructor keeps the reduced rows of what it is given.
    ("subspaces.py", 'setfield(self, "basis", _insert_rows((), (), ExactMatrix(rows, n).grid)[0])',
     'setfield(self, "basis", ExactMatrix(rows, n).grid)'),
    # A lattice member's basis is the rows the elimination returns, wrapped in no matrix,
    # and the lattice keeps the bases in member order.
    ("contexts.py", "sums.append(basis)", "sums.append(_matrix(context.dimension, basis).grid)"),
    ("contexts.py", "tuple(map(sums.__getitem__, self.masks))", "tuple(sums)"),
    # Members wrap the lattice's rows without reducing them again.
    ("contexts.py", "tuple(_subspace(n, basis) for basis", "tuple(Subspace(n, basis) for basis"),
    # One support per index lookup.
    ("contexts.py", "return self.masks.index(support)", "return self.masks.index(self.context.support(s))"),
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
