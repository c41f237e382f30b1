"""Per-layer spans for the traced run, recorded from outside the package.

:meth:`Tracer.install` rebinds each traced function wherever callers look
it up: the attribute of every ``suplat`` module that holds it, or the
class attribute for a method.  No file of the package changes, and the
untraced run never installs anything.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, qualified name) of each timed function.  The span is named
# "<module>.<qualified name>", except for a class, whose __init__ span is
# named after the class.
TIMED = (
    ("cli", "main"),
    ("cli", "load_structure"),
    ("linalg", "parse_scalar"),
    ("linalg", "ExactMatrix.__mul__"),
    ("linalg", "ExactMatrix.rref"),
    ("operators", "validate_projector"),
    ("operators", "range_of"),
    ("contexts", "validate_context"),
    ("contexts", "InvariantLattice.__init__"),
    ("contexts", "allocated_lattices"),
    ("subspaces", "Subspace.join"),
    ("subspaces", "Subspace.is_subspace_of"),
    ("valuation", "evaluate_structure"),
    ("valuation", "report_to_text"),
    ("admissibility", "check_admissibility"),
    ("admissibility", "ks_search"),
    ("admissibility", "ks_to_text"),
    ("hasse", "transitive_reduction"),
    ("hasse", "build_graph"),
    ("hasse", "render_dot"),
)
# Called too often to time: only counted.
COUNTED = (("subspaces", "Subspace.contains_vector"),)
# Every count a traced pass records.
COUNT_NAMES = (
    "contexts.lattice.subsets",
    "contexts.lattice.members",
    "subspaces.Subspace.contains_vector.calls",
    "admissibility.ks.solutions",
    "hasse.nodes",
    "hasse.edges",
)

# `datasets` has no entry: the benchmark loads files, and builtin_structure
# is lru_cached, so timing it in-process would measure the cache.


def span_name(module: str, qualname: str) -> str:
    return f"{module}.{qualname.removesuffix('.__init__')}"


class Tracer:
    """Spans of the calls made while installed, plus result-derived counts.

    A span is ``(id, parent id or None, name, start, end)``; spans are kept
    in memory until :meth:`take` hands them over.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list = []
        self._next_id = 0
        self._undo: list = []

    def install(self) -> None:
        for module, qualname in TIMED:
            self._rebind(module, qualname, self._timed)
        for module, qualname in COUNTED:
            self._rebind(module, qualname, self._counted)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def take(self) -> tuple:
        """Return and reset the spans and counts recorded so far."""
        spans, counts = list(self.spans), Counter(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts

    def _rebind(self, module: str, qualname: str, make) -> None:
        owner = sys.modules[f"suplat.{module}"]
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        wrapper = make(span_name(module, qualname), original)
        if path:  # a method: callers find it through the class
            targets = [owner]
        else:  # a function: rebind every module namespace that imported it
            targets = [m for name, m in sys.modules.items()
                       if name.startswith("suplat.") and getattr(m, attr, None) is original]
        for target in targets:
            self._undo.append((target, attr, original))
            setattr(target, attr, wrapper)

    def _timed(self, name: str, fn):
        stack, spans = self._stack, self.spans
        note = {
            "contexts.InvariantLattice": self._note_lattice,
            "admissibility.ks_search": self._note_solutions,
            "hasse.build_graph": self._note_graph,
        }.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._next_id += 1
            sid = self._next_id
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((sid, parent, name, start, end))
            if note is not None:
                note(args, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts
        key = f"{name}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # Counts read off a traced call's arguments or result.

    def _note_lattice(self, args, result) -> None:
        lattice = args[0]
        self.counts["contexts.lattice.subsets"] += 2 ** len(lattice.context.atoms)
        self.counts["contexts.lattice.members"] += len(lattice.members)

    def _note_solutions(self, args, result) -> None:
        self.counts["admissibility.ks.solutions"] += len(result)

    def _note_graph(self, args, result) -> None:
        self.counts["hasse.nodes"] += len(result.nodes)
        self.counts["hasse.edges"] += len(result.edges)


def aggregate(spans) -> dict:
    """Per span name: calls, total seconds, and self seconds (total minus
    the time covered by child spans)."""
    child = defaultdict(float)
    for _, parent, _, start, end in spans:
        if parent is not None:
            child[parent] += end - start
    out: dict = {}
    for sid, _, name, start, end in spans:
        row = out.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - child[sid]
    return out
