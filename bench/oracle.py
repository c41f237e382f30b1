"""Facts about the benchmark structures computed without suplat.

These are the reference answers the benchmark checks the CLI's output
against: coloring counts and the number of distinct lattice members.
"""

from __future__ import annotations

from fractions import Fraction

from structures import Spec, gconj, gmul, inner, ray_key


def coloring_count(spec: Spec) -> int:
    """Assignments of true to exactly one ray per context, false to the other
    rays of that context, that agree on every ray shared between contexts."""
    contexts = [[ray_key(ray) for _, ray in atoms] for _, atoms in spec.contexts]
    value: dict = {}

    def count(ci: int) -> int:
        if ci == len(contexts):
            return 1
        keys = contexts[ci]
        total = 0
        for chosen in range(len(keys)):
            wants = [(key, int(i == chosen)) for i, key in enumerate(keys)]
            if any(value.get(key, want) != want for key, want in wants):
                continue
            fresh = [key for key, _ in wants if key not in value]
            value.update(wants)
            total += count(ci + 1)
            for key in fresh:
                del value[key]
        return total

    return count(0)


def _projector(ray) -> tuple:
    norm = inner(ray, ray)[0]
    return tuple(
        Fraction(part, norm) for a in ray for b in ray for part in gmul(a, gconj(b))
    )


def distinct_member_count(spec: Spec) -> int:
    """Distinct subset sums of atom ranges across all contexts.

    Atoms of a context are orthogonal, so the span of a subset is the range
    of the sum of its projectors, and equal ranges mean equal sums.
    """
    seen = set()
    for _, atoms in spec.contexts:
        projectors = [_projector(ray) for _, ray in atoms]
        zero = (Fraction(0),) * len(projectors[0])
        for mask in range(1 << len(projectors)):
            total = zero
            for i, p in enumerate(projectors):
                if mask >> i & 1:
                    total = tuple(x + y for x, y in zip(total, p))
            seen.add(total)
    return len(seen)
