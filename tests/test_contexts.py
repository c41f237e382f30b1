"""Context validation, structure loading, lattice enumeration, sharing, allocation."""

from __future__ import annotations

import json
import random
from collections import Counter

import pytest

from suplat import contexts
from suplat.cli import main
from suplat.contexts import (
    ContextError,
    DuplicateAtomNameError,
    IncompleteSumError,
    InvariantLattice,
    NotOrthogonalError,
    Structure,
    StructureError,
    TrivialAtomError,
    ZeroStateError,
    allocated_lattices,
    is_lattice_member,
    shared_members,
    structure_from_dict,
    structure_to_dict,
    validate_context,
)
from suplat.datasets import builtin_structure, dataset_names
from suplat.linalg import DimensionMismatchError, ExactMatrix
from suplat.operators import ProjectorError, kernel_of, projector_onto, range_of, validate_projector
from suplat.subspaces import Subspace

from helpers import (
    is_invariant,
    member_index,
    random_context,
    random_matrix,
    random_structure,
    random_subspace,
    reference_sort_key,
    reference_span,
)


def diag(*entries):
    n = len(entries)
    rows = [[str(entries[i]) if i == j else "0" for j in range(n)] for i in range(n)]
    return validate_projector(ExactMatrix.from_rows(rows))


def named(p, name):
    return validate_projector(p.matrix, name=name)


def test_validate_context_accepts(qubit, cabello):
    assert [c.name for c in qubit.contexts] == ["Sigma_z", "Sigma_x", "Sigma_y"]
    assert [c.name for c in cabello.contexts] == ["S1", "S2", "S6"]
    for ctx in cabello.contexts:
        assert len(ctx.atoms) == 4
        assert ctx.dimension == 4


def test_validate_context_rejects(qubit):
    z_plus, z_minus = qubit.contexts[0].atoms
    x_plus = qubit.contexts[1].atoms[0]

    with pytest.raises(ContextError):
        validate_context("single", [z_plus])
    with pytest.raises(NotOrthogonalError):
        validate_context("skewed", [z_plus, named(x_plus, "x+")])
    with pytest.raises(IncompleteSumError):
        validate_context(
            "short",
            [named(diag(1, 0, 0, 0), "a"), named(diag(0, 1, 0, 0), "b")],
        )
    with pytest.raises(TrivialAtomError):
        validate_context(
            "padded",
            [named(validate_projector(ExactMatrix.zeros(2, 2)), "null"), z_minus],
        )
    with pytest.raises(DuplicateAtomNameError):
        validate_context("clash", [named(z_plus, "p"), named(z_minus, "p")])


def test_invariant_lattice_qubit(qubit):
    lattice = qubit.lattices[0]
    assert len(lattice.members) == 4
    expected = {
        Subspace.zero(2),
        Subspace.span_of([["1", "0"]], 2),
        Subspace.span_of([["0", "1"]], 2),
        Subspace.full(2),
    }
    assert set(lattice.members) == expected
    assert lattice.labels() == ["0", "2", "1", "1+2"]
    # sorted by dimension, then lexicographic basis
    assert [m.dim for m in lattice.members] == [0, 1, 1, 2]


def test_invariant_lattice_cabello(cabello):
    for lattice in cabello.lattices:
        assert len(lattice.members) == 16  # Boolean on four atoms
        assert len(set(lattice.members)) == 16
        assert lattice.members[0] == Subspace.zero(4)
        assert lattice.members[-1] == Subspace.full(4)


def test_invariant_lattice_rank2_atoms():
    top = validate_projector(ExactMatrix.from_rows(
        [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "0", "0"], ["0", "0", "0", "0"]]
    ), name="12")
    bottom = validate_projector(ExactMatrix.from_rows(
        [["0", "0", "0", "0"], ["0", "0", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]]
    ), name="34")
    lattice = InvariantLattice(validate_context("split", [top, bottom]))
    assert len(lattice.members) == 4
    # lexicographic basis order puts span{e3,e4} before span{e1,e2}
    assert lattice.labels() == ["0", "2", "1", "1+2"]


def test_lattice_members_in_sort_key_order():
    # the lattice sorts on integer keys; reference_sort_key is the Fraction oracle
    rng = random.Random(7)
    seen = set()
    for _ in range(12):
        structure = random_structure(rng, rng.randint(2, 4))
        for lattice in structure.lattices:
            seen.update(f"rank {p.rank}" for p in lattice.context.atoms)
            members = list(lattice.members)
            assert members == sorted(members, key=reference_sort_key)
    assert {"rank 1", "rank 2"} <= seen


def _coordinate_context(rng: random.Random, n: int, name: str):
    """Projectors onto blocks of shuffled coordinate axes: an atom's pivot
    column can fall before or between those of the atoms below it."""
    axes = rng.sample(range(n), n)
    cuts = sorted(rng.sample(range(1, n), rng.randint(1, n - 1)))
    blocks = [axes[a:b] for a, b in zip([0] + cuts, cuts + [n])]
    return validate_context(name, [named(diag(*(int(i in b) for i in range(n))), f"{name}{k}")
                                   for k, b in enumerate(blocks)])


def test_lattice_members_match_the_reference_elimination(qubit, cabello):
    # Each member is the span of its atoms' range vectors, reduced as a whole
    # by the reference elimination; the ranges are read off the projector
    # columns, so no code path of the build is shared.
    rng = random.Random(26)
    contexts = list(qubit.contexts + cabello.contexts)
    for case in range(12):
        contexts += random_structure(rng, rng.randint(2, 5)).contexts
        contexts.append(_coordinate_context(rng, rng.randint(2, 6), f"E{case}"))
    ranks = set()
    for context in contexts:
        lattice, n = InvariantLattice(context), context.dimension
        columns = [[[p.matrix.entry(i, j) for i in range(n)] for j in range(n)] for p in context.atoms]
        by_mask = {
            mask: reference_span([c for i, cols in enumerate(columns) if mask >> i & 1 for c in cols], n)
            for mask in range(1 << len(context.atoms))
        }
        assert dict(zip(lattice.masks, lattice.members)) == by_mask
        assert list(lattice.masks) == sorted(by_mask, key=lambda m: reference_sort_key(by_mask[m]))
        ranks.update(p.rank for p in context.atoms)
    assert {1, 2} <= ranks


def test_lattice_closed_under_operations(qubit, cabello):
    for lattice in (qubit.lattices[0], cabello.lattices[0]):
        members = set(lattice.members)
        for a in lattice.members:
            assert a.orthocomplement() in members
            for b in lattice.members:
                assert a.meet(b) in members
                assert a.join(b) in members


def test_lattice_distributive_on_sample(qubit):
    members = qubit.lattices[2].members
    for a in members:
        for b in members:
            for c in members:
                assert a.meet(b.join(c)) == a.meet(b).join(a.meet(c))


def test_is_lattice_member(qubit, cabello):
    s1, s2, s6 = cabello.contexts
    k64 = kernel_of(s6.atoms[3])
    assert is_lattice_member(k64, s6)
    # not invariant under the other contexts' atoms, so not a member there
    assert not is_lattice_member(k64, s1)
    assert not is_lattice_member(k64, s2)
    # enumerated members are exactly the common invariant subspaces here
    for lattice in cabello.lattices:
        for member in lattice.members:
            assert is_lattice_member(member, lattice.context)
    x_ray = range_of(qubit.contexts[1].atoms[0])
    assert not is_lattice_member(x_ray, qubit.contexts[0])
    with pytest.raises(DimensionMismatchError):
        is_lattice_member(Subspace.zero(3), qubit.contexts[0])


def test_enumeration_matches_invariance(cabello):
    # randomized cross-check in pure rank-1 land
    rng = random.Random(777)
    lattice = cabello.lattices[0]
    oracle = member_index(lattice)
    for _ in range(40):
        s = random_subspace(rng, 4)
        assert (s in oracle) == is_lattice_member(s, lattice.context)


def test_membership_rule_is_the_atom_sum_lattice():
    # span{e1} is invariant under both atoms but is no sum of atom ranges.
    e1 = Subspace.span_of([[1, 0, 0]], 3)
    split = validate_context("split", [named(diag(1, 1, 0), "12"), named(diag(0, 0, 1), "3")])
    assert all(is_invariant(e1, p) for p in split.atoms)
    assert not is_lattice_member(e1, split)
    assert not InvariantLattice(split).has_member(e1)
    rng = random.Random(20180906)
    seen = set()
    for case in range(30):
        context = random_context(rng, rng.randint(2, 4), f"C{case}")
        lattice = InvariantLattice(context)
        oracle = member_index(lattice)
        rank1 = all(p.rank == 1 for p in context.atoms)
        candidates = list(lattice.members) + [random_subspace(rng, context.dimension) for _ in range(4)]
        for member in rng.sample(lattice.members[1:], 3):  # spans of vectors inside members
            rows = random_matrix(rng, rng.randint(1, member.dim), member.dim) * member.basis
            candidates.append(Subspace.span_of(rows.row_list(), context.dimension))
        for s in candidates:
            member = is_lattice_member(s, context)
            assert (s in oracle) == member
            invariant = all(is_invariant(s, p) for p in context.atoms)
            if rank1:
                assert invariant == member
            else:
                assert invariant or not member
            seen.add((rank1, invariant, member))
    # rank-1 members and non-members; rank > 1 invariant non-members
    assert {(True, True, True), (True, False, False), (False, True, False)} <= seen


def test_support_matches_projector_images():
    # Bit i is set iff atom i's projector maps some basis row of s to a nonzero vector.
    rng = random.Random(20181019)
    rank2 = set()
    bits = set()
    for case in range(30):
        context = random_context(rng, rng.randint(2, 5), f"C{case}")
        n = context.dimension
        rank2.add(any(p.rank == 2 for p in context.atoms))
        candidates = [Subspace.zero(n), random_subspace(rng, n)]
        for _ in range(3):  # spans of vectors inside a random sum of atom ranges
            mask = rng.randrange(1, 1 << len(context.atoms))
            member = Subspace.span_of([b for i, p in enumerate(context.atoms) if mask >> i & 1
                                       for b in p.range.basis_vectors()], n)
            rows = random_matrix(rng, rng.randint(1, member.dim), member.dim) * member.basis
            candidates.append(Subspace.span_of(rows.row_list(), n))
        for s in candidates:
            expected = sum(1 << i for i, p in enumerate(context.atoms)
                           if any(any(p.matrix.apply(b)) for b in s.basis_vectors()))
            assert context.support(s) == expected
            bits.update(expected >> i & 1 for i in range(len(context.atoms)))
    assert rank2 == {True, False} and bits == {0, 1}


def test_support_checks_the_ambient_dimension(cabello):
    # One check, in support: mismatched vectors would zip to a meaningless mask.
    s1 = cabello.contexts[0]
    for s in (Subspace.span_of([(1, 0, 0, 0, 1)], 5), Subspace.full(2)):
        text = f"subspace of C^{s.ambient_dim} against a context on C^4"
        for check in (s1.support, lambda s: is_lattice_member(s, s1)):
            with pytest.raises(DimensionMismatchError) as exc:
                check(s)
            assert str(exc.value) == text
        assert not s1.lattice.has_member(s)


def test_membership_queries_match_the_hashed_index_oracle():
    # Each lattice is asked about every member of every lattice of its
    # structure, subspaces inside those members and random subspaces.
    rng = random.Random(20181016)
    higher_rank = non_members = 0
    for _ in range(16):
        structure = random_structure(rng, rng.randint(3, 4))
        n = structure.ambient_dim
        candidates = [m for lat in structure.lattices for m in lat.members]
        for member in rng.sample(candidates, 4):
            if member.dim:
                rows = random_matrix(rng, rng.randint(1, member.dim), member.dim) * member.basis
                candidates.append(Subspace.span_of(rows.row_list(), n))
        candidates += [random_subspace(rng, n) for _ in range(4)]
        for lattice in structure.lattices:
            oracle = member_index(lattice)
            higher_rank += any(p.rank > 1 for p in lattice.context.atoms)
            for s in candidates:
                assert lattice.has_member(s) == (s in oracle)
                if s in oracle:
                    assert lattice.index_of(s) == oracle[s]
                    continue
                non_members += 1
                with pytest.raises(KeyError):
                    lattice.index_of(s)
            wrong = Subspace.full(n + 1)
            assert not lattice.has_member(wrong)
            with pytest.raises(KeyError):
                lattice.index_of(wrong)
    assert higher_rank >= 5 and non_members >= 100, (higher_rank, non_members)


def test_shared_members(qubit, cabello):
    l1, l2, l6 = cabello.lattices
    shared12 = shared_members(l2, l1)
    nontrivial = [m for m in shared12 if not m.is_zero() and not m.is_full()]
    assert nontrivial == [
        range_of(cabello.contexts[1].atoms[0]),
        kernel_of(cabello.contexts[1].atoms[0]),
    ]
    # the third context shares nothing nontrivial with the other two
    for other in (l1, l2):
        shared = shared_members(l6, other)
        assert [m for m in shared if not m.is_zero() and not m.is_full()] == []
        assert Subspace.zero(4) in shared and Subspace.full(4) in shared
    # qubit contexts intersect only trivially
    assert len(shared_members(qubit.lattices[0], qubit.lattices[1])) == 2


def test_structure_checks(qubit):
    with pytest.raises(StructureError):
        Structure([])
    with pytest.raises(StructureError):
        Structure([qubit.contexts[0], qubit.contexts[0]])


def _fresh(structure: Structure) -> Structure:
    """The same contexts in a new structure, so no support is kept from another test."""
    return Structure(structure.contexts)


def _table_structures(seed: int) -> list[Structure]:
    """The built-ins, random structures (some with rank-2 atoms, kept atoms
    first) and picks of built-in contexts that repeat an atom, shuffled."""
    rng = random.Random(seed)
    structures = [_fresh(builtin_structure(name)) for name in dataset_names()]
    structures += [random_structure(rng, rng.randint(3, 4)) for _ in range(10)]
    for _ in range(6):
        picks = rng.choices(builtin_structure(rng.choice(dataset_names())).contexts, k=rng.randint(2, 4))
        structures.append(Structure([
            validate_context(f"{c.name}_{i}", rng.sample(c.atoms, len(c.atoms))) for i, c in enumerate(picks)
        ]))
    return structures


def test_member_support_matches_the_support_of_the_member():
    # Every member of every context, spanned from its atoms' range rows by the
    # reference elimination, against its support in every context.
    higher_rank = 0
    for structure in _table_structures(20181021):
        n = structure.ambient_dim
        for i, ctx in enumerate(structure.contexts):
            higher_rank += any(p.rank > 1 for p in ctx.atoms)
            for mask in range(1 << len(ctx.atoms)):
                rows = [b for a, p in enumerate(ctx.atoms) if mask >> a & 1 for b in p.range.basis_vectors()]
                member = reference_span(rows, n)
                for o, other in enumerate(structure.contexts):
                    assert structure.member_support(o, i, mask) == other.support(member), (o, i, mask)
    assert higher_rank >= 3


def _reference_range_ids(structure: Structure) -> tuple:
    """Range ids by a linear scan for an equal, recomputed range: first occurrence first."""
    seen: list[Subspace] = []
    ids = []
    for ctx in structure.contexts:
        row = []
        for atom in ctx.atoms:
            r = range_of(atom)
            if r not in seen:
                seen.append(r)
            row.append(seen.index(r))
        ids.append(tuple(row))
    return tuple(ids)


def test_range_ids_number_the_distinct_ranges_in_first_occurrence_order(cabello):
    repeats = 0
    for structure in _table_structures(20181022):
        ids = structure.range_ids
        assert ids == _reference_range_ids(structure)
        flat = [r for row in ids for r in row]
        repeats += len(set(flat)) < len(flat)
    assert repeats >= 10
    # cabello-3 with each atom's range spanned again: S1.P1 and S2.P1 are one
    # ray, built twice as two equal ranges, and still get one id
    twice = Structure([
        validate_context(c.name, [projector_onto(Subspace.span_of(a.range.basis_vectors(), 4), a.name) for a in c.atoms])
        for c in cabello.contexts
    ])
    assert twice.contexts[0].atoms[0].range is not twice.contexts[1].atoms[0].range
    s1, s2, s6 = twice.range_ids
    assert s1 == (0, 1, 2, 3) and s2 == (0, 4, 5, 6) and s6 == (7, 8, 9, 10)
    # the built-in shares one projector per ray, as the loader does
    assert cabello.contexts[0].atoms[0] is cabello.contexts[1].atoms[0]
    assert cabello.range_ids == twice.range_ids


def test_hasse_computes_each_support_once(capsys, tmp_path, monkeypatch):
    # The loader and the built-in each share S1.P1's range with S2.P1, so
    # both compute the same supports.  A built-in structure is kept, with its
    # supports, for the whole process, so --dataset runs on a fresh one.
    path = tmp_path / "cabello.json"
    path.write_text(json.dumps(structure_to_dict(builtin_structure("cabello-3"))))
    calls, held = Counter(), []  # held keeps every argument alive, so no id is reused
    original = contexts.Context.support

    def counting(self, s):
        calls[id(self), id(s)] += 1
        held.append(s)
        return original(self, s)

    monkeypatch.setattr(contexts.Context, "support", counting)
    options = ["--state", "0,0,0,1", "--mode", "invariant", "--scope", "all"]
    builtin_structure.cache_clear()
    totals = []
    for source in ([str(path)], ["--dataset", "cabello-3"]):
        calls.clear()
        assert main(["hasse", *source, *options]) == 0
        assert "->" in capsys.readouterr().out
        assert calls and max(calls.values()) == 1, (source, calls)
        totals.append(sum(calls.values()))
    # two equal range objects for the shared ray would cost S6 a second support
    assert totals[0] == totals[1]


def test_allocated_lattices(qubit, cabello):
    assert [l.name for l in allocated_lattices(qubit, ["1", "0"])] == ["Sigma_z"]
    assert [l.name for l in allocated_lattices(qubit, ["1", "1"])] == ["Sigma_x"]
    # (1,2) lies in no qubit atom range
    assert allocated_lattices(qubit, ["1", "2"]) == []
    assert [l.name for l in allocated_lattices(cabello, ["0", "0", "0", "1"])] == ["S1", "S2"]
    with pytest.raises(ZeroStateError):
        allocated_lattices(qubit, ["0", "0"])
    with pytest.raises(DimensionMismatchError):
        allocated_lattices(qubit, ["1", "0", "0"])


def _cabello_dict():
    return structure_to_dict(builtin_structure("cabello-3"))


def _repeated_context():
    # S1 again under a second name: every atom of it is a repeat.
    data = _cabello_dict()
    data["contexts"].append(dict(data["contexts"][0], name="S1-again"))
    return data


def _respelled_duplicate():
    # S2's copy of the shared atom written with unreduced literals: the same
    # matrix under other literals, so a distinct key validated on its own.
    data = _cabello_dict()
    atom = data["contexts"][1]["projectors"][0]
    atom["matrix"] = [[f"{lit}/1" for lit in row] for row in atom["matrix"]]
    return data


def _damaged_duplicate():
    # S2's copy of the shared atom scaled by 2, so it is no longer a projector.
    data = _cabello_dict()
    atom = data["contexts"][1]["projectors"][0]
    atom["matrix"] = [["2" if lit == "1" else lit for lit in row] for row in atom["matrix"]]
    return data


def _reference_load_error(data):
    """The first atom, in file order, that an independent validation rejects."""
    for ci, ctx in enumerate(data["contexts"]):
        for pi, proj in enumerate(ctx["projectors"]):
            try:
                validate_projector(ExactMatrix.from_rows(proj["matrix"]), name=proj["name"])
            except ProjectorError as err:
                return type(err), f"contexts[{ci}].projectors[{pi}]: {err}"
    return None


@pytest.mark.parametrize(
    "make", [_cabello_dict, _repeated_context, _respelled_duplicate, _damaged_duplicate]
)
def test_load_matches_independent_validation(make):
    data = make()
    expected = _reference_load_error(data)
    if expected is not None:
        with pytest.raises(expected[0]) as exc:
            structure_from_dict(data)
        assert type(exc.value) is expected[0]
        assert str(exc.value) == expected[1]
        return
    structure = structure_from_dict(data)
    assert [c.name for c in structure.contexts] == [c["name"] for c in data["contexts"]]
    for ctx, raw in zip(structure.contexts, data["contexts"]):
        assert [p.name for p in ctx.atoms] == [p["name"] for p in raw["projectors"]]
        for atom, raw_atom in zip(ctx.atoms, raw["projectors"]):
            oracle = validate_projector(ExactMatrix.from_rows(raw_atom["matrix"]), name=raw_atom["name"])
            assert (atom.matrix, atom.range) == (oracle.matrix, oracle.range)
    # Export and reload is byte-identical, as `datasets export` prints it.
    text = json.dumps(structure_to_dict(structure), indent=2)
    assert json.dumps(structure_to_dict(structure_from_dict(json.loads(text))), indent=2) == text


def test_load_shares_repeated_atoms():
    structure = structure_from_dict(_repeated_context())
    s1, s2, _, again = structure.contexts
    # The shared atom and the repeated context hold one range per matrix.
    assert s2.atoms[0].range is s1.atoms[0].range
    assert all(a.matrix is b.matrix and a.range is b.range for a, b in zip(s1.atoms, again.atoms))


def test_load_parses_each_literal_and_checks_each_matrix_once(monkeypatch):
    data = _repeated_context()
    data["contexts"][3]["projectors"] = [
        dict(p, name=f"{p['name']}'") for p in data["contexts"][3]["projectors"]
    ]
    literals = [lit for c in data["contexts"] for p in c["projectors"] for row in p["matrix"] for lit in row]
    matrices = [tuple(map(tuple, p["matrix"])) for c in data["contexts"] for p in c["projectors"]]
    parsed, checked = [], []

    def counting(calls, original):
        def wrapper(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(contexts, "parse_scalar", counting(parsed, contexts.parse_scalar))
    monkeypatch.setattr(contexts, "validate_projector", counting(checked, contexts.validate_projector))
    structure = structure_from_dict(data)
    assert len(literals) == 4 * 16 * 4
    assert sorted(parsed) == sorted(set(literals))
    assert len(matrices) == 16 and len(checked) == len(set(matrices)) == 11
    assert [[p.name for p in c.atoms] for c in structure.contexts] == [
        [p["name"] for p in c["projectors"]] for c in data["contexts"]
    ]

