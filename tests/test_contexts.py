"""Context validation, structure loading, lattice enumeration, sharing, allocation."""

from __future__ import annotations

import copy
import json
import pickle
import random
from collections import Counter

import pytest

from suplat import contexts, linalg, operators, subspaces
from suplat.cli import main
from suplat.contexts import (
    Context,
    ContextError,
    DuplicateAtomNameError,
    IncompleteSumError,
    InvariantLattice,
    NotOrthogonalError,
    Structure,
    StructureError,
    TrivialAtomError,
    ZeroStateError,
    _mask_label,
    allocated_lattices,
    is_lattice_member,
    shared_members,
    structure_from_dict,
    structure_to_dict,
    validate_context,
)
from suplat.datasets import builtin_structure, dataset_names
from suplat.linalg import DimensionMismatchError, ExactMatrix, _insert_rows
from suplat.operators import Projector, ProjectorError, kernel_of, range_of, validate_projector
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
    return validate_projector(ExactMatrix(rows))


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
    # The identity is trivial at full rank, as the zero operator is at rank 0.
    with pytest.raises(TrivialAtomError) as err:
        validate_context("C", [named(diag(1, 1), "I"), named(diag(1, 0), "P")])
    assert str(err.value) == "context 'C': atom 'I' is trivial (rank 2 of 2)"


def test_context_constructor_checks_the_laws(qubit):
    # The constructor is the check: no atom list breaking a law makes a Context.
    z_plus, z_minus = qubit.contexts[0].atoms
    with pytest.raises(ContextError) as err:
        Context("C", ())
    assert str(err.value) == "context 'C': needs at least 2 projectors, got 0"
    with pytest.raises(NotOrthogonalError) as err:
        Context("C", (z_plus, Projector("z+'", z_plus.range)))
    assert str(err.value) == "context 'C': atoms 'z+' and \"z+'\" are not orthogonal"
    with pytest.raises(DuplicateAtomNameError):
        Context(name="C", atoms=[z_plus, z_plus])
    for built in (Context("Sigma_z", [z_plus, z_minus]), Context(name="Sigma_z", atoms=(z_plus, z_minus))):
        assert built == qubit.contexts[0] and type(built.atoms) is tuple
    for again in (copy.copy(qubit.contexts[0]), pickle.loads(pickle.dumps(qubit.contexts[0]))):
        assert again == qubit.contexts[0] and again.atoms == (z_plus, z_minus)


def test_invariant_lattice_qubit(qubit):
    lattice = qubit.lattices[0]
    assert len(lattice.members) == 4
    expected = {
        Subspace.zero(2),
        Subspace(2, [["1", "0"]]),
        Subspace(2, [["0", "1"]]),
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
    top = validate_projector(ExactMatrix(
        [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "0", "0"], ["0", "0", "0", "0"]]
    ), name="12")
    bottom = validate_projector(ExactMatrix(
        [["0", "0", "0", "0"], ["0", "0", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]]
    ), name="34")
    lattice = InvariantLattice(validate_context("split", [top, bottom]))
    assert len(lattice.members) == 4
    # lexicographic basis order puts span{e3,e4} before span{e1,e2}
    assert lattice.labels() == ["0", "2", "1", "1+2"]


def test_label_table_matches_mask_label():
    # The doubling table names every mask as _mask_label does, one string per mask.
    for k in range(2, 8):
        names = [f"e{i}" for i in range(k)]
        structure = structure_from_dict({"dimension": k, "contexts": [{"name": "D", "projectors": [
            {"name": name, "matrix": [["1" if r == c == i else "0" for c in range(k)] for r in range(k)]}
            for i, name in enumerate(names)
        ]}]})
        lattice = structure.contexts[0].lattice
        assert lattice.mask_labels == [_mask_label(m) for m in range(1 << k)]
        assert lattice.labels() == [_mask_label(m) for m in lattice.masks]
    assert _mask_label(0b101) == "1+3"


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


def test_lattice_members_share_the_rows_their_build_leaves_alone():
    # Each insertion returns the rows it does not change as the same objects,
    # so diag-12's 4096 members, 24576 rows in all, hold only the atoms' 12.
    n = 12
    context = validate_context("D", [named(diag(*(int(i == k) for i in range(n))), f"e{k}") for k in range(n)])
    atom_rows = {id(r) for p in context.atoms for r in p.range.basis}
    members = context.lattice.members
    assert len(members) == 4096 and sum(m.dim for m in members) == 24576
    assert {id(r) for m in members for r in m.basis} == atom_rows and len(atom_rows) == n
    # A row is cleared, and so replaced, only where the inserted row's pivot
    # column holds a nonzero entry.
    def grid(*rows):
        return ExactMatrix(rows).grid

    r0, r1, v, w = grid([1, 0, 0, 0], [0, 0, 1, 2], [0, 1, 1, 0], [0, 0, 0, 1])
    rows, pivots = _insert_rows([r0, r1], (0, 2), [v])
    assert pivots == (0, 1, 2) and rows == grid([1, 0, 0, 0], [0, 1, 0, -2], [0, 0, 1, 2])
    assert rows[0] is r0 and rows[2] is r1
    after, pivots = _insert_rows(rows, pivots, [w])
    assert pivots == (0, 1, 2, 3) and after == grid([1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1])
    assert after[0] is r0 and after[3] is w and rows[2] is r1  # the input rows are not changed


def test_lattice_members_wrap_its_bases_once():
    # The lattice holds each member's rows; members are built on first read,
    # once, and hold those rows, so diag-12's 4096 still hold the atoms' 12.
    rng = random.Random(37)
    n = 12
    diag_12 = validate_context("D", [named(diag(*(int(i == k) for i in range(n))), f"e{k}") for k in range(n)])
    for context in [diag_12] + [c for _ in range(4) for c in random_structure(rng, rng.randint(2, 4)).contexts]:
        lattice = InvariantLattice(context)
        assert "members" not in vars(lattice)
        members = lattice.members
        assert members == tuple(Subspace(context.dimension, basis) for basis in lattice.bases)
        assert all(m.basis is basis for m, basis in zip(members, lattice.bases))
        assert lattice.members is members
    members = diag_12.lattice.members
    assert len(members) == 4096 and len({id(r) for m in members for r in m.basis}) == n


def test_lattice_members_joins_and_projector_ranges_build_no_matrix(monkeypatch):
    # A subspace's basis is the tuple of rows the elimination returns, so building
    # a lattice, joining members and validating a projector wrap no rows in a matrix.
    rng = random.Random(36)
    structure = random_structure(rng, 5)
    expected = [lattice.members for lattice in structure.lattices]
    atoms = [a for c in structure.contexts for a in c.atoms]
    matrices = [a.matrix for a in atoms]  # derived from the range, so read before counting
    calls = []

    def counting(function):
        def wrapper(*args, **kwargs):
            calls.append(function.__qualname__)
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ExactMatrix, "__init__", counting(ExactMatrix.__init__))
    for module in (linalg, subspaces, contexts, operators):
        if hasattr(module, "_matrix"):
            monkeypatch.setattr(module, "_matrix", counting(linalg._matrix))
    lattices = [InvariantLattice(c) for c in structure.contexts]
    joins = [a.join(b) for members in expected for a in members[1:4] for b in members[-4:]]
    projectors = [validate_projector(m, name=a.name) for m, a in zip(matrices, atoms)]
    assert calls == []
    monkeypatch.undo()
    assert [lattice.members for lattice in lattices] == expected and projectors == atoms
    assert joins == [a.join(b) for members in expected for a in members[1:4] for b in members[-4:]]
    for s in [m for members in expected for m in members] + joins:
        assert type(s.basis) is tuple and {type(r) for r in s.basis} <= {tuple}


def test_index_of_computes_each_support_once(cabello, monkeypatch):
    calls = []
    support = contexts.Context.support

    def counting(self, s):
        calls.append(s)
        return support(self, s)

    monkeypatch.setattr(contexts.Context, "support", counting)
    for lattice in cabello.lattices:
        members = set(lattice.members)
        for m in [m for other in cabello.lattices for m in other.members]:
            calls.clear()
            if m in members:
                assert lattice.members[lattice.index_of(m)] == m
            else:
                with pytest.raises(KeyError):
                    lattice.index_of(m)
            assert len(calls) == 1
    calls.clear()
    with pytest.raises(KeyError):  # another ambient dimension: no support to compute
        cabello.lattices[0].index_of(Subspace.full(3))
    assert calls == []


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
        columns = [[[p.matrix.grid[i][j] for i in range(n)] for j in range(n)] for p in context.atoms]
        by_mask = {
            mask: reference_span([c for i, cols in enumerate(columns) if mask >> i & 1 for c in cols], n)
            for mask in range(1 << len(context.atoms))
        }
        assert dict(zip(lattice.masks, lattice.members)) == by_mask
        assert dict(zip(lattice.masks, lattice.bases)) == {mask: s.basis for mask, s in by_mask.items()}
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
    e1 = Subspace(3, [[1, 0, 0]])
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
            rows = random_matrix(rng, rng.randint(1, member.dim), member.dim) * ExactMatrix(member.basis)
            candidates.append(Subspace(context.dimension, rows.grid))
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
            member = Subspace(n, [b for i, p in enumerate(context.atoms) if mask >> i & 1
                                  for b in p.range.basis])
            rows = random_matrix(rng, rng.randint(1, member.dim), member.dim) * ExactMatrix(member.basis)
            candidates.append(Subspace(n, rows.grid))
        for s in candidates:
            expected = sum(1 << i for i, p in enumerate(context.atoms)
                           if any(any(p.matrix.apply(b)) for b in s.basis))
            assert context.support(s) == expected
            bits.update(expected >> i & 1 for i in range(len(context.atoms)))
    assert rank2 == {True, False} and bits == {0, 1}


def test_support_checks_the_ambient_dimension(cabello):
    # One check, in support: mismatched vectors would zip to a meaningless mask.
    s1 = cabello.contexts[0]
    for s in (Subspace(5, [(1, 0, 0, 0, 1)]), Subspace.full(2)):
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
                rows = random_matrix(rng, rng.randint(1, member.dim), member.dim) * ExactMatrix(member.basis)
                candidates.append(Subspace(n, rows.grid))
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
                rows = [b for a, p in enumerate(ctx.atoms) if mask >> a & 1 for b in p.range.basis]
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
        validate_context(c.name, [Projector(a.name, Subspace(4, a.range.basis)) for a in c.atoms])
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
                validate_projector(ExactMatrix(proj["matrix"]), name=proj["name"])
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
            oracle = validate_projector(ExactMatrix(raw_atom["matrix"]), name=raw_atom["name"])
            assert (atom.matrix, atom.range) == (oracle.matrix, oracle.range)
    # Export and reload is byte-identical, as `datasets export` prints it.
    text = json.dumps(structure_to_dict(structure), indent=2)
    assert json.dumps(structure_to_dict(structure_from_dict(json.loads(text))), indent=2) == text


def test_load_shares_repeated_atoms():
    structure = structure_from_dict(_repeated_context())
    s1, s2, _, again = structure.contexts
    # The shared atom and the repeated context hold one range per matrix.
    assert s2.atoms[0].range is s1.atoms[0].range
    assert all(a.range is b.range for a, b in zip(s1.atoms, again.atoms))


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

