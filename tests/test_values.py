"""The immutable value types: construction, frozen fields, equality and hashing."""

from __future__ import annotations

import copy
import pickle

import pytest

from suplat.admissibility import AdmissibilityReport, ContextAdmissibility, RuleStatus, check_admissibility
from suplat.contexts import Context
from suplat.frozen import Frozen
from suplat.hasse import HasseGraph, HasseNode, build_graph
from suplat.operators import Projector, projector_onto
from suplat.subspaces import Subspace
from suplat.valuation import Mode, ValuationReport, evaluate_structure

# Each type's fields, in constructor order.
FIELDS = {
    Subspace: ("ambient_dim", "basis"),
    Projector: ("name", "matrix", "range"),
    Context: ("name", "atoms"),
    ValuationReport: ("structure", "state", "mode", "supports"),
    HasseNode: ("node_id", "subspace", "label", "truth", "shared", "memberships"),
    HasseGraph: ("nodes", "edges"),
    ContextAdmissibility: ("context", "true_count", "false_count", "gap_count", "rule1", "rule2"),
    AdmissibilityReport: ("per_context",),
}


def _pairs(cabello):
    """Per type, two objects built separately from equal field values."""
    plane = Subspace.span_of([(1, 1, 0), (0, 1, 1)], 3)
    same_plane = Subspace.span_of([(1, 2, 1), (1, 0, -1)], 3)

    def report():
        return evaluate_structure(cabello, (0, 0, 0, 1), Mode.INVARIANT)

    first, second = report(), report()
    return {
        Subspace: (plane, same_plane),
        Projector: (projector_onto(plane, "P"), projector_onto(same_plane, "P")),
        Context: (cabello.contexts[0], Context(cabello.contexts[0].name, tuple(cabello.contexts[0].atoms))),
        ValuationReport: (first, second),
        HasseNode: (build_graph(first, "S6").nodes[1], build_graph(second, "S6").nodes[1]),
        HasseGraph: (build_graph(first, "all"), build_graph(second, "all")),
        ContextAdmissibility: (check_admissibility(first).per_context[0], check_admissibility(second).per_context[0]),
        AdmissibilityReport: (check_admissibility(first), check_admissibility(second)),
    }


@pytest.mark.parametrize("kind", list(FIELDS), ids=lambda kind: kind.__name__)
def test_fields_cannot_be_assigned_or_deleted(kind, cabello):
    obj = _pairs(cabello)[kind][0]
    for name in FIELDS[kind]:
        value = getattr(obj, name)
        with pytest.raises(AttributeError):
            setattr(obj, name, value)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        assert getattr(obj, name) is value


@pytest.mark.parametrize("kind", list(FIELDS), ids=lambda kind: kind.__name__)
def test_equal_fields_give_equal_objects_with_equal_hashes(kind, cabello):
    a, b = _pairs(cabello)[kind]
    values = [getattr(a, name) for name in FIELDS[kind]]
    assert a is not b and values == [getattr(b, name) for name in FIELDS[kind]]
    built = [kind(*values), kind(**dict(zip(FIELDS[kind], values))), copy.copy(a)]
    for other in built:
        assert [getattr(other, name) for name in FIELDS[kind]] == values
    if kind is ValuationReport:  # compared by identity
        assert a == a and a != b and len({a, b, *built}) == 2 + len(built)
        assert hash(a) == object.__hash__(a)
    else:
        for other in (b, *built, pickle.loads(pickle.dumps(a))):
            assert a == other and hash(a) == hash(other)
    assert a != values[0] and a != tuple(values)


def test_projector_equality_includes_the_name(cabello):
    atom = cabello.contexts[0].atoms[0]
    assert atom == Projector(atom.name, atom.matrix, atom.range)
    assert atom != Projector(atom.name + "'", atom.matrix, atom.range)


def test_context_admissibility_takes_keywords():
    row = ContextAdmissibility(
        context="S1", true_count=1, false_count=3, gap_count=0, rule1=RuleStatus.SATISFIED,
        rule2=RuleStatus.SATISFIED,
    )
    assert row == ContextAdmissibility("S1", 1, 3, 0, RuleStatus.SATISFIED, RuleStatus.SATISFIED)
    assert row != ContextAdmissibility("S1", 1, 3, 0, RuleStatus.SATISFIED, RuleStatus.VACUOUS)


def test_slots_are_the_only_list_of_fields():
    assert set(Frozen.__subclasses__()) == set(FIELDS)
    for kind, fields in FIELDS.items():
        assert fields == tuple(name for name in kind.__slots__ if name != "__dict__")
        assert "__init__" not in vars(kind)
        by_identity = kind is ValuationReport
        assert ("__eq__" in vars(kind), "__hash__" in vars(kind)) == (by_identity, by_identity)


@pytest.mark.parametrize("kind", list(FIELDS), ids=lambda kind: kind.__name__)
def test_misfit_fields_raise_before_any_is_set(kind, cabello):
    a = _pairs(cabello)[kind][0]
    fields = FIELDS[kind]
    values = tuple(getattr(a, name) for name in fields)
    named = dict(zip(fields, values))
    assert a.__reduce__() == (kind, values)
    assert repr(a).startswith(f"{kind.__qualname__}({fields[0]}=")
    misfits = [
        (values[:-1], {}),  # missing, by position
        ((), {name: named[name] for name in fields[1:]}),  # missing, by name
        ((*values, values[0]), {}),  # extra positional value
        (values, {"colour": values[0]}),  # unknown name
        (values[:1], named),  # the first field by position and by name
    ]
    for args, kwargs in misfits:
        blank = kind.__new__(kind)
        with pytest.raises(TypeError, match=f"^{kind.__qualname__} takes the fields {', '.join(fields)} "):
            blank.__init__(*args, **kwargs)
        assert not any(hasattr(blank, name) for name in fields)
