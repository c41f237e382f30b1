"""suplat: exact invariant-subspace lattices with supervaluational gaps.

Builds the invariant-subspace lattice of each measurement context in a
finite-dimensional complex space, evaluates lattice members at a pure
state under a three-valued semantics (true, false, or the gap "0/0"),
judges per-context admissibility rules, searches for noncontextual
bivalent colorings, and renders Hasse diagrams as Graphviz DOT.  All
arithmetic is exact over the Gaussian rationals.
"""

from .admissibility import (
    AdmissibilityReport,
    ContextAdmissibility,
    RuleStatus,
    check_admissibility,
    ks_search,
    rule1_status,
    rule2_status,
)
from .contexts import (
    Context,
    ContextError,
    DuplicateAtomNameError,
    IncompleteSumError,
    InvariantLattice,
    NotOrthogonalError,
    Structure,
    StructureError,
    StructureFormatError,
    TrivialAtomError,
    ZeroStateError,
    allocated_lattices,
    is_lattice_member,
    shared_members,
    structure_from_dict,
    structure_to_dict,
    validate_context,
)
from .datasets import UnknownDatasetError, builtin_structure, dataset_names
from .hasse import (
    HasseGraph,
    HasseNode,
    UnknownScopeError,
    build_graph,
    emit_dot,
    transitive_reduction,
)
from .linalg import (
    DimensionMismatchError,
    ExactMatrix,
    GaussianRational,
    ScalarError,
    ScalarSyntaxError,
    ZeroDenominatorError,
    as_scalar,
    format_scalar,
    parse_scalar,
)
from .operators import (
    NotHermitianError,
    NotIdempotentError,
    NotSquareError,
    Projector,
    ProjectorError,
    kernel_of,
    range_of,
    validate_projector,
)
from .subspaces import Subspace
from .valuation import (
    Mode,
    TruthValue,
    ValuationReport,
    evaluate,
    evaluate_structure,
    report_to_dict,
    report_to_text,
)

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityReport",
    "Context",
    "ContextAdmissibility",
    "ContextError",
    "DimensionMismatchError",
    "DuplicateAtomNameError",
    "ExactMatrix",
    "GaussianRational",
    "HasseGraph",
    "HasseNode",
    "IncompleteSumError",
    "InvariantLattice",
    "Mode",
    "NotHermitianError",
    "NotIdempotentError",
    "NotOrthogonalError",
    "NotSquareError",
    "Projector",
    "ProjectorError",
    "RuleStatus",
    "ScalarError",
    "ScalarSyntaxError",
    "Structure",
    "StructureError",
    "StructureFormatError",
    "Subspace",
    "TrivialAtomError",
    "TruthValue",
    "UnknownDatasetError",
    "UnknownScopeError",
    "ValuationReport",
    "ZeroDenominatorError",
    "ZeroStateError",
    "allocated_lattices",
    "as_scalar",
    "build_graph",
    "builtin_structure",
    "check_admissibility",
    "dataset_names",
    "emit_dot",
    "evaluate",
    "evaluate_structure",
    "format_scalar",
    "is_lattice_member",
    "kernel_of",
    "ks_search",
    "parse_scalar",
    "range_of",
    "report_to_dict",
    "report_to_text",
    "rule1_status",
    "rule2_status",
    "shared_members",
    "structure_from_dict",
    "structure_to_dict",
    "transitive_reduction",
    "validate_context",
    "validate_projector",
]
