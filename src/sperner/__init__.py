"""Sperner k-partition systems: construction, verification, bounds and exact search.

A Sperner k-partition system on {0..n-1} is a family of k-partitions
whose classes, taken over all partitions together, form an antichain: no
class is contained in a class of another partition.  This package builds
such systems (rotational circle constructions, the two-class family, the
Latin-square lift, one-element extension), verifies arbitrary systems
with full violation reports, evaluates exact lower and upper bounds for
the largest possible size SP(n, k), and searches for maximum systems by
branch-and-bound maximum clique over the compatibility graph.
"""

from .bounds import (
    BoundResult,
    SpParams,
    best_lower,
    best_upper,
    counting_upper_bound,
    known_exact,
    sp_bounds,
)
from .construct import (
    construct_2k1,
    construct_2k2,
    construct_3k1,
    construct_auto,
    construct_k2,
    extend_by_one,
    latin_lift,
    plan_construction,
)
from .fixtures import fixture_names, fixture_text, load_fixture
from .formats import FORMAT_VERSION, ParseError, parse, serialize
from .model import (
    Partition,
    PartitionSystem,
    SpernerReport,
    elements_of,
    format_report,
    incomparable,
    is_almost_uniform,
    mask_of,
    relabel,
    validate_partition,
    verify_sperner,
)
from .rotation import (
    INF,
    CircularLayout,
    DifferenceCheck,
    InitialPartition,
    check_difference_property,
    develop,
    difference,
    solve_initial_2k1,
)
from .search import (
    CandidateSet,
    CompatibilityGraph,
    SearchOutcome,
    build_graph,
    enumerate_partitions,
    max_clique,
    solve_sp,
)

__version__ = "0.1.0"

__all__ = [
    "BoundResult",
    "CandidateSet",
    "CircularLayout",
    "CompatibilityGraph",
    "DifferenceCheck",
    "FORMAT_VERSION",
    "INF",
    "InitialPartition",
    "ParseError",
    "Partition",
    "PartitionSystem",
    "SearchOutcome",
    "SpParams",
    "SpernerReport",
    "best_lower",
    "best_upper",
    "build_graph",
    "check_difference_property",
    "construct_2k1",
    "construct_2k2",
    "construct_3k1",
    "construct_auto",
    "construct_k2",
    "counting_upper_bound",
    "develop",
    "difference",
    "elements_of",
    "enumerate_partitions",
    "extend_by_one",
    "fixture_names",
    "fixture_text",
    "format_report",
    "incomparable",
    "is_almost_uniform",
    "known_exact",
    "latin_lift",
    "load_fixture",
    "mask_of",
    "max_clique",
    "parse",
    "plan_construction",
    "relabel",
    "serialize",
    "solve_initial_2k1",
    "solve_sp",
    "sp_bounds",
    "validate_partition",
    "verify_sperner",
]
