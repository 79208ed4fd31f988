"""Sperner k-partition systems: construction, verification, bounds and exact search.

A Sperner k-partition system on {0..n-1} is a family of k-partitions
whose classes, taken over all partitions together, form an antichain: no
class is contained in a class of another partition.  This package builds
such systems (rotational circle constructions, the two-class family, the
Latin-square lift, one-element extension), verifies arbitrary systems
with full violation reports, evaluates exact lower and upper bounds for
the largest possible size SP(n, k), and searches for maximum systems by
branch-and-bound maximum clique over the compatibility graph.

Submodules load on first use: ``import sperner`` imports none of them,
and ``sperner.X`` or ``from sperner import X`` imports only the
submodule that defines X (PEP 562), so a command pays only for what it
runs.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "bounds": (
            "BoundResult",
            "best_lower",
            "best_upper",
            "bounds_table",
            "counting_upper_bound",
            "known_exact",
            "sp_bounds",
        ),
        "construct": (
            "construct_2k1",
            "construct_2k2",
            "construct_3k1",
            "construct_auto",
            "construct_k2",
            "extend_by_one",
            "latin_lift",
            "plan_construction",
        ),
        "fixtures": ("fixture_names", "fixture_text", "load_fixture"),
        "formats": ("FORMAT_VERSION", "ParseError", "parse", "serialize"),
        "model": (
            "Partition",
            "PartitionSystem",
            "SpernerReport",
            "elements_of",
            "format_report",
            "incomparable",
            "is_almost_uniform",
            "mask_of",
            "relabel",
            "validate_partition",
            "verify_sperner",
        ),
        "rotation": (
            "CircularLayout",
            "DifferenceCheck",
            "InitialPartition",
            "check_difference_property",
            "develop",
            "solve_initial_2k1",
        ),
        "search": (
            "CompatibilityGraph",
            "SearchOutcome",
            "build_graph",
            "candidate_count",
            "enumerate_partitions",
            "max_clique",
            "solve_sp",
        ),
    }.items()
    for name in names
}
_SUBMODULES = frozenset(_EXPORTS.values()) | {"cli"}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
