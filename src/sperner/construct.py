"""Witness-producing constructions for Sperner partition systems.

Every function returns a PartitionSystem that has already been checked by
verify_sperner; a verification failure is an internal error, never a
silent result.  The rotational families cover n = 2k+1 (k even),
n = 2k+2 (k >= 3) and n = 3k-1 (k >= 4); construct_k2 covers k = 2 with
odd n; latin_lift and extend_by_one grow existing systems.
"""

from __future__ import annotations

from itertools import combinations, pairwise

from .bounds import FIXTURES, Step, derivation
from .fixtures import load_fixture
from .model import Partition, PartitionSystem, verify_sperner
from .rotation import InitialPartition, develop, solve_initial_2k1

__all__ = [
    "construct_k2",
    "construct_2k1",
    "construct_2k2",
    "construct_3k1",
    "latin_lift",
    "extend_by_one",
    "plan_construction",
    "construct_auto",
]


def _verified(system: PartitionSystem) -> PartitionSystem:
    report = verify_sperner(system)
    if not report.valid:
        first = report.violations[:3] or report.wellformed_errors[:3]
        raise RuntimeError(
            f"internal error: construction {system.name!r} produced an invalid system: {first}"
        )
    return system


def construct_k2(n: int) -> PartitionSystem:
    """All 2-partitions {A, complement} with 0 in A and |A| = (n-1)/2, for odd n.

    This is the largest Sperner 2-partition system on an odd n-set: the
    small classes all share element 0, so none fits inside a large class.
    """
    if n < 3:
        raise ValueError("construct_k2 requires n >= 3")
    if n % 2 == 0:
        raise ValueError(
            "n is even: 2 divides n, the exact value is known and no construction is provided here"
        )
    half = (n - 1) // 2
    full = (1 << n) - 1
    parts = []
    for rest in combinations(range(1, n), half - 1):
        a = 1
        for e in rest:
            a |= 1 << e
        parts.append(Partition(n, [a, full ^ a], 2))
    return _verified(PartitionSystem(n, 2, parts, name=f"construct_k2({n})"))


def construct_2k1(k: int) -> PartitionSystem:
    """2k partitions on 2k+1 elements for even k; each has one triple and k-1 pairs.

    k = 2 returns the construct_k2 optimum on 5 elements (4 partitions);
    k = 4 returns the bundled fig-9-4 system, since no initial partition
    with the difference property exists for k = 4; even k >= 6 develops
    the closed-form initial partition of solve_initial_2k1 on the
    2k-circle with center (for k = 8 the seed of the paper's Figure 2,
    which develops to the bundled fig-17-8 system).
    """
    if k < 2 or k % 2:
        raise ValueError("no construction available for odd k; SP(2k+1, k) is open there")
    if k == 2:
        return construct_k2(5).with_name("construct_2k1(2)")
    if k == 4:
        return _verified(load_fixture("fig-9-4").with_name("construct_2k1(4)"))
    return _verified(develop(solve_initial_2k1(k), f"construct_2k1({k})"))


def construct_2k2(k: int) -> PartitionSystem:
    """2k+1 partitions on 2k+2 elements, k >= 3.

    Develops the initial partition with triangles {1, 2, 2k+2} and
    {k+1, k+2, k+3} plus the edges {i, 2k+4-i} for i = 3..k on a
    (2k+1)-circle; the label 2k+2 is its center, so the first triangle
    holds it.  The triangles realize only the distances 1 and 2 while the
    edges realize 3..k once each.
    """
    if k < 3:
        raise ValueError("construct_2k2 requires k >= 3 (k = 2 is the two-class case)")
    classes = [(1, 2, 2 * k + 2), (k + 1, k + 2, k + 3)]
    classes += [(i, 2 * k + 4 - i) for i in range(3, k + 1)]
    return _verified(develop(InitialPartition(2 * k + 1, classes), f"construct_2k2({k})"))


def construct_3k1(k: int) -> PartitionSystem:
    """3k-1 partitions on 3k-1 elements, k >= 4; k-1 triples and one pair each.

    Develops, on a (3k-1)-circle without center, the edge {1, 3k-1}, the
    triangle {2, k+1, 3k-2} and the triangles {i, 2k+2-i, 3k-i} for
    i = 3..k.  For k = 5 two triangles realize the same distance multiset
    {3, 4, 7} in different circular orders; verifying the developed
    system confirms that no two of their rotated copies coincide.
    """
    if k == 3:
        raise ValueError("no rotational construction for k = 3; use the bundled fig-8-3 system")
    if k < 3:
        raise ValueError("construct_3k1 requires k >= 4")
    classes = [(1, 3 * k - 1), (2, k + 1, 3 * k - 2)]
    classes += [(i, 2 * k + 2 - i, 3 * k - i) for i in range(3, k + 1)]
    return _verified(develop(InitialPartition(3 * k - 1, classes), f"construct_3k1({k})"))


def _require_sperner(base: PartitionSystem) -> None:
    if not verify_sperner(base).valid:
        raise ValueError("base system is not Sperner")


def latin_lift(base: PartitionSystem) -> PartitionSystem:
    """Multiply a system's size by k by appending k fresh elements.

    For each base partition with classes c_0..c_{k-1} in canonical order,
    emits k partitions; the i-th adds fresh element (i+j) mod k to class
    c_j.  Rows of the cyclic Latin square disagree everywhere, so classes
    from different rows never contain one another.
    """
    _require_sperner(base)
    return _lift(base)


def _lift(base: PartitionSystem) -> PartitionSystem:
    k = base.k
    n = base.n + k
    parts = []
    for p in base.partitions:
        for i in range(k):
            masks = [c | (1 << (base.n + (i + j) % k)) for j, c in enumerate(p.classes)]
            parts.append(Partition(n, masks, k))
    name = f"latin_lift({base.name or f'{base.n},{base.k}'})"
    return _verified(PartitionSystem(n, k, parts, name=name))


def extend_by_one(base: PartitionSystem) -> PartitionSystem:
    """Add one fresh element to the first smallest class of every partition.

    The fresh element cannot create containments: if B fits inside A
    extended by x, then B minus x already fit inside A.  Targeting the
    canonically first class of minimum size keeps the result almost
    uniform whenever possible.  The base is checked first because the
    fresh element can also hide a containment the base already had.
    """
    _require_sperner(base)
    return _extend(base)


def _extend(base: PartitionSystem) -> PartitionSystem:
    n = base.n + 1
    parts = []
    for p in base.partitions:
        masks = list(p.classes)
        masks[0] |= 1 << base.n
        parts.append(Partition(n, masks, base.k))
    name = f"extend_by_one({base.name or f'{base.n},{base.k}'})"
    return _verified(PartitionSystem(n, base.k, parts, name=name))


def _trivial_system(n: int, k: int) -> PartitionSystem:
    """One almost uniform partition: k runs of consecutive elements, the larger runs first."""
    ell, r = divmod(n, k)
    starts = [i * ell + min(i, r) for i in range(k + 1)]
    part = Partition(n, [range(a, b) for a, b in pairwise(starts)], k)
    return _verified(PartitionSystem(n, k, [part], name=f"single({n},{k})"))


# The builder of each base rule of the bounds rule table, called with the
# (n, k) of the derivation's last step; every step above it is a
# latin-lift or an extend of the system below.
_BASES = {
    "fixture": lambda n, k: _verified(load_fixture(FIXTURES[n, k][0])),
    "k2": lambda n, k: construct_k2(n),
    "rotational-2k1": lambda n, k: construct_2k1(k),
    "rotational-2k2": lambda n, k: construct_2k2(k),
    "rotational-3k1": lambda n, k: construct_3k1(k),
    "trivial": _trivial_system,
}


def _plan(n: int, k: int, first: str | None) -> list[Step]:
    """The buildable derivation of (n, k), top step first (see bounds.derivation)."""
    if k < 1:
        raise ValueError(f"k = {k}: a k-partition needs k >= 1 classes")
    if n < k:
        raise ValueError("no k-partition of an n-set exists when n < k")
    return derivation(n, k, buildable=True, first=first)


def plan_construction(n: int, k: int, first: str | None = None) -> tuple[int, tuple[str, ...]]:
    """Best guaranteed system size reachable by the implemented constructions.

    Returns (size, route).  The route names the buildable rules of the
    bounds rule table along the derivation, top step first: (13, 3) gives
    (45, ("latin-lift", "latin-lift", "fixture")), two lifts of fig-7-3.
    first forces the top step, as in bounds.derivation.
    """
    chain = _plan(n, k, first)
    return chain[0].value, tuple(step.rule for step in chain)


# The largest planned system construct_auto builds.  Building costs about
# 25 us and 0.8 KB per partition in CPython: construct_k2(21), 167,960
# partitions, takes 4.2 s and 132 MB peak RSS on a 2-core Xeon VM, so the
# cap stands near 25 s and 0.8 GB.  Larger plans, such as C(28,13) =
# 37,442,160 partitions for (29, 2), are refused before anything is built.
MAX_PARTITIONS = 1_000_000


def construct_auto(n: int, k: int, first: str | None = None) -> PartitionSystem:
    """Build the largest system the implemented constructions guarantee for (n, k).

    Builds the buildable bounds.derivation from the bottom up: its last
    step's base rule, then each latin-lift or extend above it.  first
    forces the top step of the route.  A forced direct construction keeps
    its own name; any other result is named first(n,k) or auto(n,k).
    Plans above MAX_PARTITIONS raise ValueError.
    """
    chain = _plan(n, k, first)
    size = chain[0].value
    if size > MAX_PARTITIONS:
        raise ValueError(
            f"the planned system has {size:,} partitions, over the cap of {MAX_PARTITIONS:,}"
        )
    base = chain[-1]
    system = _BASES[base.rule](base.n, k)
    for step in reversed(chain[:-1]):
        system = _lift(system) if step.rule == "latin-lift" else _extend(system)
    if first is None or len(chain) > 1:
        system = system.with_name(f"{first or 'auto'}({n},{k})")
    if len(system) != size or system.n != n or system.k != k:
        raise RuntimeError("internal error: the built construction does not match its plan")
    return system
