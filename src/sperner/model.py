"""Ground-set model: partitions, partition systems and the antichain verifier.

Elements are the integers 0..n-1 and every class of a partition is stored
as an int bitmask over the ground set, so containment tests are single
bitwise operations.  Partitions keep their classes in canonical order
(size ascending, then smallest element ascending), which makes equality,
hashing and serialization independent of how the classes were listed.
containments is the one class-containment index; verify_sperner and
search.build_graph both read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterable, Iterator, Sequence

__all__ = [
    "Partition",
    "PartitionSystem",
    "SpernerReport",
    "mask_of",
    "elements_of",
    "incomparable",
    "containments",
    "validate_partition",
    "verify_sperner",
    "relabel",
    "is_almost_uniform",
    "format_report",
]

# A violation is (partition a, class i, partition b, class j, relation),
# relation one of "subset", "superset", "equal": class i of partition a
# stands in that relation to class j of partition b.
Violation = tuple[int, int, int, int, str]


def mask_of(elements: Iterable[int]) -> int:
    """Bitmask with one bit per element."""
    m = 0
    for e in elements:
        m |= 1 << e
    return m


def elements_of(mask: int) -> tuple[int, ...]:
    """Ascending elements of a bitmask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def incomparable(a: int, b: int) -> bool:
    """True iff neither class contains the other.

    Equal classes contain each other, so they are comparable.
    """
    return (a & ~b) != 0 and (b & ~a) != 0


def _class_key(mask: int) -> tuple[int, int]:
    # (size, smallest element); empty classes sort first
    return (mask.bit_count(), (mask & -mask).bit_length() - 1)


class Partition:
    """A declared k-partition of {0..n-1}.

    Instances are cheap containers and may violate the partition axioms;
    validate_partition reports every broken invariant.  Classes may be
    given as element iterables or as prebuilt bitmasks (plain ints).
    """

    __slots__ = ("n", "k", "classes")

    def __init__(self, n: int, classes: Iterable[Iterable[int] | int], k: int | None = None):
        masks = [c if isinstance(c, int) else mask_of(c) for c in classes]
        masks.sort(key=_class_key)
        self.n = int(n)
        self.classes = tuple(masks)
        self.k = len(masks) if k is None else int(k)

    @classmethod
    def _from_canonical(cls, n: int, k: int, classes: tuple[int, ...]) -> "Partition":
        # classes are masks already in canonical order; skips the sort
        p = cls.__new__(cls)
        p.n, p.k, p.classes = n, k, classes
        return p

    @property
    def class_sets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(elements_of(c) for c in self.classes)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(c.bit_count() for c in self.classes)

    def _key(self):
        # lexicographic canonical key; keeps partitions sharing small
        # classes adjacent when sorted, which the clique search relies on
        return (self.n, self.k, self.class_sets)

    def __eq__(self, other):
        return isinstance(other, Partition) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"Partition({self.n}, {[list(c) for c in self.class_sets]})"

    def __str__(self):
        return "|".join(",".join(str(e) for e in c) for c in self.class_sets)


class PartitionSystem:
    """A family of k-partitions of one ground set {0..n-1}."""

    __slots__ = ("n", "k", "partitions", "name")

    def __init__(self, n: int, k: int, partitions: Iterable[Partition], name: str | None = None):
        self.n = int(n)
        self.k = int(k)
        self.partitions = tuple(partitions)
        for p in self.partitions:
            if (p.n, p.k) != (self.n, self.k):
                raise ValueError(
                    f"partition parameters ({p.n}, {p.k}) do not match system ({self.n}, {self.k})"
                )
        self.name = name

    def with_name(self, name: str | None) -> "PartitionSystem":
        return PartitionSystem(self.n, self.k, self.partitions, name)

    def __len__(self):
        return len(self.partitions)

    def __iter__(self):
        return iter(self.partitions)

    def _key(self):
        return (self.n, self.k, tuple(sorted(p._key() for p in self.partitions)))

    def __eq__(self, other):
        return isinstance(other, PartitionSystem) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        label = f" {self.name!r}" if self.name else ""
        return f"<PartitionSystem{label} n={self.n} k={self.k} partitions={len(self.partitions)}>"


@dataclass(frozen=True)
class SpernerReport:
    """Outcome of verify_sperner: valid iff no violations and no well-formedness errors."""

    valid: bool
    violations: tuple[Violation, ...]
    wellformed_errors: tuple[str, ...]


def validate_partition(p: Partition) -> list[str]:
    """Return one message per violated partition invariant (empty list iff well formed)."""
    errors = []
    if len(p.classes) != p.k:
        errors.append(f"expected {p.k} classes, found {len(p.classes)}")
    full = (1 << p.n) - 1
    seen = 0
    overlap = 0
    for i, c in enumerate(p.classes):
        if c == 0:
            errors.append(f"class {i} is empty")
        if c & ~full:
            errors.append(f"class {i} contains elements outside 0..{p.n - 1}")
        overlap |= seen & c
        seen |= c
    for x in elements_of(overlap):
        errors.append(f"element {x} appears in more than one class")
    for x in elements_of(full & ~seen):
        errors.append(f"element {x} is not covered by any class")
    return errors


# Above this many subset enumerations containments falls back to pairwise
# mask comparison; only pathological inputs (few partitions, huge classes of
# many distinct sizes) ever reach the fallback.
_SUBSET_ENUM_LIMIT = 2_000_000


def containments(classes: Iterable[int]) -> Iterator[tuple[int, int]]:
    """Yield every (sub, sup) pair of the given classes with sub a proper subset of sup.

    This is the one class-containment index: verify_sperner turns its pairs
    into violations and build_graph into non-edges.  Each class is matched
    against its subsets of the sizes present, each built as the sum of a
    combination of the class's single-bit masks, unless that enumeration
    would exceed _SUBSET_ENUM_LIMIT, in which case classes are compared
    pairwise.
    """
    present = set(classes)
    sizes_present = sorted({c.bit_count() for c in present})
    cost = 0
    for mask in present:
        size = mask.bit_count()
        for s in sizes_present:
            if s >= size:
                break
            cost += comb(size, s)

    if cost <= _SUBSET_ENUM_LIMIT:
        for sup in present:
            size = sup.bit_count()
            if size <= sizes_present[0]:
                continue  # no class present is smaller
            bits = []  # sup split into its single-bit masks
            rest = sup
            while rest:
                low = rest & -rest
                bits.append(low)
                rest ^= low
            for s in sizes_present:
                if s >= size:
                    break
                for sub in map(sum, combinations(bits, s)):
                    if sub in present:
                        yield sub, sup
    else:
        by_size = sorted(present, key=lambda m: (m.bit_count(), m))
        for idx, small in enumerate(by_size):
            ssize = small.bit_count()
            for big in by_size[idx + 1 :]:
                if big.bit_count() > ssize and small & ~big == 0:
                    yield small, big


def verify_sperner(system: PartitionSystem) -> SpernerReport:
    """Check that the classes of all partitions form an antichain.

    Every ordered pair of distinct partitions (P, Q) with classes C in P,
    D in Q contributes a violation unless C and D are incomparable.
    Classes within one partition are never compared: disjoint nonempty
    sets are incomparable automatically.  Equal classes are found through
    the class -> owners map, proper containments through containments.
    Violations are reported exhaustively and sorted, so equal inputs give
    identical reports.
    """
    wellformed = []
    for t, p in enumerate(system.partitions):
        wellformed.extend(f"partition {t}: {msg}" for msg in validate_partition(p))

    owners: dict[int, list[tuple[int, int]]] = {}
    for a, p in enumerate(system.partitions):
        for i, c in enumerate(p.classes):
            owners.setdefault(c, []).append((a, i))

    violations: set[Violation] = set()

    for locs in owners.values():
        if len(locs) > 1:
            for a, i in locs:
                for b, j in locs:
                    if a != b:
                        violations.add((a, i, b, j, "equal"))

    for sub, sup in containments(owners):
        for a, i in owners[sub]:
            for b, j in owners[sup]:
                if a != b:
                    violations.add((a, i, b, j, "subset"))
                    violations.add((b, j, a, i, "superset"))

    violations_sorted = tuple(sorted(violations))
    valid = not violations_sorted and not wellformed
    return SpernerReport(valid, violations_sorted, tuple(wellformed))


def format_report(system: PartitionSystem, report: SpernerReport) -> str:
    """Human-readable report naming the exact classes behind every finding."""
    lines = []
    if report.valid:
        lines.append(f"valid: {len(system.partitions)} partitions, n={system.n}, k={system.k}")
        return "\n".join(lines)
    for msg in report.wellformed_errors:
        lines.append(f"malformed: {msg}")
    rel_text = {"subset": "is a subset of", "superset": "is a superset of", "equal": "equals"}
    for a, i, b, j, rel in report.violations:
        ca = set(elements_of(system.partitions[a].classes[i]))
        cb = set(elements_of(system.partitions[b].classes[j]))
        lines.append(
            f"violation: partition {a} class {i} {sorted(ca)} {rel_text[rel]} "
            f"partition {b} class {j} {sorted(cb)}"
        )
    return "\n".join(lines)


def relabel(system: PartitionSystem, perm: Sequence[int]) -> PartitionSystem:
    """Apply a permutation of {0..n-1} to every element of every class."""
    perm = tuple(perm)
    if sorted(perm) != list(range(system.n)):
        raise ValueError("invalid permutation")

    def remap(mask: int) -> int:
        out = 0
        while mask:
            low = mask & -mask
            out |= 1 << perm[low.bit_length() - 1]
            mask ^= low
        return out

    partitions = [
        Partition(p.n, [remap(c) for c in p.classes], p.k) for p in system.partitions
    ]
    return PartitionSystem(system.n, system.k, partitions, name=system.name)


def is_almost_uniform(system: PartitionSystem) -> bool:
    """True iff every class of every partition has size floor(n/k) or ceil(n/k)."""
    lo = system.n // system.k
    hi = -(-system.n // system.k)
    return all(
        lo <= size <= hi for p in system.partitions for size in p.sizes
    )
