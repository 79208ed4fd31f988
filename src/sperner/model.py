"""Ground-set model: partitions, partition systems, their orbits and the antichain verifier.

Elements are the integers 0..n-1 and every class of a partition is stored
as an int bitmask over the ground set, so containment tests are single
bitwise operations.  Partitions keep their classes in canonical order
(size ascending, then smallest element ascending), which makes equality,
hashing and serialization independent of how the classes were listed.
containments is the one class-containment index; verify_sperner,
search.build_graph and rotation.check_difference_property all read it
(build_graph only for a class set that one-element steps cannot walk,
see search._lattice).
It picks, per class and per smaller size present, the cheaper of a
subset lookup and a scan of that size's classes, so its work grows with
the classes of each size and no input needs a size limit.
_malformed_rows is the one k-partition test: it checks rows of class
masks in bulk, with a few whole-mask operations per row, for
verify_sperner and for the search's guard on full candidate sets.
Beyond the system itself, verify_sperner holds each class once, in a
sorted list of its size or, for a size that lookups pay for, a set;
locations are looked up only for classes behind a finding.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from functools import partial, reduce
from itertools import chain, combinations, compress, islice
from math import comb, lcm
from operator import eq, ne, or_
from typing import Collection, Container, Iterable, Iterator, NamedTuple, Sequence

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
    "orbit",
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
    if mask < 0:
        raise ValueError(f"negative mask {mask}")
    # from the top bit down, so the mask shrinks as each element is cleared;
    # isolating the low bit (mask & -mask) takes one more operation on the
    # whole mask per element
    out = []
    while mask:
        top = mask.bit_length() - 1
        out.append(top)
        mask ^= 1 << top
    out.reverse()
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
        if masks and min(masks) < 0:
            bad = next(i for i, c in enumerate(masks) if c < 0)
            raise ValueError(f"class {bad} is a negative mask")
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
        return (self.n, self.k, self.classes)

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


class SpernerReport(NamedTuple):
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


def _malformed_rows(rows: Sequence[Sequence[int]], n: int, k: int) -> Iterator[int]:
    """Yield the index of every row of class masks that is not a k-partition of {0..n-1}.

    A row is one exactly when it has k classes, none of them empty, whose
    union is {0..n-1} and whose sizes sum to n: classes that cover n
    elements with n bits in all cannot meet.
    """
    full = (1 << n) - 1 if rows else 0  # an empty system's n alone can be huge
    for t, cs in enumerate(rows):
        if (
            len(cs) != k
            or 0 in cs
            or reduce(or_, cs, 0) != full
            or sum(map(int.bit_count, cs)) != n
        ):
            yield t


def containments(classes: Iterable[int]) -> Iterator[tuple[int, int]]:
    """Yield every (sub, sup) pair of the given classes with sub a proper subset of sup.

    This is the one class-containment index: verify_sperner turns its pairs
    into violations, build_graph into non-edges (where search._lattice
    cannot step one element at a time) and check_difference_property into
    failures.  For each class sup and each
    smaller size s present it runs the cheaper of two searches: look up
    the comb(|sup|, s) subsets of sup, or test the present classes of
    size s one by one (ties go to the lookup).  A subset of size |sup|-1
    is sup less one bit; a smaller one is the sum of a combination of
    sup's single-bit masks.  Each (class, size) step costs the smaller of
    the two, so the work grows with the classes of each size and no input
    needs a size limit.  Here the pairs come sup by sup in the order of
    the set of the classes, which every lookup tests; verify_sperner runs
    the same search (_pairs) over classes it holds by size, with no set
    of them all.
    """
    present = classes if isinstance(classes, (set, frozenset)) else set(classes)
    groups: dict[int, list[int]] = {}
    for c in present:
        groups.setdefault(c.bit_count(), []).append(c)
    return _pairs(present, groups, dict.fromkeys(groups, present))


def _pairs(
    sups: Iterable[int], groups: dict[int, Collection[int]], lookups: dict[int, Container[int]]
) -> Iterator[tuple[int, int]]:
    """containments' pairs for each of sups in turn.

    groups[s] holds the distinct classes of size s, and lookups[s] holds
    them too (and maybe others) for each size s that some class looks
    subsets up in.
    """
    sizes = sorted(groups)
    # size -> (s, the classes of size s to scan, or None to look them up)
    # for each smaller size s present
    plans: dict[int, list[tuple[int, Collection[int] | None]]] = {}
    for sup in sups:
        size = sup.bit_count()
        plan = plans.get(size)
        if plan is None:
            plan = plans[size] = [
                (s, groups[s] if comb(size, s) > len(groups[s]) else None) for s in sizes if s < size
            ]
        bits = None  # sup split into its single-bit masks on its first lookup
        for s, scanned in plan:
            if scanned is not None:
                for sub in scanned:
                    if sub & ~sup == 0:
                        yield sub, sup
            elif s == size - 1:
                present = lookups[s]
                rest = sup  # drop one bit, highest first: the order combinations gives
                while rest:
                    top = 1 << rest.bit_length() - 1
                    rest ^= top
                    if sup ^ top in present:
                        yield sup ^ top, sup
            else:
                present = lookups[s]
                if bits is None:
                    bits = [1 << e for e in elements_of(sup)]
                for sub in map(sum, combinations(bits, s)):
                    if sub in present:
                        yield sub, sup


class _Sorted:
    """A sorted list of distinct classes as a container, searched by bisection."""

    __slots__ = ("items",)

    def __init__(self, items: list[int]):
        self.items = items

    def __contains__(self, c: int) -> bool:
        i = bisect_left(self.items, c)
        return i < len(self.items) and self.items[i] == c


def _by_size(rows: Sequence[Sequence[int]]) -> tuple[dict, dict, set[int]]:
    """(groups, lookups, repeated) of the classes of rows, for _pairs, with no set of them all.

    A size whose classes are looked up at least as many times as it has
    classes is held as a set, which has repeated classes when it is
    smaller than their count.  Every other size is a list sorted in place,
    so equal classes sit side by side and are found by comparing
    neighbours, as a set's repeats are in a sorted list of its size's
    classes; a size looked up fewer times is searched by bisection, and
    one never looked up needs no more.
    """
    classes = partial(chain.from_iterable, rows)
    counts = Counter(map(int.bit_count, classes()))
    groups: dict[int, Collection[int]] = {}
    lookups: dict[int, Container[int]] = {}
    for s, count in counts.items():
        wanted = sum(m * comb(size, s) for size, m in counts.items() if size > s and comb(size, s) <= count)
        if wanted >= count:
            groups[s] = lookups[s] = set()
        else:
            groups[s] = []
            if wanted:
                lookups[s] = _Sorted(groups[s])
    add = {s: group.add if isinstance(group, set) else group.append for s, group in groups.items()}
    for c in classes():
        add[c.bit_count()](c)
    repeated: set[int] = set()
    for s, group in groups.items():
        if isinstance(group, set):
            if len(group) < counts[s]:
                same = sorted(c for c in classes() if c.bit_count() == s)
                repeated.update(compress(same, map(eq, same, islice(same, 1, None))))
            continue
        group.sort()
        runs = set(compress(group, map(eq, group, islice(group, 1, None))))
        if runs:  # keep the first class of each run of equal ones
            repeated |= runs
            group[:] = compress(group, map(ne, group, chain([None], group)))
    return groups, lookups, repeated


def verify_sperner(system: PartitionSystem) -> SpernerReport:
    """Check that the classes of all partitions form an antichain.

    Every ordered pair of distinct partitions (P, Q) with classes C in P,
    D in Q contributes a violation unless C and D are incomparable.
    Classes within one partition are never compared: disjoint nonempty
    sets are incomparable automatically.  Violations are reported
    exhaustively and sorted, so equal inputs give identical reports.

    Each partition is checked in bulk by _malformed_rows; only a partition
    that fails goes through validate_partition, which words the messages.
    The classes are held by size (_by_size), with a lookup set only for a
    size that containment lookups pay for, and each other size as a sorted
    list in which equal classes sit side by side; containments' search
    (_pairs) runs over them.  The (partition, class) locations are
    gathered only for repeated classes and the ends of containment pairs,
    so a valid system costs about one list or set entry per class and no
    set of every class.
    """
    partitions = system.partitions
    rows = [p.classes for p in partitions]
    wellformed = [
        f"partition {t}: {msg}"
        for t in _malformed_rows(rows, system.n, system.k)
        for msg in validate_partition(partitions[t])
    ]
    groups, lookups, involved = _by_size(rows)
    smallest = min(groups, default=0)  # the smallest classes contain none
    sups = chain.from_iterable(group for s, group in groups.items() if s > smallest)
    pairs = list(_pairs(sups, groups, lookups))
    del groups, lookups
    involved.update(c for pair in pairs for c in pair)
    owners: dict[int, list[tuple[int, int]]] = {}
    if involved:
        for a, cs in enumerate(rows):
            for i, c in enumerate(cs):
                if c in involved:
                    owners.setdefault(c, []).append((a, i))

    violations: set[Violation] = set()

    for locs in owners.values():
        if len(locs) > 1:
            for a, i in locs:
                for b, j in locs:
                    if a != b:
                        violations.add((a, i, b, j, "equal"))

    for sub, sup in pairs:
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
        ca = list(elements_of(system.partitions[a].classes[i]))
        cb = list(elements_of(system.partitions[b].classes[j]))
        lines.append(
            f"violation: partition {a} class {i} {ca} {rel_text[rel]} "
            f"partition {b} class {j} {cb}"
        )
    return "\n".join(lines)


def relabel(system: PartitionSystem, perm: Sequence[int]) -> PartitionSystem:
    """Apply a permutation of {0..n-1} to every element of every class."""
    perm = tuple(perm)
    if sorted(perm) != list(range(system.n)):
        raise ValueError("invalid permutation")

    partitions = [
        Partition(p.n, [mask_of(perm[e] for e in elements_of(c)) for c in p.classes], p.k)
        for p in system.partitions
    ]
    return PartitionSystem(system.n, system.k, partitions, name=system.name)


def _turn(masks: Iterable[int], t: int, runs: Iterable[tuple[int, int]]) -> list[int]:
    """Turn class masks t >= 0 steps along every run (start, length); other elements stay."""
    for start, length in runs:
        ring = ((1 << length) - 1) << start
        s = t % length
        masks = [c ^ (r := c & ring) ^ ((r << s | r >> (length - s)) & ring) for c in masks]
    return list(masks)


def orbit(partition: Partition, cycles, name: str | None = None) -> PartitionSystem:
    """The images of a partition under the powers t = 0..L-1 of a permutation given by runs.

    Run (start, length) is the cycle start -> start+1 -> ... -> start+length-1
    -> start; elements outside the runs are fixed.  L is the lcm of the
    lengths, and repeated images are kept.
    """
    n, k = partition.n, partition.k
    runs = [(start, length) for start, length in cycles]
    covered = 0
    for run in runs:
        start, length = run
        if not (type(start) is int and type(length) is int and length >= 1):  # refuses True, 1.0
            raise ValueError(f"run {run!r} needs an int start and an int length >= 1")
        if start < 0 or start + length > n:
            raise ValueError(f"run {run} reaches outside 0..{n - 1}")
        if covered & (ring := ((1 << length) - 1) << start):
            raise ValueError(f"run {run} overlaps another run")
        covered |= ring
    period = lcm(*(length for _, length in runs))
    parts = [Partition(n, _turn(partition.classes, t, runs), k) for t in range(period)]
    return PartitionSystem(n, k, parts, name=name)


def is_almost_uniform(system: PartitionSystem) -> bool:
    """True iff every class of every partition has size floor(n/k) or ceil(n/k)."""
    lo = system.n // system.k
    hi = -(-system.n // system.k)
    return all(
        lo <= size <= hi for p in system.partitions for size in p.sizes
    )
