"""Initial partitions on a circle, rotational development and the difference property.

The rotational constructions draw one initial partition as edges and
triangles on m points placed around a circle (labeled 1..m), optionally
with one extra point at the circle's center, labeled m+1.  An
InitialPartition holds m and the classes; it has a center exactly when a
class holds m+1 (point x is mask element x-1, so the center is the
element m that the text format's ``inf`` names).  Rotating the circle
labels m times while the center stays fixed ("developing") turns the
initial partition into a system of m partitions: model.orbit under the
one run (0, m).

Whether the developed system is Sperner can be decided locally from the
initial partition.  The distance between two circle points is measured
the short way around the circle; pairs with the center, which lies in
one class only, have none.  An initial partition made of edges (size-2
classes) and triangles (size-3 classes) has the *difference property* when

  * the edges realize pairwise distinct distances,
  * no edge distance occurs between two points of a triangle,
  * on an even circle no edge realizes the diameter m/2 (such an edge
    returns to itself after m/2 rotations and the developed system would
    repeat a class), and
  * the rotation orbits of the triangles are pairwise disjoint and of
    full length m (distance multisets alone cannot see this: two
    triangles can realize the same distances in different circular
    orders).

Developing an initial partition with the difference property always
yields a Sperner system: rotated edges are pairwise distinct and never
inside a rotated triangle, and rotated triangles never coincide.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from itertools import combinations
from typing import NamedTuple

from .model import Partition, PartitionSystem, _turn, containments, mask_of, orbit

__all__ = [
    "InitialPartition",
    "DifferenceCheck",
    "develop",
    "check_difference_property",
    "solve_initial_2k1",
]


class InitialPartition:
    """A partition of m circle points, labeled 1..m, and maybe the center; the seed of develop().

    Classes are given as nonempty iterables of labels.  The center is the
    label m+1 and belongs to the layout exactly when some class holds it,
    so the classes cover either 1..m or 1..m+1.
    """

    __slots__ = ("m", "classes")

    def __init__(self, m: int, classes):
        if type(m) is not int or m < 3:  # refuses True and 5.0
            raise ValueError(f"an initial partition needs a circle of at least 3 points, an int, not {m!r}")
        classes = [tuple(c) for c in classes]
        if () in classes:
            raise ValueError(f"class {classes.index(())} is empty")
        for c in classes:
            for x in c:
                if not (type(x) is int and 1 <= x <= m + 1):  # refuses True and 1.0
                    raise ValueError(
                        f"point {x!r} is not a layout point; the circle is 1..{m} and the center is {m + 1}"
                    )
        normalized = tuple(tuple(sorted(c)) for c in classes)
        covered = sorted(x for c in normalized for x in c)
        if covered not in (list(range(1, m + 1)), list(range(1, m + 2))):
            raise ValueError(f"classes must cover 1..{m}, or 1..{m + 1} with the center, exactly once")
        self.m = m
        self.classes = normalized

    @property
    def has_center(self) -> bool:
        """Whether a class holds the center m+1: the classes cover m points, or m+1."""
        return sum(map(len, self.classes)) > self.m

    def to_partition(self) -> Partition:
        """Point x becomes element x-1."""
        return Partition(self.m + self.has_center, [mask_of(x - 1 for x in c) for c in self.classes])

    def __repr__(self):
        body = ", ".join("{" + ",".join(str(x) for x in c) + "}" for c in self.classes)
        return f"<InitialPartition m={self.m} center={self.has_center} {body}>"


def develop(init: InitialPartition, name: str | None = None) -> PartitionSystem:
    """Rotate the initial partition m times; rotation 0 is the initial partition itself."""
    return orbit(init.to_partition(), [(0, init.m)], name)


class DifferenceCheck(NamedTuple):
    ok: bool
    problems: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def check_difference_property(init: InitialPartition) -> DifferenceCheck:
    """Decide whether developing the initial partition yields a Sperner system.

    Supports initial partitions whose classes have sizes 2..4; anything
    larger raises.
    """
    if any(not 2 <= len(c) <= 4 for c in init.classes):
        raise ValueError("unsupported initial shape")

    m, center = init.m, init.m + 1
    problems = []

    def distances(c):  # short way round, pairs with the center skipped
        return {min((x - y) % m, (y - x) % m) for x, y in combinations(c, 2) if center not in (x, y)}

    edges = [(c, d) for c in init.classes if len(c) == 2 for d in distances(c)]
    larges = [(c, distances(c)) for c in init.classes if len(c) >= 3]

    counts = Counter(d for _, d in edges)
    for d, cnt in sorted(counts.items()):
        if cnt > 1:
            problems.append(f"edge difference {d} is used by {cnt} edges")

    if m % 2 == 0:
        for c, d in edges:
            if d == m // 2:
                problems.append(
                    f"edge {set(c)} realizes the diameter {m // 2} and repeats when developed"
                )

    for c, d in edges:
        for lc, ld in larges:
            if d in ld:
                problems.append(
                    f"edge difference {d} of {set(c)} also occurs inside class {set(lc)}"
                )

    # Orbit enumeration: every rotated copy of every large class must be
    # distinct from (and incomparable with) every other copy.  owner maps
    # each copy to the class it came from; repeats and collisions show up
    # as copies already owned, containments between copies of different
    # sizes through model.containments.
    owner: dict[int, tuple[int, ...]] = {}
    for c, _ in larges:
        mask = mask_of(x - 1 for x in c)
        for t in range(m):
            (rot,) = _turn([mask], t, [(0, m)])
            if rot in owner:
                if owner[rot] == c:
                    problems.append(f"class {set(c)} repeats itself when developed")
                else:
                    problems.append(
                        f"classes {set(owner[rot])} and {set(c)} collide when developed"
                    )
                break
            owner[rot] = c
    for _, sup in containments(owner):
        problems.append(f"a developed copy of {set(owner[sup])} contains a smaller developed class")

    return DifferenceCheck(not problems, tuple(problems))


# The seed of the paper's Figure 2 (the (17, 8) system).
_FIG2_CLASSES = ((1, 5, 9), (8, 11), (7, 12), (6, 13), (2, 16), (4, 10), (3, 17), (14, 15))


def _starter_runs(h: int) -> list[tuple[int, Iterable[int]]]:
    """The edge runs (2c, D) of solve_initial_2k1 for k = 2h, h = 3 or h >= 5."""
    if h % 2:
        return [
            (0, range(2, 2 * h - 1, 2)),
            (4 * h - 1, range(h + 2, 2 * h, 2)),
            (3 * h, (1,)),
            (4 * h + 1, range(3, h - 1, 2)),
        ]
    a = -(-h // 4) - 2
    return [
        (1, (1,)),
        (3 * h - 2 * a + 1, range(3, 2 * h, 2)),
        (7 * h - 2 * a, [*range(2, h - 1, 2), *range(h + 2 * a + 4, 2 * h - 1, 2)]),
        (7 * h - 2 * a - 2, range(h + 2, h + 2 * a + 1, 2)),
        (4 * h + 4, (h + 2 * a + 2,)),
    ]


def solve_initial_2k1(k: int) -> InitialPartition:
    """The initial partition for the (2k+1, k) rotational construction, k even.

    The layout is a 2k-circle plus center.  The triangle is forced to be
    {1, 1+k/2, 1+k} up to rotation: it must realize the diameter k (an
    edge realizing k would repeat when developed) and only one other
    distance, which pins the circular gaps to (k/2, k/2, k).  The k-1
    edges must then realize each distance in {1..k} minus {k/2, k} once
    and one of them hold the center, a Skolem-type starter problem.

    It has a closed form.  On the points 0..2k-1, each run (2c, D) of
    _starter_runs places the edges {c - d/2, c + d/2} mod 2k, d in D;
    edges sharing a midpoint nest, so they never meet.  The runs realize
    each finite distance once and leave four points: a triangle
    {t, t+k/2, t+k} and one point e.  Rotating by x -> (x - t) mod 2k + 1
    puts the triangle in place, and e joins the center, labeled 2k+1.
    The runs for k = 0 mod 4 need k >= 12, so k = 8 takes the seed of the
    paper's Figure 2.  No initial partition exists for k = 4 (all 1,260
    candidates fail), and that case raises.  The result is not checked
    here: construct_2k1 verifies the system it develops.
    """
    if k < 2 or k % 2:
        raise ValueError("construction requires even k")
    if k == 2:
        raise ValueError("use construct_k2 for k = 2")
    if k == 4:
        raise ValueError(f"no initial partition with the difference property exists for k={k}")
    m, h = 2 * k, k // 2
    if k == 8:
        classes = _FIG2_CLASSES
    else:
        edges = [((s - d) // 2 % m, (s + d) // 2 % m) for s, ds in _starter_runs(h) for d in ds]
        free = set(range(m)).difference(*edges)
        corners = [x for x in sorted(free) if {(x + h) % m, (x + k) % m} <= free]
        if len(free) != 4 or not corners:
            raise RuntimeError(f"internal error: the starter edges for k={k} overlap")
        t = corners[0]
        (e,) = free - {t, (t + h) % m, (t + k) % m}
        classes = [(1, 1 + h, 1 + k), ((e - t) % m + 1, m + 1)]
        classes += [((x - t) % m + 1, (y - t) % m + 1) for x, y in edges]
    return InitialPartition(m, classes)
