"""Exhaustive maximum-system search via maximum clique.

Candidate k-partitions, with classes of at least 2 elements, are
generated block by block (the block holding the smallest unplaced
element is drawn from the rest with itertools.combinations, the last
block is what remains) and sorted into canonical lexicographic order by
one string key per candidate, as serialize sorts.  _candidate_rows yields
them as rows of class masks; solve_sp searches those rows and builds
Partitions only for its witness.  enumerate_partitions wraps the rows in
a PartitionSystem, the family type of the whole package, so serialize
and verify_sperner take them as they take any system.  candidate_count
counts them without enumerating, so solve_sp refuses a search whose
adjacency would be too large before enumerating.
Their pairwise-compatibility graph is built (two partitions are adjacent
iff all their classes are mutually incomparable) from per-class conflict
masks, ORed down and up the lattice of classes (_lattice).  A full
candidate set holds every set in its size range, so its lattice steps
one element at a time; a class set with gaps reads model.containments,
the same class-containment index the verifier reads.  A maximum Sperner
system is a largest subfamily of the candidates whose classes form an
antichain, which is exactly a maximum clique in that graph.

The clique solver is a deterministic branch-and-bound with greedy-coloring
upper bounds over bitmask candidate sets.  One routine, _color, does every
coloring.  Vertex order is the candidate index: candidates sharing a class
are non-adjacent and consecutive in canonical order, so greedy coloring
packs them into few color classes, which is what makes the dense instances
tractable (the whole (9,4) graph gets 15 colors this way).  Coloring
below the pruning threshold is not recorded, only the vertices that can
still extend the incumbent are.  One engine, _clique_search, runs every
search as a sequence of units (P, root), each colored, seeded greedily and
then branched on.  The plain search has one unit, the whole graph, whose
top color is its stop bound.  Every new incumbent, a greedy seed first,
meets one stop rule: the search stops once it reaches the target or the
stop bound, whichever is less, and is proven exactly when it is short of
the target.

A graph that carries its full candidate set also gets the symmetry of
the problem.  Every k-partition with classes of at least 2 elements is
there, so the set is closed under relabeling the ground set, and a
relabeled clique is again a clique.  If the vertices fall into groups
that such relabelings permute, any clique meeting a group can be moved
to contain the group's first member.  The search therefore branches on
one representative per group and then drops the group, at two levels:
the orbits of S_n at the root, and under a root R the orbits of the
relabelings that permute elements inside each class of R.  The first
are the class-size shapes, the second are named by _orbit_key.  Groups
are visited one after another and each is dropped once searched; since
every group is invariant, the moved clique avoids the dropped groups
too, so the pruning loses no maximum.  Each
root is a unit that only ever reads the rows of its neighbourhood P, and
then one slice of P at a time: the coloring reads each row once, a seed
try the rows of its start's neighbourhood, a depth-2 group the rows of
its own P2.  So the reduced search (_reduced_search, which solve_sp and
max_clique both run) holds no rows of P: it keeps one conflict mask per
distinct class over P, computes each row the coloring reads, and builds
each try's and each group's rows, freeing them before the next.
The stop bound is bounds._proved_upper, the upper bound that sp_bounds
prints less the two values it cites from computer searches, SP(7,3) = 5
and SP(10,4) = 10.  Any other graph gets the plain search on its own
rows, and CompatibilityGraph(graph.adj) runs it on a candidate graph.
"""

from __future__ import annotations

import heapq
import time
from array import array
from collections.abc import Iterable, Iterator
from functools import cache
from itertools import combinations, compress
from math import inf, isnan
from typing import NamedTuple

from .bounds import _proved_upper
from .model import Partition, PartitionSystem, _malformed_rows, containments, elements_of, verify_sperner

__all__ = [
    "CompatibilityGraph",
    "SearchOutcome",
    "candidate_count",
    "enumerate_partitions",
    "build_graph",
    "max_clique",
    "solve_sp",
]


class CompatibilityGraph(NamedTuple):
    """Symmetric adjacency over candidate partitions, one bitmask row per vertex."""

    adj: tuple[int, ...]
    candidates: PartitionSystem | None = None

    @property
    def num_vertices(self) -> int:
        return len(self.adj)


class SearchOutcome(NamedTuple):
    """Result of a clique search; best is None for graphs without candidates attached.

    root_bound is the bound that stops the search proven: the top color of
    the whole graph on the plain path, and on the reduced one the upper
    bound on SP(n, k) that sp_bounds prints, less the two values it cites
    from computer searches (bounds._proved_upper).
    """

    best: PartitionSystem | None
    vertices: tuple[int, ...]
    size: int
    proven_optimal: bool
    nodes_explored: int
    elapsed: float
    root_bound: int


def candidate_count(n: int, k: int) -> int:
    """How many candidates enumerate_partitions yields, counted without enumerating.

    Counted by the block of the last of i elements: either it is a pair,
    with one of the other i-1 elements, and the i-2 left form one block
    fewer, or removing that element leaves a partition of the other i-1
    into j blocks, and it joins one of the j.  So the work is n * k steps.
    """
    if n < 0 or k < 1:
        return 0
    older, old = [0] * (k + 1), [1] + [0] * k  # old[j]: partitions of i elements into j blocks
    for i in range(1, n + 1):
        older, old = old, [0] + [j * old[j] + (i - 1) * older[j - 1] for j in range(1, k + 1)]
    return old[k]


def enumerate_partitions(n: int, k: int) -> PartitionSystem:
    """The system of all k-partitions of {0..n-1} into classes of at least 2 elements, each once.

    A singleton class lies inside the class holding its element in every
    other partition, so a system of two or more partitions holds only
    these, and n < 2k has none.  The partitions are the rows of
    _candidate_rows, in its order, which is that of their element tuples
    (class_sets).
    """
    return PartitionSystem(n, k, (Partition._from_canonical(n, k, row) for row in _candidate_rows(n, k)))


def _candidate_rows(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Each candidate's class masks in canonical order, the candidates in canonical order.

    Generation goes block by block.  The next block holds the smallest
    element not yet placed, and its other elements are drawn with
    itertools.combinations from the rest; its size leaves 2 elements for
    each block still to come, and the last block is whatever remains.  So
    every partition appears once.  A block is a string of codes, the
    character e + 1 for each element e, and a candidate is one key while
    the candidates are sorted: its blocks in canonical order, stable-sorted
    by size since they open in ascending smallest element, joined by the
    code 0.  String order on the keys is the order of the candidates'
    element tuples, since a class that is a prefix of another ends with 0
    where the other goes on with a larger code.  No element tuple is built.
    Each row is read off its key, with a mask made once per distinct class,
    and the key is dropped as its row is yielded, so the keys and the rows
    taken so far make up one candidate set between them.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if n < 2 * k:
        raise ValueError(f"no candidates: n={n} cannot hold {k} classes of size >= 2")
    if k == 1:  # the one candidate, whose codes could pass chr's range
        yield ((1 << n) - 1,)
        return
    keys: list[str] = []
    blocks: list[str] = []  # the blocks placed so far, ascending smallest element

    def rec(rest: str, left: int) -> None:
        if left == 1:
            blocks.append(rest)
            keys.append("\0".join(sorted(blocks, key=len)))
            blocks.pop()
            return
        first, others = rest[0], rest[1:]
        for size in range(2, len(rest) - 2 * (left - 1) + 1):
            for combo in combinations(others, size - 1):
                block = first + "".join(combo)
                blocks.append(block)
                rec("".join([c for c in others if c not in block]), left - 1)
                blocks.pop()

    rec("".join(map(chr, range(1, n + 1))), k)
    rec = None  # rec calls itself through its cell; clearing it leaves no cycle for the collector
    mask = cache(lambda codes: sum([1 << ord(c) - 1 for c in codes]))
    keys.sort(reverse=True)  # popped from the end, so yielded ascending
    while keys:
        yield tuple(map(mask, keys.pop().split("\0")))


def _owners(keys: Iterable[Iterable], num: int) -> dict:
    """owners[x]: the mask of the vertices v among num whose keys[v] hold x.

    Each mask's bits are set in one bytearray, which is then read as an
    int in its place; OR-ing 1 << v into a growing int instead costs a pass
    over it per vertex.  The masks come in order of their first vertex.
    """
    size = -(-num // 8)
    owners: dict = {}
    for v, held in enumerate(keys):
        i, bit = v >> 3, 1 << (v & 7)
        for x in held:
            buf = owners.get(x)
            if buf is None:
                buf = owners[x] = bytearray(size)
            buf[i] |= bit
    for x, buf in owners.items():
        owners[x] = int.from_bytes(buf, "little")
    return owners


def _lattice(classes: Iterable[int]) -> tuple[dict[int, list[int]], dict[int, list[int]]]:
    """(below, above) over the classes given, keyed in ascending size, for _conflicts.

    below[c] holds classes inside c from which every class inside c is
    reached by steps down: the classes c less one element, when each of
    those is a class, and otherwise every class properly inside c
    (model.containments).  A full candidate set holds every set in its
    size range, so there each step is one element and containments is
    not run.  above[d] holds the c whose below holds d.
    """
    below: dict[int, list[int]] = {}
    loose = set()  # classes with a class inside them that no step reaches
    for c in sorted(classes, key=int.bit_count):
        steps = [c ^ 1 << e for e in elements_of(c)]
        if all(step in below for step in steps):
            below[c] = steps
        else:
            below[c] = []
            loose.add(c)
    # a loose class of the smallest size has no class inside it
    if loose and max(map(int.bit_count, loose)) > min(map(int.bit_count, below)):
        for sub, sup in containments(below):
            if sup in loose:
                below[sup].append(sub)
    above: dict[int, list[int]] = {c: [] for c in below}
    for c, steps in below.items():
        for d in steps:
            above[d].append(c)
    return below, above


def _conflicts(owners: dict[int, int], lattice: tuple[dict, dict]) -> dict[int, int]:
    """conflict[c]: the vertices holding class c or a present proper subset or superset of it.

    owners[c] are the vertices holding c (_owners).  Over the lattice
    (_lattice) of a superset of these classes, down[c] ORs the owners of
    every class inside c, smallest classes first, and up[c] of every class
    around it, largest first; a class no vertex holds adds nothing.
    """
    below, above = lattice
    down: dict[int, int] = {}
    for c, steps in below.items():
        mask = owners.get(c, 0)
        for d in steps:
            mask |= down[d]
        down[c] = mask
    up: dict[int, int] = {}
    for c in reversed(above):
        mask = owners.get(c, 0)
        for d in above[c]:
            mask |= up[d]
        up[c] = mask
    return {c: down[c] | up[c] for c in owners}


def _blocked(classes: tuple[int, ...], conflict: dict[int, int]) -> int:
    """The vertices that conflict with a partition of these classes, the partition itself included."""
    blocked = 0
    for c in classes:
        blocked |= conflict[c]
    return blocked


class _StreamedRows:
    """Adjacency rows over a list of partitions' class masks, each built when it is asked for.

    Only the conflict masks are held, one per distinct class (_conflicts).
    lattice (_lattice) may cover more classes than these; given, it is
    not found again.  rows[v] is v's row: the complement of the union of
    its classes' conflicts.  rows.of(S) builds the rows of the set S
    alone, numbered in S's ascending vertex order, as (rows, S in that
    numbering, S's vertices); the caller drops them when done.
    """

    def __init__(self, masks_list: list[tuple[int, ...]], lattice: tuple[dict, dict] | None = None):
        owners = _owners(masks_list, len(masks_list))
        self.masks_list, self.lattice = masks_list, _lattice(owners) if lattice is None else lattice
        self.conflict = _conflicts(owners, self.lattice)
        self.full = (1 << len(masks_list)) - 1

    def __getitem__(self, v: int) -> int:
        return self.full ^ _blocked(self.masks_list[v], self.conflict)

    def of(self, S: int) -> tuple[tuple[int, ...], int, array]:
        members = array("l", _set_bits(S))  # 8 bytes a vertex, not an int object each
        rows = _adjacency([self.masks_list[v] for v in members], self.lattice)
        return rows, (1 << len(members)) - 1, members


def _adjacency(masks_list: list[tuple[int, ...]], lattice: tuple[dict, dict] | None = None) -> tuple[int, ...]:
    """One row per partition's class masks (_StreamedRows), all of them built and kept."""
    rows = _StreamedRows(masks_list, lattice)
    full, conflict = rows.full, rows.conflict
    return tuple([full ^ _blocked(classes, conflict) for classes in masks_list])


def build_graph(candidates: PartitionSystem) -> CompatibilityGraph:
    """Adjacency from the class-containment index rather than pairwise scans.

    Vertices conflict iff they share a class or one has a class properly
    inside a class of the other; everything else is an edge (_adjacency).
    """
    return CompatibilityGraph(_adjacency([p.classes for p in candidates.partitions]), candidates)


def _color(P: int, adj, threshold: int = 0) -> tuple[list[int], list[int]]:
    """Greedy sequential coloring of P in vertex order (Tomita's MCS, San Segundo's BBMC).

    adj is the graph's own adjacency rows; v's neighbours leave the color
    class as Q & adj[v], so the search keeps no complement rows.  Returns
    the vertices whose color is above threshold, in coloring order, with
    their colors, which ascend; vertices of a lower color are colored but
    not recorded.
    """
    order: list[int] = []
    colors: list[int] = []
    color = 0
    while P:
        color += 1
        Q = P
        if color > threshold:
            while Q:
                lsb = Q & -Q
                v = lsb.bit_length() - 1
                order.append(v)
                colors.append(color)
                Q ^= Q & adj[v] | lsb
                P ^= lsb
        else:
            while Q:
                lsb = Q & -Q
                Q ^= Q & adj[lsb.bit_length() - 1] | lsb
                P ^= lsb
    return order, colors


_BIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


def _set_bits(P: int) -> list[int]:
    """Ascending indices of P's set bits, read off its binary string in one pass.

    Peeling P & -P instead costs a pass over the whole int per set bit.
    """
    digits = bin(P)[:1:-1].encode().translate(_BIT_VALUES)
    return list(compress(range(len(digits)), digits))


_GREEDY_TRIES = 24


class _Degrees:
    """A unit's rows as its coloring reads them, each once, noting each vertex's degree in P.

    degree[v] orders _greedy_clique's starts, so the seed makes no second
    pass over P's rows.
    """

    def __init__(self, adj, P: int):
        self.adj, self.P, self.degree = adj, P, array("l", [0]) * P.bit_length()

    def __getitem__(self, v: int) -> int:
        row = self.adj[v]
        self.degree[v] = (row & self.P).bit_count()
        return row


def _greedy_clique(adj, P: int, bound: int, deadline: float = inf, degree=None) -> int:
    """Deterministic greedy lower bound: best clique mask inside P over a few dense seeds.

    Starts are P's vertices of most neighbours in P, ties by index, read
    off degree[v] when a coloring pass has counted them (_Degrees).  A try
    from s repeatedly picks, among s's neighbours left in P, the one with
    most neighbours among those left.  Stored rows serve it as they are;
    streamed rows build the rows of s's neighbourhood in P alone
    (_StreamedRows.of), dropped before the next try builds its own.  The
    first try always completes, so a clique is reported even when the
    deadline has already passed; later tries stop at the deadline or once
    a clique meets the bound.
    """
    if degree is None:
        degree = {v: (adj[v] & P).bit_count() for v in _set_bits(P)}
    best = 0
    for s in heapq.nsmallest(_GREEDY_TRIES, _set_bits(P), key=lambda v: (-degree[v], v)):
        S = adj[s] & P
        sub, Q, members = adj.of(S) if isinstance(adj, _StreamedRows) else (adj, S, None)
        clique = 0
        while Q:
            pick, pick_score = -1, -1
            for v in _set_bits(Q):
                score = (sub[v] & Q).bit_count()
                if score > pick_score:
                    pick_score, pick = score, v
            clique |= 1 << pick
            Q &= sub[pick]
        if members is not None:
            clique = sum([1 << members[v] for v in _set_bits(clique)])
        sub = members = None  # this try's rows go before the next try builds its own
        clique |= 1 << s
        if clique.bit_count() > best.bit_count():
            best = clique
        if best.bit_count() >= bound or time.perf_counter() > deadline:
            break
    return best


def _orbit_key(fixed: tuple[int, ...], classes: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Orbit of a partition under the relabelings that fix every class of another.

    fixed are the classes R_1..R_k of the root partition, in their stored
    order; classes are those of a candidate Q.  The key is the sorted tuple
    of columns (|R_i & Q_j|)_i over Q's classes j.  Two partitions get the
    same key iff a permutation inside each R_i maps one onto the other.
    """
    return tuple(sorted([tuple([(r & c).bit_count() for r in fixed]) for c in classes]))


def _is_candidate_set(cand: PartitionSystem | None) -> bool:
    """Whether cand is enumerate_partitions(n, k) in any order.

    Only that set is closed under relabeling the ground set, which the
    reduced search relies on.  The distinct k-partitions of {0..n-1} with
    classes of at least 2 elements number candidate_count(n, k), so that
    many distinct ones are all of them.
    """
    if cand is None or not cand.partitions:
        return False
    n, k = cand.n, cand.k
    rows = [p.classes for p in cand.partitions]
    return (
        len(rows) == candidate_count(n, k)  # first: it turns most other graphs away cheaply
        and min(row[0].bit_count() for row in rows) >= 2  # canonical order: smallest class first
        and next(_malformed_rows(rows, n, k), None) is None
        and len(set(rows)) == len(rows)
    )


class _Stop(Exception):
    def __init__(self, proven: bool):
        self.proven = proven


def _roots(classes: list[tuple[int, ...]], neighbourhood) -> list[tuple[int, int]]:
    """The reduced search's units (P, R), largest N(R) first, ties by index.

    R is the first candidate of its class-size shape, an orbit of S_n;
    neighbourhood(R) gives N(R) as a mask over the candidates, and P is
    N(R) less the shapes of the roots before R.
    """
    # classes are in canonical order, by size, so their sizes name the shape
    shapes = _owners(((tuple(map(int.bit_count, c)),) for c in classes), len(classes))
    roots = []
    for shape in shapes.values():
        r = (shape & -shape).bit_length() - 1
        roots.append((neighbourhood(r), r, shape))
    roots.sort(key=lambda root: (-root[0].bit_count(), root[1]))
    units, alive = [], (1 << len(classes)) - 1
    for nbhd, r, shape in roots:
        units.append((nbhd & alive, r))
        alive ^= shape
    return units


def _start(time_budget: float | None, target: int | None) -> tuple[float, float, float]:
    """Start the clock: (t0, deadline, target), a missing budget or target being inf.

    A NaN budget, which no clock reading would ever pass, or a NaN target,
    which would switch the stop bound off, raises ValueError.
    """
    t0 = time.perf_counter()
    if time_budget is not None and isnan(time_budget):
        raise ValueError("the time budget is NaN; give a number of seconds")
    if target is not None and isnan(target):
        raise ValueError("the target is NaN; give a number of partitions")
    return t0, inf if time_budget is None else t0 + time_budget, inf if target is None else target


def _clique_search(units, bound: int | None, target: float, deadline: float, t0: float) -> SearchOutcome:
    """Branch and bound over units; the one search engine.

    A unit is (P, rows, members, root, fixed): P in the unit's own
    numbering, rows[v] the row of its vertex v, and members[i] the
    candidate of vertex i (None keeps the numbering).  root, if not None,
    is the candidate added to each of the unit's cliques, fixed its class
    masks, and rows are then _StreamedRows.  A unit searches the cliques
    inside P.  It is colored (_color), which reads each vertex's row once
    and counts its degree in P (_Degrees), and skipped when that cannot
    beat the incumbent; otherwise the greedy seed runs inside P, the clock
    is polled once, and the unit branches.  The plain search expands on
    its coloring in its own rows; a root groups P by _orbit_key over its
    classes (grouped), and each group expands in the rows of its own P2,
    dropped before the next group builds its own.  bound None takes the
    first unit's top color as the bound (the plain search's one unit is
    the whole graph).  Every new incumbent meets one stop rule,
    best >= min(target, bound), and the search is proven exactly when
    best < target.  The outcome's best is None; the caller builds the
    witness off its vertices.
    """
    best = nodes = 0
    best_vertices: tuple[int, ...] = ()

    def improve(size: int, clique: int) -> None:
        """clique, in the numbering of the rows being searched, with held, is the new incumbent."""
        nonlocal best, best_vertices
        vertices = _set_bits(clique)
        for numbering in (inner, members):  # a group's rows, then the unit's, back to the candidates
            if numbering is not None:
                vertices = [numbering[v] for v in vertices]
        best, best_vertices = size, tuple(sorted(vertices + held))
        if best >= min(target, bound):
            raise _Stop(best < target)

    def expand(size: int, clique: int, P: int, coloring=None) -> None:
        """Branch on P's vertices in adj, highest color first; a unit passes its coloring."""
        nonlocal nodes
        if coloring is None:
            nodes += 1
            if nodes % 2048 == 0 and time.perf_counter() > deadline:
                raise _Stop(False)
            coloring = _color(P, adj, best - size)
        order, colors = coloring
        for i in range(len(order) - 1, -1, -1):
            if size + colors[i] <= best:
                return
            v = order[i]
            bit = 1 << v
            extended = clique | bit
            if size + 1 > best:
                improve(size + 1, extended)
            P2 = P & adj[v]
            if P2:
                expand(size + 1, extended, P2)
            P &= ~bit

    def grouped(P: int, coloring) -> None:
        """Depth 2: group P by the root's _orbit_key; branch on each group's first vertex, then drop it.

        coloring is the unit's.  Groups go in descending order of their
        highest greedy color, so the color bound prunes the rest as in
        expand.  A group whose first vertex Q leaves P2 = P & N(Q) big
        enough expands in P2's own rows, with root and Q held.  A pair
        {root, Q} never improves the incumbent: the first unit with a
        vertex in P has a seed of at least that vertex.
        """
        nonlocal adj, inner, held
        groups: dict = {}
        top: dict = {}
        for seen, (v, color) in enumerate(zip(*coloring), 1):
            g = _orbit_key(fixed, rows.masks_list[v])
            groups[g] = groups.get(g, 0) | (1 << v)
            top[g] = color
            if seen % 256 == 0 and time.perf_counter() > deadline:
                raise _Stop(False)
        for g in sorted(groups, key=top.__getitem__, reverse=True):
            if 1 + top[g] <= best:
                return
            group = groups[g]
            first = (group & -group).bit_length() - 1
            P2 = P & rows[first]
            if 2 + P2.bit_count() > best:
                adj, P2, inner = rows.of(P2)
                held = [root, members[first]]
                expand(2, 0, P2)
                adj = inner = None  # free this group's rows before the next group builds its own
            P &= ~group

    try:
        for P, rows, members, root, fixed in units:
            inner, held = None, [] if root is None else [root]
            degrees = _Degrees(rows, P)
            coloring = _color(P, degrees)
            top = coloring[1][-1] if P else 0
            if bound is None:
                bound = top
            if len(held) + top > best:
                seed = _greedy_clique(rows, P, min(target, bound) - len(held), deadline, degrees.degree)
                if len(held) + seed.bit_count() > best:
                    improve(len(held) + seed.bit_count(), seed)
                if time.perf_counter() > deadline:
                    raise _Stop(False)
                if root is None:
                    adj = rows
                    expand(0, 0, P, coloring)
                else:
                    grouped(P, coloring)
            # free this unit's masks before the next unit builds its own
            rows = adj = members = fixed = degrees = coloring = None
        proven = True
    except _Stop as stop:
        proven = stop.proven
    finally:
        # expand reaches itself through its closure cell; clearing that cell
        # breaks the cycle, so the rows it reaches go on return, not at the
        # next collection, however the search ended
        expand = None

    return SearchOutcome(
        best=None,
        vertices=best_vertices,
        size=best,
        proven_optimal=proven,
        nodes_explored=nodes,
        elapsed=time.perf_counter() - t0,
        root_bound=bound,
    )


def _reduced_search(
    n: int, k: int, classes: list[tuple[int, ...]], target: float, deadline: float, t0: float
) -> SearchOutcome:
    """The reduced search of the module docstring over a full candidate set's class masks, in any order.

    Its stop bound, reported as root_bound, is bounds._proved_upper.  Roots
    go in descending order of |N(R)|, ties by index, each N(R) read off the
    conflict masks of all the candidates, which then go.  A root's unit
    holds the conflict masks of its P, N(R) less the shapes already
    visited, over P's own numbering (_StreamedRows); they are built when
    the unit is reached, after a poll of the clock for every unit but the
    first, so an expired budget builds no further masks.  The unit colors
    P and is skipped when 1 plus the top color cannot beat the incumbent;
    otherwise the greedy seed runs inside P.  Under a root, groups go in
    descending order of the highest greedy color among their members, so
    once 1 plus that color cannot beat the incumbent, no later group can.
    """
    rows = _StreamedRows(classes)
    roots, lattice = _roots(classes, rows.__getitem__), rows.lattice
    del rows  # the roots' neighbourhoods are all the search needs of its conflict masks

    def units():
        for i, (P, root) in enumerate(roots):
            if i and time.perf_counter() > deadline:
                raise _Stop(False)
            members = array("l", _set_bits(P))
            rows = _StreamedRows([classes[v] for v in members], lattice)
            yield rows.full, rows, members, root, classes[root]
            rows = members = None  # free this unit's masks before the next unit builds its own

    return _clique_search(units(), _proved_upper(n, k)[0], target, deadline, t0)


def max_clique(
    graph: CompatibilityGraph,
    time_budget: float | None = None,
    target: int | None = None,
    symmetry_reduction: bool = False,
) -> SearchOutcome:
    """Deterministic branch-and-bound maximum clique.

    With no budget and no target the result is a proven maximum.  One rule
    stops the search on a new incumbent, each greedy seed included: a met
    target stops it unproven (a seed's tries end at the first clique that
    meets the target), and reaching the stop bound stops it, proven.  An
    expired time budget returns the best clique found so far; the clock is
    polled after each seed, then every 2048 nodes and, on the reduced path,
    before each root after the first and every 256 grouped vertices.  A NaN
    time_budget or target raises ValueError (see _start).

    The graph picks the path.  A graph whose candidates are a full
    candidate set (_is_candidate_set) gets the reduced search that solve_sp
    runs (_reduced_search), on the candidates' class masks; it reads no row
    of graph.adj.  Any other graph gets the plain search on graph.adj: it
    colors the whole graph once, the top color is the stop bound, and it
    branches on that coloring as on any other node, highest color first.
    To run it on a candidate graph, as a cross-check, pass
    CompatibilityGraph(graph.adj).
    symmetry_reduction is ignored; it stays for callers that still pass it.
    """
    t0, deadline, target = _start(time_budget, target)
    cand = graph.candidates
    if _is_candidate_set(cand):
        outcome = _reduced_search(cand.n, cand.k, [p.classes for p in cand.partitions], target, deadline, t0)
    else:
        adj = graph.adj
        outcome = _clique_search([((1 << len(adj)) - 1, adj, None, None, None)], None, target, deadline, t0)
    if cand is None:
        return outcome
    return outcome._replace(best=_witness(cand.n, cand.k, [cand.partitions[v] for v in outcome.vertices]))


def _witness(n: int, k: int, partitions: list[Partition]) -> PartitionSystem:
    return PartitionSystem(n, k, partitions, name=f"search({n},{k})")


# The largest search solve_sp admits, counted as the full adjacency of its
# N candidates, N bitmask rows of N bits, N * ceil(N/8) bytes, although the
# search only builds the rows of one seed try's or one depth-2 group's part
# of a root's neighbourhood at a time (at (11,4) the largest is 18,643 of
# the 56,980 candidates, so about 11% of these bytes).  The perfbench
# search cases stay far below it, the largest being (11,5) at 17,325
# candidates and 37.5 MB.  (11,4), 0.41 GB, is admitted (`search --n 11
# --k 4 --target 12` peaks at about 74 MB RSS, most of it the largest seed
# try's rows); (12,4), 302,995 candidates and 11.5 GB, is refused before
# enumeration.
MAX_ADJ_BYTES = 1_000_000_000


def solve_sp(
    n: int,
    k: int,
    time_budget: float | None = None,
    target: int | None = None,
) -> SearchOutcome:
    """Enumerate candidates, run the reduced search one root at a time, verify the witness.

    It never builds the full graph, nor a Partition per candidate: the
    candidates are _candidate_rows, and only the witness's rows become
    Partitions.  The search (_reduced_search) is the one
    max_clique(build_graph(enumerate_partitions(n, k))) runs, and
    max_clique(CompatibilityGraph(graph.adj)) is the plain one.  The clock
    starts here, so enumeration and the masks count against time_budget;
    the first root's seed always completes.  A search whose full adjacency
    would exceed MAX_ADJ_BYTES, or a NaN time_budget or target (see
    _start), raises ValueError before anything is enumerated.
    """
    t0, deadline, target = _start(time_budget, target)
    count = candidate_count(n, k)
    adj_bytes = count * -(-count // 8)
    if adj_bytes > MAX_ADJ_BYTES:
        raise ValueError(
            f"the search has {count:,} candidates, whose adjacency takes {adj_bytes:,} bytes, "
            f"over the cap of {MAX_ADJ_BYTES:,}"
        )
    classes = list(_candidate_rows(n, k))
    outcome = _reduced_search(n, k, classes, target, deadline, t0)
    best = _witness(n, k, [Partition._from_canonical(n, k, classes[v]) for v in outcome.vertices])
    if not verify_sperner(best).valid:
        raise RuntimeError("internal error: search witness failed verification")
    return outcome._replace(best=best)
