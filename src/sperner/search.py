"""Exhaustive maximum-system search via maximum clique.

Candidate k-partitions, with classes of at least 2 elements, are
generated block by block (the block holding the smallest unplaced
element is drawn from the rest with itertools.combinations, the last
block is what remains) and sorted into canonical lexicographic order.
They come back as a PartitionSystem, the family type of the whole
package, so serialize and verify_sperner take them as they take any
system.  candidate_count counts them without enumerating, so solve_sp
refuses a search whose adjacency would be too large before enumerating.
Their pairwise-compatibility graph is built (two partitions are adjacent
iff all their classes are mutually incomparable) from per-class conflict
masks read off model.containments, the same class-containment index the
verifier reads.  A maximum Sperner system is a largest subfamily of the
candidates whose classes form an antichain, which is exactly a maximum
clique in that graph.

The clique solver is a deterministic branch-and-bound with greedy-coloring
upper bounds over bitmask candidate sets.  One routine, _color, does every
coloring.  Vertex order is the candidate index: candidates sharing a class
are non-adjacent and consecutive in canonical order, so greedy coloring
packs them into few color classes, which is what makes the dense instances
tractable (the whole (9,4) graph gets 15 colors this way).  Coloring
below the pruning threshold is not recorded, only the vertices that can
still extend the incumbent are.  One engine, _clique_search, runs every
search as a sequence of units, each colored, seeded greedily and then
branched on.  The plain search has one unit, the whole graph, whose top
color is its stop bound.  Every new incumbent, a greedy seed first, meets
one stop rule: a met target stops the search unproven, the stop bound
stops it proven.

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
root is a unit that only ever reads the rows of its neighbourhood, so
solve_sp builds those rows one root at a time and never the whole graph,
and the stop bound is the least proved upper bound on SP(n, k) from the
bounds module.  Any other graph gets the plain search, and
CompatibilityGraph(graph.adj) runs it on a candidate graph.
"""

from __future__ import annotations

import time
from itertools import combinations, compress
from math import isnan
from typing import NamedTuple

from .bounds import _proved_upper
from .model import Partition, PartitionSystem, _malformed_rows, containments, verify_sperner

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
    the whole graph on the plain path, the least proved upper bound on
    SP(n, k) on the reduced one.
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
    these, and n < 2k has none.  Generation goes block by block.  The next
    block holds the smallest element not yet placed, and its other
    elements are drawn with itertools.combinations from the rest; its size
    leaves 2 elements for each block still to come, and the last block is
    whatever remains.  So every partition appears once, and each block's element
    tuple and mask are built once and shared by every candidate that
    holds it.  Blocks open in ascending smallest element, so a stable sort
    by size puts a candidate's classes in canonical order, and the
    candidates are sorted by those element tuples (class_sets).
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if n < 2 * k:
        raise ValueError(f"no candidates: n={n} cannot hold {k} classes of size >= 2")
    # one row per candidate: (element tuples, masks), both in canonical class order
    rows: list[tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]] = []
    blocks: list[tuple[tuple[int, ...], int]] = []  # (elements, mask), ascending first element

    def rec(rest: tuple[int, ...], rest_mask: int, left: int) -> None:
        if left == 1:
            blocks.append((rest, rest_mask))
            row = sorted(blocks, key=_block_size)
            rows.append((tuple([b[0] for b in row]), tuple([b[1] for b in row])))
            blocks.pop()
            return
        first, others = rest[0], rest[1:]
        for size in range(2, len(rest) - 2 * (left - 1) + 1):
            for combo in combinations(others, size - 1):
                mask = 1 << first
                for e in combo:
                    mask |= 1 << e
                blocks.append(((first, *combo), mask))
                rec(tuple([e for e in others if not mask >> e & 1]), rest_mask ^ mask, left - 1)
                blocks.pop()

    rec(tuple(range(n)), (1 << n) - 1, k)
    rows.sort()
    partitions = tuple(Partition._from_canonical(n, k, masks) for _, masks in rows)
    rows.clear()  # rec's closure keeps rows alive until the cycle is collected
    return PartitionSystem(n, k, partitions)


def _block_size(block: tuple[tuple[int, ...], int]) -> int:
    return len(block[0])


def _mask(vertices: list[int], num: int) -> int:
    """Bitmask of vertices among num, set in one bytearray.

    OR-ing 1 << v into a growing int instead costs a pass over it per vertex.
    """
    buf = bytearray(-(-num // 8))
    for v in vertices:
        buf[v >> 3] |= 1 << (v & 7)
    return int.from_bytes(buf, "little")


def _conflicts(masks_list: list[tuple[int, ...]]) -> dict[int, int]:
    """conflict[c]: the vertices holding class c or a present proper subset or superset of it.

    owners[c], the vertices holding c, is read off one vertex list per
    class, and each conflict adds the owners of the classes that
    model.containments pairs with it, once per distinct class.
    """
    num = len(masks_list)
    holders: dict[int, list[int]] = {}
    for v, classes in enumerate(masks_list):
        for c in classes:
            holders.setdefault(c, []).append(v)
    owners = {c: _mask(vertices, num) for c, vertices in holders.items()}
    del holders
    conflict = dict(owners)
    for sub, sup in containments(owners):
        conflict[sub] |= owners[sup]
        conflict[sup] |= owners[sub]
    return conflict


def _blocked(classes: tuple[int, ...], conflict: dict[int, int]) -> int:
    """The vertices that conflict with a partition of these classes, the partition itself included."""
    blocked = 0
    for c in classes:
        blocked |= conflict[c]
    return blocked


def build_graph(candidates: PartitionSystem) -> CompatibilityGraph:
    """Adjacency from the class-containment index rather than pairwise scans.

    Vertices conflict iff they share a class or one has a class properly
    inside a class of the other; everything else is an edge.  Each row is
    the complement of the union of its classes' conflict masks (_conflicts).
    """
    masks_list = [p.classes for p in candidates.partitions]
    conflict = _conflicts(masks_list)
    full = (1 << len(masks_list)) - 1
    adj = tuple([full ^ _blocked(classes, conflict) for classes in masks_list])
    return CompatibilityGraph(adj, candidates)


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


def _greedy_clique(adj, P: int, bound: int, deadline: float | None = None) -> int:
    """Deterministic greedy lower bound: best clique mask inside P over a few dense seeds.

    Starts are P's vertices of most neighbours in P, and each step picks
    the candidate with most neighbours among those left.  The first try
    always completes, so a clique is reported even when the deadline has
    already passed; later tries stop at the deadline or once a clique meets
    the bound.
    """
    best = 0
    starts = sorted(_set_bits(P), key=lambda v: (-(adj[v] & P).bit_count(), v))[:_GREEDY_TRIES]
    for s in starts:
        clique = 1 << s
        Q = adj[s] & P
        while Q:
            pick, pick_score = -1, -1
            for v in _set_bits(Q):
                score = (adj[v] & Q).bit_count()
                if score > pick_score:
                    pick_score, pick = score, v
            clique |= 1 << pick
            Q &= adj[pick]
        if clique.bit_count() > best.bit_count():
            best = clique
        if best.bit_count() >= bound or (deadline is not None and time.perf_counter() > deadline):
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


def _roots(classes: list[tuple[int, ...]], neighbourhood) -> list[tuple[int, int, int]]:
    """The reduced search's roots as (R, N(R), shape), largest N(R) first, ties by index.

    R is the first candidate of its class-size shape, an orbit of S_n, and
    shape is the mask of that orbit's candidates; neighbourhood(R) gives
    N(R) as a mask over the candidates.
    """
    shapes: dict[tuple[int, ...], list[int]] = {}
    for v, c in enumerate(classes):
        # classes are in canonical order, by size, so their sizes name the shape
        shapes.setdefault(tuple(map(int.bit_count, c)), []).append(v)
    roots = [(vs[0], neighbourhood(vs[0]), _mask(vs, len(classes))) for vs in shapes.values()]
    roots.sort(key=lambda root: (-root[1].bit_count(), root[0]))
    return roots


def _root_units(roots, classes, rows, deadline: float | None):
    """One search unit per root: rows(P) is (adj, P, classes, members) for P = N(R) less the shapes visited.

    P is given over the candidates; rows may renumber its vertices, and
    members[i] is then the candidate of local vertex i (None keeps the
    numbering).  Each unit comes with R and R's classes.  Before every
    root but the first the clock is polled, so an expired budget builds no
    further rows.
    """
    alive = (1 << len(classes)) - 1
    for i, (r, nbhd, shape) in enumerate(roots):
        if i and deadline is not None and time.perf_counter() > deadline:
            raise _Stop(False)
        yield (*rows(nbhd & alive), r, classes[r])
        alive ^= shape


def _clique_search(units, bound: int | None, target, deadline, cand, t0: float) -> SearchOutcome:
    """Branch and bound over units (adj, P, classes, members, root, fixed); the one search engine.

    A unit searches the cliques of adj inside P, with root, if not None,
    added to each.  It is colored first (_color) and skipped when that
    cannot beat the incumbent; otherwise the greedy seed runs inside P, the
    clock is polled once, and the unit branches: the plain search expands
    on its coloring, a root groups P by _orbit_key(fixed, ...) (grouped).
    bound None takes the first unit's top color as the bound (the plain
    search's one unit is the whole graph).  Every new incumbent meets one
    stop rule: a met target stops the search unproven, the bound stops it
    proven.
    """
    best = nodes = 0
    best_vertices: tuple[int, ...] = ()

    def improve(size: int, clique: int) -> None:
        nonlocal best, best_vertices
        vertices = _set_bits(clique)
        if members is not None:
            vertices = [members[v] for v in vertices]
        if root is not None:
            vertices.append(root)
        best, best_vertices = size, tuple(sorted(vertices))
        if target is not None and best >= target:
            raise _Stop(False)
        if best >= bound:
            raise _Stop(True)

    def expand(size: int, clique: int, P: int, coloring=None) -> None:
        """Branch on P's vertices, highest color first; a unit passes its coloring."""
        nonlocal nodes
        if coloring is None:
            nodes += 1
            if deadline is not None and nodes % 2048 == 0 and time.perf_counter() > deadline:
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

    def grouped(P: int, coloring, fixed: tuple[int, ...]) -> None:
        """Depth 2: group P by _orbit_key(fixed, ...); branch on each group's first vertex, then drop it.

        coloring is _color(P, adj).  Groups go in descending order of their
        highest greedy color, so the color bound prunes the rest as in
        expand.  A pair {root, v} never improves the incumbent: the first
        unit with a vertex in P has a seed of at least that vertex.
        """
        groups: dict = {}
        top: dict = {}
        for seen, (v, color) in enumerate(zip(*coloring), 1):
            g = _orbit_key(fixed, classes[v])
            groups[g] = groups.get(g, 0) | (1 << v)
            top[g] = color
            if deadline is not None and seen % 256 == 0 and time.perf_counter() > deadline:
                raise _Stop(False)
        for g in sorted(groups, key=top.__getitem__, reverse=True):
            if 1 + top[g] <= best:
                return
            group = groups[g]
            bit = group & -group
            P2 = P & adj[bit.bit_length() - 1]
            if 2 + P2.bit_count() > best:
                expand(2, bit, P2)
            P &= ~group

    try:
        for adj, P, classes, members, root, fixed in units:
            base = int(root is not None)
            coloring = _color(P, adj)
            top = coloring[1][-1] if P else 0
            if bound is None:
                bound = top
            if base + top > best:
                cap = bound if target is None else min(target, bound)
                seed = _greedy_clique(adj, P, cap - base, deadline)
                if base + seed.bit_count() > best:
                    improve(base + seed.bit_count(), seed)
                if deadline is not None and time.perf_counter() > deadline:
                    raise _Stop(False)
                if fixed is None:
                    expand(0, 0, P, coloring)
                else:
                    grouped(P, coloring, fixed)
            # free this unit's rows before the next unit builds its own
            adj = classes = members = coloring = None
        proven = True
    except _Stop as stop:
        proven = stop.proven

    system = None
    if cand is not None:
        parts = [cand.partitions[v] for v in best_vertices]
        system = PartitionSystem(cand.n, cand.k, parts, name=f"search({cand.n},{cand.k})")
    return SearchOutcome(
        best=system,
        vertices=best_vertices,
        size=best,
        proven_optimal=proven,
        nodes_explored=nodes,
        elapsed=time.perf_counter() - t0,
        root_bound=bound,
    )


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
    before each root after the first and every 256 grouped vertices.

    The graph picks the path.  A graph whose candidates are a full
    candidate set, closed under relabeling the ground set (see
    _is_candidate_set), gets the reduced search.  Its stop bound, reported
    as root_bound, is the least proved upper bound on SP(n, k)
    (bounds._proved_upper: the counting bound and the 2k+1 and 2k+2 caps),
    and it prunes at two levels:

    * Root: branch only on the first candidate R of each class-size shape,
      then drop that whole shape from the later roots.  Shapes are the
      orbits of S_n, so any clique can be relabeled to contain the
      representative of its earliest visited shape and no shape visited
      before it.  Roots go in descending order of |N(R)|, ties by index.
      Each root colors P, its neighbourhood N(R) less the dropped shapes,
      and is skipped when 1 plus the top color cannot beat the incumbent;
      otherwise the greedy seed runs inside P.
    * Depth 2: under root R, group P by _orbit_key, branch only on each
      group's first member, then drop the group.  The groups are exactly
      the orbits of the relabelings that fix every class of R; those fix R
      and its candidate set, so the same argument holds.  Groups go in
      descending order of the highest greedy color among their members, so
      once 1 plus that color cannot beat the incumbent, no later group can
      either.

    A root reads the graph's own rows, P being adj[R] less the dropped
    shapes, so no row is copied.  solve_sp builds the same rows one root at
    a time and explores the same nodes.

    Any other graph gets the plain search: it colors the whole graph once,
    the top color is the stop bound, and it branches on that coloring as on
    any other node, highest color first.  To run it on a candidate graph,
    as a cross-check, pass CompatibilityGraph(graph.adj).
    symmetry_reduction is ignored; it stays for callers that still pass it.
    """
    t0 = time.perf_counter()
    deadline = t0 + time_budget if time_budget is not None else None
    adj, cand = graph.adj, graph.candidates
    if not _is_candidate_set(cand):
        units = [(adj, (1 << len(adj)) - 1, None, None, None, None)]
        return _clique_search(units, None, target, deadline, cand, t0)
    classes = [p.classes for p in cand.partitions]
    roots = _roots(classes, adj.__getitem__)
    units = _root_units(roots, classes, lambda P: (adj, P, classes, None), deadline)
    return _clique_search(units, _proved_upper(cand.n, cand.k)[0], target, deadline, cand, t0)


# The largest search solve_sp admits, counted as the full adjacency of its
# N candidates, N bitmask rows of N bits, N * ceil(N/8) bytes, although the
# search only builds the rows of one root's neighbourhood at a time (35-55%
# of the candidates, so 12-30% of these bytes).  The perfbench search cases
# stay far below it, the largest being (11,5) at 17,325 candidates and
# 37.5 MB.  (11,4), 56,980 candidates and 0.41 GB, is admitted (`search --n
# 11 --k 4 --target 12` peaks at about 0.17 GB RSS); (12,4), 302,995
# candidates and 11.5 GB, is refused before enumeration.
MAX_ADJ_BYTES = 1_000_000_000


def solve_sp(
    n: int,
    k: int,
    time_budget: float | None = None,
    target: int | None = None,
) -> SearchOutcome:
    """Enumerate candidates, run the reduced search one root at a time, verify the witness.

    It never builds the full graph.  N(R) of each root comes from the
    per-class conflict masks, and the rows of P (see max_clique) are
    build_graph of that sub-system, freed before the next root's.  The
    search is the one max_clique(build_graph(enumerate_partitions(n, k)))
    runs, with the same nodes; max_clique(CompatibilityGraph(graph.adj)) is
    the plain one.  The clock starts here, so enumeration and the rows
    count against time_budget; the first root's seed always completes.  A
    search whose full adjacency would exceed MAX_ADJ_BYTES, or a NaN
    time_budget (no deadline would ever pass), raises ValueError before
    anything is enumerated.
    """
    t0 = time.perf_counter()
    if time_budget is not None and isnan(time_budget):
        raise ValueError("the time budget is NaN; give a number of seconds")
    count = candidate_count(n, k)
    adj_bytes = count * -(-count // 8)
    if adj_bytes > MAX_ADJ_BYTES:
        raise ValueError(
            f"the search has {count:,} candidates, whose adjacency takes {adj_bytes:,} bytes, "
            f"over the cap of {MAX_ADJ_BYTES:,}"
        )
    deadline = t0 + time_budget if time_budget is not None else None
    candidates = enumerate_partitions(n, k)
    parts = candidates.partitions
    classes = [p.classes for p in parts]
    full = (1 << len(parts)) - 1
    conflict = _conflicts(classes)
    roots = _roots(classes, lambda r: full ^ _blocked(classes[r], conflict))
    del conflict  # the roots' neighbourhoods are all the search needs of it

    def rows(P: int):
        members = _set_bits(P)
        sub = [parts[v] for v in members]
        adj = build_graph(PartitionSystem(n, k, sub)).adj
        return adj, (1 << len(members)) - 1, [p.classes for p in sub], members

    units = _root_units(roots, classes, rows, deadline)
    outcome = _clique_search(units, _proved_upper(n, k)[0], target, deadline, candidates, t0)
    assert outcome.best is not None
    report = verify_sperner(outcome.best)
    if not report.valid:
        raise RuntimeError("internal error: search witness failed verification")
    return outcome
