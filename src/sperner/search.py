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
iff all their classes are mutually incomparable) from
model.containments, the same class-containment index the verifier
reads.  A maximum Sperner system is a largest subfamily of the
candidates whose classes form an antichain, which is exactly a maximum
clique in that graph.

The clique solver is a deterministic branch-and-bound with greedy-coloring
upper bounds over bitmask candidate sets.  One routine, _color, does every
coloring.  Vertex order is the candidate index: candidates sharing a class
are non-adjacent and consecutive in canonical order, so greedy coloring
packs them into few color classes, which is what makes the dense instances
tractable (the (9,4) graph gets a 15-color root bound this way).  Coloring
below the pruning threshold is not recorded, only the vertices that can
still extend the incumbent are.  The graph is colored once at the root:
that coloring gives the root bound and orders the root, which the plain
search branches on like any node and the reduced path groups by shape.
Every new incumbent, the greedy seed first, meets one stop rule: a met
target stops the search unproven, the root bound stops it proven.

A graph that carries its full candidate set also gets the symmetry of
the problem.  Every k-partition with classes of at least 2 elements is
there, so the set is closed under relabeling the ground set, and a
relabeled clique is again a clique.  If the vertices fall into groups
that such relabelings permute, any clique meeting a group can be moved
to contain the group's first member.  The search therefore branches on
one representative per group and then drops the group, at two levels:
the orbits of S_n at the root, and under a root R the orbits of the
relabelings that permute elements inside each class of R.  One key,
_orbit_key, names both (the root's fixed partition is the one class of
the whole ground set).  Groups are visited one after another and each is
dropped once searched; since every group is invariant, the moved clique
avoids the dropped groups too, so the pruning loses no maximum.  Any
other graph gets the plain search, and CompatibilityGraph(graph.adj)
runs it on a candidate graph.
"""

from __future__ import annotations

import time
from itertools import combinations, compress
from math import isnan
from typing import NamedTuple

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
    """Result of a clique search; best is None for graphs without candidates attached."""

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


def build_graph(candidates: PartitionSystem) -> CompatibilityGraph:
    """Adjacency from the class-containment index rather than pairwise scans.

    Vertices conflict iff they share a class or one has a class properly
    inside a class of the other; everything else is an edge.  owners[c] is
    the bitmask of the vertices holding class c, set in one bytearray per
    class (OR-ing 1 << v into a growing int costs a pass over it per
    vertex), and conflict[c] adds the owners of every present proper
    subset and superset of c, read from model.containments once per
    distinct class.
    """
    masks_list = [p.classes for p in candidates.partitions]
    num = len(masks_list)

    holders: dict[int, list[int]] = {}
    for v, classes in enumerate(masks_list):
        for c in classes:
            holders.setdefault(c, []).append(v)
    owners: dict[int, int] = {}
    for c, vertices in holders.items():
        buf = bytearray(-(-num // 8))
        for v in vertices:
            buf[v >> 3] |= 1 << (v & 7)
        owners[c] = int.from_bytes(buf, "little")
    del holders

    conflict = dict(owners)
    for sub, sup in containments(owners):
        conflict[sub] |= owners[sup]
        conflict[sup] |= owners[sub]

    full = (1 << num) - 1
    adj = []
    for classes in masks_list:
        blocked = 0  # each conflict[c] holds v too, as an owner of c
        for c in classes:
            blocked |= conflict[c]
        adj.append(full ^ blocked)
    return CompatibilityGraph(tuple(adj), candidates)


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


def _greedy_clique(adj, bound: int, deadline: float | None = None) -> int:
    """Deterministic greedy lower bound: best clique mask over a few dense seeds.

    The first try always completes, so a clique is reported even when the
    deadline has already passed; later tries stop at the deadline or once
    a clique meets the upper bound.
    """
    best = 0
    starts = sorted(range(len(adj)), key=lambda v: (-adj[v].bit_count(), v))[:_GREEDY_TRIES]
    for s in starts:
        clique = 1 << s
        P = adj[s]
        while P:
            pick, pick_score = -1, -1
            for v in _set_bits(P):
                score = (adj[v] & P).bit_count()
                if score > pick_score:
                    pick_score, pick = score, v
            clique |= 1 << pick
            P &= adj[pick]
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


def max_clique(
    graph: CompatibilityGraph,
    time_budget: float | None = None,
    target: int | None = None,
    symmetry_reduction: bool = False,
) -> SearchOutcome:
    """Deterministic branch-and-bound maximum clique.

    With no budget and no target the result is a proven maximum.  One rule
    stops the search on a new incumbent, the greedy seed included: a met
    target stops it unproven (the seed's tries end at the first clique that
    meets the target), and reaching the root coloring bound stops it,
    proven.  An expired time budget returns the best clique found so far;
    the clock is polled once after the seed, then every 2048 nodes and,
    on the reduced path, every 256 grouped vertices.

    The root coloring that gives the bound also orders the root.  The graph
    picks the path.  A graph whose candidates are a full candidate set,
    closed under relabeling the ground set (see _is_candidate_set), gets
    the reduced search, which groups the root and prunes at two levels:

    * Root: branch only on the first candidate of each class-size shape,
      then drop that whole shape from the later roots.  Shapes are the
      orbits of S_n, so any clique can be relabeled to contain the
      representative of its earliest visited shape and no shape visited
      before it.
    * Depth 2: under root R, group the remaining neighbours by _orbit_key,
      branch only on each group's first member, then drop the group.  The
      groups are exactly the orbits of the relabelings that fix every class
      of R; those fix R and its candidate set, so the same argument holds.

    At both levels the groups are visited in descending order of the
    highest greedy color among their members, so once size plus that color
    cannot beat the incumbent, no later group can either.

    Any other graph gets the plain search, which branches on the root
    coloring as on any other node, highest color first.  To run it on a
    candidate graph, as a cross-check, pass CompatibilityGraph(graph.adj).
    symmetry_reduction is ignored; it stays for callers that still pass it.
    """
    t0 = time.perf_counter()
    num = graph.num_vertices
    adj = graph.adj
    cand = graph.candidates
    deadline = t0 + time_budget if time_budget is not None else None
    best = best_mask = nodes = root_bound = 0

    def improve(size: int, clique: int) -> None:
        nonlocal best, best_mask
        best, best_mask = size, clique
        if target is not None and best >= target:
            raise _Stop(False)
        if best >= root_bound:
            raise _Stop(True)

    def expand(size: int, clique: int, P: int, coloring=None) -> None:
        """Branch on P's vertices, highest color first; the root passes its coloring."""
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

    def grouped(size: int, clique: int, P: int, coloring, fixed: tuple[int, ...]) -> None:
        """Group P by _orbit_key(fixed, ...); branch on each group's first vertex, then drop the group.

        coloring is _color(P, adj).  Groups go in descending order of their
        highest greedy color, so the color bound prunes the rest as in
        expand.  The root (size 0) fixes the one class of the ground set and
        groups each representative's neighbours under its own classes; depth
        2 (size 1) expands.  Neither level can improve the incumbent: with an
        edge in the graph the greedy seed's first try starts at a vertex of
        largest degree and always completes, so it holds at least 2
        vertices; without one the root bound is 1 and the seed has stopped
        the search.
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
            if size + top[g] <= best:
                return
            group = groups[g]
            bit = group & -group
            v = bit.bit_length() - 1
            P2 = P & adj[v]
            if size + 1 + P2.bit_count() > best:
                if size:
                    expand(size + 1, clique | bit, P2)
                else:
                    grouped(1, bit, P2, _color(P2, adj), classes[v])
            P &= ~group

    try:
        if not num:
            raise _Stop(True)  # the empty graph: size 0, proven, no nodes
        full = (1 << num) - 1
        root_coloring = _color(full, adj)
        root_bound = root_coloring[1][-1]
        seed_bound = root_bound if target is None else min(target, root_bound)
        seed = _greedy_clique(adj, seed_bound, deadline)
        improve(seed.bit_count(), seed)
        if deadline is not None and time.perf_counter() > deadline:
            raise _Stop(False)
        if _is_candidate_set(cand):
            classes = [p.classes for p in cand.partitions]
            grouped(0, 0, full, root_coloring, ((1 << cand.n) - 1,))
        else:
            expand(0, 0, full, root_coloring)
        proven = True
    except _Stop as stop:
        proven = stop.proven

    vertices = tuple(_set_bits(best_mask))
    system = None
    if cand is not None:
        parts = [cand.partitions[v] for v in vertices]
        system = PartitionSystem(cand.n, cand.k, parts, name=f"search({cand.n},{cand.k})")
    return SearchOutcome(
        best=system,
        vertices=vertices,
        size=best,
        proven_optimal=proven,
        nodes_explored=nodes,
        elapsed=time.perf_counter() - t0,
        root_bound=root_bound,
    )


# The largest adjacency solve_sp builds: N candidates take N bitmask rows
# of N bits, N * ceil(N/8) bytes.  The search holds this one copy; the
# coloring reads the rows themselves.  The perfbench search cases stay far
# below it, the largest being (11,5) at 17,325 candidates and 37.5 MB.
# (11,4), 56,980 candidates and 0.41 GB, is admitted (`search --n 11 --k 4
# --target 12` peaks at about 0.47 GB RSS); (12,4), 302,995 candidates and
# 11.5 GB, is refused before enumeration.
MAX_ADJ_BYTES = 1_000_000_000


def solve_sp(
    n: int,
    k: int,
    time_budget: float | None = None,
    target: int | None = None,
) -> SearchOutcome:
    """Enumerate candidates, build the graph, run max_clique, verify the witness.

    The graph carries the full candidate set, so max_clique takes the
    symmetry-reduced path; max_clique(CompatibilityGraph(graph.adj)) is the
    plain one.  A search whose adjacency would
    exceed MAX_ADJ_BYTES, or a NaN time_budget (no deadline would ever
    pass), raises ValueError before anything is enumerated.
    """
    if time_budget is not None and isnan(time_budget):
        raise ValueError("the time budget is NaN; give a number of seconds")
    count = candidate_count(n, k)
    adj_bytes = count * -(-count // 8)
    if adj_bytes > MAX_ADJ_BYTES:
        raise ValueError(
            f"the search has {count:,} candidates, whose adjacency takes {adj_bytes:,} bytes, "
            f"over the cap of {MAX_ADJ_BYTES:,}"
        )
    candidates = enumerate_partitions(n, k)
    graph = build_graph(candidates)
    outcome = max_clique(graph, time_budget=time_budget, target=target)
    assert outcome.best is not None
    report = verify_sperner(outcome.best)
    if not report.valid:
        raise RuntimeError("internal error: search witness failed verification")
    return outcome
