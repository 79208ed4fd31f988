"""Exhaustive maximum-system search via maximum clique.

Candidate k-partitions are generated block by block (the block holding
the smallest unplaced element is drawn from the rest with
itertools.combinations, the last block is what remains) and sorted into
canonical lexicographic order.  They come back as a PartitionSystem, the
family type of the whole package, so serialize and verify_sperner take
them as they take any system.  candidate_count counts them without
enumerating, so solve_sp refuses a search whose adjacency would be too
large before enumerating.  Their pairwise-compatibility graph is built
(two partitions are adjacent iff all their classes are mutually
incomparable) from model.containments, the same class-containment index
the verifier reads.  A maximum Sperner system is a largest subfamily of
the candidates whose classes form an antichain, which is exactly a
maximum clique in that graph.

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

solve_sp also uses the symmetry of the problem.  The candidate set holds
every k-partition with the allowed class sizes, so it is closed under
relabeling the ground set, and a relabeled clique is again a clique.  If
the vertices fall into groups that such relabelings permute, any clique
meeting a group can be moved to contain the group's first member.  The
search therefore branches on one representative per group and then drops
the group, at two levels: the class-size shapes at the root (orbits of
S_n), and under a root R the orbits of the relabelings that permute
elements inside each class of R (see _orbit_key).  Groups are visited one
after another and each is dropped once searched; since every group is
invariant, the moved clique avoids the dropped groups too, so the pruning
loses no maximum.
"""

from __future__ import annotations

import time
from itertools import chain, combinations, compress
from math import comb, isnan
from typing import NamedTuple

from .model import Partition, PartitionSystem, containments, verify_sperner

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


def candidate_count(n: int, k: int, min_class_size: int = 2) -> int:
    """How many candidates enumerate_partitions yields, counted without enumerating.

    Counted the way they are generated: the block holding the smallest of
    i elements has some size s and C(i-1, s-1) choices of its other
    elements, and the i-s elements left form one block fewer.
    """
    if n < 0 or k < 1:
        return 0
    ways = [1] + [0] * n  # ways[i]: partitions of i elements into as many blocks as rounds so far
    for _ in range(k):
        ways = [
            sum(comb(i - 1, s - 1) * ways[i - s] for s in range(max(min_class_size, 1), i + 1))
            for i in range(n + 1)
        ]
    return ways[n]


def enumerate_partitions(n: int, k: int, min_class_size: int = 2) -> PartitionSystem:
    """The system of all k-partitions with class sizes >= min_class_size, each exactly once.

    Generation goes block by block.  The next block holds the smallest
    element not yet placed, and its other elements are drawn with
    itertools.combinations from the rest; its size leaves room for the
    blocks still to come to reach min_class_size, and the last block is
    whatever remains.  So every partition appears once, and each block's
    element tuple and mask are built once and shared by every candidate
    that holds it.  Blocks open in ascending smallest element, so a stable
    sort by size puts a candidate's classes in canonical order, and the
    candidates are sorted by those element tuples, which is Partition's
    canonical order.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if min_class_size < 1:
        raise ValueError("min_class_size must be at least 1")
    if n < k * min_class_size:
        raise ValueError(
            f"no candidates: n={n} cannot hold {k} classes of size >= {min_class_size}"
        )
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
        for size in range(min_class_size, len(rest) - (left - 1) * min_class_size + 1):
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


def graph_from_edges(num_vertices: int, edges) -> CompatibilityGraph:
    """Plain graph constructor for tests and oracles."""
    adj = [0] * num_vertices
    for u, v in edges:
        if u == v:
            continue
        if not (0 <= u < num_vertices and 0 <= v < num_vertices):
            raise ValueError(f"edge ({u},{v}) out of range")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return CompatibilityGraph(tuple(adj))


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


def _greedy_clique(adj, num: int, bound: int, deadline: float | None = None) -> int:
    """Deterministic greedy lower bound: best clique mask over a few dense seeds.

    The first try always completes, so a clique is reported even when the
    deadline has already passed; later tries stop at the deadline or once
    a clique meets the upper bound.
    """
    best = 0
    starts = sorted(range(num), key=lambda v: (-adj[v].bit_count(), v))[:_GREEDY_TRIES]
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
    return tuple(sorted(tuple((r & c).bit_count() for r in fixed) for c in classes))


def _is_candidate_set(cand: PartitionSystem | None) -> bool:
    """Whether cand is enumerate_partitions(n, k, m), m its smallest class size, in any order.

    Only such a set is closed under relabeling the ground set, which the
    reduced search relies on.  The distinct k-partitions of {0..n-1} with
    classes of at least m elements number candidate_count(n, k, m), so
    that many distinct ones are all of them.
    """
    if cand is None or not cand.partitions:
        return False
    n, k = cand.n, cand.k
    rows = [p.classes for p in cand.partitions]
    # Each row is k class masks summing to the full mask.  A sum loses set
    # bits only to carries, so each row's class sizes total at least n, and
    # n exactly when no two of its classes meet.  The sizes over all rows
    # then total n per row only if every row is a k-partition.
    if set(map(len, rows)) != {k} or set(map(sum, rows)) != {(1 << n) - 1}:
        return False
    if sum(map(int.bit_count, chain.from_iterable(rows))) != n * len(rows):
        return False
    m = min(row[0].bit_count() for row in rows)  # canonical order: smallest class first
    return m >= 1 and len(rows) == candidate_count(n, k, m) and len(set(rows)) == len(rows)


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

    The root coloring that gives the bound also orders the root.  The plain
    search branches on it as on any other node, highest color first;
    symmetry_reduction instead groups it, which needs the graph's full
    candidate set, closed under relabeling the ground set (any other
    candidate system raises ValueError, see _is_candidate_set), and prunes
    at two levels:

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

    It is off by default here so the plain search stays available as a
    cross-check; solve_sp turns it on.
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

    def branch_orbits(size: int, clique: int, P: int, coloring, key, descend) -> None:
        """Group P by key; branch on each group's first vertex, then drop the group.

        coloring is _color(P, adj).  Groups go in descending order of their
        highest greedy color, so the color bound prunes the rest as in
        expand.  descend(size, clique, P) searches below each representative.
        Only the root (size 0) and depth 2 (size 1) group, and neither can
        improve the incumbent: with an edge in the graph the greedy seed's
        first try starts at a vertex of largest degree and always completes,
        so it holds at least 2 vertices; without one the root bound is 1 and
        the seed has stopped the search.
        """
        groups: dict = {}
        top: dict = {}
        for seen, (v, color) in enumerate(zip(*coloring), 1):
            g = key(v)
            groups[g] = groups.get(g, 0) | (1 << v)
            top[g] = color
            if deadline is not None and seen % 256 == 0 and time.perf_counter() > deadline:
                raise _Stop(False)
        for g in sorted(groups, key=top.__getitem__, reverse=True):
            if size + top[g] <= best:
                return
            group = groups[g]
            bit = group & -group
            P2 = P & adj[bit.bit_length() - 1]
            if size + 1 + P2.bit_count() > best:
                descend(size + 1, clique | bit, P2)
            P &= ~group

    try:
        if not num:
            raise _Stop(True)  # the empty graph: size 0, proven, no nodes
        if symmetry_reduction and not _is_candidate_set(cand):
            raise ValueError(
                "symmetry reduction needs the graph's full candidate set: every k-partition "
                "of the ground set whose classes are no smaller than its smallest class"
            )
        full = (1 << num) - 1
        root_coloring = _color(full, adj)
        root_bound = root_coloring[1][-1]
        seed_bound = root_bound if target is None else min(target, root_bound)
        seed = _greedy_clique(adj, num, seed_bound, deadline)
        improve(seed.bit_count(), seed)
        if deadline is not None and time.perf_counter() > deadline:
            raise _Stop(False)
        if symmetry_reduction:
            classes = [p.classes for p in cand.partitions]
            sizes = [p.sizes for p in cand.partitions]

            def depth2(size: int, clique: int, P: int) -> None:
                fixed = classes[clique.bit_length() - 1]  # clique is the root alone
                branch_orbits(
                    size, clique, P, _color(P, adj), lambda v: _orbit_key(fixed, classes[v]), expand
                )

            branch_orbits(0, 0, full, root_coloring, sizes.__getitem__, depth2)
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


def tiny_oracle(graph: CompatibilityGraph) -> int:
    """Maximum clique size by plain exhaustive expansion (no coloring bound).

    Independent cross-check for max_clique on small graphs.
    """
    if graph.num_vertices > 2000:
        raise ValueError("tiny_oracle supports at most 2000 vertices")
    adj = graph.adj
    best = 0

    def expand(size: int, P: int) -> None:
        nonlocal best
        if size > best:
            best = size
        while P:
            if size + P.bit_count() <= best:
                return
            lsb = P & -P
            v = lsb.bit_length() - 1
            P ^= lsb
            expand(size + 1, P & adj[v])

    expand(0, (1 << graph.num_vertices) - 1)
    return best


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
    min_class_size: int = 2,
    time_budget: float | None = None,
    target: int | None = None,
) -> SearchOutcome:
    """Enumerate candidates, build the graph, run max_clique, verify the witness.

    The clique search always takes the symmetry-reduced path; call
    max_clique directly for the plain one.  A search whose adjacency would
    exceed MAX_ADJ_BYTES, or a NaN time_budget (no deadline would ever
    pass), raises ValueError before anything is enumerated.
    """
    if time_budget is not None and isnan(time_budget):
        raise ValueError("the time budget is NaN; give a number of seconds")
    count = candidate_count(n, k, min_class_size)
    adj_bytes = count * -(-count // 8)
    if adj_bytes > MAX_ADJ_BYTES:
        raise ValueError(
            f"the search has {count:,} candidates, whose adjacency takes {adj_bytes:,} bytes, "
            f"over the cap of {MAX_ADJ_BYTES:,}"
        )
    candidates = enumerate_partitions(n, k, min_class_size)
    graph = build_graph(candidates)
    outcome = max_clique(graph, time_budget=time_budget, target=target, symmetry_reduction=True)
    assert outcome.best is not None
    report = verify_sperner(outcome.best)
    if not report.valid:
        raise RuntimeError("internal error: search witness failed verification")
    return outcome
