"""Exhaustive maximum-system search via maximum clique.

Candidate k-partitions are enumerated in canonical lexicographic order,
their pairwise-compatibility graph is built (two partitions are adjacent
iff all their classes are mutually incomparable) from model.containments,
the same class-containment index the verifier reads, and a maximum
Sperner system is exactly a maximum clique in that graph.

The clique solver is a deterministic branch-and-bound with greedy-coloring
upper bounds over bitmask candidate sets.  One routine, _color, does every
coloring.  Vertex order is the candidate index: candidates sharing a class
are non-adjacent and consecutive in canonical order, so greedy coloring
packs them into few color classes, which is what makes the dense instances
tractable (the (9,4) graph gets a 15-color root bound this way).  Coloring
below the pruning threshold is not recorded, only the vertices that can
still extend the incumbent are.  The graph is colored once at the root:
that coloring gives the root bound and, on the reduced path, the grouping
of the root shapes.  The search stops, proven, once the incumbent reaches
that root bound.

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
from dataclasses import dataclass

from .model import Partition, PartitionSystem, containments, verify_sperner

__all__ = [
    "CandidateSet",
    "CompatibilityGraph",
    "SearchOutcome",
    "enumerate_partitions",
    "build_graph",
    "max_clique",
    "solve_sp",
]


@dataclass(frozen=True)
class CandidateSet:
    """Every k-partition of [0, n) with class sizes >= min_class_size, canonically ordered."""

    n: int
    k: int
    min_class_size: int
    partitions: tuple[Partition, ...]

    def __len__(self):
        return len(self.partitions)


@dataclass(frozen=True)
class CompatibilityGraph:
    """Symmetric adjacency over candidate partitions, one bitmask row per vertex."""

    num_vertices: int
    adj: tuple[int, ...]
    candidates: CandidateSet | None = None


@dataclass(frozen=True)
class SearchOutcome:
    """Result of a clique search; best is None for graphs without candidates attached."""

    best: PartitionSystem | None
    vertices: tuple[int, ...]
    size: int
    proven_optimal: bool
    nodes_explored: int
    elapsed: float
    root_bound: int


def enumerate_partitions(n: int, k: int, min_class_size: int = 2) -> CandidateSet:
    """All k-partitions with class sizes >= min_class_size, each exactly once.

    Generation assigns elements 0..n-1 to blocks in restricted-growth
    style (a new block is opened only by its smallest element), so every
    partition appears once; the result is then sorted canonically.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if min_class_size < 1:
        raise ValueError("min_class_size must be at least 1")
    if n < k * min_class_size:
        raise ValueError(
            f"no candidates: n={n} cannot hold {k} classes of size >= {min_class_size}"
        )
    out: list[Partition] = []
    blocks: list[list[int]] = []

    def rec(i: int) -> None:
        if i == n:
            if len(blocks) == k and all(len(b) >= min_class_size for b in blocks):
                out.append(Partition(n, [list(b) for b in blocks], k))
            return
        remaining = n - i
        deficit = sum(max(0, min_class_size - len(b)) for b in blocks)
        need_new = k - len(blocks)
        if remaining < deficit + need_new * min_class_size:
            return
        for b in blocks:
            b.append(i)
            rec(i + 1)
            b.pop()
        if len(blocks) < k:
            blocks.append([i])
            rec(i + 1)
            blocks.pop()

    rec(0)
    out.sort(key=lambda p: p._key())
    return CandidateSet(n, k, min_class_size, tuple(out))


def build_graph(candidates: CandidateSet) -> CompatibilityGraph:
    """Adjacency from the class-containment index rather than pairwise scans.

    Vertices conflict iff they share a class or one has a class properly
    inside a class of the other; everything else is an edge.  owners[c] is
    the bitmask of the vertices holding class c, and conflict[c] adds the
    owners of every present proper subset and superset of c, read from
    model.containments once per distinct class.
    """
    masks_list = [p.classes for p in candidates.partitions]
    num = len(masks_list)

    owners: dict[int, int] = {}
    for v, classes in enumerate(masks_list):
        for c in classes:
            owners[c] = owners.get(c, 0) | (1 << v)

    conflict = dict(owners)
    for sub, sup in containments(owners):
        conflict[sub] |= owners[sup]
        conflict[sup] |= owners[sub]

    full = (1 << num) - 1
    adj = []
    for v, classes in enumerate(masks_list):
        blocked = 1 << v
        for c in classes:
            blocked |= conflict[c]
        adj.append(full & ~blocked)
    return CompatibilityGraph(num, tuple(adj), candidates)


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
    return CompatibilityGraph(num_vertices, tuple(adj))


def _color(P: int, nadj, threshold: int = 0) -> tuple[list[int], list[int]]:
    """Greedy sequential coloring of P in vertex order (Tomita's MCS, San Segundo's BBMC).

    nadj[v] is the complement of v's adjacency row.  Returns the vertices
    whose color is above threshold, in coloring order, with their colors,
    which ascend; vertices of a lower color are colored but not recorded.
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
                Q &= nadj[v]
                Q ^= lsb
                P ^= lsb
        else:
            while Q:
                lsb = Q & -Q
                Q &= nadj[lsb.bit_length() - 1]
                Q ^= lsb
                P ^= lsb
    return order, colors


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
            tmp, pick, pick_score = P, -1, -1
            while tmp:
                lsb = tmp & -tmp
                v = lsb.bit_length() - 1
                tmp ^= lsb
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

    With no budget and no target the result is a proven maximum.  The
    search also stops, proven, as soon as the incumbent reaches the root
    coloring bound.  A target stops the search as soon as a clique of that
    size is known, the greedy seed included: its tries end at the first
    clique that meets the target (proven_optimal stays False unless the
    search finished anyway).  An expired time budget returns the best
    clique found so far.

    symmetry_reduction needs the graph's full candidate set, which is
    closed under relabeling the ground set, and prunes at two levels:

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
    cannot beat the incumbent, no later group can either.  The root level
    reuses the root coloring that gave the bound.

    It is off by default here so the plain search stays available as a
    cross-check; solve_sp turns it on.
    """
    t0 = time.perf_counter()
    num = graph.num_vertices
    adj = graph.adj
    if num == 0:
        return _outcome(graph, 0, (), True, 0, t0, 0)
    if symmetry_reduction and graph.candidates is None:
        raise ValueError("symmetry reduction needs the graph's candidate set")
    deadline = t0 + time_budget if time_budget is not None else None
    full = (1 << num) - 1
    nadj = [~a for a in adj]
    root_coloring = _color(full, nadj)
    root_bound = root_coloring[1][-1]

    seed_bound = root_bound if target is None else min(target, root_bound)
    best_mask = _greedy_clique(adj, num, seed_bound, deadline)
    state = {"best": best_mask.bit_count(), "mask": best_mask, "nodes": 0}

    def check_stop() -> None:
        if target is not None and state["best"] >= target:
            raise _Stop(False)
        if state["best"] >= root_bound:
            raise _Stop(True)
        if deadline is not None and state["nodes"] % 2048 == 0 and time.perf_counter() > deadline:
            raise _Stop(False)

    def expand(size: int, clique: int, P: int) -> None:
        state["nodes"] += 1
        check_stop()
        order, colors = _color(P, nadj, state["best"] - size)
        for i in range(len(order) - 1, -1, -1):
            if size + colors[i] <= state["best"]:
                return
            v = order[i]
            bit = 1 << v
            extended = clique | bit
            if size + 1 > state["best"]:
                state["best"] = size + 1
                state["mask"] = extended
                check_stop()
            P2 = P & adj[v]
            if P2:
                expand(size + 1, extended, P2)
            P &= ~bit

    def branch_orbits(size: int, clique: int, P: int, coloring, key, descend) -> None:
        """Group P by key; branch on each group's first vertex, then drop the group.

        coloring is _color(P, nadj).  Groups go in descending order of their
        highest greedy color, so the color bound prunes the rest as in
        expand.  descend(size, clique, P) searches below each representative.
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
            if size + top[g] <= state["best"]:
                return
            group = groups[g]
            bit = group & -group
            v = bit.bit_length() - 1
            extended = clique | bit
            if size + 1 > state["best"]:
                state["best"] = size + 1
                state["mask"] = extended
                check_stop()
            P2 = P & adj[v]
            if size + 1 + P2.bit_count() > state["best"]:
                descend(size + 1, extended, P2)
            P &= ~group

    try:
        check_stop()
        if symmetry_reduction:
            classes = [p.classes for p in graph.candidates.partitions]
            sizes = [p.sizes for p in graph.candidates.partitions]

            def depth2(size: int, clique: int, P: int) -> None:
                fixed = classes[clique.bit_length() - 1]  # clique is the root alone
                branch_orbits(
                    size, clique, P, _color(P, nadj), lambda v: _orbit_key(fixed, classes[v]), expand
                )

            branch_orbits(0, 0, full, root_coloring, sizes.__getitem__, depth2)
        else:
            for v in range(num):
                later = (full >> (v + 1)) << (v + 1)
                P = adj[v] & later
                if P.bit_count() + 1 > state["best"]:
                    expand(1, 1 << v, P)
        proven = True
    except _Stop as stop:
        proven = stop.proven

    vertices = tuple(i for i in range(num) if state["mask"] >> i & 1)
    return _outcome(graph, state["best"], vertices, proven, state["nodes"], t0, root_bound)


def _outcome(
    graph: CompatibilityGraph,
    size: int,
    vertices: tuple[int, ...],
    proven: bool,
    nodes: int,
    t0: float,
    root_bound: int,
) -> SearchOutcome:
    best = None
    if graph.candidates is not None:
        cand = graph.candidates
        best = PartitionSystem(
            cand.n,
            cand.k,
            [cand.partitions[v] for v in vertices],
            name=f"search({cand.n},{cand.k})",
        )
    return SearchOutcome(
        best=best,
        vertices=vertices,
        size=size,
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


def solve_sp(
    n: int,
    k: int,
    min_class_size: int = 2,
    time_budget: float | None = None,
    target: int | None = None,
) -> SearchOutcome:
    """Enumerate candidates, build the graph, run max_clique, verify the witness.

    The clique search always takes the symmetry-reduced path; call
    max_clique directly for the plain one.
    """
    candidates = enumerate_partitions(n, k, min_class_size)
    graph = build_graph(candidates)
    outcome = max_clique(graph, time_budget=time_budget, target=target, symmetry_reduction=True)
    assert outcome.best is not None
    report = verify_sperner(outcome.best)
    if not report.valid:
        raise RuntimeError("internal error: search witness failed verification")
    return outcome
