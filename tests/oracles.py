"""Oracles for cross-checking the search.

graph_from_edges builds a CompatibilityGraph from an edge list, and
tiny_oracle finds a maximum clique size by plain exhaustive expansion,
without the coloring bound that max_clique relies on.
element_tuple_rows is the candidate enumeration that sorts by nested
element tuples, against which the search's compact-key sort is checked.
"""

from itertools import combinations

from sperner.search import CompatibilityGraph


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


def element_tuple_rows(n: int, k: int) -> list[tuple[int, ...]]:
    """The class masks of every candidate, sorted by the candidates' element tuples.

    Blocks are generated as search._candidate_rows generates them, but each
    candidate is held as a pair of its element tuples and its masks, both
    in canonical class order (a stable sort of the blocks by size), and the
    pairs are sorted as tuples.
    """
    rows, blocks = [], []  # blocks: (elements, mask), ascending first element

    def rec(rest, rest_mask, left):
        if left == 1:
            blocks.append((rest, rest_mask))
            row = sorted(blocks, key=lambda block: len(block[0]))
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
    return [masks for _, masks in rows]
