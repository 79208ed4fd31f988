"""Small-graph oracles for cross-checking the clique search.

graph_from_edges builds a CompatibilityGraph from an edge list, and
tiny_oracle finds a maximum clique size by plain exhaustive expansion,
without the coloring bound that max_clique relies on.
"""

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
