import random
import time
from itertools import combinations, permutations, product, starmap
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sperner.search
from sperner import (
    build_graph,
    enumerate_partitions,
    incomparable,
    load_fixture,
    max_clique,
    solve_sp,
    sp_bounds,
    verify_sperner,
)
from sperner.model import Partition
from sperner.search import _color, _orbit_key, graph_from_edges, tiny_oracle


def shape_count(n, k, min_size):
    """Independent candidate count: sum over class-size shapes of the multinomial."""

    def shapes(total, parts, minimum):
        if parts == 1:
            if total >= minimum:
                yield (total,)
            return
        for first in range(minimum, total - minimum * (parts - 1) + 1):
            for rest in shapes(total - first, parts - 1, first):
                yield (first,) + rest

    total = 0
    for shape in shapes(n, k, min_size):
        ways = factorial(n)
        for s in shape:
            ways //= factorial(s)
        mult = {}
        for s in shape:
            mult[s] = mult.get(s, 0) + 1
        for m in mult.values():
            ways //= factorial(m)
        total += ways
    return total


# every (n, k) with n <= 8 that has a candidate with all classes of size >= 2
GRID_8 = [(n, k) for n in range(2, 9) for k in range(1, n // 2 + 1)]


def random_graph(rng, num, p):
    edges = [
        (u, v) for u in range(num) for v in range(u + 1, num) if rng.random() < p
    ]
    return graph_from_edges(num, edges)


class TestEnumeration:
    def test_stirling_4_2(self):
        candidates = enumerate_partitions(4, 2, min_class_size=1)
        assert len(candidates) == 7  # second-kind count for (4, 2)

    def test_shape_count_9_4(self):
        candidates = enumerate_partitions(9, 4, min_class_size=2)
        assert len(candidates) == 1260 == shape_count(9, 4, 2)

    def test_shape_count_7_3(self):
        candidates = enumerate_partitions(7, 3, min_class_size=2)
        assert len(candidates) == 105 == shape_count(7, 3, 2)

    def test_matches_shape_oracle(self):
        for n, k, m in [(6, 3, 1), (6, 3, 2), (8, 4, 2), (8, 3, 2), (10, 4, 2), (10, 4, 1)]:
            assert len(enumerate_partitions(n, k, m)) == shape_count(n, k, m), (n, k, m)

    def test_all_distinct_and_sorted(self):
        candidates = enumerate_partitions(7, 3, 2)
        keys = [p._key() for p in candidates.partitions]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    def test_min_size_respected(self):
        candidates = enumerate_partitions(8, 3, 2)
        assert all(min(p.sizes) >= 2 for p in candidates.partitions)

    def test_infeasible(self):
        with pytest.raises(ValueError, match="no candidates"):
            enumerate_partitions(5, 3, 2)
        with pytest.raises(ValueError, match="k must be at least 1"):
            enumerate_partitions(3, 0, 2)


class TestGraph:
    def test_adjacency_symmetric_no_loops(self):
        graph = build_graph(enumerate_partitions(7, 3, 2))
        for v in range(graph.num_vertices):
            assert not graph.adj[v] >> v & 1
            nb = graph.adj[v]
            while nb:
                lsb = nb & -nb
                u = lsb.bit_length() - 1
                nb ^= lsb
                assert graph.adj[u] >> v & 1

    def test_containment_blocks_edge(self):
        candidates = enumerate_partitions(6, 2, 2)
        graph = build_graph(candidates)
        parts = candidates.partitions
        for u in range(len(parts)):
            for v in range(len(parts)):
                if u == v:
                    continue
                expected = all(
                    (c & ~d != 0 and d & ~c != 0)
                    for c in parts[u].classes
                    for d in parts[v].classes
                )
                assert bool(graph.adj[u] >> v & 1) == expected

    def test_bundled_7_3_system_is_a_clique(self):
        candidates = enumerate_partitions(7, 3, 2)
        graph = build_graph(candidates)
        index = {p: i for i, p in enumerate(candidates.partitions)}
        vertices = [index[p] for p in load_fixture("fig-7-3").partitions]
        for u in vertices:
            for v in vertices:
                if u != v:
                    assert graph.adj[u] >> v & 1

    @pytest.mark.parametrize("min_size", [1, 2])
    @pytest.mark.parametrize("n,k", GRID_8)
    def test_adjacency_matches_definition(self, n, k, min_size):
        # u ~ v iff u != v and every class of u is incomparable with every class of v
        candidates = enumerate_partitions(n, k, min_size)
        parts = [p.classes for p in candidates.partitions]
        expected = [0] * len(parts)
        for (u, cu), (v, cv) in combinations(enumerate(parts), 2):
            if all(starmap(incomparable, product(cu, cv))):
                expected[u] |= 1 << v
                expected[v] |= 1 << u
        assert list(build_graph(candidates).adj) == expected


class TestTinyOracle:
    def test_empty_graph(self):
        assert tiny_oracle(graph_from_edges(0, [])) == 0
        assert tiny_oracle(graph_from_edges(5, [])) == 1

    def test_complete_graph(self):
        edges = [(u, v) for u in range(6) for v in range(u + 1, 6)]
        assert tiny_oracle(graph_from_edges(6, edges)) == 6

    def test_cap(self):
        with pytest.raises(ValueError, match="2000"):
            tiny_oracle(graph_from_edges(2001, []))


class TestColor:
    def graphs(self):
        # the graphs of test_agrees_with_oracle_on_random_graphs, and (8,3)
        rng = random.Random(20240815)
        for num, p in [(15, 0.3), (15, 0.7), (25, 0.5), (35, 0.4), (40, 0.8), (48, 0.6)]:
            yield random_graph(rng, num, p)
        yield build_graph(enumerate_partitions(8, 3, 2))

    def test_proper_coloring_and_threshold_tail(self):
        rng = random.Random(7)
        for graph in self.graphs():
            nadj = [~a for a in graph.adj]
            full = (1 << graph.num_vertices) - 1
            for P in (full, rng.getrandbits(graph.num_vertices)):
                order, colors = _color(P, nadj)
                assert sorted(order) == [v for v in range(graph.num_vertices) if P >> v & 1]
                assert colors == sorted(colors)
                for (u, cu), (v, cv) in combinations(zip(order, colors), 2):
                    assert cu != cv or not graph.adj[u] >> v & 1
                for t in range(max(colors, default=0) + 1):
                    tail = [(v, c) for v, c in zip(order, colors) if c > t]
                    assert list(zip(*_color(P, nadj, t))) == tail

    def test_root_bound_is_last_color(self):
        for graph in self.graphs():
            full = (1 << graph.num_vertices) - 1
            colors = _color(full, [~a for a in graph.adj])[1]
            # the target only stops the search early; the root bound comes first
            assert max_clique(graph, target=1).root_bound == colors[-1]


class TestMaxClique:
    def test_small_sp_values(self):
        assert max_clique(build_graph(enumerate_partitions(5, 2, 2))).size == 4
        assert max_clique(build_graph(enumerate_partitions(6, 3, 2))).size == 5
        assert max_clique(build_graph(enumerate_partitions(7, 3, 2))).size == 5

    def test_sp_7_3_agrees_with_oracle(self):
        graph = build_graph(enumerate_partitions(7, 3, 2))
        outcome = max_clique(graph)
        assert outcome.proven_optimal
        assert outcome.size == tiny_oracle(graph) == 5
        assert outcome.size <= outcome.root_bound

    def test_agrees_with_oracle_on_random_graphs(self):
        rng = random.Random(20240815)
        for num, p in [(15, 0.3), (15, 0.7), (25, 0.5), (35, 0.4), (40, 0.8), (48, 0.6)]:
            graph = random_graph(rng, num, p)
            outcome = max_clique(graph)
            assert outcome.proven_optimal
            assert outcome.size == tiny_oracle(graph), (num, p)
            assert outcome.size <= outcome.root_bound
            # witness really is a clique
            for u in outcome.vertices:
                for v in outcome.vertices:
                    if u != v:
                        assert graph.adj[u] >> v & 1

    def test_deterministic_witness(self):
        graph = build_graph(enumerate_partitions(7, 3, 2))
        a = max_clique(graph)
        b = max_clique(graph)
        assert a.vertices == b.vertices and a.nodes_explored == b.nodes_explored

    def test_target_stops_early(self):
        graph = build_graph(enumerate_partitions(7, 3, 2))
        outcome = max_clique(graph, target=4)
        assert outcome.size >= 4
        assert not outcome.proven_optimal

    def test_greedy_seed_stops_at_target(self, monkeypatch):
        bounds = []
        greedy = sperner.search._greedy_clique

        def spy(adj, num, bound, *rest):
            bounds.append(bound)
            return greedy(adj, num, bound, *rest)

        monkeypatch.setattr(sperner.search, "_greedy_clique", spy)
        outcome = max_clique(build_graph(enumerate_partitions(8, 3, 2)), target=4)
        assert bounds == [4]  # not the root bound of 24
        assert outcome.size >= 4

    def test_time_budget_returns_best_so_far(self):
        graph = build_graph(enumerate_partitions(8, 3, 2))
        outcome = max_clique(graph, time_budget=0.0)
        assert not outcome.proven_optimal
        assert outcome.size >= 1  # greedy seed still reports a clique

    def test_symmetry_reduction_matches_default(self):
        # solve_sp reduces by default; max_clique(graph) is the plain search
        for n, k in GRID_8:
            reduced = solve_sp(n, k)
            plain = max_clique(build_graph(enumerate_partitions(n, k, 2)))
            assert reduced.proven_optimal and plain.proven_optimal
            assert reduced.size == plain.size, (n, k)

    def test_symmetry_reduction_needs_candidates(self):
        with pytest.raises(ValueError, match="candidate set"):
            max_clique(graph_from_edges(3, [(0, 1)]), symmetry_reduction=True)

    def test_stops_at_root_bound(self):
        # the greedy seed already meets the root coloring bound of 9
        outcome = max_clique(build_graph(enumerate_partitions(10, 5, 2)))
        assert (outcome.size, outcome.proven_optimal, outcome.nodes_explored) == (9, True, 0)
        assert outcome.root_bound == 9

    def test_time_budget_covers_setup(self):
        graph = build_graph(enumerate_partitions(10, 4, 2))
        t0 = time.perf_counter()
        outcome = max_clique(graph, time_budget=0.05)
        elapsed = time.perf_counter() - t0
        assert not outcome.proven_optimal
        assert outcome.size >= 1
        assert elapsed < 0.35, elapsed


def stabilizer_orbits(root, candidates):
    """Orbits of the candidates under all relabelings fixing every class of root."""
    n = candidates.n
    blocks = [list(c) for c in root.class_sets]
    seen, orbits = set(), []
    for q in candidates.partitions:
        if q in seen:
            continue
        orbit = set()
        for images in product(*(permutations(b) for b in blocks)):
            perm = list(range(n))
            for block, image in zip(blocks, images):
                for a, b in zip(block, image):
                    perm[a] = b
            orbit.add(Partition(n, [[perm[e] for e in c] for c in q.class_sets], q.k))
        seen |= orbit
        orbits.append(orbit)
    return orbits


class TestOrbitKey:
    @pytest.mark.parametrize("n,k", [(6, 2), (6, 3), (7, 3), (8, 3)])
    def test_key_classes_are_exactly_stabilizer_orbits(self, n, k):
        candidates = enumerate_partitions(n, k, 2)
        seen_shapes = set()
        for root in candidates.partitions:
            if root.sizes in seen_shapes:
                continue
            seen_shapes.add(root.sizes)
            by_key = {}
            for q in candidates.partitions:
                by_key.setdefault(_orbit_key(root.classes, q.classes), set()).add(q)
            expected = sorted(sorted(map(str, o)) for o in stabilizer_orbits(root, candidates))
            assert sorted(sorted(map(str, g)) for g in by_key.values()) == expected

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_key_invariant_under_class_fixing_relabeling(self, data):
        n = data.draw(st.integers(4, 12), label="n")
        k = data.draw(st.integers(2, n // 2), label="k")

        def draw_partition(label):
            labels = data.draw(st.permutations(range(n)), label=label)
            cuts = sorted(data.draw(
                st.lists(st.integers(1, n - 1), min_size=k - 1, max_size=k - 1, unique=True),
                label=label + " cuts",
            ))
            bounds = [0, *cuts, n]
            return Partition(n, [labels[a:b] for a, b in zip(bounds, bounds[1:])])

        root, q = draw_partition("R"), draw_partition("Q")
        perm = list(range(n))
        for c in root.class_sets:
            for a, b in zip(c, data.draw(st.permutations(c), label="image")):
                perm[a] = b
        moved = Partition(n, [[perm[e] for e in c] for c in q.class_sets])
        assert _orbit_key(root.classes, moved.classes) == _orbit_key(root.classes, q.classes)


class TestReducedSearch:
    @pytest.mark.parametrize(
        "n,k", [pytest.param(*nk, marks=pytest.mark.slow) if nk == (8, 3) else nk for nk in GRID_8]
    )
    def test_matches_oracle(self, n, k):
        # tiny_oracle has no coloring bound; (8,3) takes it about half a minute
        graph = build_graph(enumerate_partitions(n, k, 2))
        assert max_clique(graph, symmetry_reduction=True).size == tiny_oracle(graph), (n, k)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_n9_matches_exact_bounds(self, k):
        bounds = sp_bounds(9, k)
        assert bounds.exact
        outcome = solve_sp(9, k)
        assert outcome.proven_optimal
        assert outcome.size == bounds.lower


class TestSolveSp:
    def test_witness_roundtrip(self):
        outcome = solve_sp(7, 3)
        assert outcome.size == 5
        assert outcome.best is not None
        assert verify_sperner(outcome.best).valid
        assert len(outcome.best) == 5

    def test_min_class_size_one_same_maximum(self):
        # singleton-class candidates never help once two partitions exist
        for n, k in [(5, 2), (6, 3), (6, 2), (7, 3)]:
            loose = solve_sp(n, k, min_class_size=1)
            tight = solve_sp(n, k, min_class_size=2)
            assert loose.size == tight.size, (n, k)
