import gc
import random
import sys
import time
import tracemalloc
from itertools import combinations, compress, permutations, product, starmap
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sperner.search
from sperner import (
    CompatibilityGraph,
    build_graph,
    candidate_count,
    enumerate_partitions,
    incomparable,
    load_fixture,
    max_clique,
    solve_sp,
    sp_bounds,
    verify_sperner,
)
from sperner.bounds import _proved_upper
from sperner.model import Partition, PartitionSystem
from sperner.search import _candidate_rows, _color, _greedy_clique, _orbit_key, _set_bits

from oracles import element_tuple_rows, graph_from_edges, tiny_oracle


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


def restricted_growth_reference(n, k, min_size):
    """Element-by-element generator (a block is opened by its smallest element), sorted by class_sets."""
    out, blocks = [], []

    def rec(i):
        if i == n:
            if len(blocks) == k and all(len(b) >= min_size for b in blocks):
                out.append(Partition(n, [list(b) for b in blocks], k))
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
    out.sort(key=lambda p: p.class_sets)
    return out


def definition_adjacency(system):
    """u ~ v iff u != v and every class of u is incomparable with every class of v, pair by pair."""
    parts = [p.classes for p in system.partitions]
    adj = [0] * len(parts)
    for (u, cu), (v, cv) in combinations(enumerate(parts), 2):
        if all(starmap(incomparable, product(cu, cv))):
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return adj


def lsb_peeling_greedy(adj, num, bound, within):
    """The greedy seed inside `within` as written before _set_bits, peeling P lowest bit first."""
    best = 0
    inside = [v for v in range(num) if within >> v & 1]
    starts = sorted(inside, key=lambda v: (-(adj[v] & within).bit_count(), v))[: sperner.search._GREEDY_TRIES]
    for s in starts:
        clique = 1 << s
        P = adj[s] & within
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
        if best.bit_count() >= bound:
            break
    return best


def complement_row_color(P, nadj, threshold=0):
    """search._color as written over complement rows, nadj[v] == ~adj[v], kept as its reference."""
    order, colors = [], []
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


# every (n, k) with n <= 8 that has a candidate with all classes of size >= 2
GRID_8 = [(n, k) for n in range(2, 9) for k in range(1, n // 2 + 1)]


def random_graph(rng, num, p):
    edges = [
        (u, v) for u in range(num) for v in range(u + 1, num) if rng.random() < p
    ]
    return graph_from_edges(num, edges)


def oracle_graphs(n, k):
    """The random graphs of test_agrees_with_oracle_on_random_graphs, then the (n, k) candidate graph."""
    rng = random.Random(20240815)
    for num, p in [(15, 0.3), (15, 0.7), (25, 0.5), (35, 0.4), (40, 0.8), (48, 0.6)]:
        yield random_graph(rng, num, p)
    yield build_graph(enumerate_partitions(n, k))


class TestEnumeration:
    def test_shape_count_9_4(self):
        candidates = enumerate_partitions(9, 4)
        assert len(candidates) == 1260 == shape_count(9, 4, 2)

    def test_shape_count_7_3(self):
        candidates = enumerate_partitions(7, 3)
        assert len(candidates) == 105 == shape_count(7, 3, 2)

    def test_matches_shape_oracle(self):
        for n, k in [(6, 3), (8, 4), (8, 3), (10, 4)]:
            count = candidate_count(n, k)
            assert len(enumerate_partitions(n, k)) == shape_count(n, k, 2) == count, (n, k)

    def test_all_distinct_and_sorted(self):
        candidates = enumerate_partitions(7, 3)
        keys = [p.class_sets for p in candidates.partitions]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    def test_min_size_respected(self):
        candidates = enumerate_partitions(8, 3)
        assert all(min(p.sizes) >= 2 for p in candidates.partitions)

    @pytest.mark.parametrize(
        "n,k,min_size",
        [(n, k, m) for m in (1, 2) for n in range(1, 10) for k in range(1, n // m + 1)]
        + [(10, 4, 2), (12, 6, 2)],
    )
    def test_matches_restricted_growth_reference(self, n, k, min_size):
        # same partitions, same canonical order: the reference's k-partitions
        # into classes of at least min_size elements, less those holding a
        # singleton; (n, k) with none left is refused
        expected = [p for p in restricted_growth_reference(n, k, min_size) if min(p.sizes) >= 2]
        if not expected:
            with pytest.raises(ValueError, match="no candidates"):
                enumerate_partitions(n, k)
            return
        assert list(enumerate_partitions(n, k).partitions) == expected

    @pytest.mark.parametrize("n,k", [(n, k) for k in range(1, 6) for n in range(2 * k, 12)])
    def test_rows_match_the_element_tuple_sort(self, n, k):
        # one string key per candidate sorts the candidates as their nested
        # element tuples do
        assert list(_candidate_rows(n, k)) == element_tuple_rows(n, k)

    def test_enumeration_holds_few_bytes_per_candidate(self):
        # (11,5), 17,325 candidates: a Partition and its row take 152-153
        # bytes per candidate at the peak, the rows alone 90-91 (Python
        # 3.10-3.13); sorting (element tuples, masks) pairs peaked at 465-471
        count = candidate_count(11, 5)
        for enumerate_, per_candidate in [(enumerate_partitions, 200), (_candidate_rows, 120)]:
            tracemalloc.start()
            try:
                built = tuple(enumerate_(11, 5))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(built) == count
            assert peak < per_candidate * count, enumerate_
            del built

    def test_candidate_count_matches_shape_count(self):
        for n in range(0, 16):
            for k in range(1, 8):
                assert candidate_count(n, k) == shape_count(n, k, 2), (n, k)
        assert candidate_count(12, 4) == 302_995
        assert candidate_count(-1, 2) == candidate_count(3, 0) == 0

    def test_candidate_count_at_large_n(self):
        # two classes of at least 2: S(n, 2) = 2^(n-1) - 1 less the n splits with a singleton;
        # the count takes n * k steps, so a search at n = 1000 is refused at once
        assert candidate_count(1000, 2) == 2**999 - 1 - 1000
        assert candidate_count(1000, 1) == 1

    def test_infeasible(self):
        with pytest.raises(ValueError, match="no candidates: n=5 cannot hold 3 classes of size >= 2"):
            enumerate_partitions(5, 3)
        with pytest.raises(ValueError, match="k must be at least 1"):
            enumerate_partitions(3, 0)


class TestGraph:
    def test_adjacency_symmetric_no_loops(self):
        graph = build_graph(enumerate_partitions(7, 3))
        for v in range(graph.num_vertices):
            assert not graph.adj[v] >> v & 1
            nb = graph.adj[v]
            while nb:
                lsb = nb & -nb
                u = lsb.bit_length() - 1
                nb ^= lsb
                assert graph.adj[u] >> v & 1

    def test_containment_blocks_edge(self):
        candidates = enumerate_partitions(6, 2)
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
        candidates = enumerate_partitions(7, 3)
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
        # u ~ v iff u != v and every class of u is incomparable with every class of v;
        # build_graph takes any system, singleton classes included
        candidates = PartitionSystem(n, k, restricted_growth_reference(n, k, min_size))
        assert list(build_graph(candidates).adj) == definition_adjacency(candidates)

    @pytest.mark.parametrize("n,k", [(7, 2), (8, 3), (8, 4)])
    def test_adjacency_matches_definition_on_sampled_systems(self, n, k):
        # a sample misses classes between the ones it holds, so the conflict
        # masks cannot step down one element at a time and read containments
        rng = random.Random(n * 10 + k)
        everything = restricted_growth_reference(n, k, 1)
        for size in (2, 5, len(everything) // 3, len(everything) // 2):
            candidates = PartitionSystem(n, k, rng.sample(everything, size))
            assert list(build_graph(candidates).adj) == definition_adjacency(candidates), size


class TestGreedySeed:
    def test_matches_lsb_peeling_loop(self):
        # starts and scores count neighbours inside P only
        rng = random.Random(5)
        for graph in oracle_graphs(9, 3):
            num = graph.num_vertices
            for P in ((1 << num) - 1, rng.getrandbits(num), graph.adj[0]):
                for bound in (3, num + 1):
                    got = _greedy_clique(graph.adj, P, bound)
                    assert got == lsb_peeling_greedy(graph.adj, num, bound, P)
                    assert got & P == got

    def test_set_bits(self):
        rng = random.Random(3)
        for width in (0, 1, 7, 64, 1000):
            P = rng.getrandbits(width) if width else 0
            assert _set_bits(P) == [v for v in range(width) if P >> v & 1]


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
    def test_proper_coloring_and_threshold_tail(self):
        rng = random.Random(7)
        for graph in oracle_graphs(8, 3):
            full = (1 << graph.num_vertices) - 1
            for P in (full, rng.getrandbits(graph.num_vertices)):
                order, colors = _color(P, graph.adj)
                assert sorted(order) == [v for v in range(graph.num_vertices) if P >> v & 1]
                assert colors == sorted(colors)
                for (u, cu), (v, cv) in combinations(zip(order, colors), 2):
                    assert cu != cv or not graph.adj[u] >> v & 1
                for t in range(max(colors, default=0) + 1):
                    tail = [(v, c) for v, c in zip(order, colors) if c > t]
                    assert list(zip(*_color(P, graph.adj, t))) == tail

    def test_root_bound_is_last_color(self):
        *plain, candidate = oracle_graphs(8, 3)
        for graph in plain:
            full = (1 << graph.num_vertices) - 1
            colors = _color(full, graph.adj)[1]
            # the target only stops the search early; the root bound comes first
            assert max_clique(graph, target=1).root_bound == colors[-1]
        # the reduced search's stop bound is the (8,3) cap-2k2, not a coloring
        assert max_clique(candidate, target=1).root_bound == 9

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_complement_row_coloring(self, data):
        num = data.draw(st.integers(0, 40), label="num")
        pairs = [(u, v) for u in range(num) for v in range(u + 1, num)]
        keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)), label="edges")
        edges = list(compress(pairs, keep))
        graph = graph_from_edges(num, edges)
        P = data.draw(st.integers(0, (1 << num) - 1), label="P")
        nadj = [~a for a in graph.adj]
        top = max(complement_row_color(P, nadj)[1], default=0)
        for t in range(top + 2):
            assert _color(P, graph.adj, t) == complement_row_color(P, nadj, t)


def first_root_size(n, k):
    """|P| of the reduced search's first unit: N(R) of the root with the largest neighbourhood."""
    classes = list(_candidate_rows(n, k))
    (P, _), *_ = sperner.search._roots(classes, sperner.search._StreamedRows(classes).__getitem__)
    return P.bit_count()


def assert_plain(graph):
    """max_clique with symmetry_reduction=True, checked against the plain search on the bare rows."""
    outcome = max_clique(graph, symmetry_reduction=True)
    plain = max_clique(CompatibilityGraph(graph.adj))
    assert (outcome.size, outcome.vertices, outcome.nodes_explored) == (
        plain.size,
        plain.vertices,
        plain.nodes_explored,
    )
    return outcome


class TestMaxClique:
    def test_small_sp_values(self):
        assert max_clique(build_graph(enumerate_partitions(5, 2))).size == 4
        assert max_clique(build_graph(enumerate_partitions(6, 3))).size == 5
        assert max_clique(build_graph(enumerate_partitions(7, 3))).size == 5

    def test_sp_7_3_agrees_with_oracle(self):
        graph = CompatibilityGraph(build_graph(enumerate_partitions(7, 3)).adj)
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
        graph = build_graph(enumerate_partitions(7, 3))
        a = max_clique(graph)
        b = max_clique(graph)
        assert a.vertices == b.vertices and a.nodes_explored == b.nodes_explored

    def test_target_stops_early(self):
        graph = build_graph(enumerate_partitions(7, 3))
        outcome = max_clique(graph, target=4)
        assert outcome.size >= 4
        assert not outcome.proven_optimal

    def test_greedy_seed_stops_at_target(self, monkeypatch):
        bounds = []
        greedy = sperner.search._greedy_clique

        def spy(adj, P, bound, *rest):
            bounds.append(bound)
            return greedy(adj, P, bound, *rest)

        monkeypatch.setattr(sperner.search, "_greedy_clique", spy)
        outcome = max_clique(build_graph(enumerate_partitions(8, 3)), target=4)
        # the first root's seed: the target 4 less the root itself, not the stop bound 9 less it
        assert bounds == [3]
        assert outcome.size >= 4

    def test_time_budget_returns_best_so_far(self):
        graph = build_graph(enumerate_partitions(8, 3))
        outcome = max_clique(graph, time_budget=0.0)
        assert not outcome.proven_optimal
        assert outcome.size >= 1  # greedy seed still reports a clique

    def test_reduced_search_reads_no_stored_row(self):
        # the reduced search builds its rows from the candidates' class masks,
        # as solve_sp does; only the plain search reads graph.adj
        class NoRows:
            def __len__(self):
                raise AssertionError("adj row read")

            def __getitem__(self, v):
                raise AssertionError("adj row read")

        outcome = max_clique(CompatibilityGraph(NoRows(), enumerate_partitions(8, 3)))
        assert (outcome.size, outcome.proven_optimal, outcome.nodes_explored) == (8, True, 117)

    def test_search_keeps_no_second_copy_of_the_rows(self):
        # (10,4): graph.adj holds 9,450 rows, 11.2 MB.  The reduced search reads
        # none of them and copies none: it holds one root's conflict masks and one
        # seed try's or depth-2 group's rows at a time
        graph = build_graph(enumerate_partitions(10, 4))
        row_bytes = sum((a.bit_length() + 7) // 8 for a in graph.adj)
        tracemalloc.start()
        try:
            outcome = max_clique(graph, target=9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert outcome.size >= 9
        assert peak < row_bytes // 4

    def test_symmetry_reduction_matches_default(self):
        # solve_sp runs the reduced search; a graph without its candidates runs the plain one
        for n, k in GRID_8:
            reduced = solve_sp(n, k)
            plain = max_clique(CompatibilityGraph(build_graph(enumerate_partitions(n, k)).adj))
            assert reduced.proven_optimal and plain.proven_optimal
            assert reduced.size == plain.size, (n, k)

    def test_the_graph_picks_the_path(self):
        graph = build_graph(enumerate_partitions(8, 3))
        reduced, plain = max_clique(graph), max_clique(CompatibilityGraph(graph.adj))
        assert (reduced.size, reduced.proven_optimal, reduced.nodes_explored) == (8, True, 117)
        assert (plain.size, plain.proven_optimal, plain.nodes_explored) == (8, True, 244_317)

    def test_symmetry_reduction_without_candidates_is_plain(self):
        assert_plain(graph_from_edges(3, [(0, 1)]))

    def test_symmetry_reduction_on_a_sampled_subset_is_plain(self):
        # 150 of the 490 (8,3) candidates are not closed under relabeling:
        # reduced regardless, the search returned 7 as proven on 14 of the
        # 17 samples whose maximum is 8
        full = enumerate_partitions(8, 3)
        rng = random.Random(1)
        sizes = []
        for _ in range(30):
            graph = build_graph(PartitionSystem(8, 3, rng.sample(full.partitions, 150)))
            outcome = assert_plain(graph)
            assert outcome.proven_optimal and outcome.size == tiny_oracle(graph)
            sizes.append(outcome.size)
        assert sizes.count(8) == 17 and sizes.count(7) == 13

    def test_symmetry_reduction_on_a_duplicate_is_plain(self):
        # the full (7,3) set with its last candidate replaced by a copy of its first
        full = enumerate_partitions(7, 3).partitions
        assert_plain(build_graph(PartitionSystem(7, 3, [*full[:-1], full[0]])))
        # the full set in any order is reduced
        graph = build_graph(PartitionSystem(7, 3, full[::-1]))
        reduced, plain = max_clique(graph), max_clique(CompatibilityGraph(graph.adj))
        assert reduced.size == plain.size == 5
        assert reduced.nodes_explored < plain.nodes_explored

    @pytest.mark.parametrize(
        "masks,nodes",
        [
            # the classes meet, and the masks sum short of the full mask
            ([0b11, 0b110, 0b1111000], 1456),
            # the classes meet, but carries make the sum the full mask and no class is a singleton
            ([0b11, 0b110, 0b1110110], 1439),
        ],
        ids=["sum", "sizes"],
    )
    def test_symmetry_reduction_with_a_row_that_is_no_partition_is_plain(self, masks, nodes):
        parts = list(enumerate_partitions(7, 3).partitions)
        parts[50] = Partition(7, masks, 3)
        outcome = assert_plain(build_graph(PartitionSystem(7, 3, parts)))
        assert (outcome.size, outcome.nodes_explored) == (5, nodes)

    def test_stops_at_root_bound(self):
        # the greedy seed already meets the root coloring bound of 9
        outcome = max_clique(build_graph(enumerate_partitions(10, 5)))
        assert (outcome.size, outcome.proven_optimal, outcome.nodes_explored) == (9, True, 0)
        assert outcome.root_bound == 9

    def test_empty_graph(self):
        outcome = max_clique(graph_from_edges(0, []))
        assert outcome == outcome._replace(
            best=None, vertices=(), size=0, proven_optimal=True, nodes_explored=0, root_bound=0
        )

    def test_plain_zero_budget_stops_after_the_seed(self):
        graph = CompatibilityGraph(build_graph(enumerate_partitions(8, 3)).adj)
        outcome = max_clique(graph, time_budget=0.0)
        seed = _greedy_clique(graph.adj, (1 << graph.num_vertices) - 1, outcome.root_bound, 0.0)
        assert (outcome.proven_optimal, outcome.nodes_explored) == (False, 0)
        assert outcome.vertices == tuple(_set_bits(seed))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_greedy_seed_holds_an_edge(self, data):
        # why the reduced search's root and depth-2 groups never improve the incumbent
        num = data.draw(st.integers(1, 30), label="num")
        pairs = [(u, v) for u in range(num) for v in range(u + 1, num)]
        keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)), label="edges")
        graph = graph_from_edges(num, compress(pairs, keep))
        bound = data.draw(st.integers(0, num + 1), label="bound")
        seed = _greedy_clique(graph.adj, (1 << num) - 1, bound, deadline=0.0)
        if any(keep):
            assert seed.bit_count() >= 2
        else:
            outcome = max_clique(graph)
            assert (outcome.size, outcome.proven_optimal, outcome.nodes_explored) == (1, True, 0)

    def test_time_budget_covers_setup(self):
        graph = build_graph(enumerate_partitions(10, 4))
        t0 = time.perf_counter()
        outcome = max_clique(graph, time_budget=0.05)
        elapsed = time.perf_counter() - t0
        assert not outcome.proven_optimal
        assert outcome.size >= 1
        assert elapsed < 0.35, elapsed

    def test_nan_budget_is_refused_by_both_entry_points(self):
        # no clock reading is greater than NaN, so the budget would never expire
        graph = build_graph(enumerate_partitions(7, 3))
        nan = float("nan")
        for search in (lambda: max_clique(graph, time_budget=nan), lambda: solve_sp(7, 3, time_budget=nan)):
            with pytest.raises(ValueError, match="^the time budget is NaN; give a number of seconds$"):
                search()
        # min(NaN, bound) is NaN, so a NaN target would keep the stop bound from stopping the search
        for search in (lambda: max_clique(graph, target=nan), lambda: solve_sp(7, 3, target=nan)):
            with pytest.raises(ValueError, match="^the target is NaN; give a number of partitions$"):
                search()


class FakeClock:
    """Stands in for the time module in sperner.search: reads 0.0 before its late-th reading, then 1.0."""

    def __init__(self):
        self.rerun(None)

    def perf_counter(self):
        self.reads += 1
        return 1.0 if self.late is not None and self.reads >= self.late else 0.0

    def rerun(self, late):
        """Start over, reading late (past a budget of 0.5 s) from the late-th reading on."""
        self.reads, self.late = 0, late


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
        candidates = enumerate_partitions(n, k)
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
        graph = build_graph(enumerate_partitions(n, k))
        assert max_clique(graph).size == tiny_oracle(graph), (n, k)

    @pytest.mark.parametrize(
        "n,k,target,expected",
        [
            # (size, proven, nodes, stop bound) of the exact searches ...
            (7, 3, None, (5, True, 9, 6)),
            (8, 3, None, (8, True, 117, 9)),
            (9, 3, None, (28, True, 0, 28)),
            (10, 5, None, (9, True, 0, 9)),
            (9, 4, None, (8, True, 1463, 8)),
            # ... and of the target searches a root's greedy seed settles
            (10, 4, 9, (9, False, 0, 11)),
            (11, 5, 9, (9, False, 0, 10)),
            (12, 6, 11, (11, False, 0, 11)),
            (10, 3, 32, (32, False, 0, 46)),
            # SP(n, 2) = C(n-1, (n-3)/2) for odd n is proved, so it stops the
            # search, and the first root's greedy seed meets it
            (9, 2, None, (56, True, 0, 56)),
            (11, 2, None, (210, True, 0, 210)),
        ],
    )
    def test_pinned_outcomes(self, n, k, target, expected):
        outcome = solve_sp(n, k, target=target)
        got = (outcome.size, outcome.proven_optimal, outcome.nodes_explored, outcome.root_bound)
        assert got == expected
        # max_clique on the full candidate graph runs solve_sp's search on the
        # candidates' class masks, so the two explore the same nodes to the same witness
        whole = max_clique(build_graph(enumerate_partitions(n, k)), target=target)
        assert whole._replace(best=None, elapsed=0) == outcome._replace(best=None, elapsed=0)

    @pytest.mark.parametrize(
        "n,k,target,vertices",
        [
            (9, 4, None, (0, 179, 226, 351, 435, 591, 720, 835)),
            (8, 3, None, (1, 332, 347, 368, 397, 418, 431, 447)),
            # the target cells end on a root's greedy seed, so these are its cliques
            (10, 4, 9, (1, 492, 983, 1601, 2116, 2556, 3001, 3538, 4002)),
            (11, 5, 9, (0, 1376, 2570, 4421, 5367, 7308, 7905, 11061, 12483)),
            (12, 6, 11, (0, 961, 1922, 3097, 4058, 5276, 6178, 7232, 8330, 9398, 10250)),
            (
                10,
                3,
                32,
                (119, 157, 204, 228, 259, 295, 331, 367, 527, 569, 596, 634, 667, 698, 738, 884)
                + (923, 964, 990, 1036, 1065, 1218, 1252, 1289, 1322, 1351, 1506, 1579, 1801, 1839, 2183, 2949),
            ),
        ],
    )
    def test_pinned_witnesses(self, n, k, target, vertices):
        # the candidates of the witness, as indices in canonical order
        assert solve_sp(n, k, target=target).vertices == vertices

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_n9_matches_exact_bounds(self, k):
        bounds = sp_bounds(9, k)
        assert bounds.exact
        outcome = solve_sp(9, k)
        assert outcome.proven_optimal
        assert outcome.size == bounds.lower


class TestSolveSp:
    def test_refuses_oversized_adjacency_before_enumerating(self, monkeypatch):
        def no_enumeration(*args):
            raise AssertionError("enumerated a search over the cap")

        monkeypatch.setattr(sperner.search, "_candidate_rows", no_enumeration)
        with pytest.raises(ValueError, match="302,995 candidates.*11,475,935,625 bytes"):
            solve_sp(12, 4)
        # (11,4), about 0.41 GB, is under the cap and goes on to enumerate
        with pytest.raises(AssertionError, match="enumerated"):
            solve_sp(11, 4)

    def test_peak_stays_below_one_roots_rows(self):
        # (11,5): the first root's P holds 8,256 of the 17,325 candidates, and its
        # rows would take |P|^2/8 bytes, 8.5 MB.  The search holds one conflict
        # mask per class over P and builds rows only for one seed try's or one
        # depth-2 group's part of P at a time (3,977 vertices at most here), so
        # its whole peak, the candidates included, stays below those rows.
        assert first_root_size(11, 5) == 8256
        tracemalloc.start()
        try:
            outcome = solve_sp(11, 5, target=9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert outcome.size >= 9
        assert peak < 8256 * 8256 // 8

    @pytest.mark.slow
    def test_11_4_peak_stays_below_half_a_roots_rows(self):
        # (11,4): the first root's P holds 31,428 of the 56,980 candidates, whose
        # rows would take 118 MiB; a seed try's rows take 44.7 MiB at most
        assert first_root_size(11, 4) == 31428
        tracemalloc.start()
        try:
            outcome = solve_sp(11, 4, target=12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (outcome.size, outcome.nodes_explored) == (12, 10)
        assert peak < 31428 * 31428 // 8 // 2

    def test_no_rows_outlive_the_search(self):
        # expand and the enumeration's rec call themselves through their closure
        # cells.  Were those cycles left in place, a search stopped by its target
        # would keep its last unit's masks and rows until the collector ran; with
        # the collector off, three (11,5) searches in a row held 17.9 MiB that way.
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            solve_sp(11, 5, target=9)
            held = tracemalloc.get_traced_memory()[0]  # the interpreter's free lists, filled once
            solve_sp(11, 5, target=9)
            solve_sp(11, 5, target=9)
            grown = tracemalloc.get_traced_memory()[0] - held
            cycles = gc.collect()
        finally:
            tracemalloc.stop()
            if enabled:
                gc.enable()
        assert held < 1 << 20
        assert grown < 64 << 10
        assert cycles == 0  # nothing was left for the collector

    def test_builds_partitions_only_for_its_witness(self, monkeypatch):
        # the search reads its candidates' class masks off rows; enumerating
        # (11,5) as Partitions built 17,325 of them.  A Partition is made
        # through its constructor or through _from_canonical, which skips it.
        built = []
        init, from_canonical = Partition.__init__, Partition._from_canonical.__func__

        def counting_init(self, *args, **kwargs):
            built.append("init")
            init(self, *args, **kwargs)

        def counting_from_canonical(cls, *args):
            built.append("from_canonical")
            return from_canonical(cls, *args)

        monkeypatch.setattr(Partition, "__init__", counting_init)
        monkeypatch.setattr(Partition, "_from_canonical", classmethod(counting_from_canonical))
        outcome = solve_sp(11, 5, target=9)
        assert outcome.size == len(outcome.best) == 9
        assert len(built) == 9

    @pytest.mark.parametrize("n,k,stop,cited", [(7, 3, 6, 5), (10, 4, 11, 10)])
    def test_stop_bound_leaves_out_cited_values(self, n, k, stop, cited):
        # the bounds module cites SP(7,3) = 5 and SP(10,4) = 10 from computer
        # searches; a search may stop at a proved bound only
        assert sp_bounds(n, k).upper == cited
        # a zero budget has expired by the first root, whose seed still completes
        outcome = solve_sp(n, k, time_budget=0.0)
        assert (outcome.root_bound, outcome.proven_optimal, outcome.nodes_explored) == (stop, False, 0)
        assert outcome.size >= 1

    def test_witness_roundtrip(self):
        outcome = solve_sp(7, 3)
        assert outcome.size == 5
        assert outcome.best is not None
        assert verify_sperner(outcome.best).valid
        assert len(outcome.best) == 5

    def test_singleton_classes_never_help(self):
        # a singleton class lies inside the class holding its element in every
        # other partition; with every k-partition as candidates, the graph fails
        # the candidate-set check and runs plain, and finds the same maximum
        for n, k in [(5, 2), (6, 2), (6, 3), (7, 3)]:
            everything = PartitionSystem(n, k, restricted_growth_reference(n, k, 1))
            assert min(min(p.sizes) for p in everything.partitions) == 1
            assert assert_plain(build_graph(everything)).size == solve_sp(n, k).size, (n, k)

    def test_stop_bound_is_the_printed_upper_bound_less_cited_values(self):
        for k in range(1, 13):
            for n in range(2 * k, 61):
                if (n, k) not in [(7, 3), (10, 4)]:
                    assert _proved_upper(n, k)[0] == sp_bounds(n, k).upper, (n, k)

    def test_budget_expiring_after_the_first_root_builds_no_later_rows(self, monkeypatch):
        # every row, of a whole set or of one vertex, is built by _blocked; each
        # root makes its masks and then colors its P through _Degrees
        clock, units, rows = FakeClock(), [], []
        degrees, blocked = sperner.search._Degrees, sperner.search._blocked

        def unit_spy(adj, P):
            units.append(clock.reads)
            return degrees(adj, P)

        def rows_spy(classes, conflict):
            rows.append(clock.reads)
            return blocked(classes, conflict)

        monkeypatch.setattr(sperner.search, "time", clock)
        monkeypatch.setattr(sperner.search, "_Degrees", unit_spy)
        monkeypatch.setattr(sperner.search, "_blocked", rows_spy)
        whole = solve_sp(8, 3, time_budget=0.5)
        assert whole.proven_optimal and len(units) == 2  # (8,3) has two roots
        # building the second root's masks reads no clock, so the last reading
        # before its coloring is the poll before that root
        poll = units[1]
        assert max(rows) >= poll
        clock.rerun(poll)
        units.clear()
        rows.clear()
        outcome = solve_sp(8, 3, time_budget=0.5)
        assert len(units) == 1 and clock.reads == poll + 1  # the one reading after it: elapsed
        assert max(rows) < poll  # no row is built from that poll on
        assert not outcome.proven_optimal
        # the first root's incumbent is the maximum; the second root's node goes unexplored
        assert (outcome.size, outcome.vertices) == (whole.size, whole.vertices) and outcome.size == 8
        assert outcome.nodes_explored == whole.nodes_explored - 1 == 116

    def test_budget_expiring_after_the_seed_stops_before_any_branch(self, monkeypatch):
        clock, seeded = FakeClock(), []
        greedy = sperner.search._greedy_clique

        def spy(*args):
            seed = greedy(*args)
            seeded.append((clock.reads, seed.bit_count()))
            return seed

        monkeypatch.setattr(sperner.search, "time", clock)
        monkeypatch.setattr(sperner.search, "_greedy_clique", spy)
        assert solve_sp(9, 4, time_budget=0.5).nodes_explored == 1463
        # (9,4) has one root, of 588 vertices: the first reading after the
        # seed's poll is the grouping's, at its 256th vertex
        (read, seed_size), = seeded
        clock.rerun(read + 2)
        outcome = solve_sp(9, 4, time_budget=0.5)
        assert clock.reads == read + 3
        assert (outcome.size, outcome.proven_optimal, outcome.nodes_explored) == (1 + seed_size, False, 0)

    def test_budget_expiring_inside_the_branching_stops_at_the_node_poll(self, monkeypatch):
        class BranchClock:
            """Reads late (past a budget of 0.5 s) only when expand polls it."""

            def perf_counter(self):
                return 1.0 if sys._getframe(1).f_code.co_name == "expand" else 0.0

        monkeypatch.setattr(sperner.search, "time", BranchClock())
        # the exact (10,4) search runs far past 2048 nodes; expand polls the
        # clock at every 2048th node, and the first poll ends it
        outcome = solve_sp(10, 4, time_budget=0.5)
        assert (outcome.proven_optimal, outcome.nodes_explored) == (False, 2048)
        assert len(outcome.best) == outcome.size and verify_sperner(outcome.best).valid


def test_an_invalid_search_witness_is_an_internal_error(monkeypatch):
    from sperner.model import SpernerReport

    monkeypatch.setattr(sperner.search, "verify_sperner", lambda system: SpernerReport(False, (), ("planted",)))
    with pytest.raises(RuntimeError, match="^internal error: search witness failed verification$"):
        solve_sp(7, 3)
