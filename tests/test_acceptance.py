"""Acceptance suite: one test per criterion, one pass line per criterion.

Run with `pytest -v tests/test_acceptance.py`; add `-s` to see the
[criterion N] lines as they pass.  Criterion 7 includes the full (9, 4)
exact search, well under a second with the default symmetry reduction.
Criterion 11 (a budgeted (10, 4) search reaching 10, and the (8, 3)
search) takes a few seconds.
"""

import random
import time
from itertools import combinations
from math import comb

from sperner import (
    CompatibilityGraph,
    Partition,
    PartitionSystem,
    build_graph,
    check_difference_property,
    construct_2k1,
    construct_2k2,
    construct_3k1,
    construct_k2,
    counting_upper_bound,
    enumerate_partitions,
    fixture_names,
    format_report,
    is_almost_uniform,
    latin_lift,
    load_fixture,
    max_clique,
    relabel,
    solve_initial_2k1,
    solve_sp,
    sp_bounds,
    verify_sperner,
)
from sperner.rotation import InitialPartition, develop

from oracles import graph_from_edges, tiny_oracle


def _passed(number, text):
    print(f"[criterion {number}] PASS {text}")


def test_criterion_01_fixture_validation():
    t0 = time.perf_counter()
    for name in fixture_names():
        system = load_fixture(name)
        report = verify_sperner(system)
        assert report.valid, (
            f"{name}: bundled-system discrepancy\n" + format_report(system, report)
        )
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"fixture validation took {elapsed:.2f}s"
    _passed(1, f"six bundled systems verify in {elapsed * 1000:.0f} ms")


def test_criterion_02_rotational_2k1_at_scale():
    t0 = time.perf_counter()
    for k in range(4, 31, 2):
        system = construct_2k1(k)
        assert len(system) == 2 * k, k
        assert system.n == 2 * k + 1, k
        assert verify_sperner(system).valid, k
        assert is_almost_uniform(system), k
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"2k+1 constructions took {elapsed:.2f}s"
    _passed(2, f"construct_2k1 for even k=4..30 in {elapsed:.2f}s")


def test_criterion_03_rotational_2k2_at_scale():
    t0 = time.perf_counter()
    for k in range(3, 31):
        system = construct_2k2(k)
        assert len(system) == 2 * k + 1, k
        assert system.n == 2 * k + 2, k
        assert verify_sperner(system).valid, k
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"2k+2 constructions took {elapsed:.2f}s"
    _passed(3, f"construct_2k2 for k=3..30 in {elapsed:.2f}s")


def test_criterion_04_rotational_3k1_at_scale():
    t0 = time.perf_counter()
    for k in range(4, 31):
        system = construct_3k1(k)
        assert len(system) == 3 * k - 1, k
        assert system.n == 3 * k - 1, k
        assert verify_sperner(system).valid, k
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"3k-1 constructions took {elapsed:.2f}s"
    _passed(4, f"construct_3k1 for k=4..30 (incl. k=5 orientation case) in {elapsed:.2f}s")


def test_criterion_05_two_class_family():
    for n in (3, 5, 7, 9, 11, 13, 15):
        half = (n - 1) // 2
        system = construct_k2(n)
        assert len(system) == comb(n - 1, half - 1), n
        assert verify_sperner(system).valid, n
        for p in system.partitions:
            assert sorted(p.sizes) == [half, half + 1], n
    assert len(construct_k2(7)) == 15
    _passed(5, "construct_k2 counts and class shapes for odd n <= 15")


def test_criterion_06_latin_lift():
    lifted_7_3 = latin_lift(load_fixture("fig-7-3"))
    assert len(lifted_7_3) == 15 and lifted_7_3.n == 10
    assert verify_sperner(lifted_7_3).valid
    lifted_9_4 = latin_lift(load_fixture("fig-9-4"))
    assert len(lifted_9_4) == 32 and lifted_9_4.n == 13
    assert verify_sperner(lifted_9_4).valid
    _passed(6, "latin_lift yields 15 partitions from (7,3) and 32 from (9,4)")


def test_criterion_07_exact_search_values():
    lines = []
    for n, k, expected, limit in [(5, 2, 4, 1.0), (6, 3, 5, 10.0), (7, 3, 5, 60.0), (9, 4, 8, 1800.0)]:
        t0 = time.perf_counter()
        outcome = solve_sp(n, k)
        elapsed = time.perf_counter() - t0
        assert outcome.proven_optimal, (n, k)
        assert outcome.size == expected, (n, k, outcome.size)
        assert outcome.best is not None and verify_sperner(outcome.best).valid
        assert elapsed < limit, f"SP({n},{k}) took {elapsed:.1f}s (limit {limit}s)"
        lines.append(f"SP({n},{k})={expected} in {elapsed:.1f}s")
    _passed(7, "; ".join(lines))


def test_criterion_08_bounds_consistency():
    for n in range(1, 25):
        for k in range(1, n + 1):
            result = sp_bounds(n, k)
            assert result.lower <= result.upper, (n, k)
    for k in (2, 4, 6, 8, 10):
        result = sp_bounds(2 * k + 1, k)
        assert result.exact and result.lower == 2 * k, k
    assert sp_bounds(9, 4).exact and sp_bounds(9, 4).lower == 8
    assert sp_bounds(10, 4).exact and sp_bounds(10, 4).lower == 10
    r = sp_bounds(11, 4)
    assert (r.lower, r.upper) == (11, 27)
    _passed(8, "lower <= upper on the full grid n <= 24; pinned cases match")


def test_criterion_09_divisible_identity():
    checked = 0
    for k in range(1, 25):
        ell = 1
        while ell * k <= 24:
            n = ell * k
            assert counting_upper_bound(n, k) == comb(n - 1, ell - 1), (n, k)
            checked += 1
            ell += 1
    _passed(9, f"counting bound collapses to C(lk-1, l-1) on all {checked} divisible cases")


def test_criterion_10a_relabel_invariance():
    rng = random.Random(1729)
    for name in fixture_names():
        system = load_fixture(name)
        for _ in range(100):
            perm = list(range(system.n))
            rng.shuffle(perm)
            assert verify_sperner(relabel(system, perm)).valid, name
    _passed("10a", "verifier invariant under 100 random relabelings per bundled system")


def test_criterion_10b_difference_property_implies_valid_development():
    initials = [solve_initial_2k1(k) for k in range(6, 31, 2)]
    for k in range(3, 31):
        classes = [(1, 2, 2 * k + 2), (k + 1, k + 2, k + 3)]
        classes += [(i, 2 * k + 4 - i) for i in range(3, k + 1)]
        initials.append(InitialPartition(2 * k + 1, classes))
    for k in range(4, 31):
        classes = [(1, 3 * k - 1), (2, k + 1, 3 * k - 2)]
        classes += [(i, 2 * k + 2 - i, 3 * k - i) for i in range(3, k + 1)]
        initials.append(InitialPartition(3 * k - 1, classes))
    for init in initials:
        assert check_difference_property(init).ok
        assert verify_sperner(develop(init)).valid
    _passed("10b", f"difference property implies Sperner development on {len(initials)} initial partitions")


def test_criterion_10c_clique_solver_matches_oracle():
    # the candidate graphs without their candidates, so the plain search runs
    systems = [enumerate_partitions(n, k) for n, k in [(5, 2), (6, 3), (7, 3)]]
    # and all seven 2-partitions of {0..3}, singleton classes included
    halves = [c for r in (1, 2, 3) for c in combinations(range(4), r) if 0 in c]
    systems.append(PartitionSystem(4, 2, [Partition(4, [c, set(range(4)) - set(c)]) for c in halves]))
    graphs = [CompatibilityGraph(build_graph(system).adj) for system in systems]
    rng = random.Random(97)
    for num, p in [(20, 0.4), (30, 0.6), (40, 0.5), (50, 0.7)]:
        edges = [(u, v) for u in range(num) for v in range(u + 1, num) if rng.random() < p]
        graphs.append(graph_from_edges(num, edges))
    for graph in graphs:
        assert graph.num_vertices <= 2000
        outcome = max_clique(graph)
        assert outcome.proven_optimal
        assert outcome.size == tiny_oracle(graph)
        assert outcome.size <= outcome.root_bound
    _passed("10c", f"max_clique equals the exhaustive oracle on {len(graphs)} graphs")


def test_criterion_11a_budgeted_10_4_reaches_ten():
    t0 = time.perf_counter()
    outcome = solve_sp(10, 4, time_budget=600.0, target=10)
    elapsed = time.perf_counter() - t0
    assert outcome.size >= 10, outcome.size
    assert outcome.best is not None and verify_sperner(outcome.best).valid
    _passed("11a", f"(10,4) witness of size {outcome.size} found in {elapsed:.1f}s")


def test_criterion_11b_sp_8_3_outcome_recorded():
    outcome = solve_sp(8, 3)
    assert outcome.proven_optimal
    assert outcome.best is not None and verify_sperner(outcome.best).valid
    assert outcome.size in (8, 9)
    _passed("11b", f"SP(8,3) search finished: maximum is {outcome.size} (tool outcome)")
