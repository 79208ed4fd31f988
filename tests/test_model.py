import random
from math import comb
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sperner import (
    Partition,
    PartitionSystem,
    elements_of,
    fixture_names,
    incomparable,
    is_almost_uniform,
    load_fixture,
    mask_of,
    relabel,
    validate_partition,
    verify_sperner,
)
from sperner import model


def naive_verify(system):
    """Quadratic reference verifier: every ordered cross-partition class pair."""
    violations = set()
    for a, p in enumerate(system.partitions):
        for b, q in enumerate(system.partitions):
            if a == b:
                continue
            for i, c in enumerate(p.classes):
                for j, d in enumerate(q.classes):
                    if c == d:
                        violations.add((a, i, b, j, "equal"))
                    elif c & ~d == 0:
                        violations.add((a, i, b, j, "subset"))
                    elif d & ~c == 0:
                        violations.add((a, i, b, j, "superset"))
    return tuple(sorted(violations))


def test_mask_roundtrip():
    assert mask_of([0, 2, 5]) == 0b100101
    assert elements_of(0b100101) == (0, 2, 5)
    assert elements_of(0) == ()


def test_incomparable_basics():
    assert incomparable(mask_of([0, 1]), mask_of([2, 3]))
    assert not incomparable(mask_of([0, 1]), mask_of([0, 1, 2]))
    assert not incomparable(mask_of([0, 1]), mask_of([0, 1]))
    # overlapping but incomparable
    assert incomparable(mask_of([0, 1]), mask_of([1, 2]))


def test_partition_canonical_order():
    p = Partition(7, [[4, 5, 6], [2, 3], [0, 1]])
    assert p.class_sets == ((0, 1), (2, 3), (4, 5, 6))
    assert p.sizes == (2, 2, 3)
    q = Partition(7, [[1, 0], [3, 2], [6, 5, 4]])
    assert p == q and hash(p) == hash(q)


def test_validate_partition_good():
    p = Partition(7, [[0, 1], [2, 3], [4, 5, 6]], k=3)
    assert validate_partition(p) == []


def test_validate_partition_overlap():
    p = Partition(3, [[0, 1], [1, 2]], k=2)
    errors = validate_partition(p)
    assert any("element 1 appears in more than one class" in e for e in errors)
    assert any("not covered" not in e for e in errors)


def test_validate_partition_wrong_count():
    p = Partition(3, [[0, 1, 2]], k=2)
    errors = validate_partition(p)
    assert any("expected 2 classes" in e for e in errors)


def test_validate_partition_uncovered_and_empty():
    p = Partition(4, [[0, 1], []], k=2)
    errors = validate_partition(p)
    assert any("class 0 is empty" in e for e in errors)
    assert any("element 2 is not covered" in e for e in errors)
    assert any("element 3 is not covered" in e for e in errors)


def test_system_rejects_mismatched_partitions():
    with pytest.raises(ValueError):
        PartitionSystem(7, 3, [Partition(6, [[0, 1], [2, 3], [4, 5]])])


def test_verify_fixture_valid():
    report = verify_sperner(load_fixture("fig-7-3"))
    assert report.valid
    assert report.violations == ()
    assert report.wellformed_errors == ()


def test_verify_single_partition_valid():
    system = PartitionSystem(4, 2, [Partition(4, [[0], [1, 2, 3]])])
    assert verify_sperner(system).valid


def test_verify_duplicate_partition():
    parts = [Partition(4, [[0, 1], [2, 3]]), Partition(4, [[2, 3], [0, 1]])]
    report = verify_sperner(PartitionSystem(4, 2, parts))
    assert not report.valid
    assert report.violations == (
        (0, 0, 1, 0, "equal"),
        (0, 1, 1, 1, "equal"),
        (1, 0, 0, 0, "equal"),
        (1, 1, 0, 1, "equal"),
    )


def test_verify_subset_and_superset_are_paired():
    parts = [
        Partition(5, [[0, 1], [2, 3, 4]]),
        Partition(5, [[0, 1, 2], [3, 4]]),
    ]
    report = verify_sperner(PartitionSystem(5, 2, parts))
    assert (0, 0, 1, 1, "subset") in report.violations  # {0,1} inside {0,1,2}
    assert (1, 1, 0, 0, "superset") in report.violations
    assert (1, 0, 0, 1, "subset") in report.violations  # {3,4} inside {2,3,4}
    assert (0, 1, 1, 0, "superset") in report.violations


@pytest.mark.parametrize("name", ["fig-7-3", "fig-9-4", "fig-8-3", "fig-10-4", "fig-11-4", "fig-17-8"])
def test_verify_matches_naive_verifier(name):
    system = load_fixture(name)
    report = verify_sperner(system)
    assert report.violations == naive_verify(system)


def broken_systems():
    """fig-10-4 with one partition replaced by a random candidate, ten times."""
    rng = random.Random(20240815)
    base = load_fixture("fig-10-4")
    for _ in range(10):
        parts = list(base.partitions)
        elems = list(range(10))
        rng.shuffle(elems)
        cut1, cut2, cut3 = sorted(rng.sample(range(1, 10), 3))
        parts[rng.randrange(len(parts))] = Partition(
            10, [elems[:cut1], elems[cut1:cut2], elems[cut2:cut3], elems[cut3:]]
        )
        yield PartitionSystem(10, 4, parts)


def test_verify_matches_naive_on_broken_systems():
    for system in broken_systems():
        assert verify_sperner(system).violations == naive_verify(system)


def test_verify_pairwise_fallback_over_enum_limit():
    # the size-30 classes have comb(30, 10) subsets of size 10, past the limit
    assert comb(30, 10) > model._SUBSET_ENUM_LIMIT
    a, b = set(range(10)), set(range(10, 20))
    rest = set(range(40))
    parts = [Partition(40, [a, rest - a]), Partition(40, [b, rest - b])]
    system = PartitionSystem(40, 2, parts)
    report = verify_sperner(system)
    # a lies inside the complement of b, and b inside the complement of a
    assert report.violations == (
        (0, 0, 1, 1, "subset"),
        (0, 1, 1, 0, "superset"),
        (1, 0, 0, 1, "subset"),
        (1, 1, 0, 0, "superset"),
    )
    assert report.violations == naive_verify(system)


def test_verify_same_report_on_both_containment_branches(monkeypatch):
    systems = [load_fixture(name) for name in fixture_names()] + list(broken_systems())
    enumerated = [verify_sperner(system) for system in systems]
    monkeypatch.setattr(model, "_SUBSET_ENUM_LIMIT", -1)
    pairwise = [verify_sperner(system) for system in systems]
    assert pairwise == enumerated
    assert any(not report.valid for report in pairwise)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 14).flatmap(lambda n: st.lists(st.integers(1, 2**n - 1), max_size=40)))
def test_containments_match_pairwise_scan(classes):
    # each (proper subset, superset) pair once, on both branches
    expected = sorted({(a, b) for a in classes for b in classes if a != b and a & ~b == 0})
    assert sorted(model.containments(classes)) == expected
    with patch.object(model, "_SUBSET_ENUM_LIMIT", -1):
        assert sorted(model.containments(classes)) == expected


def test_relabel_identity_and_validity():
    system = load_fixture("fig-7-3")
    assert relabel(system, range(7)) == system
    swapped = relabel(system, [1, 0, 2, 3, 4, 5, 6])
    assert verify_sperner(swapped).valid


def test_relabel_rejects_non_bijection():
    system = load_fixture("fig-7-3")
    with pytest.raises(ValueError, match="invalid permutation"):
        relabel(system, [0, 0, 2, 3, 4, 5, 6])


def test_relabel_invariance_random():
    rng = random.Random(7)
    system = load_fixture("fig-9-4")
    for _ in range(25):
        perm = list(range(system.n))
        rng.shuffle(perm)
        assert verify_sperner(relabel(system, perm)).valid


def test_verify_invariant_under_reordering():
    base = load_fixture("fig-9-4")
    reordered = PartitionSystem(
        base.n,
        base.k,
        [Partition(base.n, list(reversed(p.classes)), base.k) for p in reversed(base.partitions)],
    )
    assert reordered == base
    assert verify_sperner(reordered).valid


def test_classes_within_partition_incomparable():
    for name in ["fig-7-3", "fig-10-4", "fig-17-8"]:
        for p in load_fixture(name).partitions:
            for i, c in enumerate(p.classes):
                for d in p.classes[i + 1 :]:
                    assert incomparable(c, d)


def test_no_singleton_class_in_valid_multi_partition_systems():
    # a valid system with more than two partitions cannot contain a singleton class
    for name in ["fig-7-3", "fig-9-4", "fig-8-3", "fig-10-4", "fig-11-4", "fig-17-8"]:
        system = load_fixture(name)
        if len(system.partitions) > 2:
            assert all(min(p.sizes) >= 2 for p in system.partitions)


def test_is_almost_uniform():
    assert is_almost_uniform(load_fixture("fig-7-3"))
    assert not is_almost_uniform(load_fixture("fig-10-4"))
    uniform = PartitionSystem(6, 3, [Partition(6, [[0, 1], [2, 3], [4, 5]])])
    assert is_almost_uniform(uniform)
