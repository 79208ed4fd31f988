import random
import time
import tracemalloc
from itertools import combinations
from math import comb, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sperner import (
    Partition,
    PartitionSystem,
    construct_3k1,
    construct_k2,
    elements_of,
    enumerate_partitions,
    fixture_names,
    format_report,
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


def test_elements_of_rejects_negative_mask():
    with pytest.raises(ValueError, match="negative mask -3"):
        elements_of(-3)


def test_partition_rejects_negative_class_mask():
    # a negative int class would make the set-bit walks loop forever
    with pytest.raises(ValueError, match="class 0 is a negative mask"):
        Partition(4, [-3, 4], 2)
    with pytest.raises(ValueError, match="class 1 is a negative mask"):
        Partition(4, [3, -1])
    with pytest.raises(ValueError):
        Partition(4, [[0, -1], [2, 3]])


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


def test_report_names_malformed_partitions():
    parts = [Partition(4, [[0, 1], [2, 3]]), Partition(4, [[0, 1], []], k=2)]
    system = PartitionSystem(4, 2, parts)
    report = verify_sperner(system)
    assert not report.valid
    lines = format_report(system, report).splitlines()
    assert lines[:4] == [
        "malformed: partition 1: class 0 is empty",
        "malformed: partition 1: element 2 is not covered by any class",
        "malformed: partition 1: element 3 is not covered by any class",
        "violation: partition 0 class 0 [0, 1] is a superset of partition 1 class 0 []",
    ]


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


def reference_verify(system):
    """verify_sperner as it stood with a class -> locations map over every class."""
    wellformed = []
    for t, p in enumerate(system.partitions):
        wellformed.extend(f"partition {t}: {msg}" for msg in validate_partition(p))

    owners = {}
    for a, p in enumerate(system.partitions):
        for i, c in enumerate(p.classes):
            owners.setdefault(c, []).append((a, i))

    violations = set()

    for locs in owners.values():
        if len(locs) > 1:
            for a, i in locs:
                for b, j in locs:
                    if a != b:
                        violations.add((a, i, b, j, "equal"))

    for sub, sup in model.containments(owners):
        for a, i in owners[sub]:
            for b, j in owners[sup]:
                if a != b:
                    violations.add((a, i, b, j, "subset"))
                    violations.add((b, j, a, i, "superset"))

    violations_sorted = tuple(sorted(violations))
    valid = not violations_sorted and not wellformed
    return model.SpernerReport(valid, violations_sorted, tuple(wellformed))


@st.composite
def verify_systems(draw):
    """Small systems full of findings: repeated partitions, equal and nested
    classes, and partitions that are empty-classed, overlapping, uncovered,
    out of range or of the wrong class count."""
    n = draw(st.integers(1, 8))
    k = draw(st.integers(1, 4))
    parts = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(["cut", "cut", "cut", "repeat", "loose"]))
        if kind == "repeat" and parts:
            parts.append(draw(st.sampled_from(parts)))
        elif kind == "loose":
            element = st.integers(0, n + 1)
            classes = draw(st.lists(st.lists(element, max_size=n), min_size=max(k - 1, 0), max_size=k + 1))
            parts.append(Partition(n, classes, k))
        else:
            # a k-partition when the cuts differ; equal cuts leave empty classes
            elems = draw(st.permutations(range(n)))
            cuts = sorted(draw(st.lists(st.integers(0, n), min_size=k - 1, max_size=k - 1)))
            parts.append(Partition(n, [elems[lo:hi] for lo, hi in zip([0, *cuts], [*cuts, n])], k))
    return PartitionSystem(n, k, parts)


@settings(max_examples=300, deadline=None)
@given(verify_systems())
def test_verify_matches_reference_on_random_systems(system):
    assert verify_sperner(system) == reference_verify(system)


def test_verify_matches_reference_on_fixtures_and_broken_systems():
    systems = [load_fixture(name) for name in fixture_names()] + list(broken_systems())
    for system in systems:
        assert verify_sperner(system) == reference_verify(system)


def verify_peak_per_class(system):
    """verify_sperner's report and traced peak, in bytes per class of the system."""
    classes = sum(len(p.classes) for p in system.partitions)
    tracemalloc.start()
    try:
        report = verify_sperner(system)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return report, peak / classes


def test_verify_keeps_a_few_bytes_per_class():
    # 10,740 classes.  A class -> locations map costs over 200 bytes per
    # class and one set of every class 61; holding the classes by size
    # reads 12.9 (a list entry per class)
    report, per_class = verify_peak_per_class(construct_3k1(60))
    assert report.valid
    assert per_class < 20, per_class


def test_verify_keeps_a_few_bytes_per_class_of_a_large_k2_system():
    # 87,516 classes.  One set of every class costs 76 bytes per class;
    # holding the classes by size reads 36.0 (a list entry per class, and a
    # set only of the 43,758 size-9 classes that the size-10 ones look up)
    report, per_class = verify_peak_per_class(construct_k2(19))
    assert report.valid
    assert per_class < 45, per_class


def test_verify_keeps_a_few_bytes_per_class_of_a_repeated_partition():
    # construct_k2(19) and its first partition again: the size-9 set is
    # one class short, and its repeat is found in a sorted list of the
    # 43,759 size-9 classes, 44.0 bytes per class; counting every class of
    # the system took 121.9
    system = construct_k2(19)
    system = PartitionSystem(system.n, system.k, [*system.partitions, system.partitions[0]])
    report, per_class = verify_peak_per_class(system)
    assert report == reference_verify(system)
    assert len(report.violations) == 4
    assert per_class < 60, per_class


def sized_system(n, k, class_lists):
    return PartitionSystem(n, k, [Partition(n, classes, k) for classes in class_lists])


def held_as(system):
    """size -> "set", "sorted" (searched by bisection) or "list" (never looked up), as verify_sperner holds it."""
    groups, lookups, _ = model._by_size([p.classes for p in system.partitions])
    kinds = {}
    for s, group in groups.items():
        if isinstance(group, set):
            kinds[s] = "set"
        else:
            kinds[s] = "sorted" if s in lookups else "list"
    return kinds


# seven (2, 2, 2, 2) partitions of 0..7 hold many size-2 classes; one
# (1, 2, 2, 3) partition adds a size-3 class that holds one of them
PAIRS_OF_8 = [
    [[0, 1], [2, 3], [4, 5], [6, 7]],
    [[0, 2], [1, 3], [4, 6], [5, 7]],
    [[0, 3], [1, 2], [4, 7], [5, 6]],
    [[0, 4], [1, 5], [2, 6], [3, 7]],
    [[0, 5], [1, 4], [2, 7], [3, 6]],
    [[0, 6], [1, 7], [2, 4], [3, 5]],
    [[0, 7], [1, 6], [2, 5], [3, 4]],
]


@pytest.mark.parametrize(
    "system, kinds",
    [
        pytest.param(
            # {0} and {1, 2, 3, 4} repeat; each size is scanned, never looked up
            sized_system(5, 2, [[[0], [1, 2, 3, 4]], [[0], [1, 2, 3, 4]], [[1], [0, 2, 3, 4]]]),
            {1: "list", 4: "list"},
            id="repeats-in-a-size-never-looked-up",
        ),
        pytest.param(
            # {0} repeats, and the size-2 classes look the singletons up
            sized_system(4, 3, [[[0], [1], [2, 3]], [[0], [2], [1, 3]]]),
            {1: "set", 2: "list"},
            id="repeats-in-a-looked-up-size",
        ),
        pytest.param(
            # {0} < {0, 1} < {0, 1, 2} and {3, 4, 5} < {2, ..., 5} < {1, ..., 5}
            sized_system(6, 2, [[[0], [1, 2, 3, 4, 5]], [[0, 1], [2, 3, 4, 5]], [[0, 1, 2], [3, 4, 5]]]),
            {1: "list", 2: "list", 3: "list", 4: "list", 5: "list"},
            id="chain-across-three-sizes",
        ),
        pytest.param(
            # three size-3 lookups into 30 size-2 classes: bisection, no set
            sized_system(8, 4, PAIRS_OF_8 + [[[0], [1, 2], [4, 5], [3, 6, 7]]]),
            {1: "list", 2: "sorted", 3: "list"},
            id="few-lookups-into-a-large-size",
        ),
        pytest.param(
            # the last partition repeats the second
            sized_system(4, 2, [[[0, 1], [2, 3]], [[0, 2], [1, 3]], [[0, 3], [1, 2]], [[0, 2], [1, 3]]]),
            {2: "list"},
            id="single-size",
        ),
        pytest.param(PartitionSystem(5, 2, []), {}, id="empty"),
    ],
)
def test_verify_matches_reference_on_each_way_of_holding_a_size(system, kinds):
    assert held_as(system) == kinds
    report = verify_sperner(system)
    assert report == reference_verify(system)
    assert report.violations == naive_verify(system)
    assert report.valid == (not system.partitions)


def test_verify_empty_system_builds_no_n_bit_mask():
    # a 10^7-bit mask is 1.25 MB; a system with no partition needs none
    for n, k in ((10**7, 1), (10**9, 2)):
        tracemalloc.start()
        try:
            report = verify_sperner(PartitionSystem(n, k, []))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.valid
        assert peak < 100_000, (n, peak)


# containments as it stood with one global switch: subset enumeration while
# the summed enumeration cost stayed within OLD_SUBSET_ENUM_LIMIT, else an
# all-pairs scan.  Its two branches are kept here as reference indexes.
OLD_SUBSET_ENUM_LIMIT = 2_000_000


def reference_containments_enum(classes):
    present = set(classes)
    sizes_present = sorted({c.bit_count() for c in present})
    for sup in present:
        size = sup.bit_count()
        if size <= sizes_present[0]:
            continue
        bits = []
        rest = sup
        while rest:
            low = rest & -rest
            bits.append(low)
            rest ^= low
        for s in sizes_present:
            if s >= size:
                break
            for sub in map(sum, combinations(bits, s)):
                if sub in present:
                    yield sub, sup


def reference_containments_pairwise(classes):
    by_size = sorted(set(classes), key=lambda m: (m.bit_count(), m))
    for idx, small in enumerate(by_size):
        ssize = small.bit_count()
        for big in by_size[idx + 1 :]:
            if big.bit_count() > ssize and small & ~big == 0:
                yield small, big


REFERENCE_BRANCHES = (reference_containments_enum, reference_containments_pairwise)


def forty_element_system():
    a, b = set(range(10)), set(range(10, 20))
    rest = set(range(40))
    parts = [Partition(40, [a, rest - a]), Partition(40, [b, rest - b])]
    return PartitionSystem(40, 2, parts)


def classes_of(system):
    return [c for p in system.partitions for c in p.classes]


def test_verify_pairwise_fallback_over_enum_limit():
    # the size-30 classes have comb(30, 10) subsets of size 10, past the old
    # limit: the old index scanned all pairs here
    assert comb(30, 10) > OLD_SUBSET_ENUM_LIMIT
    system = forty_element_system()
    classes = classes_of(system)
    # the enumeration branch would build 2 * comb(30, 10) subsets here
    assert sorted(model.containments(classes)) == sorted(
        reference_containments_pairwise(classes)
    )
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
    current = [verify_sperner(system) for system in systems]
    monkeypatch.setattr(model, "containments", reference_containments_enum)
    enumerated = [verify_sperner(system) for system in systems]
    monkeypatch.setattr(model, "containments", reference_containments_pairwise)
    pairwise = [verify_sperner(system) for system in systems]
    assert enumerated == current
    assert pairwise == enumerated
    assert any(not report.valid for report in pairwise)
    for system in systems:
        classes = set(classes_of(system))
        for branch in REFERENCE_BRANCHES:
            assert sorted(model.containments(classes)) == sorted(branch(classes))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 14).flatmap(lambda n: st.lists(st.integers(1, 2**n - 1), max_size=40)))
def test_containments_match_pairwise_scan(classes):
    # each (proper subset, superset) pair once, here and on both reference branches
    expected = sorted({(a, b) for a in classes for b in classes if a != b and a & ~b == 0})
    assert sorted(model.containments(classes)) == expected
    for branch in REFERENCE_BRANCHES:
        assert sorted(branch(classes)) == expected


def test_containments_looks_up_and_scans_in_one_call(monkeypatch):
    # The forty-element system alone has one (class, smaller size) pair, a
    # size-30 class against the two size-10 classes, and comb(30, 10) > 2,
    # so that pair scans.  Forty (1, 39) partitions add forty singletons,
    # enough for every larger class to look its singletons up.
    system = forty_element_system()
    everything = set(range(40))
    singles = [Partition(40, [{x}, everything - {x}]) for x in range(40)]
    system = PartitionSystem(40, 2, system.partitions + tuple(singles))
    sized, looked_up = [], []

    def comb_spy(size, s):
        sized.append((size, s))
        return comb(size, s)

    def combinations_spy(bits, s):
        looked_up.append((len(bits), s))
        return combinations(bits, s)

    monkeypatch.setattr(model, "comb", comb_spy)
    monkeypatch.setattr(model, "combinations", combinations_spy)
    classes = classes_of(system)
    pairs = list(model.containments(classes))
    scanned = set(sized) - set(looked_up)
    assert (30, 10) in scanned and (39, 30) in scanned
    assert (10, 1) in looked_up and (30, 1) in looked_up
    assert sorted(pairs) == sorted(reference_containments_pairwise(classes))
    monkeypatch.undo()
    assert verify_sperner(system).violations == naive_verify(system)


def test_containments_fast_on_one_lopsided_partition():
    # 16,000 (20, 20) partitions of 40 elements and one (5, 35): the old
    # index's summed enumeration cost went past its limit and every class
    # was scanned against every other (about 25 s)
    rng = random.Random(11)
    full = (1 << 40) - 1
    halves = set()
    while len(halves) < 16_000:
        a = mask_of(rng.sample(range(40), 20))
        halves.add(a if a & 1 else full ^ a)
    five, thirty_five = mask_of(range(5)), mask_of(range(5, 40))
    twenties = [c for a in halves for c in (a, full ^ a)]
    classes = twenties + [five, thirty_five]
    start = time.perf_counter()
    pairs = sorted(model.containments(classes))
    elapsed = time.perf_counter() - start
    expected = sorted(
        [(five, c) for c in twenties if five & ~c == 0]
        + [(c, thirty_five) for c in twenties if c & ~thirty_five == 0]
    )
    assert expected and pairs == expected
    assert elapsed < 5


def test_containments_keeps_subset_lookup_order():
    # on these inputs every pair is looked up, so the pairs come out in the
    # old enumeration branch's order
    systems = [load_fixture(name) for name in fixture_names()]
    systems += [enumerate_partitions(n, k) for n, k in [(8, 3), (10, 4)]]
    for system in systems:
        classes = dict.fromkeys(classes_of(system))
        assert list(model.containments(classes)) == list(reference_containments_enum(classes))


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


@st.composite
def partitions_with_runs(draw):
    """A random partition of 1..12 elements and 1-3 disjoint runs, the rest fixed points."""
    n = draw(st.integers(1, 12))
    cuts = sorted(draw(st.sets(st.integers(0, n), min_size=2, max_size=6)))
    runs = [(a, b - a) for a, b in zip(cuts[::2], cuts[1::2])][:3]
    blocks = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    classes = [[e for e in range(n) if blocks[e] == b] for b in sorted(set(blocks))]
    return Partition(n, classes), runs


@settings(max_examples=300, deadline=None)
@given(partitions_with_runs())
def test_orbit_matches_relabel_powers(args):
    p, runs = args
    perm = list(range(p.n))
    for start, length in runs:
        for i in range(length):
            perm[start + i] = start + (i + 1) % length
    system = model.orbit(p, runs, name="o")
    assert len(system) == lcm(*(length for _, length in runs))
    assert system.name == "o"
    image = PartitionSystem(p.n, p.k, [p])
    for q in system.partitions:
        assert q == image.partitions[0]
        image = relabel(image, perm)


def test_orbit_under_two_runs_is_sperner():
    p = Partition(11, [{0, 1}, {2, 4}, {3, 5}, {6, 9}, {7, 8, 10}])
    system = model.orbit(p, [(0, 5), (5, 5)])
    assert (system.n, system.k, len(system)) == (11, 5, 5)
    assert system.partitions[0] == p
    assert verify_sperner(system).valid


def test_orbit_without_runs_is_the_partition_alone():
    p = Partition(3, [{0}, {1, 2}])
    assert model.orbit(p, []).partitions == (p,)


@pytest.mark.parametrize(
    "runs, message",
    [
        ([(0, 3), (2, 2)], "overlaps"),
        ([(4, 2)], "outside 0..4"),
        ([(-1, 2)], "outside 0..4"),
        ([(1, 0)], "length >= 1"),
        ([(0, 2.0)], "int"),
        ([(True, 2)], "int"),
    ],
    ids=["overlap", "past-the-end", "negative-start", "empty", "float-length", "bool-start"],
)
def test_orbit_refuses_bad_runs(runs, message):
    with pytest.raises(ValueError, match=message):
        model.orbit(Partition(5, [{0, 1}, {2, 3, 4}]), runs)


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
