import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sperner import (
    InitialPartition,
    check_difference_property,
    develop,
    enumerate_partitions,
    load_fixture,
    solve_initial_2k1,
    verify_sperner,
)
from sperner.model import _turn, elements_of, mask_of


def fig2_initial():
    return InitialPartition(16, [(1, 5, 9), (8, 11), (7, 12), (6, 13), (2, 16), (4, 10), (3, 17), (14, 15)])


def test_initial_partition_checks_every_label():
    # 1.0 == 1 would pass the cover check; every label must be a layout point
    with pytest.raises(ValueError, match="1.0 is not a layout point"):
        InitialPartition(6, [(1.0,), (2, 3), (4, 5, 6)])
    with pytest.raises(ValueError, match="True is not a layout point"):
        InitialPartition(3, [(True, 2, 3)])
    with pytest.raises(ValueError, match="'a' is not a layout point"):
        InitialPartition(3, [(3, "a"), (1, 2)])
    # 7 is the 6-circle's center; 8 is past it
    with pytest.raises(ValueError, match="8 is not a layout point.*the center is 7"):
        InitialPartition(6, [(1, 2, 8), (3, 4), (5, 6)])
    with pytest.raises(ValueError, match="the center is 9"):
        InitialPartition(8, [(1, 2), (3, 4), (5, 6), (7, 8, float("inf"))])
    init = InitialPartition(8, [(1, 2), (3, 4), (5, 6), (7, 8, 9)])
    assert init.to_partition().classes[-1] == 0b111000000


def test_initial_partition_refuses_an_empty_class():
    # it would cover the circle, develop to a malformed system and fail
    # the difference check only as an unsupported shape
    with pytest.raises(ValueError, match="class 0 is empty"):
        InitialPartition(5, [(), (1, 2), (3, 4, 5)])


def test_initial_partition_refuses_a_non_int_size():
    with pytest.raises(ValueError, match="5.0"):
        InitialPartition(5.0, [(1, 2), (3, 4, 5)])
    with pytest.raises(ValueError, match="True"):
        InitialPartition(True, [(1, 2)])


def test_initial_partition_must_cover():
    with pytest.raises(ValueError, match="cover"):
        InitialPartition(6, [(1, 2), (3, 4)])
    # the center alone does not stand in for a circle point
    with pytest.raises(ValueError, match="cover"):
        InitialPartition(6, [(1, 2), (3, 4), (5, 7)])


def test_initial_partition_reads_the_center_off_the_labels():
    assert not InitialPartition(6, [(1, 2), (3, 4, 5, 6)]).has_center
    init = InitialPartition(6, [(1, 2, 7), (3, 4), (5, 6)])
    assert init.has_center and init.to_partition().n == 7


@settings(max_examples=300, deadline=None)
@given(st.integers(3, 40).flatmap(lambda m: st.tuples(
    st.just(m), st.integers(0, m - 1), st.integers(0, (1 << (m + 1)) - 1)
)))
def test_rotate_turns_the_circle_and_fixes_the_center(args):
    m, t, mask = args
    turned = [e if e == m else (e + t) % m for e in elements_of(mask)]
    assert _turn([mask], t, [(0, m)]) == [mask_of(turned)]


def test_develop_identity_rotation():
    init = fig2_initial()
    system = develop(init)
    assert len(system) == 16
    assert system.partitions[0] == init.to_partition()


def test_develop_fig2_equals_bundled_17_8():
    system = develop(fig2_initial())
    assert system == load_fixture("fig-17-8").with_name(None)


def test_develop_rotated_seed_gives_same_system():
    init = InitialPartition(11, [(1, 2), (3, 6, 11), (4, 8, 10), (5, 7, 9)])
    system = develop(init)
    assert system == load_fixture("fig-11-4").with_name(None)


def test_develop_count_and_wellformedness():
    init = fig2_initial()
    system = develop(init)
    report = verify_sperner(system)
    assert report.valid
    assert len(system) == init.m


def test_develop_commutes_with_circle_rotation():
    # relabeling a developed system by one rotation step permutes its partitions
    from sperner import relabel

    init = fig2_initial()
    system = develop(init)
    m = init.m
    perm = [(e + 1) % m for e in range(m)] + [m]  # center stays fixed
    assert relabel(system, perm) == system


def test_difference_property_fig2():
    assert check_difference_property(fig2_initial()).ok


def test_difference_property_duplicate_edge():
    init = InitialPartition(8, [(1, 2), (5, 6), (3, 8), (4, 7, 9)])
    check = check_difference_property(init)
    assert not check.ok
    assert any("edge difference 1" in p for p in check.problems)


def test_difference_property_2k2_seed():
    init = InitialPartition(9, [(1, 2, 10), (3, 9), (4, 8), (5, 6, 7)])
    assert check_difference_property(init).ok


def test_difference_property_diameter_edge():
    # {1, 5} realizes the diameter on an 8-circle and repeats after 4 rotations
    init = InitialPartition(8, [(1, 5), (2, 3), (4, 6, 8), (7, 9)])
    check = check_difference_property(init)
    assert not check.ok
    assert any("diameter" in p for p in check.problems)


def test_difference_property_edge_inside_triangle():
    # edge {2,3} has difference 1; triangle {5,6,8} realizes 1 as well
    init = InitialPartition(9, [(2, 3), (1, 4), (7, 9), (5, 6, 8)])
    check = check_difference_property(init)
    assert not check.ok
    assert any("edge difference 1" in p and "occurs inside" in p for p in check.problems)


def test_difference_property_unsupported_shape():
    init = InitialPartition(10, [(1, 2, 3, 4, 5), (6, 7), (8, 9, 10)])
    with pytest.raises(ValueError, match="unsupported initial shape"):
        check_difference_property(init)
    singleton = InitialPartition(10, [(1,), (2, 3, 4, 5), (6, 7), (8, 9, 10)])
    with pytest.raises(ValueError, match="unsupported initial shape"):
        check_difference_property(singleton)


def test_difference_property_colliding_triangle_orbits():
    # two triangles with the same circular gap sequence collide under rotation
    init = InitialPartition(12, [(1, 2, 6), (4, 5, 9), (3, 10), (7, 12), (8, 11)])
    check = check_difference_property(init)
    assert not check.ok
    assert any("collide" in p for p in check.problems)


def test_solve_initial_even_k_range():
    for k in range(6, 501, 2):
        init = solve_initial_2k1(k)
        assert check_difference_property(init).ok
        sizes = sorted(len(c) for c in init.classes)
        assert sizes == [2] * (k - 1) + [3]
        if k <= 100:
            system = develop(init)
            assert len(system) == 2 * k
            assert verify_sperner(system).valid


def test_solve_initial_rejections():
    with pytest.raises(ValueError, match="even k"):
        solve_initial_2k1(5)
    with pytest.raises(ValueError, match="construct_k2"):
        solve_initial_2k1(2)
    with pytest.raises(ValueError, match="no initial partition"):
        solve_initial_2k1(4)


def test_no_initial_partition_for_k4():
    # every initial partition of the 8-circle with center into one triple
    # and three pairs, the center anywhere
    candidates = enumerate_partitions(9, 4)
    assert len(candidates) == 1260
    for p in candidates.partitions:
        init = InitialPartition(8, [[x + 1 for x in c] for c in p.class_sets])
        assert not check_difference_property(init).ok
        assert not verify_sperner(develop(init)).valid


def test_solve_initial_deterministic():
    a = solve_initial_2k1(12)
    b = solve_initial_2k1(12)
    assert a.classes == b.classes


@st.composite
def initial_partitions(draw):
    """Classes of sizes 2..4 covering a circle of 5..14 points, with or without center."""
    m = draw(st.integers(5, 14))
    points = draw(st.permutations(range(1, m + 1 + draw(st.booleans()))))
    classes = []
    while points:
        # never leave a single point, which could not form a class
        fits = [s for s in (2, 3, 4) if s == len(points) or len(points) - s >= 2]
        size = draw(st.sampled_from(fits))
        classes.append(points[:size])
        points = points[size:]
    return InitialPartition(m, classes)


@settings(max_examples=500, deadline=None)
@given(initial_partitions())
def test_difference_property_implies_valid_development_mixed_sizes(init):
    # with triangles and 4-classes side by side this reaches the check for
    # a developed smaller class inside a developed larger one; the check
    # and the verifier must agree both ways
    system = develop(init)
    assert len(system) == init.m  # repeated images are kept, for the verifier to report
    assert check_difference_property(init).ok == verify_sperner(system).valid
