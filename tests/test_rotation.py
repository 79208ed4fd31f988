import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sperner import (
    INF,
    CircularLayout,
    InitialPartition,
    check_difference_property,
    develop,
    difference,
    enumerate_partitions,
    load_fixture,
    solve_initial_2k1,
    verify_sperner,
)
from sperner.model import elements_of, mask_of
from sperner.rotation import _rotate


def fig2_initial():
    layout = CircularLayout(16, has_center=True)
    return InitialPartition(
        layout, [(1, 5, 9), (8, 11), (7, 12), (6, 13), (2, 16), (4, 10), (3, layout.center), (14, 15)]
    )


def test_difference_values():
    layout = CircularLayout(16, has_center=True)
    assert difference(layout, 1, 9) == 8
    assert difference(layout, 2, 16) == 2
    assert difference(layout, 3, layout.center) == INF
    assert difference(layout, 16, 1) == 1


def test_difference_same_point_rejected():
    layout = CircularLayout(16, has_center=True)
    with pytest.raises(ValueError, match="difference of a point with itself"):
        difference(layout, 3, 3)


def test_difference_requires_center():
    layout = CircularLayout(8)
    with pytest.raises(ValueError, match="no center"):
        difference(layout, 1, layout.center)


def test_initial_partition_checks_every_label():
    # 1.0 == 1 would pass the cover check; every label must be a layout point
    with pytest.raises(ValueError, match="1.0 is not a layout point"):
        InitialPartition(CircularLayout(6), [(1.0,), (2, 3), (4, 5, 6)])
    with pytest.raises(ValueError, match="True is not a layout point"):
        InitialPartition(CircularLayout(3), [(True, 2, 3)])
    with pytest.raises(ValueError, match="'a' is not a layout point"):
        InitialPartition(CircularLayout(3), [(3, "a"), (1, 2)])
    with pytest.raises(ValueError, match="layout has no center"):
        InitialPartition(CircularLayout(6), [(1, 2, 7), (3, 4), (5, 6)])
    layout = CircularLayout(8, has_center=True)
    with pytest.raises(ValueError, match="layout.center = 9"):
        InitialPartition(layout, [(1, 2), (3, 4), (5, 6), (7, 8, INF)])
    init = InitialPartition(layout, [(1, 2), (3, 4), (5, 6), (7, 8, layout.center)])
    assert init.to_partition().classes[-1] == 0b111000000


def test_initial_partition_must_cover():
    layout = CircularLayout(6)
    with pytest.raises(ValueError, match="cover"):
        InitialPartition(layout, [(1, 2), (3, 4)])


@settings(max_examples=300, deadline=None)
@given(st.integers(3, 40).flatmap(lambda m: st.tuples(
    st.just(m), st.integers(0, m - 1), st.integers(0, (1 << (m + 1)) - 1)
)))
def test_rotate_turns_the_circle_and_fixes_the_center(args):
    m, t, mask = args
    turned = [e if e == m else (e + t) % m for e in elements_of(mask)]
    assert _rotate(mask, t, m) == mask_of(turned)


def test_develop_identity_rotation():
    init = fig2_initial()
    system = develop(init)
    assert len(system) == 16
    assert system.partitions[0] == init.to_partition()


def test_develop_fig2_equals_bundled_17_8():
    system = develop(fig2_initial())
    assert system == load_fixture("fig-17-8").with_name(None)


def test_develop_rotated_seed_gives_same_system():
    layout = CircularLayout(11)
    init = InitialPartition(layout, [(1, 2), (3, 6, 11), (4, 8, 10), (5, 7, 9)])
    system = develop(init)
    assert system == load_fixture("fig-11-4").with_name(None)


def test_develop_count_and_wellformedness():
    init = fig2_initial()
    system = develop(init)
    report = verify_sperner(system)
    assert report.valid
    assert len(system) == init.layout.m


def test_develop_commutes_with_circle_rotation():
    # relabeling a developed system by one rotation step permutes its partitions
    from sperner import relabel

    init = fig2_initial()
    system = develop(init)
    m = init.layout.m
    perm = [(e + 1) % m for e in range(m)] + [m]  # center stays fixed
    assert relabel(system, perm) == system


def test_difference_property_fig2():
    assert check_difference_property(fig2_initial()).ok


def test_difference_property_duplicate_edge():
    layout = CircularLayout(8, has_center=True)
    init = InitialPartition(layout, [(1, 2), (5, 6), (3, 8), (4, 7, layout.center)])
    check = check_difference_property(init)
    assert not check.ok
    assert any("edge difference 1" in p for p in check.problems)


def test_difference_property_2k2_seed():
    layout = CircularLayout(9, has_center=True)
    init = InitialPartition(layout, [(1, 2, layout.center), (3, 9), (4, 8), (5, 6, 7)])
    assert init.class_differences == ((1, INF, INF), (3,), (4,), (1, 1, 2))
    assert check_difference_property(init).ok


def test_difference_property_diameter_edge():
    # {1, 5} realizes the diameter on an 8-circle and repeats after 4 rotations
    layout = CircularLayout(8, has_center=True)
    init = InitialPartition(layout, [(1, 5), (2, 3), (4, 6, 8), (7, layout.center)])
    check = check_difference_property(init)
    assert not check.ok
    assert any("diameter" in p for p in check.problems)


def test_difference_property_edge_inside_triangle():
    layout = CircularLayout(9)
    # edge {2,3} has difference 1; triangle {5,6,8} realizes 1 as well
    init = InitialPartition(layout, [(2, 3), (1, 4), (7, 9), (5, 6, 8)])
    check = check_difference_property(init)
    assert not check.ok
    assert any("edge difference 1" in p and "occurs inside" in p for p in check.problems)


def test_difference_property_unsupported_shape():
    layout = CircularLayout(10)
    init = InitialPartition(layout, [(1, 2, 3, 4, 5), (6, 7), (8, 9, 10)])
    with pytest.raises(ValueError, match="unsupported initial shape"):
        check_difference_property(init)
    singleton = InitialPartition(layout, [(1,), (2, 3, 4, 5), (6, 7), (8, 9, 10)])
    with pytest.raises(ValueError, match="unsupported initial shape"):
        check_difference_property(singleton)


def test_difference_property_colliding_triangle_orbits():
    # two triangles with the same circular gap sequence collide under rotation
    layout = CircularLayout(12)
    init = InitialPartition(
        layout, [(1, 2, 6), (4, 5, 9), (3, 10), (7, 12), (8, 11)]
    )
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
    layout = CircularLayout(8, has_center=True)
    candidates = enumerate_partitions(9, 4, min_class_size=2)
    assert len(candidates) == 1260
    for p in candidates.partitions:
        init = InitialPartition(layout, [[x + 1 for x in c] for c in p.class_sets])
        assert not check_difference_property(init).ok
        assert not verify_sperner(develop(init)).valid


def test_solve_initial_deterministic():
    a = solve_initial_2k1(12)
    b = solve_initial_2k1(12)
    assert a.classes == b.classes


@st.composite
def initial_partitions(draw):
    """Classes of sizes 2..4 covering a circle of 5..14 points, with or without center."""
    layout = CircularLayout(draw(st.integers(5, 14)), has_center=draw(st.booleans()))
    points = draw(st.permutations(layout.points()))
    classes = []
    while points:
        # never leave a single point, which could not form a class
        fits = [s for s in (2, 3, 4) if s == len(points) or len(points) - s >= 2]
        size = draw(st.sampled_from(fits))
        classes.append(points[:size])
        points = points[size:]
    return InitialPartition(layout, classes)


@settings(max_examples=500, deadline=None)
@given(initial_partitions())
def test_difference_property_implies_valid_development_mixed_sizes(init):
    # with triangles and 4-classes side by side this reaches the check for
    # a developed smaller class inside a developed larger one; the check
    # and the verifier must agree both ways
    assert check_difference_property(init).ok == verify_sperner(develop(init)).valid
