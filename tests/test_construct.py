from math import comb

import pytest

from sperner import (
    Partition,
    PartitionSystem,
    construct_2k1,
    construct_2k2,
    construct_3k1,
    construct_auto,
    construct_k2,
    extend_by_one,
    is_almost_uniform,
    latin_lift,
    load_fixture,
    plan_construction,
    serialize,
    sp_bounds,
    verify_sperner,
)


def assert_valid(system):
    report = verify_sperner(system)
    assert report.valid, report.violations[:5]


class TestConstructK2:
    def test_counts_and_shapes(self):
        for n in (3, 5, 7, 9, 11, 13, 15):
            half = (n - 1) // 2
            system = construct_k2(n)
            assert len(system) == comb(n - 1, half - 1)
            assert_valid(system)
            for p in system.partitions:
                assert sorted(p.sizes) == [half, half + 1]

    def test_n3_single_partition(self):
        system = construct_k2(3)
        assert len(system) == 1
        assert system.partitions[0] == Partition(3, [[0], [1, 2]])

    def test_even_n_rejected(self):
        with pytest.raises(ValueError, match="even"):
            construct_k2(6)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError, match="n >= 3"):
            construct_k2(1)


class TestConstruct2k1:
    def test_k2_uses_two_class_optimum(self):
        system = construct_2k1(2)
        assert len(system) == 4 and system.n == 5
        assert_valid(system)

    def test_k4_is_bundled_system(self):
        system = construct_2k1(4)
        assert system == load_fixture("fig-9-4").with_name(None)

    def test_k8_sizes(self):
        system = construct_2k1(8)
        assert len(system) == 16 and system.n == 17
        assert_valid(system)
        assert system == load_fixture("fig-17-8").with_name(None)
        for p in system.partitions:
            assert sorted(p.sizes) == [2] * 7 + [3]

    def test_odd_k_rejected(self):
        with pytest.raises(ValueError, match="odd k"):
            construct_2k1(5)

    @pytest.mark.parametrize("k", [6, 10])
    def test_sperner_is_decided_once(self, monkeypatch, k):
        # the developed system's verify decides Sperner-ness; the difference
        # property is not checked a second time on the way
        import sperner.construct
        import sperner.rotation

        names = []

        def counting_verify(system):
            names.append(system.name)
            return verify_sperner(system)

        def no_difference_check(init):
            raise AssertionError("check_difference_property was called")

        monkeypatch.setattr(sperner.construct, "verify_sperner", counting_verify)
        monkeypatch.setattr(sperner.rotation, "check_difference_property", no_difference_check)
        assert len(construct_2k1(k)) == 2 * k
        assert names == [f"construct_2k1({k})"]

    def test_even_range_meets_cap_exactly(self):
        for k in range(4, 31, 2):
            system = construct_2k1(k)
            assert len(system) == 2 * k
            assert system.n == 2 * k + 1
            assert is_almost_uniform(system)


class TestConstruct2k2:
    def test_k3_from_stated_seed(self):
        system = construct_2k2(3)
        assert len(system) == 7 and system.n == 8
        assert_valid(system)
        # seed partition {1,2,inf},{3,7},{4,5,6} in 0-based internal labels
        expected = Partition(8, [[0, 1, 7], [2, 6], [3, 4, 5]])
        assert expected in system.partitions

    def test_range(self):
        for k in range(3, 31):
            system = construct_2k2(k)
            assert len(system) == 2 * k + 1
            assert system.n == 2 * k + 2
            assert is_almost_uniform(system)

    def test_small_k_rejected(self):
        with pytest.raises(ValueError, match="k >= 3"):
            construct_2k2(2)


class TestConstruct3k1:
    def test_k4_equals_bundled_11_4(self):
        system = construct_3k1(4)
        assert system == load_fixture("fig-11-4").with_name(None)

    def test_k5_orientation_case(self):
        system = construct_3k1(5)
        assert len(system) == 14 and system.n == 14
        assert_valid(system)

    def test_range(self):
        for k in range(4, 31):
            system = construct_3k1(k)
            assert len(system) == 3 * k - 1
            assert system.n == 3 * k - 1
            assert is_almost_uniform(system)
            for p in system.partitions:
                assert sorted(p.sizes) == [2] + [3] * (k - 1)

    def test_k3_points_at_fixture(self):
        with pytest.raises(ValueError, match="fig-8-3"):
            construct_3k1(3)

    def test_small_k_rejected(self):
        with pytest.raises(ValueError, match="k >= 4"):
            construct_3k1(2)


class TestLatinLift:
    def test_tiny_base(self):
        base = PartitionSystem(4, 2, [Partition(4, [[0, 1], [2, 3]])])
        lifted = latin_lift(base)
        assert len(lifted) == 2 and lifted.n == 6
        assert_valid(lifted)
        assert Partition(6, [[0, 1, 4], [2, 3, 5]]) in lifted.partitions
        assert Partition(6, [[0, 1, 5], [2, 3, 4]]) in lifted.partitions

    def test_lift_7_3(self):
        lifted = latin_lift(load_fixture("fig-7-3"))
        assert len(lifted) == 15 and lifted.n == 10
        assert_valid(lifted)

    def test_lift_9_4(self):
        lifted = latin_lift(load_fixture("fig-9-4"))
        assert len(lifted) == 32 and lifted.n == 13
        assert_valid(lifted)

    def test_size_is_exactly_k_times_base(self):
        base = load_fixture("fig-8-3")
        assert len(latin_lift(base)) == base.k * len(base)

    def test_invalid_base_rejected(self):
        bad = PartitionSystem(
            4, 2, [Partition(4, [[0, 1], [2, 3]]), Partition(4, [[0, 1], [2, 3]])]
        )
        with pytest.raises(ValueError, match="not Sperner"):
            latin_lift(bad)


class TestExtendByOne:
    def test_single_partition(self):
        base = PartitionSystem(2, 2, [Partition(2, [[0], [1]])])
        extended = extend_by_one(base)
        assert extended.partitions[0] == Partition(3, [[0, 2], [1]])

    def test_extend_fig_7_3(self):
        extended = extend_by_one(load_fixture("fig-7-3"))
        assert len(extended) == 5 and extended.n == 8
        assert_valid(extended)

    def test_extend_twice(self):
        extended = extend_by_one(extend_by_one(load_fixture("fig-7-3")))
        assert len(extended) == 5 and extended.n == 9
        assert_valid(extended)

    def test_invalid_base_rejected(self):
        bad = PartitionSystem(
            4, 2, [Partition(4, [[0, 1], [2, 3]]), Partition(4, [[0, 1], [2, 3]])]
        )
        with pytest.raises(ValueError, match="not Sperner"):
            extend_by_one(bad)


class TestAuto:
    def test_prefers_bundled_witness_for_17_8(self):
        system = construct_auto(17, 8)
        assert system == load_fixture("fig-17-8").with_name(None)

    def test_lift_chain_for_13_3(self):
        size, route = plan_construction(13, 3)
        assert size == 45  # 3 * 3 * 5 via two lifts of the (7,3) system
        assert route[0] == "latin-lift"
        system = construct_auto(13, 3)
        assert len(system) == 45
        assert_valid(system)

    def test_small_cases(self):
        for n, k, expected in [(4, 4, 1), (5, 3, 1), (8, 4, 4), (9, 4, 8), (11, 4, 11)]:
            system = construct_auto(n, k)
            assert len(system) == expected, (n, k)
            assert_valid(system)

    def test_infeasible(self):
        with pytest.raises(ValueError, match="n < k"):
            construct_auto(3, 4)

    def test_forced_trivial_pairs_up_what_it_can(self):
        system = construct_auto(7, 4, first="trivial")
        assert (system.name, len(system)) == ("single(7,4)", 1)
        assert_valid(system)
        assert system.partitions[0].sizes == (1, 2, 2, 2)
        assert serialize(system) == "# name: single(7,4)\n7 4 1\n6|0,1|2,3|4,5\n"

    def test_route_names_rules_top_down(self):
        assert plan_construction(13, 3)[1] == ("latin-lift", "latin-lift", "fixture")
        assert plan_construction(11, 4) == (11, ("rotational-3k1",))
        assert plan_construction(19, 8) == (17, ("extend", "rotational-2k2"))
        assert plan_construction(12, 4) == (16, ("latin-lift", "latin-lift", "trivial"))

    def test_first_forces_the_top_step_only(self):
        # a forced step may be worse than the best one (11 by rotational-3k1);
        # the base below it is planned as usual
        assert plan_construction(11, 4, first="extend") == (10, ("extend", "fixture"))
        assert plan_construction(5, 2) == (4, ("k2",))
        assert plan_construction(5, 2, first="rotational-2k1") == (4, ("rotational-2k1",))
        cells = [(11, "k2"), (11, "rotational-2k1"), (11, "rotational-2k2"), (11, "known-exact")]
        for n, first in cells + [(7, "latin-lift"), (4, "extend")]:
            with pytest.raises(ValueError, match=f"rule {first} does not apply at SP\\({n},4\\)"):
                plan_construction(n, 4, first=first)

    def test_chained_route_verifies_each_system_once(self, monkeypatch):
        import sperner.construct

        sizes = []

        def counting_verify(system):
            sizes.append(len(system))
            return verify_sperner(system)

        monkeypatch.setattr(sperner.construct, "verify_sperner", counting_verify)
        assert plan_construction(39, 8)[1] == ("latin-lift", "latin-lift", "rotational-3k1")
        construct_auto(39, 8)
        assert sizes == [23, 184, 1472]

    def test_plan_meets_lower_bound_unless_known_exact(self):
        # The planner runs the lower-bound program without the known-exact
        # rule, so it falls short exactly where a k | n value (or another
        # value without a witness) carries the lower bound.
        short = 0
        for k in range(1, 13):
            for n in range(k, 61):
                size = plan_construction(n, k)[0]
                bound = sp_bounds(n, k)
                assert size <= bound.lower, (n, k)
                if all(rule != "known-exact" for rule, _ in bound.lower_provenance):
                    assert size == bound.lower, (n, k)
                short += size != bound.lower
        assert short == 428
