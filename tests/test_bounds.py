import math
import re
import tracemalloc
from fractions import Fraction
from math import comb, floor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sperner import (
    best_lower,
    best_upper,
    bounds_table,
    counting_upper_bound,
    known_exact,
    load_fixture,
    sp_bounds,
)
from sperner import bounds
from sperner.bounds import FIXTURES


def rational_bound(n, k):
    """Independent evaluation of the counting bound via exact rationals."""
    ell = n // k
    r = n - ell * k
    if r == 0:
        return floor(Fraction(comb(n, ell), k))
    value = Fraction(comb(n, ell)) / (Fraction(k - r) + Fraction(r * (ell + 1), n - ell))
    return floor(value)


def test_counting_bound_exact_rational_values():
    # floor(252/24) = 10 and floor(140/8) = 17, frozen from the rational oracle
    assert rational_bound(9, 4) == 10
    assert counting_upper_bound(9, 4) == 10
    assert rational_bound(7, 2) == 17
    assert counting_upper_bound(7, 2) == 17


def test_counting_bound_matches_rational_oracle_widely():
    for k in range(1, 13):
        for n in range(k, 25):
            assert counting_upper_bound(n, k) == rational_bound(n, k), (n, k)


def test_counting_bound_divisible_case():
    assert counting_upper_bound(6, 3) == comb(5, 1) == 5
    for k in range(1, 13):
        ell = 1
        while ell * k <= 24:
            n = ell * k
            assert counting_upper_bound(n, k) == comb(n - 1, ell - 1), (n, k)
            ell += 1


def test_counting_bound_needs_n_at_least_k():
    with pytest.raises(ValueError, match="n < k"):
        counting_upper_bound(3, 4)


@pytest.mark.parametrize(
    "bound", [counting_upper_bound, known_exact, best_upper, best_lower, sp_bounds]
)
def test_non_positive_n_or_k_is_refused(bound):
    for n, k in [(0, 1), (3, 0), (-2, 3)]:
        with pytest.raises(ValueError, match="n and k must be positive"):
            bound(n, k)
    for k, max_n in [(0, 4), (-3, -5)]:
        with pytest.raises(ValueError, match="n and k must be positive"):
            bounds_table(k, max_n)


def test_known_exact_table():
    assert known_exact(7, 3) == (5, "known exact value SP(7,3) = 5")
    assert known_exact(10, 4)[0] == 10
    assert known_exact(9, 4)[0] == 8
    assert known_exact(6, 3)[0] == comb(5, 1)
    assert known_exact(5, 2)[0] == 4
    assert known_exact(4, 4)[0] == 1
    assert known_exact(5, 3)[0] == 1
    assert known_exact(3, 4)[0] == 0
    assert known_exact(11, 4) is None
    assert known_exact(8, 3) is None


def test_known_exact_two_class():
    for ell in range(1, 12):
        n = 2 * ell + 1
        assert known_exact(n, 2)[0] == comb(n - 1, ell - 1)


def test_best_upper_9_4():
    value, provenance = best_upper(9, 4)
    assert value == 8
    rules = {rule for rule, _ in provenance}
    assert "cap-2k1" in rules  # the 2k cap attains the minimum


def test_best_upper_10_4_and_11_4():
    assert best_upper(10, 4)[0] == 10
    value, provenance = best_upper(11, 4)
    assert value == 27
    assert provenance[0][0] == "counting-bound"


def test_best_upper_k2_prefers_exact_values():
    # the exact odd-n value beats the raw counting bound (4 < 5, 10 < 11, ...)
    assert best_upper(5, 2)[0] == 4
    assert best_upper(7, 2)[0] == 15
    assert best_upper(6, 2)[0] == comb(5, 2)


def test_best_lower_values():
    assert best_lower(11, 4)[0] == 11
    assert best_lower(8, 3)[0] == 8
    assert best_lower(9, 4)[0] == 8
    assert best_lower(3, 4)[0] == 0


def test_best_lower_provenance_chain():
    value, chain = best_lower(11, 4)
    assert value == 11
    assert chain[-1][0] == "rotational-3k1"
    value, chain = best_lower(13, 4)
    assert value >= 11
    rules = [rule for rule, _ in chain]
    assert rules.count("extend") <= 1  # consecutive extensions are merged


def test_best_lower_latin_lift_inequality():
    # the DP output is the oracle; it must dominate a single lift step
    assert best_lower(13, 3)[0] >= 3 * best_lower(10, 3)[0]
    for k in range(2, 8):
        for n in range(2 * k, 25):
            assert best_lower(n, k)[0] >= k * best_lower(n - k, k)[0], (n, k)


def test_best_lower_monotone_in_n():
    for k in range(1, 10):
        previous = 0
        for n in range(k, 25):
            value = best_lower(n, k)[0]
            assert value >= previous, (n, k)
            previous = value


def test_fixture_table_matches_bundled_systems():
    for (n, k), (name, size) in FIXTURES.items():
        system = load_fixture(name)
        assert (system.n, system.k, len(system)) == (n, k, size), name


def test_bounds_consistency_grid():
    for n in range(1, 25):
        for k in range(1, n + 1):
            result = sp_bounds(n, k)
            assert result.lower <= result.upper, (n, k)


def test_bounds_table_matches_sp_bounds():
    for k in range(1, 13):
        expected = []
        for n in range(k, 61):
            result = sp_bounds(n, k)
            expected.append((n, result.lower, result.upper))
        assert bounds_table(k, 60) == expected, k
    assert bounds_table(5, 4) == []


def test_exact_cases():
    for k in (2, 4, 6, 8, 10):
        result = sp_bounds(2 * k + 1, k)
        assert result.exact and result.lower == 2 * k, k
    assert sp_bounds(9, 4).exact and sp_bounds(9, 4).lower == 8
    assert sp_bounds(10, 4).exact and sp_bounds(10, 4).lower == 10
    r114 = sp_bounds(11, 4)
    assert (r114.lower, r114.upper) == (11, 27) and not r114.exact
    r83 = sp_bounds(8, 3)
    assert (r83.lower, r83.upper) == (8, 9) and not r83.exact


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 4), st.integers(-3, 3)), max_size=60), st.integers(0, 3000))
def test_binomial_matches_comb_along_any_walk(moves, start):
    # short steps either way from the last binomial, long jumps, and b past a
    a, b = start, start // 2
    for da, db in moves:
        a, b = max(a + da, 0), max(b + db, 0)
        assert bounds._binomial(a, b) == comb(a, b), (a, b)
    assert bounds._binomial(start + 100, start // 3) == comb(start + 100, start // 3)


def reference_rules(n, k, steps, buildable=False):
    """bounds._rules as it stood, with a math.comb of its own for the k2 rule; prev is the step grown."""
    from sperner.bounds import FIXTURES, known_exact

    ke = None if buildable else known_exact(n, k)
    if ke is not None:
        yield ke[0], "known-exact", f"SP({n},{k}) = {ke[0]}: {ke[1]}", None
    if (n, k) in FIXTURES:
        name, size = FIXTURES[n, k]
        yield size, "fixture", f"bundled system {name} has {size} partitions", None
    if k == 2 and n % 2 and n >= 3:
        size = math.comb(n - 1, (n - 3) // 2)
        yield size, "k2", f"two-class construction: C({n - 1},{(n - 3) // 2}) = {size} partitions", None
    if n == 2 * k + 1 and k % 2 == 0:
        yield 2 * k, "rotational-2k1", f"rotational construction: 2k = {2 * k} partitions", None
    if n == 2 * k + 2 and k >= 3:
        yield 2 * k + 1, "rotational-2k2", f"rotational construction: 2k+1 = {2 * k + 1} partitions", None
    if n == 3 * k - 1 and k >= 4:
        yield 3 * k - 1, "rotational-3k1", f"rotational construction: 3k-1 = {3 * k - 1} partitions", None
    if n - k >= k:
        value = k * steps[n - k].value
        yield value, "latin-lift", f"SP({n},{k}) >= {k} * SP({n - k},{k}) = {value}", steps[n - k]
    if n - 1 >= k:
        value = steps[n - 1].value
        yield value, "extend", f"SP({n},{k}) >= SP({n - 1},{k}) = {value}", steps[n - 1]
    yield 1, "trivial", "a single k-partition", None


def worded_reference_rules(n, k, steps, buildable=False):
    """reference_rules with each detail string handed out as the callable a Step holds."""
    for value, rule, detail, prev in reference_rules(n, k, steps, buildable):
        yield value, rule, lambda detail=detail: detail, prev


def bounds_outcomes(max_n):
    """Every step, with its wording, and table row of k = 2..6 up to max_n, and every provenance.

    A step's prev is compared by its n: steps compare through their chains and detail callables.
    """
    out = []
    for k in range(2, 7):
        for buildable in (False, True):
            steps = bounds._steps(max_n, k, buildable=buildable)
            out.append([(s.n, s.value, s.rule, s.detail(), s.prev and s.prev.n) for s in steps])
        out.append(bounds_table(k, max_n))
        out.extend(sp_bounds(n, k) for n in range(k, max_n + 1))
    return out


def test_bounds_match_reference_rules():
    # each binomial is now stepped from the one before it, and each step is
    # worded on demand; every value, detail string and provenance stays what
    # math.comb and eager wording gave
    expected_max_n = 400
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bounds, "_rules", worded_reference_rules)
        mp.setattr(bounds, "_binomial", math.comb)
        expected = bounds_outcomes(expected_max_n)
    assert bounds_outcomes(expected_max_n) == expected


def test_the_dynamic_program_words_no_value(int_digit_limit_640):
    # SP(2300,2) and SP(2301,2) have 691 digits, past the 640 the test allows
    from sperner import plan_construction

    assert bounds_table(2, 2300)[-1] == (2300, comb(2299, 1149), comb(2299, 1149))
    assert plan_construction(2301, 2) == (comb(2300, 1149), ("k2",))
    (step,) = bounds.derivation(2301, 2)
    assert (step.value, step.rule) == (comb(2300, 1149), "known-exact")


def test_a_derivation_holds_its_chain_and_no_value_per_n():
    # the dynamic program drops each step once no rule reads it, so the
    # derivation of (10000, 2), an extend of the k2 step at 9999, holds a
    # few 3,000-digit values (0.007 MiB); one step per n' held 7.8 MiB
    tracemalloc.start()
    try:
        chain = bounds.derivation(10000, 2, buildable=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [(step.n, step.rule) for step in chain] == [(10000, "extend"), (9999, "k2")]
    assert chain[0].value == chain[1].value == comb(9998, 4998)
    assert peak < 2**20, peak


def test_a_step_names_the_step_below_by_its_n():
    # (3000, 1200) is 599 steps; a repr nesting the chain below ran past
    # the recursion limit
    top, below = bounds.derivation(3000, 1200)[:2]
    text = repr(top)
    assert text.startswith(f"Step(n=3000, value={top.value}, rule='extend', detail=<function ")
    assert text.endswith(f", prev=<Step n={below.n}>)")
    assert repr(bounds.derivation(7, 3)[-1]).endswith(", prev=None)")


def test_lower_above_upper_is_an_internal_error(monkeypatch):
    # a cited SP(7,3) = 4 would put the bundled 5-partition fig-7-3 above it
    monkeypatch.setitem(bounds._COMPUTER_SEARCHES, (7, 3), (4, "a wrong citation"))
    message = "internal error: lower bound 5 exceeds upper bound 4 for (7,3)"
    for call in (lambda: sp_bounds(7, 3), lambda: bounds_table(3, 7)):
        with pytest.raises(RuntimeError, match=re.escape(message)):
            call()


def test_conflicting_exact_values_are_an_internal_error(monkeypatch):
    monkeypatch.setitem(bounds._COMPUTER_SEARCHES, (9, 4), (9, "a wrong citation"))
    message = (
        "internal error: conflicting exact values for (9,4): "
        "[(8, 'rotational construction meets the 2k cap for n = 2k+1, k even'), (9, 'a wrong citation')]"
    )
    with pytest.raises(RuntimeError, match=re.escape(message)):
        known_exact(9, 4)
