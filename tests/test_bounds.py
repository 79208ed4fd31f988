from fractions import Fraction
from math import comb, floor

import pytest

from sperner import (
    SpParams,
    best_lower,
    best_upper,
    bounds_table,
    counting_upper_bound,
    known_exact,
    load_fixture,
    sp_bounds,
)
from sperner.bounds import FIXTURES


def rational_bound(n, k):
    """Independent evaluation of the counting bound via exact rationals."""
    ell = n // k
    r = n - ell * k
    if r == 0:
        return floor(Fraction(comb(n, ell), k))
    value = Fraction(comb(n, ell)) / (Fraction(k - r) + Fraction(r * (ell + 1), n - ell))
    return floor(value)


def test_params_decomposition():
    p = SpParams(9, 4)
    assert (p.ell, p.r) == (2, 1)
    assert p.ell * p.k + p.r == p.n


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
