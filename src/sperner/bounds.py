"""Exact lower/upper bounds for SP(n, k), with provenance.

SP(n, k) is the largest number of partitions in a Sperner k-partition
system on an n-set, and n = ell*k + r with 0 <= r < k throughout, as
divmod(n, k) gives them.  Everything here is exact integer arithmetic;
the single floor in counting_upper_bound is the only rounding anywhere.

Conventions beyond the classical results: SP(n, k) = 0 when n < k (no
k-partition exists) and SP(n, k) = 1 for k <= n < 2k (every k-partition
then has a singleton class, and a singleton is comparable with whichever
class of another partition contains its element).

The lower bounds come from one rule table and one dynamic program
(derivation); construct.construct_auto builds its derivation over the
rules that build a system, so the two cannot drift apart.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import groupby
from math import comb
from typing import NamedTuple

__all__ = [
    "BoundResult",
    "counting_upper_bound",
    "known_exact",
    "best_upper",
    "best_lower",
    "sp_bounds",
    "bounds_table",
]

# provenance: ((rule-name, human-readable detail), ...)
Provenance = tuple[tuple[str, str], ...]


def _check_positive(n: int, k: int) -> None:
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")


class BoundResult(NamedTuple):
    n: int
    k: int
    lower: int
    upper: int
    lower_provenance: Provenance
    upper_provenance: Provenance

    @property
    def exact(self) -> bool:
        return self.lower == self.upper


def counting_upper_bound(n: int, k: int) -> int:
    """floor( C(n, ell) * (n-ell) / ((k-r)*(n-ell) + r*(ell+1)) ), exact.

    Here n = ell*k + r with 0 <= r < k.  Counting bound over the classes
    of size at most ell; when r = 0 it collapses to the exact uniform
    value C(n-1, ell-1).
    """
    _check_positive(n, k)
    if n < k:
        raise ValueError("no k-partition of an n-set exists when n < k")
    ell, r = divmod(n, k)
    if r == 0:
        # the r-term vanishes (and n - ell degenerates to 0 when k = 1)
        return comb(n, ell) // k
    numerator = comb(n, ell) * (n - ell)
    denominator = (k - r) * (n - ell) + r * (ell + 1)
    return numerator // denominator


# The exact values that rest on computer searches rather than on a proof:
# the bounds module cites them, but the exact search never stops at them.
_COMPUTER_SEARCHES = {
    (7, 3): (5, "known exact value SP(7,3) = 5"),
    (10, 4): (10, "known exact value SP(10,4) = 10 (computer search)"),
}


def known_exact(n: int, k: int) -> tuple[int, str] | None:
    """Exact value of SP(n, k) when one is known, with a citation string."""
    _check_positive(n, k)
    ell, r = divmod(n, k)
    candidates: list[tuple[int, str]] = []
    if n < k:
        candidates.append((0, "no k-partition of an n-set exists when n < k"))
    elif n < 2 * k:
        candidates.append((1, "a singleton class limits the system to one partition"))
    else:
        if r == 0:
            candidates.append(
                (comb(n - 1, ell - 1), "exact value when k divides n (uniform classes)")
            )
        if k == 2 and n % 2 == 1:
            candidates.append(
                (comb(n - 1, ell - 1), "exact value for 2-partition systems on odd n")
            )
        if n == 2 * k + 1 and k % 2 == 0:
            candidates.append(
                (2 * k, "rotational construction meets the 2k cap for n = 2k+1, k even")
            )
        if (n, k) in _COMPUTER_SEARCHES:
            candidates.append(_COMPUTER_SEARCHES[n, k])
    if not candidates:
        return None
    values = {v for v, _ in candidates}
    if len(values) != 1:
        raise RuntimeError(f"internal error: conflicting exact values for ({n},{k}): {candidates}")
    return candidates[0]


def _least_upper(n: int, k: int, cited: bool) -> tuple[int, Provenance]:
    """Least upper bound over one option list, with every rule attaining it.

    The options are known-exact, the counting bound and the 2k+1 and 2k+2
    caps; cited=False leaves out the _COMPUTER_SEARCHES values, and only those.
    """
    _check_positive(n, k)
    options: list[tuple[int, str, str]] = []
    ke = known_exact(n, k)
    if ke is not None and (cited or (n, k) not in _COMPUTER_SEARCHES):
        options.append((ke[0], "known-exact", ke[1]))
    if n >= k:
        detail = "floor of C(n,ell)*(n-ell) / ((k-r)*(n-ell) + r*(ell+1))"
        options.append((counting_upper_bound(n, k), "counting-bound", detail))
    if n == 2 * k + 1:
        options.append((2 * k, "cap-2k1", "at most 2k partitions on a (2k+1)-set"))
    if n == 2 * k + 2 and k >= 3:
        options.append((2 * k + 3, "cap-2k2", "at most 2k+3 partitions on a (2k+2)-set"))
    value = min(v for v, _, _ in options)
    return value, tuple((rule, detail) for v, rule, detail in options if v == value)


def best_upper(n: int, k: int) -> tuple[int, Provenance]:
    """Minimum of all applicable upper bounds; provenance lists every rule attaining it."""
    return _least_upper(n, k, cited=True)


def _proved_upper(n: int, k: int) -> tuple[int, Provenance]:
    """The exact search's stop bound: best_upper less the values that rest on computer searches."""
    return _least_upper(n, k, cited=False)


# The bundled witnesses that no formula builds, preferred to any formula
# of equal size: (n, k) -> (fixture name, partitions).  fig-9-4, fig-11-4
# and fig-17-8 are left out because construct_2k1(4), construct_3k1(4)
# and construct_2k1(8) are those very systems.
FIXTURES = {
    (7, 3): ("fig-7-3", 5),
    (8, 3): ("fig-8-3", 8),
    (10, 4): ("fig-10-4", 10),
}


class Step(NamedTuple):
    """One step of a lower-bound derivation: SP(n, k) >= value by rule."""

    n: int
    value: int
    rule: str
    detail: str
    prev: int | None  # the n' whose system this step grows, if any


def _rules(
    n: int, k: int, steps: dict[int, Step], buildable: bool = False
) -> Iterator[tuple[int, str, str, int | None]]:
    """The rule table: (value, rule, detail, prev) of every rule that applies
    at n, in order of preference, given the steps of every k <= n' < n.

    known-exact is the one rule that builds nothing (the k | n value of
    Meagher, Moura & Stevens comes without a witness); buildable=True
    leaves it out.
    """
    ke = None if buildable else known_exact(n, k)
    if ke is not None:
        yield ke[0], "known-exact", f"SP({n},{k}) = {ke[0]}: {ke[1]}", None
    if (n, k) in FIXTURES:
        name, size = FIXTURES[n, k]
        yield size, "fixture", f"bundled system {name} has {size} partitions", None
    if k == 2 and n % 2 and n >= 3:
        size = comb(n - 1, (n - 3) // 2)
        yield size, "k2", f"two-class construction: C({n - 1},{(n - 3) // 2}) = {size} partitions", None
    if n == 2 * k + 1 and k % 2 == 0:
        yield 2 * k, "rotational-2k1", f"rotational construction: 2k = {2 * k} partitions", None
    if n == 2 * k + 2 and k >= 3:
        yield 2 * k + 1, "rotational-2k2", f"rotational construction: 2k+1 = {2 * k + 1} partitions", None
    if n == 3 * k - 1 and k >= 4:
        yield 3 * k - 1, "rotational-3k1", f"rotational construction: 3k-1 = {3 * k - 1} partitions", None
    if n - k >= k:
        value = k * steps[n - k].value
        yield value, "latin-lift", f"SP({n},{k}) >= {k} * SP({n - k},{k}) = {value}", n - k
    if n - 1 >= k:
        value = steps[n - 1].value
        yield value, "extend", f"SP({n},{k}) >= SP({n - 1},{k}) = {value}", n - 1
    yield 1, "trivial", "a single k-partition", None


def _steps(n: int, k: int, buildable: bool = False, first: str | None = None) -> dict[int, Step]:
    """The dynamic program: the best step at every n' = k..n (see derivation)."""
    steps: dict[int, Step] = {}
    for m in range(k, n + 1):
        options = _rules(m, k, steps, buildable)
        if m == n and first is not None:
            options = [option for option in options if option[1] == first]
            if not options:
                raise ValueError(f"rule {first} does not apply at SP({n},{k})")
        # max keeps the first of equal values, so the table order decides ties
        steps[m] = Step(m, *max(options, key=lambda option: option[0]))
    return steps


def derivation(n: int, k: int, buildable: bool = False, first: str | None = None) -> list[Step]:
    """Best lower bound for SP(n, k) as its derivation chain, top step first.

    A dynamic program over n' = k..n that takes, at each n', the first
    rule of the table with the largest value; with first, the top step at
    n is the best option of that rule (ValueError if it does not apply).
    Requires k <= n.
    """
    steps = _steps(n, k, buildable, first)
    chain = [steps[n]]
    while chain[-1].prev is not None:
        chain.append(steps[chain[-1].prev])
    return chain


def best_lower(n: int, k: int) -> tuple[int, Provenance]:
    """Best lower bound over every rule of the table, with its provenance.

    The provenance is the derivation chain from the base fact up to n,
    with each run of consecutive extensions merged into one step.
    """
    _check_positive(n, k)
    if n < k:
        ke = known_exact(n, k)
        assert ke is not None
        return 0, (("known-exact", ke[1]),)
    chain = derivation(n, k)
    provenance: list[tuple[str, str]] = []
    for rule, run in groupby(reversed(chain), key=lambda step: step.rule):
        steps = list(run)
        if rule == "extend":
            top, bottom = steps[-1], steps[0]
            detail = f"SP({top.n},{k}) >= SP({bottom.n - 1},{k}) = {top.value} by adding elements"
            provenance.append((rule, detail))
        else:
            provenance += [(rule, step.detail) for step in steps]
    return chain[0].value, tuple(provenance)


def _checked(n: int, k: int, lower: int, upper: int) -> None:
    if lower > upper:
        raise RuntimeError(
            f"internal error: lower bound {lower} exceeds upper bound {upper} for ({n},{k})"
        )


def sp_bounds(n: int, k: int) -> BoundResult:
    """Combined best-known bounds; lower <= upper is enforced."""
    lower, lower_prov = best_lower(n, k)
    upper, upper_prov = best_upper(n, k)
    _checked(n, k, lower, upper)
    return BoundResult(n, k, lower, upper, lower_prov, upper_prov)


def bounds_table(k: int, max_n: int) -> list[tuple[int, int, int]]:
    """(n, lower, upper) for n = k..max_n, as sp_bounds gives them.

    Every lower value comes from one pass of the dynamic program up to
    max_n, so the table costs what its last row does.
    """
    _check_positive(k, k)  # k < 1 raises here, as at sp_bounds' first row
    if max_n < k:
        return []
    steps = _steps(max_n, k)
    rows = []
    for n in range(k, max_n + 1):
        lower, (upper, _) = steps[n].value, best_upper(n, k)
        _checked(n, k, lower, upper)
        rows.append((n, lower, upper))
    return rows
