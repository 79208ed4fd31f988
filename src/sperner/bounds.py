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
rules that build a system, so the two cannot drift apart.  A step links
the step it grows, and the program holds the last k steps and their
chains only; bounds_table yields each row as the program reaches it.
It carries numbers only: derivation and bounds_table word no value, and
best_lower words just the chain it returns.  SP(n, 2) passes Python's
4300-digit int-to-str limit near n = 14,300, where sp_bounds needs its
caller to lift the limit, as the CLI does.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from itertools import groupby
from math import comb, prod
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


# (a, b, C(a, b)) of the last binomial _binomial computed.  It only saves
# work: each write replaces the whole triple, so whatever the order of
# callers it holds a correct binomial.
_last_binomial = (0, 0, 1)


def _binomial(a: int, b: int) -> int:
    """math.comb(a, b), stepped from the last binomial asked for when that is near.

    The dynamic program and the table ask, n' after n', for binomials a
    row or two from the one before.  C(a, b) is C(a0, b0) times
    a!/a0! * b0!/b! * (a0-b0)!/(a-b)!, which for a short step is a few
    products of a big int by small ones, where math.comb costs as much as
    the first binomial of the row: near C(5000, 2500) a step is over a
    hundred times cheaper.
    """
    global _last_binomial
    if not 0 <= b <= a:
        return comb(a, b)
    a0, b0, value = _last_binomial
    if abs(a - a0) + abs(b - b0) > 8:
        value = comb(a, b)
    else:
        num = den = 1
        for x, y in ((a, a0), (b0, b), (a0 - b0, a - b)):  # times x!/y!
            if x >= y:
                num *= prod(range(y + 1, x + 1))
            else:
                den *= prod(range(x + 1, y + 1))
        value = value * num // den
    _last_binomial = (a, b, value)
    return value


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
        return _binomial(n, ell) // k
    numerator = _binomial(n, ell) * (n - ell)
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
                (_binomial(n - 1, ell - 1), "exact value when k divides n (uniform classes)")
            )
        if k == 2 and n % 2 == 1:
            candidates.append(
                (_binomial(n - 1, ell - 1), "exact value for 2-partition systems on odd n")
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
    """One step of a lower-bound derivation: SP(n, k) >= value by rule, grown from prev; detail() words it."""

    n: int
    value: int
    rule: str
    detail: Callable[[], str]
    prev: Step | None  # None for a base rule

    def __repr__(self) -> str:
        # prev by its n: the chain below may be thousands of steps deep
        prev = None if self.prev is None else f"<Step n={self.prev.n}>"
        return f"Step(n={self.n}, value={self.value}, rule={self.rule!r}, detail={self.detail!r}, prev={prev})"


def _rules(
    n: int, k: int, steps: dict[int, Step], buildable: bool = False
) -> Iterator[tuple[int, str, Callable[[], str], Step | None]]:
    """The rule table: (value, rule, detail, prev) of every rule that applies
    at n, in order of preference, given the steps of max(k, n - k) <= n' < n.

    Each detail is a zero-argument callable that words its rule; the names
    it reads are bound once per call, so it words its own rule's value.
    known-exact is the one rule that builds nothing (the k | n value of
    Meagher, Moura & Stevens comes without a witness); buildable=True
    leaves it out.
    """
    ke = None if buildable else known_exact(n, k)
    if ke is not None:
        yield ke[0], "known-exact", lambda: f"SP({n},{k}) = {ke[0]}: {ke[1]}", None
    if (n, k) in FIXTURES:
        name, size = FIXTURES[n, k]
        yield size, "fixture", lambda: f"bundled system {name} has {size} partitions", None
    if k == 2 and n % 2 and n >= 3:
        pairs = _binomial(n - 1, (n - 3) // 2)
        yield pairs, "k2", lambda: f"two-class construction: C({n - 1},{(n - 3) // 2}) = {pairs} partitions", None
    if n == 2 * k + 1 and k % 2 == 0:
        yield 2 * k, "rotational-2k1", lambda: f"rotational construction: 2k = {2 * k} partitions", None
    if n == 2 * k + 2 and k >= 3:
        yield 2 * k + 1, "rotational-2k2", lambda: f"rotational construction: 2k+1 = {2 * k + 1} partitions", None
    if n == 3 * k - 1 and k >= 4:
        yield 3 * k - 1, "rotational-3k1", lambda: f"rotational construction: 3k-1 = {3 * k - 1} partitions", None
    if n - k >= k:
        lifted = k * steps[n - k].value
        yield lifted, "latin-lift", lambda: f"SP({n},{k}) >= {k} * SP({n - k},{k}) = {lifted}", steps[n - k]
    if n - 1 >= k:
        extended = steps[n - 1].value
        yield extended, "extend", lambda: f"SP({n},{k}) >= SP({n - 1},{k}) = {extended}", steps[n - 1]
    yield 1, "trivial", lambda: "a single k-partition", None


def _steps(n: int, k: int, buildable: bool = False, first: str | None = None) -> Iterator[Step]:
    """The dynamic program, yielding the best step at each n' = k..n in turn (see derivation)."""
    steps: dict[int, Step] = {}
    for m in range(k, n + 1):
        options = _rules(m, k, steps, buildable)
        if m == n and first is not None:
            options = [option for option in options if option[1] == first]
            if not options:
                raise ValueError(f"rule {first} does not apply at SP({n},{k})")
        # max keeps the first of equal values, so the table order decides ties
        steps[m] = Step(m, *max(options, key=lambda option: option[0]))
        steps.pop(m - k, None)  # the rules at n' > m read no step below m - k + 1
        yield steps[m]


def derivation(n: int, k: int, buildable: bool = False, first: str | None = None) -> list[Step]:
    """Best lower bound for SP(n, k) as its derivation chain, top step first.

    A dynamic program over n' = k..n that takes, at each n', the first
    rule of the table with the largest value; with first, the top step at
    n is the best option of that rule (ValueError if it does not apply).
    The chain follows prev down from step n.  Requires k <= n.
    """
    for step in _steps(n, k, buildable, first):
        pass
    chain = [step]
    while chain[-1].prev is not None:
        chain.append(chain[-1].prev)
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
            provenance += [(rule, step.detail()) for step in steps]
    return chain[0].value, tuple(provenance)


def _checked(n: int, k: int, lower: int, upper: int) -> int:
    if lower > upper:
        raise RuntimeError(
            f"internal error: lower bound {lower} exceeds upper bound {upper} for ({n},{k})"
        )
    return upper


def sp_bounds(n: int, k: int) -> BoundResult:
    """Combined best-known bounds; lower <= upper is enforced."""
    lower, lower_prov = best_lower(n, k)
    upper, upper_prov = best_upper(n, k)
    _checked(n, k, lower, upper)
    return BoundResult(n, k, lower, upper, lower_prov, upper_prov)


def bounds_table(k: int, max_n: int) -> Iterator[tuple[int, int, int]]:
    """(n, lower, upper) for n = k..max_n, as sp_bounds gives them, yielded in turn.

    Every lower value is read from one pass of the dynamic program up to
    max_n as it runs, so the table costs what its last row does.
    """
    _check_positive(k, k)  # k < 1 raises at the call, before any row, as at sp_bounds' first row
    return (
        (step.n, step.value, _checked(step.n, k, step.value, best_upper(step.n, k)[0]))
        for step in _steps(max_n, k)
    )
