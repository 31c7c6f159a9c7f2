"""Exhaustive ground truth at small N.

Everything here accounts for every one of the r^N colorings of [1, N]
(within an explicit budget) and measures exactly: how many colorings
contain a monochromatic k-term progression, whether the analytic counting
bounds really dominate those counts, and whether the primary-progression
partition argument holds coloring by coloring.  The count walks colored
prefixes and settles a whole subtree at once when its prefix already holds
a monochromatic progression; the partition checks visit every coloring.
This is the module the analytic side is checked against, so it stays
deliberately dumb: no symmetry tricks, no sampling, exact integers or
refusal.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Optional, Tuple

from .bounds import quasi_counting_bound, semi_counting_bound
from .errors import BudgetExceededError
from .progressions import (
    SEMI,
    Coloring,
    Family,
    Progression,
    chains_from,
    conjugate_vector,
    primary_progression,
    weight,
)


@dataclass(frozen=True)
class OracleBudget:
    """Hard caps for exhaustive enumeration."""

    max_points: int = 24
    max_colorings: int = 2**24

    def check(self, r: int, N: int) -> None:
        if N > self.max_points:
            raise BudgetExceededError(
                f"N={N} exceeds the {self.max_points}-point oracle budget"
            )
        if r**N > self.max_colorings:
            raise BudgetExceededError(
                f"r^N = {r**N} colorings exceed the budget of {self.max_colorings}"
            )


@dataclass(frozen=True)
class CountReport:
    """Exact enumeration result, optionally paired with an analytic bound."""

    N: int
    k: int
    family: Family
    r: int
    mono_count: int
    total: int
    bound_value: Optional[Fraction] = None
    bound_satisfied: Optional[bool] = None


@lru_cache(maxsize=None)
def all_progressions(N: int, k: int, family: Family) -> Tuple[Tuple[int, ...], ...]:
    """Term tuples of every k-term progression of the family inside [1, N].

    Ordered by (first term, low-difference, conjugate vector) ascending, so
    a linear scan respects the primary tie-break.  Coloring-independent and
    cached, so repeated counts at one (N, k, family) build it once.
    """
    if k < 2:
        raise ValueError("need at least 2 terms")
    return tuple(
        terms
        for a in range(1, N + 1)
        for d in range(1, (N - a) // (k - 1) + 1)
        for terms in progressions_from(N, k, family, a, d)
    )


@lru_cache(maxsize=None)
def progression_masks(N: int, k: int, family: Family) -> Tuple[int, ...]:
    """The progressions of all_progressions as point bitmasks (bit i = point
    i+1), deduplicated: distinct low-differences can yield the same terms,
    and monochromaticity only sees the point set."""
    return tuple(
        dict.fromkeys(
            sum(1 << (t - 1) for t in terms) for terms in all_progressions(N, k, family)
        )
    )


def progressions_from(
    N: int, k: int, family: Family, a: int, d: int
) -> Tuple[Tuple[int, ...], ...]:
    """Every k-term progression with first term a and low-difference d inside
    [1, N], in ascending conjugate-vector order.

    Generated for the given d directly (a term tuple can be valid under
    several low-differences, so filtering a mixed list would conflate them).
    """
    if not 1 <= a <= N:
        raise ValueError(f"first term {a} outside [1, {N}]")
    if d < 1:
        raise ValueError("low-difference must be a positive integer")
    return tuple(chains_from((0,) * N, a, d, k, family))


def count_mono_colorings(
    r: int, N: int, k: int, family: Family, budget: OracleBudget = OracleBudget()
) -> CountReport:
    """Exactly count the r-colorings of [1, N] containing at least one
    monochromatic k-term progression of the family.

    One walk over the tree of colored prefixes, for every r, with an explicit
    stack.  The prefix keeps each color's points as a bitmask (color c at
    bits c*N .. c*N + N - 1 of one int), and coloring bit p (the point p + 1)
    tests only the progressions whose last point it is.  The first prefix to
    hold a monochromatic progression adds all r^(N-p-1) colorings of the
    points after it to the count and is not descended; past the last point
    that ends a progression nothing can change.  So every coloring is counted
    once, under its least monochromatic prefix, or not at all.
    """
    budget.check(r, N)
    masks = progression_masks(N, k, family)
    horizon = max((m.bit_length() for m in masks), default=0) - 1
    # per bit p: the other points of each progression whose last point is p;
    # then per color c, shifted to c's bits: p's bit and those points
    before = [[m ^ (1 << p) for m in masks if m >> p == 1] for p in range(horizon + 1)]
    steps = [
        [(1 << (c * N + p), [m << (c * N) for m in rests]) for c in range(r)]
        for p, rests in enumerate(before)
    ]
    count, stack = 0, [(0, 0)] if masks else []  # (next bit, packed prefix)
    while stack:
        p, prefix = stack.pop()
        for bit, rests in steps[p]:
            for rest in rests:
                if prefix & rest == rest:
                    count += r ** (N - p - 1)
                    break
            else:
                if p < horizon:
                    stack.append((p + 1, prefix | bit))
    return CountReport(N, k, family, r, count, r**N)


def _family_bound(r: int, N: int, k: int, family: Family) -> Fraction:
    if family.kind == SEMI:
        if r != 2:
            raise ValueError("the scope counting bound is specific to 2 colors")
        return semi_counting_bound(N, k, family.param).sum_form
    return quasi_counting_bound(r, N, k, family.param)


def verify_counting_inequality(
    r: int, N: int, k: int, family: Family, budget: OracleBudget = OracleBudget()
) -> CountReport:
    """Compare the exhaustive monochromatic-coloring count against the
    analytic upper bound for the family; bound_satisfied records whether
    the bound held.  A False result is a finding, not an exception."""
    plain = count_mono_colorings(r, N, k, family, budget)
    bound = _family_bound(r, N, k, family)
    return CountReport(
        N,
        k,
        family,
        r,
        plain.mono_count,
        plain.total,
        bound_value=bound,
        bound_satisfied=plain.mono_count <= bound,
    )


def _primary_by_scan(
    colors: Tuple[int, ...], candidates: Tuple[Tuple[int, ...], ...]
) -> Optional[Tuple[int, ...]]:
    """First monochromatic candidate in conjugate-lex order, or None."""
    for terms in candidates:
        c = colors[terms[0] - 1]
        if all(colors[t - 1] == c for t in terms[1:]):
            return terms
    return None


def primary_partition_check(
    r: int,
    N: int,
    k: int,
    family: Family,
    a: int,
    d: int,
    budget: OracleBudget = OracleBudget(),
) -> bool:
    """Verify by enumeration that "which progression is primary" partitions
    the colorings admitting a monochromatic progression with first term a
    and low-difference d.

    For every such coloring there must be exactly one primary progression,
    the per-progression primary counts must sum to the total count of
    colorings with any monochromatic (a, d) candidate, and the scan-based
    primary must agree with primary_progression.  Vacuously true when no
    candidate fits in [1, N].
    """
    budget.check(r, N)
    candidates = progressions_from(N, k, family, a, d)
    per_progression = {terms: 0 for terms in candidates}
    with_mono = 0
    for colors in product(range(r), repeat=N):
        primary = _primary_by_scan(colors, candidates)
        chi = Coloring(colors, r)
        from_search = primary_progression(chi, a, d, k, family)
        if primary is None:
            if from_search is not None:
                return False
            continue
        if from_search is None or from_search.terms != primary:
            return False
        with_mono += 1
        per_progression[primary] += 1
    return sum(per_progression.values()) == with_mono


def forced_count_check(
    r: int,
    N: int,
    k: int,
    family: Family,
    a: int,
    d: int,
    budget: OracleBudget = OracleBudget(),
) -> bool:
    """Check the per-progression primary-count bound implied by forced
    elements: a progression P of weight w fixes its own k cells and forces
    w more cells off its color, so at most r * (r-1)^w * r^(N-k-w)
    colorings can have P as their (a, d)-primary progression."""
    budget.check(r, N)
    candidates = progressions_from(N, k, family, a, d)
    if not candidates:
        return True
    counts = {terms: 0 for terms in candidates}
    for colors in product(range(r), repeat=N):
        primary = _primary_by_scan(colors, candidates)
        if primary is not None:
            counts[primary] += 1
    for terms, observed in counts.items():
        p = Progression(terms, d, family)
        w = weight(conjugate_vector(p))
        allowed = r * (r - 1) ** w * r ** (N - k - w)
        if observed > allowed:
            return False
    return True
