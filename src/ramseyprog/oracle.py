"""Exhaustive ground truth at small N.

Everything here accounts for every one of the r^N colorings of [1, N]
(within an explicit budget) and measures exactly: how many colorings
contain a monochromatic k-term progression, and whether the analytic
counting bounds dominate those counts.  The count walks colored prefixes
and settles a whole subtree at once when its prefix already holds a
monochromatic progression.  The two primary-progression checks share one
sweep that visits every coloring and scans for its (a, d)-primary
progression: the partition check that the walk behind primary_progression
(primary_walk, run on the plain color tuple) finds the same one, and None
exactly when the scan does; the forced check that no progression is
primary for more colorings than its forced elements allow.
This is the module the analytic side is checked against, so it stays
deliberately dumb: no symmetry tricks, no sampling, exact integers or
refusal.
"""

from __future__ import annotations

import importlib
from collections import Counter
from functools import lru_cache
from itertools import product
from typing import TYPE_CHECKING, Iterator, Optional, Tuple

from .errors import BudgetExceededError
from .progressions import (
    SEMI,
    Family,
    Progression,
    conjugate_vector,
    primary_progression,  # unused here; the benchmark's tracer wraps oracle.<name>
    primary_walk,
    record,
    weight,
)

if TYPE_CHECKING:
    from fractions import Fraction

# Only verify needs the counting bounds, so they load on first use and the
# other checks import no bounds (nor its fractions and decimal).  Until
# _family_bound binds them here, oracle.<name> resolves through __getattr__;
# a wrapper set on oracle.<name> before that (the benchmark's tracer) stays.
_BOUNDS = ("quasi_counting_bound", "semi_counting_bound")


def __getattr__(name):
    if name not in _BOUNDS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(".bounds", __package__), name)


@record
class OracleBudget:
    """Hard caps for exhaustive enumeration."""

    max_points: int = 24
    max_colorings: int = 2**24

    def __post_init__(self):
        if min(self.max_points, self.max_colorings) < 0:
            raise ValueError("oracle budget caps must be non-negative")

    def check(self, r: int, N: int) -> None:
        if r < 1 or N < 0:
            raise ValueError(f"need r >= 1 colors and N >= 0 points, got r={r}, N={N}")
        if N > self.max_points:
            raise BudgetExceededError(
                f"N={N} exceeds the {self.max_points}-point oracle budget"
            )
        if r**N > self.max_colorings:
            raise BudgetExceededError(
                f"r^N = {r**N} colorings exceed the budget of {self.max_colorings}"
            )


@record
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

    From the definition, sharing no code with the chain-length kernel that
    the oracle checks: each prefix grows by every allowed gap, smallest
    first, while its remaining terms still fit in [1, N] at the least gap.
    Generated for the given d directly (a term tuple can be valid under
    several low-differences, so filtering a mixed list would conflate them).
    """
    if k < 2:
        raise ValueError("need at least 2 terms")
    if not 1 <= a <= N:
        raise ValueError(f"first term {a} outside [1, {N}]")
    if d < 1:
        raise ValueError("low-difference must be a positive integer")
    gaps, chains = family.allowed_gaps(d)[:N], [(a,)]
    for left in reversed(range(k - 1)):  # terms still to add after this one
        chains = [t + (t[-1] + g,) for t in chains for g in gaps
                  if t[-1] + g + left * gaps[0] <= N]
    return tuple(chains)


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


def _family_bound(
    r: int, N: int, k: int, family: Family, budget: OracleBudget
) -> Fraction:
    for name in _BOUNDS:
        globals().setdefault(name, __getattr__(name))
    if family.kind == SEMI:
        if r != 2:
            raise ValueError("the scope counting bound is specific to 2 colors")
        # the closed form's power (1 - 2^-m)^(k - 1) has m(k - 1) bits
        m = family.param
        if m * (k - 1) > budget.max_colorings:
            raise BudgetExceededError(
                f"the scope-{m} bound at k = {k} needs m(k - 1) bits, "
                f"past the budget of {budget.max_colorings}"
            )
        return semi_counting_bound(N, k, m)
    return quasi_counting_bound(r, N, k, family.param)


def verify_counting_inequality(
    r: int, N: int, k: int, family: Family, budget: OracleBudget = OracleBudget()
) -> CountReport:
    """Compare the exhaustive monochromatic-coloring count against the
    analytic upper bound for the family; bound_satisfied records whether
    the bound held.  A False result is a finding, not an exception.  The
    budget (r^N colorings, and for semi the m(k - 1) bits of the bound's
    power, both against max_colorings) and the bound's scope are checked
    before the bound or the count runs."""
    budget.check(r, N)
    bound = _family_bound(r, N, k, family, budget)
    count = count_mono_colorings(r, N, k, family, budget)
    return CountReport(N, k, family, r, count.mono_count, count.total,
                       bound, count.mono_count <= bound)


def _primaries(
    r: int, N: int, candidates: Tuple[Tuple[int, ...], ...]
) -> Iterator[Tuple[Tuple[int, ...], Optional[Tuple[int, ...]]]]:
    """Every r-coloring of [1, N] with its primary progression found by scan:
    the first monochromatic candidate in conjugate-lex order, or None."""
    for colors in product(range(r), repeat=N):
        for terms in candidates:
            c = colors[terms[0] - 1]
            for t in terms:
                if colors[t - 1] != c:
                    break
            else:  # every term has the first term's color
                yield colors, terms
                break
        else:
            yield colors, None


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

    The scan gives each coloring at most one primary: the first monochromatic
    candidate in conjugate-lex order.  The check is that on every coloring
    the walk behind primary_progression returns that candidate's terms, and
    None exactly when no candidate is monochromatic (so on every coloring
    when no candidate fits in [1, N]).  The walk runs on the plain color
    tuple, with its gaps and window worked out once; terms equal to a valid
    candidate's are themselves a valid progression.
    """
    budget.check(r, N)
    candidates = progressions_from(N, k, family, a, d)
    if r < 2:
        raise ValueError("a coloring needs at least 2 colors")
    gaps = tuple(family.allowed_gaps(d)[:N])
    last = min(N, a + (k - 1) * gaps[-1])
    for colors, primary in _primaries(r, N, candidates):
        if primary_walk(colors, a, k, gaps, last) != primary:
            return False
    return True


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
    counts = Counter(p for _, p in _primaries(r, N, candidates) if p is not None)
    for terms, observed in counts.items():
        w = weight(conjugate_vector(Progression(terms, d, family)))
        allowed = r * (r - 1) ** w * r ** (N - k - w)
        if observed > allowed:
            return False
    return True
