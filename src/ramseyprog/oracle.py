"""Exhaustive ground truth at small N.

Everything here accounts for every one of the r^N colorings of [1, N]
(within an explicit budget) and measures exactly: how many colorings
contain a monochromatic k-term progression, and whether the analytic
counting bounds dominate those counts.  The count walks colored prefixes
and settles a whole subtree at once when its prefix already holds a
monochromatic progression.  The two primary-progression checks share one
sweep that scans for the (a, d)-primary progression.  Every candidate lies
in the window W = [a, min(N, a + (k-1) * max gap)], so the sweep visits the
r^|W| colorings of W, and each stands for the r^(N - |W|) colorings of
[1, N] that agree with it there.  The forced check counts each
progression's colorings that way, checks on each that the forced elements
are off the primary's color, and that no progression is primary for more
colorings than its forced elements allow.  The partition check still sees
every coloring: it splices each window coloring between every coloring of
the points outside W, and checks that the walk behind primary_progression
(primary_walk, run on the plain color tuple) finds the scan's progression,
and None exactly when the scan does.
This is the module the analytic side is checked against, so it stays
deliberately dumb: no symmetry tricks, no sampling, exact integers or
refusal.
"""

from __future__ import annotations

import importlib
import sys
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
    forced_elements,
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
        bits = N * (r.bit_length() - 1)  # r^N >= 2^bits, so r^N need not be built
        if bits >= self.max_colorings.bit_length() or r**N > self.max_colorings:
            # over 4 bits a digit of the int-to-str limit, r^N has too many to print
            limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
            too_long = bits > 4 * limit or r**N >= 10**limit
            raise BudgetExceededError(
                f"r^N = {f'{r}^{N}' if too_long else r**N} colorings exceed the budget "
                f"of {self.max_colorings}"
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
    # the transfer-matrix integers hold about n(k - 1) log2(r) bits, and the
    # power r^(N - k + 1) about (k - 1) log2(r) more (at n = 0, it alone)
    n = family.param
    if (k - 1) * (n + 1) * (r - 1).bit_length() > budget.max_colorings:
        raise BudgetExceededError(
            f"the diameter-{n} bound at r = {r}, k = {k} needs "
            f"(n + 1)(k - 1) ceil(log2 r) bits, past the budget of "
            f"{budget.max_colorings}"
        )
    return quasi_counting_bound(r, N, k, n)


def verify_counting_inequality(
    r: int, N: int, k: int, family: Family, budget: OracleBudget = OracleBudget()
) -> CountReport:
    """Compare the exhaustive monochromatic-coloring count against the
    analytic upper bound for the family; bound_satisfied records whether
    the bound held.  A False result is a finding, not an exception.  The
    budget (r^N colorings, and the bits of the bound's powers: m(k - 1)
    for semi, (n + 1)(k - 1) ceil(log2 r) for quasi, all against
    max_colorings) and the bound's scope are checked before the bound or
    the count runs."""
    budget.check(r, N)
    bound = _family_bound(r, N, k, family, budget)
    count = count_mono_colorings(r, N, k, family, budget)
    return CountReport(N, k, family, r, count.mono_count, count.total,
                       bound, count.mono_count <= bound)


def _primaries(
    r: int, a: int, last: int, candidates: Tuple[Tuple[int, ...], ...]
) -> Iterator[Tuple[Tuple[int, ...], Optional[Tuple[int, ...]]]]:
    """Every r-coloring of the window [a, last] (point a + i has color
    window[i]) with its primary progression found by scan: the first
    monochromatic candidate in conjugate-lex order, or None.  The candidates
    all lie in the window, so on a coloring of [1, N] the scan gives the
    same answer as on its window's colors."""
    offsets = [(terms, [t - a for t in terms[1:]]) for terms in candidates]
    for window in product(range(r), repeat=last - a + 1):
        c = window[0]  # every candidate starts at a
        for terms, points in offsets:
            for i in points:
                if window[i] != c:
                    break
            else:  # every term has the first term's color
                yield window, terms
                break
        else:
            yield window, None


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
    tuple, with its gaps and window [a, last] worked out once; terms equal
    to a valid candidate's are themselves a valid progression.  The scan
    runs once per coloring of the window, and the walk on every coloring of
    [1, N]: the window's colors spliced between each coloring of the points
    before a and each coloring of the points after last.
    """
    budget.check(r, N)
    candidates = progressions_from(N, k, family, a, d)
    if r < 2:
        raise ValueError("a coloring needs at least 2 colors")
    gaps = tuple(family.allowed_gaps(d)[:N])
    last = min(N, a + (k - 1) * gaps[-1])
    for window, primary in _primaries(r, a, last, candidates):
        for before in product(range(r), repeat=a - 1):
            head = before + window
            for after in product(range(r), repeat=N - last):
                if primary_walk(head + after, a, k, gaps, last) != primary:
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
    """Check the forced elements of the primary progression on every
    coloring, and the per-progression primary-count bound they imply.

    When P is the (a, d)-primary progression, each point of
    forced_elements(P) has a color other than P's (the exchange lemma).
    So P of weight w fixes its own k cells and forces w more cells off its
    color, and at most r * (r-1)^w * r^(N-k-w) colorings can have P as
    their (a, d)-primary progression.  Each coloring of the window W that
    _primaries sweeps stands for the r^(N - |W|) colorings of [1, N] that
    agree with it there.
    """
    budget.check(r, N)
    candidates = progressions_from(N, k, family, a, d)
    if not candidates:
        return True
    last = min(N, a + (k - 1) * family.allowed_gaps(d)[:N][-1])
    progressions = {terms: Progression(terms, d, family) for terms in candidates}
    # each candidate's forced points as window offsets, found once
    forced = {terms: [e - a for e in forced_elements(progression)]
              for terms, progression in progressions.items()}
    counts = Counter()
    for window, primary in _primaries(r, a, last, candidates):
        if primary is not None:
            for e in forced[primary]:
                if window[e] == window[0]:
                    return False
            counts[primary] += 1
    outside = r ** (N - (last - a + 1))
    for terms, observed in counts.items():
        w = weight(conjugate_vector(progressions[terms]))
        allowed = r * (r - 1) ** w * r ** (N - k - w)
        if observed * outside > allowed:
            return False
    return True
