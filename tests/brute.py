"""Brute-force reference implementations for cross-checking the library.

Everything here recomputes results straight from the definitions with plain
itertools enumeration: no bitmasks, no pruning, no recursion tricks, and no
calls into the library's search or counting code.  The one search,
first_valid_coloring, drops only prefixes whose last point already ends a
monochromatic progression.  Slow on purpose; only run at sizes where full
enumeration is instant.
"""

from fractions import Fraction
from itertools import product
from math import isqrt


def allowed_gaps(kind, param, d):
    if kind == "semi":
        return [j * d for j in range(1, param + 1)]
    return [d + e for e in range(param + 1)]


def conjugate(terms, d, kind):
    gaps = [b - a for a, b in zip(terms, terms[1:])]
    if kind == "semi":
        return tuple((g - d) // d for g in gaps)
    return tuple(g - d for g in gaps)


def weight_of(entries, kind, param):
    if kind == "semi":
        return sum(entries)
    total = entries[-1]
    for x, y in zip(entries, entries[1:]):
        total += min(x, param - y)
    return total


def mono_with_first(colors, a, d, k, kind, param):
    """All monochromatic k-term progressions with first term a and
    low-difference d, by trying every gap tuple."""
    N = len(colors)
    out = []
    for gaps in product(allowed_gaps(kind, param, d), repeat=k - 1):
        terms = [a]
        for g in gaps:
            terms.append(terms[-1] + g)
        if terms[-1] > N:
            continue
        if all(colors[t - 1] == colors[a - 1] for t in terms):
            out.append(tuple(terms))
    return out


def lexmin_primary(colors, a, d, k, kind, param):
    """The monochromatic (a, d) progression with lex-least conjugate vector."""
    cands = mono_with_first(colors, a, d, k, kind, param)
    if not cands:
        return None
    return min(cands, key=lambda t: conjugate(t, d, kind))


def has_mono(colors, k, kind, param):
    N = len(colors)
    for a in range(1, N + 1):
        for d in range(1, N):
            if mono_with_first(colors, a, d, k, kind, param):
                return True
    return False


def mono_count(r, N, k, kind, param):
    """Number of r-colorings of [1, N] containing a monochromatic k-term
    progression, by sweeping all r^N colorings."""
    return sum(
        1
        for colors in product(range(r), repeat=N)
        if has_mono(colors, k, kind, param)
    )


def weighted_sums(t, r, n):
    """The per-first-entry weighted sums over all (n+1)^t conjugate vectors:
    sums[j] = sum of alpha^weight over vectors starting with j."""
    alpha = 1 - Fraction(1, r)
    sums = [Fraction(0)] * (n + 1)
    for entries in product(range(n + 1), repeat=t):
        sums[entries[0]] += alpha ** weight_of(entries, "quasi", n)
    return sums


def floor_beta_n1_power(r, k):
    """Exact floor(beta(r, 1)^k) from the closed form at diameter 1.

    The 2x2 transfer matrix has Perron root 1 + sqrt(alpha), alpha = 1 - 1/r,
    so beta^2 = r / (1 + sqrt(alpha)) = r^2 - r*sqrt(D) with D = r(r-1).
    (beta^2)^k = a + b*sqrt(D) is computed in integer Z[sqrt(D)] arithmetic;
    D lies strictly between (r-1)^2 and r^2, so sqrt(D) is irrational and
    floor(b*sqrt(D)) is exact from isqrt.  floor(beta^k) = isqrt(floor(beta^2k)).
    """
    D = r * (r - 1)
    a, b = 1, 0
    for _ in range(k):
        a, b = a * r * r - b * r * D, b * r * r - a * r
    floor_b = isqrt(b * b * D) if b >= 0 else -isqrt(b * b * D) - 1
    return isqrt(a + floor_b)


def mono_ending_at(colors, k, kind, param):
    """True iff the last point of ``colors`` ends a monochromatic k-term
    progression, by trying every low-difference and gap tuple."""
    p = len(colors)
    for d in range(1, p):
        for gaps in product(allowed_gaps(kind, param, d), repeat=k - 1):
            terms = [p]
            for g in reversed(gaps):
                terms.append(terms[-1] - g)
            if terms[-1] >= 1 and all(colors[t - 1] == colors[p - 1] for t in terms):
                return True
    return False


def first_valid_coloring(r, N, k, kind, param):
    """The first coloring of [1, N] with no monochromatic k-term
    progression, in lexicographic order among colorings whose colors appear
    in the order 0, 1, 2, ..., or None.  Plain depth-first search that
    extends a prefix only while its last point ends no such progression."""
    colors = []
    nxt = 0
    while len(colors) < N:
        if nxt < min(r, max(colors, default=-1) + 2):
            colors.append(nxt)
            nxt = 0
            if mono_ending_at(colors, k, kind, param):
                nxt = colors.pop() + 1
        elif colors:
            nxt = colors.pop() + 1
        else:
            return None
    return tuple(colors)
