"""Brute-force reference implementations for cross-checking the library.

Everything here recomputes results straight from the definitions with plain
itertools enumeration: no bitmasks, no pruning, no recursion tricks, and no
calls into the library's search or counting code.  The one search,
first_valid_coloring, drops only prefixes whose last point already ends a
monochromatic progression.  Slow on purpose; only run at sizes where full
enumeration is instant.  dense_perron_bracket keeps the generic matrix route
to the Perron root (dense float solves, exact ratios, integer squaring) as a
reference for the library's structured one, and semi_counting_sum the scope
counting bound's sum over frequency vectors as a reference for its closed
form.  A k-term progression with low-difference d spans at least (k - 1) d,
so no scan tries a d past that.
"""

import math
from fractions import Fraction
from itertools import combinations, product
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


def longest_chain(colors, p, d, kind, param, ending):
    """Terms in the longest chain of points colored like p, each gap allowed
    for low-difference d, that ends at p (ending) or starts at p, by trying
    every gap tuple of each length.  Dropping the far end of a chain leaves
    a shorter one, so the first length with no chain stops the search."""
    N = len(colors)
    sign = -1 if ending else 1
    for t in range(1, N):
        for gaps in product(allowed_gaps(kind, param, d), repeat=t):
            terms = [p]
            for g in gaps:
                terms.append(terms[-1] + sign * g)
            if 1 <= terms[-1] <= N and all(colors[q - 1] == colors[p - 1] for q in terms):
                break
        else:
            return t
    return N


def mono_through(colors, p, c, k, kind, param):
    """Number of (low-difference, k-term progression) pairs that have p as a
    term and every other term colored c, by trying every low-difference,
    first term and gap tuple."""
    N = len(colors)
    count = 0
    for d in range(1, N):
        if (k - 1) * d > N - 1:
            break
        for a in range(1, p + 1):
            for gaps in product(allowed_gaps(kind, param, d), repeat=k - 1):
                terms = [a]
                for g in gaps:
                    terms.append(terms[-1] + g)
                if terms[-1] <= N and p in terms:
                    count += all(colors[t - 1] == c for t in terms if t != p)
    return count


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
            if (k - 1) * d > N - 1:
                break
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


def frequency_vector(entries, m):
    """The histogram (v_0, ..., v_(m-1)) of a semi conjugate vector's entries."""
    return tuple(entries.count(j) for j in range(m))


def frequency_vectors(total, m):
    """All m-slot histograms with entry sum ``total``, by stars and bars."""
    for bars in combinations(range(total + m - 1), m - 1):
        edges = (-1, *bars, total + m - 1)
        yield tuple(b - a - 1 for a, b in zip(edges, edges[1:]))


def multinomial(counts):
    """(sum counts)! / prod(counts_j!): the vectors sharing the histogram."""
    out = math.factorial(sum(counts))
    for c in counts:
        out //= math.factorial(c)
    return out


def semi_counting_sum(N, k, m):
    """The scope-m semi counting bound before the multinomial theorem: the
    sum over frequency vectors v with sum k - 1 of multinomial(v) times
    2^(-weight), scaled by N^2 * 2^(N-k+1) / (k-1)."""
    acc = sum(
        Fraction(multinomial(v), 2 ** sum(j * c for j, c in enumerate(v)))
        for v in frequency_vectors(k - 1, m)
    )
    return Fraction(N * N, k - 1) * Fraction(2) ** (N - k + 1) * acc


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
        if (k - 1) * d > p - 1:
            break
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


def _solve_shifted(rows, shift, rhs):
    """The solution x of (shift*I - rows) x = rhs by Gaussian elimination with
    partial pivoting in floats, or None when the matrix is singular."""
    a = [
        [(shift if i == j else 0) - e for j, e in enumerate(row)] + [b]
        for i, (row, b) in enumerate(zip(rows, rhs))
    ]
    dim = len(a)
    for col in range(dim):
        piv = max(range(col, dim), key=lambda i: abs(a[i][col]))
        if a[piv][col] == 0:
            return None
        a[col], a[piv] = a[piv], a[col]
        pivot_row = a[col]
        tail = pivot_row[col:]
        for row in a[col + 1 :]:
            factor = row[col] / pivot_row[col]
            if factor:
                row[col:] = [x - factor * p for x, p in zip(row[col:], tail)]
    x = [0.0] * dim
    for i in reversed(range(dim)):
        x[i] = (a[i][dim] - sum(a[i][j] * x[j] for j in range(i + 1, dim))) / a[i][i]
    return x


def dense_perron_bracket(rows, bits=48, steps=64):
    """Exact Fractions lo <= lambda_max <= hi with (hi - lo) * 2^bits <= lo for
    any positive matrix of Fraction rows, by the generic dense route: float
    inverse iteration shifted to the upper ratio, then exact Collatz-Wielandt
    ratios of A^(2^j) v, squaring the integer matrix once per step."""
    floats = [[float(a) for a in row] for row in rows]
    v, sigma = [sum(row) for row in floats], math.inf
    for _ in range(steps):
        w = [sum(a * x for a, x in zip(row, v)) for row in floats]
        upper = max(wi / vi for wi, vi in zip(w, v))
        if upper >= sigma:
            break
        sigma = upper
        x = _solve_shifted(floats, sigma, v)
        if x is None or min(x) * max(x) <= 0:
            break
        top = max(x, key=abs)
        v = [xi / top for xi in x]
    scale = math.lcm(*(a.denominator for row in rows for a in row))
    ints = [[a.numerator * (scale // a.denominator) for a in row] for row in rows]
    iv = v0 = [max(1, int(math.ldexp(x, 62))) for x in v]
    power = ints
    for _ in range(steps + 1):
        w = [sum(a * x for a, x in zip(row, iv)) for row in ints]
        ratios = [Fraction(wi, scale * xi) for wi, xi in zip(w, iv)]
        lo, hi = min(ratios), max(ratios)
        if (hi - lo) * 2**bits <= lo:
            return lo, hi
        power = [[sum(a * b for a, b in zip(row, col)) for col in zip(*power)] for row in power]
        shift = max(0, min(map(min, power)).bit_length() - bits - 64)
        power = [[e >> shift for e in row] for row in power]
        iv = [sum(a * x for a, x in zip(row, v0)) for row in power]
    raise ArithmeticError(f"dense bracket wider than 2^-{bits} after {steps} steps")
