"""Analytic lower bounds for progression Ramsey thresholds.

Two bound families live here.  For semi-progressions of scope m (two colors)
the base constant is alpha(m) = sqrt(2^m / (2^m - 1)), from a counting
bound.  A k-term progression whose conjugate vector u (entries in [0, m-1])
has weight w = sum(u) fixes its k cells and forces w more off its color, so
it is primary for at most 2^(N-k+1-w) colorings of [1, N]; there are at most
N^2/(k-1) (first term, low-difference) pairs, so at most

    (N^2 * 2^(N-k+1) / (k-1)) * sum_u 2^(-sum(u))

colorings hold a monochromatic one.  Grouping the vectors u by frequency
vector v (v_j entries equal to j) makes the sum one over v of the
multinomial (k-1)! / prod(v_j!) times 2^(-sum_j j*v_j), which the
multinomial theorem collapses to (1 + 1/2 + ... + 2^(1-m))^(k-1) =
(2 (1 - 2^(-m)))^(k-1).  So the count is at most

    (N^2 * 2^N / (k-1)) * (1 - 2^(-m))^(k-1),

the form semi_counting_bound returns, and it is below 2^N while N^2 is below
(k-1) alpha(m)^(2(k-1)).  For quasi-progressions of diameter n with r colors
the base is beta = sqrt(r / lambda_max) where lambda_max is the Perron root
of a positive (n+1) x (n+1) transfer matrix with entries alpha^min(i, n-j),
alpha = 1 - 1/r.

Rational quantities (weighted sums, counting bounds) are kept as exact
Fractions.  The transfer matrix is never formed: B = r^n A is the n+1
integer weights (r-1)^t r^(n-t), built in one place, and B is applied in
O(n) from its structure.  Its Perron root is enclosed in an exact rational
Collatz-Wielandt bracket (``perron_bracket``).  It starts near the Perron
vector's shape alpha^min(i, n/2) and is narrowed by inverse iteration at the
two-sided Rayleigh quotient (B^T = J B J, with J the index reversal, gives
the left vector free), solved in O(n) in big-integer fixed point; for n >= 1,
2 to 4 Collatz-Wielandt evaluations reach 48 bits.  Threshold floors are decided
from both ends of it; floats are only for display.  Exact-rational bisection
on the M-matrix test of the dense rows (``transfer_matrix``), every leading
principal minor of xI - A positive, is an independent check.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from typing import List, Sequence, Tuple

from .errors import BudgetExceededError, ConvergenceError
from .progressions import Family, record

MAX_MATRIX_DIM = 64
MAX_POWER_STEPS = 64  # cap on perron_bracket's inverse-iteration steps
THRESHOLD_DOUBLINGS = 8  # cap on BoundResult.threshold's precision doublings


def semi_counting_bound(N: int, k: int, m: int) -> Fraction:
    """Exact upper bound (N^2 * 2^N / (k-1)) * (1 - 2^(-m))^(k-1) on the
    number of 2-colorings of [1, N] containing a monochromatic k-term
    semi-progression of scope m: the frequency-vector sum, collapsed."""
    if k < 2:
        raise ValueError("need at least 2 terms")
    if N < 1:
        raise ValueError("ground set must be non-empty")
    if m < 1:
        raise ValueError("scope must be at least 1")
    return Fraction(N * N, k - 1) * 2**N * (1 - Fraction(1, 2**m)) ** (k - 1)


def _scaled_weights(r: int, n: int) -> List[int]:
    """The weights w_t = (r-1)^t r^(n-t) of B = r^n A.  A's entry (i, j) is
    alpha^min(i, n-j), with the pair multiplicity of adjacent conjugate entries
    (i, j) as exponent, so row i of B is w_i up to column n-i and w_(n-j) after."""
    if r < 2:
        raise ValueError("need at least 2 colors")
    if n < 0:
        raise ValueError("diameter must be non-negative")
    if n + 1 > MAX_MATRIX_DIM:
        raise ValueError(f"matrix dimension {n + 1} exceeds {MAX_MATRIX_DIM}")
    return [(r - 1) ** t * r ** (n - t) for t in range(n + 1)]


def transfer_matrix(r: int, n: int) -> tuple:
    """The dense rows of the transfer matrix for r colors and diameter n, as
    Fractions alpha^min(i, n-j), for cross-checks only."""
    powers = [Fraction(w, r**n) for w in _scaled_weights(r, n)]  # alpha^t
    dim = range(n + 1)
    return tuple(tuple(powers[min(i, n - j)] for j in dim) for i in dim)


def _structured_product(weights: Sequence[int], vec: Sequence[int]) -> List[int]:
    """B vec in O(n), with one prefix sum and one running tail:

        (B v)_i = w_i (v_0 + ... + v_(n-i)) + sum_(t<i) w_t v_(n-t).
    """
    n = len(vec) - 1
    prefix = list(accumulate(vec))
    out, tail = [], 0
    for i, w in enumerate(weights):
        out.append(w * prefix[n - i] + tail)
        tail += w * vec[n - i]
    return out


def _march(weights: Sequence[int], sigma: int, prec: int, v: Sequence[int],
           first: int, last: int):
    """x with x_0 = first and x_n = last from (s I - B) x = v, where B has
    the given weights and s = sigma / 2^prec, in fixed point; and the two
    residuals that vanish when x solves all of it.

    Row 0 of B is w_0 = r^n throughout, and row i+1 minus row i is -d_i on
    columns 0..n-1-i and 0 after, d_i = w_i - w_(i+1).  So with S(m) the sum of
    x_0..x_m, the rows read s x_0 - v_0 = r^n S(n) and

        s (x_(i+1) - x_i) = v_(i+1) - v_i - d_i S(n-1-i),

    which gives x_(i+1) once x_(n-i)..x_n are known, as S(n-1-i) is S(n)
    less them, and x_i once x_0..x_(n-1-i) are.  The two ends alternate and
    meet at ceil(n/2): the residuals are the two values found there, and
    S(n) less the sum of x.
    """
    n = len(v) - 1
    drops = [a - b for a, b in zip(weights, weights[1:])]
    total = (sigma * first - (v[0] << prec)) // (weights[0] << prec)  # S(n), by row 0
    up, down = [first], [last]  # x_0, x_1, ... and x_n, x_(n-1), ...
    up_sums, down_sums = [first], [last]
    for step in range(n):
        if step % 2 == 0:  # rows i, i+1 give x_(i+1)
            i = len(up) - 1
            rhs = v[i + 1] - v[i] - drops[i] * (total - down_sums[i])
            up.append(up[-1] + (rhs << prec) // sigma)
            up_sums.append(up_sums[-1] + up[-1])
        else:  # rows i, i+1 give x_i
            i = n - len(down)
            rhs = v[i + 1] - v[i] - drops[i] * up_sums[n - 1 - i]
            down.append(down[-1] - (rhs << prec) // sigma)
            down_sums.append(down_sums[-1] + down[-1])
    residuals = (up[-1] - down[-1], total - up_sums[-1] - down_sums[-1] + down[-1])
    return up + down[-2::-1], residuals


def perron_bracket(r: int, n: int, bits: int = 48) -> Tuple[Fraction, Fraction]:
    """Exact Fractions lo <= lambda_max <= hi with (hi - lo) * 2^bits <= lo,
    for the transfer matrix A of r colors and diameter n.

    lo and hi are min_i and max_i of (Av)_i / v_i, which bracket the Perron
    root for any positive v (Collatz-Wielandt), taken exactly with A scaled
    by r^n and v in integers: rounding in v can only widen the bracket, and
    no choice of shift below can make it wrong, only slower.  v starts as B
    applied once to alpha^min(i, floor(n/2)), the Perron vector's shape
    (about 2^-i at r = 2, flat past n/2 as r grows), and each step replaces
    it by one inverse iteration, (s I - B)^-1 v, solved in O(n) by
    ``_march`` in fixed point at three times the bits the bracket holds (at
    most ``bits``) plus the bits v spans and 64 guard bits.  The shift s is
    the two-sided Rayleigh quotient u.Bv / u.v with u = v reversed, a left
    vector for B since B^T = J B J (J reverses the index).  It converges
    about cubically (Parlett, Math. Comp. 28, 1974), so the bits held about
    triple per step: at most 3 steps to 48 bits, 4 to 120 and 5 to 400 for
    r in 2..10, 16, 50, 1000 and every n < 64.  x takes the sign that
    makes its sum positive (the sign of det does not give it, as s can fall
    below lambda_max), and entries still not positive become 1.  If the
    determinant of the march's two end conditions is 0, x is the null
    vector of s I - B that the two end solutions give, or 0, and then
    v = 1 (the row sums next).  MAX_POWER_STEPS caps the steps.
    """
    weights = _scaled_weights(r, n)
    zeros = [0] * (n + 1)
    v = _structured_product(weights, [weights[min(i, n // 2)] for i in range(n + 1)])
    for _ in range(MAX_POWER_STEPS + 1):
        w = _structured_product(weights, v)
        lo = hi = 0  # the least and greatest w_i / v_i, by cross-multiplying
        for i in range(1, n + 1):
            if w[i] * v[lo] < w[lo] * v[i]:
                lo = i
            elif w[i] * v[hi] > w[hi] * v[i]:
                hi = i
        least, width = w[lo] * v[hi], w[hi] * v[lo] - w[lo] * v[hi]
        if width << bits <= least:
            return Fraction(w[lo], r**n * v[lo]), Fraction(w[hi], r**n * v[hi])
        held = max(0, least.bit_length() - width.bit_length())
        prec = min(3 * held, bits) + max(v).bit_length() - min(v).bit_length() + 64
        u = v[::-1]  # a left vector: u B = (B v reversed), as B^T = J B J
        uw, uv = (sum(a * b for a, b in zip(u, y)) for y in (w, v))
        sigma = (uw << prec) // uv  # s = sigma / 2^prec, the Rayleigh quotient
        lift = max(0, sigma.bit_length() - max(v).bit_length())  # x is about v / s
        x_v, res_v = _march(weights, sigma, prec, [e << lift for e in v], 0, 0)
        x_0, res_0 = _march(weights, sigma, prec, zeros, 1 << prec, 0)
        x_n, res_n = _march(weights, sigma, prec, zeros, 0, 1 << prec)
        # x_v + c_0 x_0 + c_n x_n zeroes both residuals (Cramer), times det
        det = res_0[0] * res_n[1] - res_0[1] * res_n[0]
        c_0 = res_n[0] * res_v[1] - res_n[1] * res_v[0]
        c_n = res_v[0] * res_0[1] - res_v[1] * res_0[0]
        x = [det * a + c_0 * b + c_n * c for a, b, c in zip(x_v, x_0, x_n)]
        if sum(x) < 0:
            x = [-e for e in x]
        cut = max(0, max(x).bit_length() - prec)
        v = [max(1, e >> cut) for e in x]  # rounding can only widen the bracket
    raise ConvergenceError(f"Perron bracket wider than 2^-{bits} after the step cap")


def lambda_max_by_charpoly(rows: Sequence[Sequence]) -> float:
    """Perron root of the nonnegative matrix with these rows, by exact-rational
    bisection until hi - lo is at most 1e-12.

    Independent of perron_bracket: for A >= 0, x > lambda_max exactly when
    every leading principal minor of xI - A is positive (the M-matrix
    criterion; Berman and Plemmons, Nonnegative Matrices, ch. 6), and the
    least and greatest row sums hold lambda_max.  With the rows scaled to
    integers and x = num / den, fraction-free (Bareiss) elimination on
    scale (num I - den A) has those minors, times positive powers of
    scale den, as its pivots.  Intended for small matrices (cross-check path).
    """
    if any(a < 0 for row in rows for a in row):
        raise ValueError("the M-matrix criterion needs nonnegative entries")
    scale = math.lcm(*(Fraction(a).denominator for row in rows for a in row))
    ints = [[int(Fraction(a) * scale) for a in row] for row in rows]

    def above(num: int, den: int) -> bool:  # num / den > lambda_max
        m = [[num * scale * (i == j) - den * a for j, a in enumerate(row)]
             for i, row in enumerate(ints)]
        prev = 1
        for p, pivot_row in enumerate(m):
            pivot = pivot_row[p]  # the leading minor of order p + 1, scaled
            if pivot <= 0:
                return False
            for row in m[p + 1:]:
                for j in range(p + 1, len(m)):
                    row[j] = (row[j] * pivot - row[p] * pivot_row[j]) // prev
            prev = pivot
        return True

    sums = [sum(row) for row in ints]
    lo, hi = Fraction(min(sums), scale), Fraction(max(sums), scale)
    while float(hi - lo) > 1e-12:
        mid = (lo + hi) / 2
        if above(mid.numerator, mid.denominator):
            hi = mid
        else:
            lo = mid
    return float((lo + hi) / 2)


@record
class BoundResult:
    """A lower-bound base, base^2 = r / lambda, where lambda lies in the
    exact enclosure [lambda_lo, lambda_hi] (the Perron root of
    transfer_matrix(r, n) for quasi, the point 2 - 2^(1-m) for semi).  What
    is proved of the threshold S is S > N wherever the counting bound is
    below r^N, and S > r(k - 1); base^k can exceed both at small k.  ``base``
    and ``lambda_max`` are display floats, and ``lambda_max`` lies in the
    enclosure.
    ``useful`` (base > 1) is decided from the enclosure: lambda_hi < r.
    """

    family: Family
    r: int
    base: float
    lambda_max: float
    lambda_lo: Fraction
    lambda_hi: Fraction
    useful: bool

    def threshold(self, k: int) -> int:
        """floor(base^k), exactly: the floors at both ends of the enclosure
        agree, else the enclosure is narrowed until they do (ConvergenceError
        if they still differ after THRESHOLD_DOUBLINGS of the precision).
        Where the enclosure puts the base below 1, that is 1 at k = 0 and 0
        after, for any k.  Otherwise BudgetExceededError if k is past the
        float range or its powers need more bits than an int can hold."""
        if k < 0:
            raise ValueError("exponent must be non-negative")
        lo, hi = self.lambda_lo, self.lambda_hi
        if lo > self.r:  # base < 1, so base^k is 1 at k = 0 and in (0, 1) after
            return int(k == 0)
        try:
            # enough bits to pin base^k to within about 2^-32
            bits = max(48, math.ceil(k * math.log2(self.base))) + k.bit_length() + 32
            for _ in range(THRESHOLD_DOUBLINGS):
                floor_lo = _sqrt_power_floor(self.r / hi, k, bits + 16, up=False)
                if floor_lo == _sqrt_power_floor(self.r / lo, k, bits + 16, up=True):
                    return floor_lo
                if lo < hi:  # quasi: refine the Perron bracket
                    lo, hi = perron_bracket(self.r, self.family.param, bits)
                bits *= 2
        except OverflowError:
            raise BudgetExceededError(
                f"floor(base^k) at k = {k} needs more bits than an int can hold"
            ) from None
        raise ConvergenceError(f"floor(base^{k}) undecided within the step cap")


def _sqrt_power_floor(x: Fraction, k: int, prec: int, up: bool) -> int:
    """A lower (``up`` False) or upper (``up`` True) bound on floor(sqrt(x^k)),
    by fixed-point powers with ``prec`` fractional bits, all rounded that way."""

    def rounded(p: int) -> int:  # p / 2^prec
        return -(-p >> prec) if up else p >> prec

    num = x.numerator << prec
    power = -(-num // x.denominator) if up else num // x.denominator
    acc = 1 << prec
    while k:
        if k & 1:
            acc = rounded(acc * power)
        k >>= 1
        if k:
            power = rounded(power * power)
    return math.isqrt(acc >> prec)


def semi_bound(m: int) -> BoundResult:
    """The scope-m semi-progression bound base as a BoundResult (2 colors):
    lambda = 2 - 2^(1-m), so base^2 = 2 / lambda = 2^m / (2^m - 1)."""
    if m < 1:
        raise ValueError("scope must be at least 1")
    base = math.sqrt(2**m / (2**m - 1))
    lam = 2 - Fraction(2, 2**m)
    return BoundResult(Family.semi(m), 2, base, float(lam), lam, lam, useful=True)


def beta_quasi(r: int, n: int) -> BoundResult:
    """The diameter-n, r-color quasi-progression bound base beta = sqrt(r /
    lambda_max(transfer_matrix(r, n))), with lambda_max bracketed to 48 bits
    and further while r lies inside the bracket, so ``useful`` is certain."""
    if n < 1:
        raise ValueError("diameter must be at least 1 for the spectral bound")
    bits = 48
    lo, hi = perron_bracket(r, n, bits)
    while lo < r <= hi:
        bits *= 2
        lo, hi = perron_bracket(r, n, bits)
    lam = float((lo + hi) / 2)
    if lam > hi:  # a bracket narrower than a float ulp may hold no float
        lam = math.nextafter(lam, 0)
    lo = min(lo, Fraction(lam))  # still below lambda_max, and now holds lam
    return BoundResult(Family.quasi(n), r, math.sqrt(r / lam), lam, lo, hi, hi < r)


def weighted_conjugate_sum(
    t: int, r: int, n: int
) -> Tuple[List[Fraction], Fraction]:
    """The weighted sums (S_t0, ..., S_tn) and their total, exactly.

    S_tj is the sum of alpha^weight over all length-t quasi conjugate
    vectors whose first entry is j (alpha = 1 - 1/r).  Base case: length-1
    vectors have weight equal to their single entry, so S_1j = alpha^j.
    Longer lengths follow the transfer-matrix recursion S_{t+1} = A S_t,
    run in integers as r^(n t) S_t: r^n S_1 is the weight vector
    (r-1)^j r^(n-j) of B = r^n A, each step multiplies by B, and one
    division at the end gives the exact Fractions.
    """
    if t < 1:
        raise ValueError("length must be at least 1")
    weights = _scaled_weights(r, n)
    vec = weights
    for _ in range(t - 1):
        vec = _structured_product(weights, vec)
    scale = r ** (n * t)
    return [Fraction(v, scale) for v in vec], Fraction(sum(vec), scale)


def quasi_counting_bound(r: int, N: int, k: int, n: int) -> Fraction:
    """Exact upper bound (N^2 * r^(N-k+1) / (k-1)) * S_{k-1}(r, n) on the
    number of r-colorings of [1, N] containing a monochromatic k-term
    quasi-progression of diameter n."""
    if k < 2:
        raise ValueError("need at least 2 terms")
    if N < 1:
        raise ValueError("ground set must be non-empty")
    _, total = weighted_conjugate_sum(k - 1, r, n)
    return Fraction(N * N, k - 1) * Fraction(r) ** (N - k + 1) * total


def beta_table(r_max: int, n_max: int) -> List[BoundResult]:
    """Quasi bound bases for every 2 <= r <= r_max, 1 <= n <= n_max."""
    if r_max < 2 or n_max < 1:
        raise ValueError("table needs r_max >= 2 and n_max >= 1")
    return [
        beta_quasi(r, n)
        for r in range(2, r_max + 1)
        for n in range(1, n_max + 1)
    ]
