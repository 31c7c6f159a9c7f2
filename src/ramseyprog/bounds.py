"""Analytic lower bounds for progression Ramsey thresholds.

Two bound families live here.  For semi-progressions of scope m (two colors)
the base constant is alpha(m) = sqrt(2^m / (2^m - 1)) and the supporting
counting bound collapses, via the multinomial theorem, from a sum over
frequency vectors to a closed form.  For quasi-progressions of diameter n
with r colors the base is beta = sqrt(r / lambda_max) where lambda_max is
the Perron root of a positive (n+1) x (n+1) transfer matrix with entries
alpha^min(i, n-j), alpha = 1 - 1/r.

Rational quantities (matrix entries, weighted sums, counting bounds) are
kept as exact Fractions.  The Perron root is enclosed in an exact rational
Collatz-Wielandt bracket (``perron_bracket``), narrowed past float precision
by squaring the integer matrix, and threshold floors are decided from both
ends of it; floats are only for display.  Exact-rational bisection on the
Sturm sequence of the characteristic polynomial is an independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterator, List, Sequence, Tuple

from .errors import ConvergenceError
from .progressions import Family, FrequencyVector, pair_multiplicity

MAX_MATRIX_DIM = 64
MAX_POWER_STEPS = 64  # cap on perron_bracket's float solves and on its squarings
THRESHOLD_DOUBLINGS = 8  # cap on BoundResult.threshold's precision doublings


def alpha_semi(m: int) -> float:
    """The semi-progression bound base alpha(m) = sqrt(2^m / (2^m - 1))."""
    if m < 1:
        raise ValueError("scope must be at least 1")
    return math.sqrt(2**m / (2**m - 1))


def multinomial_count(v) -> int:
    """Exact multinomial coefficient (sum v)! / prod(v_j!).

    Counts the conjugate vectors sharing the frequency histogram v.  Exact
    big-integer arithmetic; no overflow possible.
    """
    counts = v.counts if isinstance(v, FrequencyVector) else tuple(v)
    if any(c < 0 for c in counts):
        raise ValueError("counts must be non-negative")
    out = math.factorial(sum(counts))
    for c in counts:
        out //= math.factorial(c)
    return out


def frequency_vectors(total: int, m: int) -> Iterator[Tuple[int, ...]]:
    """All m-slot histograms with entry sum ``total`` (stars and bars)."""
    if m < 1:
        raise ValueError("need at least one slot")
    for bars in combinations(range(total + m - 1), m - 1):
        prev = -1
        counts = []
        for b in bars:
            counts.append(b - prev - 1)
            prev = b
        counts.append(total + m - 1 - prev - 1)
        yield tuple(counts)


@dataclass(frozen=True)
class SemiCountingBound:
    """Upper bounds on the number of 2-colorings of [1, N] containing a
    monochromatic k-term semi-progression of scope m.

    ``sum_form`` iterates over all frequency vectors v with sum k-1,
    weighting each by its multinomial count and 2^(-weight):

        (N^2 * 2^(N-k+1) / (k-1)) * sum_v M(v) * 2^(-sum_j j*v_j)

    ``closed_form`` is what the multinomial theorem collapses that to:

        (N^2 * 2^N / (k-1)) * (1 - 2^(-m))^(k-1)

    The two are equal exactly.  ``displayed_form`` is the same expression
    with exponent k instead of k-1; it is strictly smaller and is reported
    for comparison only, while inequality checking uses the k-1 forms.
    """

    N: int
    k: int
    m: int
    sum_form: Fraction
    closed_form: Fraction
    displayed_form: Fraction


def semi_counting_bound(N: int, k: int, m: int) -> SemiCountingBound:
    """Evaluate both faces of the scope-m counting bound, exactly."""
    if k < 2:
        raise ValueError("need at least 2 terms")
    if N < 1:
        raise ValueError("ground set must be non-empty")
    if m < 1:
        raise ValueError("scope must be at least 1")
    half = Fraction(1, 2)
    acc = Fraction(0)
    for v in frequency_vectors(k - 1, m):
        w = sum(j * vj for j, vj in enumerate(v))
        acc += multinomial_count(v) * half**w
    sum_form = Fraction(N * N, k - 1) * Fraction(2) ** (N - k + 1) * acc
    base = 1 - half**m
    closed = Fraction(N * N, k - 1) * Fraction(2) ** N * base ** (k - 1)
    displayed = Fraction(N * N, k - 1) * Fraction(2) ** N * base**k
    return SemiCountingBound(N, k, m, sum_form, closed, displayed)


@dataclass(frozen=True)
class TransferMatrix:
    """The positive (n+1) x (n+1) matrix driving the quasi-progression bound.

    entry[i][j] = alpha^min(i, n-j) with alpha = 1 - 1/r, so row 0 and
    column n are all ones and the exponent is exactly the pair multiplicity
    of adjacent conjugate entries (i, j).
    """

    r: int
    n: int
    entries: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "entries", tuple(tuple(row) for row in self.entries)
        )
        dim = self.n + 1
        if dim > MAX_MATRIX_DIM:
            raise ValueError(f"matrix dimension {dim} exceeds {MAX_MATRIX_DIM}")
        if len(self.entries) != dim or any(len(row) != dim for row in self.entries):
            raise ValueError(f"entries must be {dim}x{dim}")

    @property
    def alpha(self) -> Fraction:
        return 1 - Fraction(1, self.r)

    @property
    def dim(self) -> int:
        return self.n + 1

    def row_sums(self) -> List[Fraction]:
        return [sum(row) for row in self.entries]

    def apply(self, vec: Sequence[Fraction]) -> List[Fraction]:
        """Matrix-vector product in exact rationals."""
        if len(vec) != self.dim:
            raise ValueError("vector length must match matrix dimension")
        return [sum(a * x for a, x in zip(row, vec)) for row in self.entries]


def transfer_matrix(r: int, n: int) -> TransferMatrix:
    """Build the transfer matrix for r colors and diameter n."""
    if r < 2:
        raise ValueError("need at least 2 colors")
    if n < 0:
        raise ValueError("diameter must be non-negative")
    powers = [(1 - Fraction(1, r)) ** e for e in range(n + 1)]
    rows = [[powers[pair_multiplicity(i, j, n)] for j in range(n + 1)] for i in range(n + 1)]
    return TransferMatrix(r, n, rows)


def _solve_shifted(rows: Sequence[Sequence[float]], shift: float, rhs: Sequence[float]):
    """The solution x of (shift*I - rows) x = rhs by Gaussian elimination with
    partial pivoting, or None when the matrix is singular."""
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


def perron_bracket(A: TransferMatrix, bits: int = 48) -> Tuple[Fraction, Fraction]:
    """Exact Fractions lo <= lambda_max(A) <= hi with (hi - lo) * 2^bits <= lo.

    lo and hi are min_i and max_i of (Av)_i / v_i, which bracket the Perron
    root for any positive v (Collatz-Wielandt), taken exactly with A and v
    scaled to integers: rounding in v can only widen the bracket.  v comes
    from float inverse iteration shifted just above the root, and past float
    precision from A^(2^j) v for j = 1, 2, ..., squaring A in integers, so the
    bits gained per step double; MAX_POWER_STEPS caps solves and squarings.
    """
    rows = [[float(a) for a in row] for row in A.entries]
    v, sigma = [sum(row) for row in rows], math.inf  # A times the all-ones vector
    for _ in range(MAX_POWER_STEPS):
        w = [sum(a * x for a, x in zip(row, v)) for row in rows]
        upper = max(wi / vi for wi, vi in zip(w, v))
        if upper >= sigma:  # no progress left at float precision
            break
        sigma = upper
        x = _solve_shifted(rows, sigma, v)
        if x is None or min(x) * max(x) <= 0:  # singular, or not of one sign
            break
        top = max(x, key=abs)
        v = [xi / top for xi in x]
    scale = math.lcm(*(a.denominator for row in A.entries for a in row))
    ints = [[a.numerator * (scale // a.denominator) for a in row] for row in A.entries]
    iv = v0 = [max(1, int(math.ldexp(x, 62))) for x in v]
    power = ints  # a positive multiple of A^(2^j)
    for _ in range(MAX_POWER_STEPS + 1):
        w = [sum(a * x for a, x in zip(row, iv)) for row in ints]
        ratios = [Fraction(wi, scale * xi) for wi, xi in zip(w, iv)]
        lo, hi = min(ratios), max(ratios)
        if (hi - lo) * 2**bits <= lo:
            return lo, hi
        power = [[sum(a * b for a, b in zip(row, col)) for col in zip(*power)] for row in power]
        shift = max(0, min(map(min, power)).bit_length() - bits - 64)  # keep bits + 64 bits
        power = [[e >> shift for e in row] for row in power]
        iv = [sum(a * x for a, x in zip(row, v0)) for row in power]
    raise ConvergenceError(f"Perron bracket wider than 2^-{bits} after the step cap")


def _charpoly(rows: Sequence[Sequence[Fraction]]) -> List[Fraction]:
    """det(xI - A)'s coefficients, highest degree first, exactly, by
    Faddeev-LeVerrier: M_j = A M_(j-1) + c_(j-1) I and c_j = -tr(A M_j) / j."""
    n = len(rows)
    coeffs, M = [Fraction(1)], [[0] * n for _ in range(n)]
    for j in range(1, n + 1):
        M = [[sum(a * m for a, m in zip(row, col)) for col in zip(*M)] for row in rows]
        for i in range(n):
            M[i][i] += coeffs[-1]
        trace = sum(a * m for row, col in zip(rows, zip(*M)) for a, m in zip(row, col))
        coeffs.append(-trace / j)
    return coeffs


def _poly_divmod(a: List[Fraction], b: List[Fraction]) -> Tuple[List, List]:
    """Quotient and remainder of a / b, coefficients highest degree first."""
    quot = []
    while len(a) >= len(b):
        quot.append(a[0] / b[0])
        a = [x - quot[-1] * y for x, y in zip(a[1:], b[1:] + [0] * (len(a) - len(b)))]
    while a and not a[0]:
        a = a[1:]
    return quot, a


def lambda_max_by_charpoly(A: TransferMatrix, tol: float = 1e-12) -> float:
    """Perron root by exact-rational bisection on det(xI - A).

    Independent of perron_bracket: the Sturm sequence of the exact
    characteristic polynomial counts its distinct real roots above any x,
    and bisection from outside the Gershgorin discs keeps exactly one root,
    the largest, above ``lo``.  Intended for small matrices (cross-check
    path); cost grows quickly with dimension.
    """
    p = _charpoly(A.entries)
    seq = [p, [c * (len(p) - 1 - i) for i, c in enumerate(p[:-1])]]
    while len(seq[-1]) > 1 and (rem := _poly_divmod(seq[-2], seq[-1])[1]):
        seq.append([-c for c in rem])
    if len(seq[-1]) > 1:  # repeated roots: divide out gcd(p, p') to keep counts exact
        seq = [_poly_divmod(q, seq[-1])[0] for q in seq]
    at_infinity = sum((s[0] > 0) != (t[0] > 0) for s, t in zip(seq, seq[1:]))

    def roots_above(x: Fraction) -> int:
        signs = []
        for q in seq:
            value = Fraction(0)
            for c in q:
                value = value * x + c
            if value:
                signs.append(value > 0)
        return sum(s != t for s, t in zip(signs, signs[1:])) - at_infinity

    hi = max(sum(abs(a) for a in row) for row in A.entries) + 1
    lo = -hi
    if not roots_above(lo):
        raise ArithmeticError("characteristic polynomial has no real root")
    while float(hi - lo) > tol:
        mid = (lo + hi) / 2
        if roots_above(mid):
            lo = mid
        else:
            hi = mid
    return float((lo + hi) / 2)


@dataclass(frozen=True)
class BoundResult:
    """A lower-bound base: the Ramsey threshold exceeds base^k, where
    base^2 = r / lambda and lambda lies in the exact enclosure [lambda_lo,
    lambda_hi] (the Perron root of transfer_matrix(r, n) for quasi, the point
    2 - 2^(1-m) for semi).  ``base`` and ``lambda_max`` are display floats.
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
        if they still differ after THRESHOLD_DOUBLINGS of the precision)."""
        if k < 0:
            raise ValueError("exponent must be non-negative")
        lo, hi = self.lambda_lo, self.lambda_hi
        # enough bits to pin base^k to within about 2^-32
        bits = max(48, math.ceil(k * math.log2(self.base))) + k.bit_length() + 32
        for _ in range(THRESHOLD_DOUBLINGS):
            floor_lo = _sqrt_power_floor(self.r / hi, k, bits + 16, up=False)
            if floor_lo == _sqrt_power_floor(self.r / lo, k, bits + 16, up=True):
                return floor_lo
            if lo < hi:  # quasi: refine the Perron bracket
                lo, hi = perron_bracket(transfer_matrix(self.r, self.family.param), bits)
            bits *= 2
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
    base = alpha_semi(m)
    lam = 2 - Fraction(2, 2**m)
    return BoundResult(Family.semi(m), 2, base, float(lam), lam, lam, useful=True)


def beta_quasi(r: int, n: int) -> BoundResult:
    """The diameter-n, r-color quasi-progression bound base beta = sqrt(r /
    lambda_max(transfer_matrix(r, n))), with lambda_max bracketed to 48 bits
    and further while r lies inside the bracket, so ``useful`` is certain."""
    if n < 1:
        raise ValueError("diameter must be at least 1 for the spectral bound")
    A, bits = transfer_matrix(r, n), 48
    lo, hi = perron_bracket(A, bits)
    while lo < r <= hi:
        bits *= 2
        lo, hi = perron_bracket(A, bits)
    lam = float((lo + hi) / 2)
    return BoundResult(Family.quasi(n), r, math.sqrt(r / lam), lam, lo, hi, hi < r)


def quartic_root_check() -> float:
    """The smallest positive root of y^4 - 8y^2 + 8 = 0, cross-checked.

    The root is sqrt(4 - 2*sqrt(2)).  Verifies that it satisfies the quartic
    to 1e-12, matches beta for 2 colors at diameter 1 to 1e-6, and exceeds
    1.08226, the best previously published base for that case.
    """
    root = math.sqrt(4 - 2 * math.sqrt(2))
    if abs(root**4 - 8 * root**2 + 8) > 1e-12:
        raise ArithmeticError("quartic residual too large")
    beta = beta_quasi(2, 1).base
    if abs(beta - root) > 1e-6:
        raise ArithmeticError(
            f"spectral beta {beta!r} disagrees with quartic root {root!r}"
        )
    if not root > 1.08226:
        raise ArithmeticError("root does not exceed the prior constant")
    return root


def weighted_conjugate_sum(
    t: int, r: int, n: int
) -> Tuple[List[Fraction], Fraction]:
    """The weighted sums (S_t0, ..., S_tn) and their total, exactly.

    S_tj is the sum of alpha^weight over all length-t quasi conjugate
    vectors whose first entry is j (alpha = 1 - 1/r).  Base case: length-1
    vectors have weight equal to their single entry, so S_1j = alpha^j.
    Longer lengths follow the transfer-matrix recursion S_{t+1} = A S_t.
    """
    if t < 1:
        raise ValueError("length must be at least 1")
    A = transfer_matrix(r, n)
    vec = [A.alpha**j for j in range(n + 1)]
    for _ in range(t - 1):
        vec = A.apply(vec)
    return vec, sum(vec)


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


@dataclass(frozen=True)
class ComparisonBounds:
    """Side-by-side bound bases and values for one parameter point.

    ``naive_quasi`` = (sqrt(r/(n+1)))^k, the first-moment bound that needs
    no structure; ``landman_semi`` = 2k^2/m, the prior quadratic semi bound;
    ``semi_power`` and ``quasi_power`` are alpha(m)^k and beta_{r,n}^k.
    """

    r: int
    n: int
    k: int
    m: int
    naive_quasi: float
    landman_semi: float
    semi_power: float
    quasi_power: float


def _float_power(base: float, k: int) -> float:
    """base^k, or math.inf where it exceeds the float range."""
    try:
        return base**k
    except OverflowError:
        return math.inf


def comparison_bounds(r: int, n: int, k: int, m: int) -> ComparisonBounds:
    """Evaluate the competing lower-bound formulas at one (r, n, k, m).
    A power beyond the float range comes back as math.inf."""
    if min(r, k, m) < 1 or n < 1:
        raise ValueError("parameters must be positive")
    naive = _float_power(math.sqrt(r / (n + 1)), k)
    landman = 2 * k * k / m
    semi_power = _float_power(alpha_semi(m), k)
    quasi_power = _float_power(beta_quasi(r, n).base, k)
    return ComparisonBounds(r, n, k, m, naive, landman, semi_power, quasi_power)


def beta_table(r_max: int, n_max: int) -> List[BoundResult]:
    """Quasi bound bases for every 2 <= r <= r_max, 1 <= n <= n_max."""
    if r_max < 2 or n_max < 1:
        raise ValueError("table needs r_max >= 2 and n_max >= 1")
    return [
        beta_quasi(r, n)
        for r in range(2, r_max + 1)
        for n in range(1, n_max + 1)
    ]
