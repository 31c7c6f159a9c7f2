"""Independent references for the analytic bounds.

Nothing here imports ``ramseyprog``.  Two references:

* ``floor_beta21_power(k)``: the exact floor of beta(2, 1)^k, where
  beta(2, 1)^2 = 4 - 2*sqrt(2).  (4 - 2*sqrt(2))^k = a + b*sqrt(2) is
  computed in integer Z[sqrt(2)] arithmetic, its floor taken exactly, and
  floor(sqrt(x)) = isqrt(floor(x)) for real x >= 0.
* ``cw_bracket(r, n, lam)``: a Collatz-Wielandt bracket
  min_i (Av)_i / v_i <= lambda_max <= max_i (Av)_i / v_i for the transfer
  matrix A with entries alpha^min(i, n-j), alpha = 1 - 1/r.  The bracket is
  valid for any positive v; v comes from float inverse iteration shifted
  near ``lam`` (so a good guess only makes the bracket narrow, never
  wrong).  The ratios are exact: A is scaled to integers by r^n and v to
  integers by 2^62.
"""

from fractions import Fraction
from math import isqrt


def _z2_mul(x, y):
    a, b = x
    c, d = y
    return (a * c + 2 * b * d, a * d + b * c)


def _z2_floor(a, b):
    """floor(a + b*sqrt(2)) for integers a, b."""
    if b >= 0:
        return a + isqrt(2 * b * b)
    # 2*b*b is never a perfect square for b != 0, so |b|*sqrt(2) is
    # irrational and its ceiling is isqrt(2*b*b) + 1
    return a - isqrt(2 * b * b) - 1


def floor_beta21_power(k):
    """Exact floor of beta(2, 1)^k = (4 - 2*sqrt(2))^(k/2)."""
    if k < 0:
        raise ValueError("exponent must be non-negative")
    acc, base, e = (1, 0), (4, -2), k
    while e:
        if e & 1:
            acc = _z2_mul(acc, base)
        base = _z2_mul(base, base)
        e >>= 1
    return isqrt(_z2_floor(*acc))


def scaled_transfer_matrix(r, n):
    """r^n times the transfer matrix: entry (r-1)^m * r^(n-m), m = min(i, n-j)."""
    return [
        [(r - 1) ** min(i, n - j) * r ** (n - min(i, n - j)) for j in range(n + 1)]
        for i in range(n + 1)
    ]


def _solve(m, rhs):
    """Gaussian elimination with partial pivoting, floats."""
    dim = len(m)
    a = [row[:] + [x] for row, x in zip(m, rhs)]
    for col in range(dim):
        piv = max(range(col, dim), key=lambda i: abs(a[i][col]))
        a[col], a[piv] = a[piv], a[col]
        p = a[col][col]
        if p == 0:
            raise ZeroDivisionError("singular shifted matrix")
        for i in range(col + 1, dim):
            f = a[i][col] / p
            if f:
                row_i, row_c = a[i], a[col]
                for j in range(col, dim + 1):
                    row_i[j] -= f * row_c[j]
    x = [0.0] * dim
    for i in range(dim - 1, -1, -1):
        s = a[i][dim] - sum(a[i][j] * x[j] for j in range(i + 1, dim))
        x[i] = s / a[i][i]
    return x


def perron_guess(r, n, steps=200):
    """A float estimate of lambda_max by power iteration; only good enough
    to shift the inverse iteration of ``perron_vector``."""
    a = [[(1 - 1 / r) ** min(i, n - j) for j in range(n + 1)] for i in range(n + 1)]
    v, lam = [1.0] * (n + 1), 0.0
    for _ in range(steps):
        w = [sum(x * y for x, y in zip(row, v)) for row in a]
        lam = max(w)
        v = [x / lam for x in w]
    return lam


def perron_vector(r, n, lam, steps=3):
    """Float approximation of the Perron vector by inverse iteration with
    shift just above ``lam``; None if the result is not strictly positive."""
    scale = float(r**n)
    a = [[x / scale for x in row] for row in scaled_transfer_matrix(r, n)]
    sigma = lam * (1 + 1e-9) + 1e-12
    shifted = [
        [a[i][j] - (sigma if i == j else 0.0) for j in range(n + 1)]
        for i in range(n + 1)
    ]
    v = [1.0] * (n + 1)
    for _ in range(steps):
        v = _solve(shifted, v)
        top = max(v, key=abs)
        v = [x / top for x in v]
    return v if all(x > 0 for x in v) else None


def cw_bracket(r, n, lam):
    """(lo, hi) as exact Fractions with lo <= lambda_max(r, n) <= hi, or
    None if no positive vector was found near ``lam``."""
    v = perron_vector(r, n, lam)
    if v is None:
        return None
    iv = [max(1, int(x * 2**62)) for x in v]
    b = scaled_transfer_matrix(r, n)
    scale = r**n
    ratios = [
        Fraction(sum(bij * vj for bij, vj in zip(row, iv)), scale * vi)
        for row, vi in zip(b, iv)
    ]
    return min(ratios), max(ratios)


def floor_power_upper(base_sq, k):
    """An upper bound on floor(base^k) given an upper bound ``base_sq`` on
    base^2 (a Fraction): isqrt(floor(base_sq^k)); exact when base_sq is."""
    x = Fraction(base_sq) ** k
    return isqrt(x.numerator // x.denominator)
