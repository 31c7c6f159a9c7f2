import csv
import functools
import io
import json
import math
import random
import time
from fractions import Fraction

import pytest

from ramseyprog import bounds, cli
from ramseyprog.bounds import (
    beta_quasi,
    beta_table,
    lambda_max_by_charpoly,
    perron_bracket,
    quasi_counting_bound,
    semi_bound,
    semi_counting_bound,
    transfer_matrix,
    weighted_conjugate_sum,
)
from ramseyprog.errors import ConvergenceError
from ramseyprog.progressions import Family

from brute import (
    dense_perron_bracket,
    floor_beta_n1_power,
    frequency_vectors,
    multinomial,
    semi_counting_sum,
    weighted_sums,
)


def test_semi_bound_base_values():
    assert semi_bound(1).base == pytest.approx(1.414214, abs=1e-6)
    assert semi_bound(2).base == pytest.approx(1.154701, abs=1e-6)
    assert semi_bound(3).base == pytest.approx(1.069045, abs=1e-6)
    for m in range(1, 12):
        a = semi_bound(m).base
        assert abs(a * a * (2**m - 1) - 2**m) / 2**m < 1e-12
    with pytest.raises(ValueError, match="scope must be at least 1"):
        semi_bound(0)


def test_multinomial_count():
    assert multinomial((1, 2, 2)) == 30
    assert multinomial((7, 0, 0)) == 1
    assert multinomial((0, 0, 4)) == 1
    assert multinomial((2, 2)) == 6


def test_frequency_vectors_enumeration():
    vs = list(frequency_vectors(3, 2))
    assert sorted(vs) == [(0, 3), (1, 2), (2, 1), (3, 0)]
    for total, m in ((0, 1), (4, 3), (6, 2), (5, 5)):
        vs = list(frequency_vectors(total, m))
        assert len(vs) == math.comb(total + m - 1, m - 1)
        assert len(set(vs)) == len(vs)
        assert all(sum(v) == total and len(v) == m for v in vs)
    # total vector count: each of the `total` slots picks one of m values
    for total, m in ((4, 3), (5, 2)):
        assert sum(multinomial(v) for v in frequency_vectors(total, m)) == m**total


def test_semi_counting_bound_example():
    assert semi_counting_bound(10, 3, 1) == 12800
    assert semi_counting_sum(10, 3, 1) == 12800
    assert isinstance(semi_counting_bound(10, 3, 1), Fraction)


def test_semi_counting_bound_scope1_degenerate():
    # single frequency vector (k-1, with weight 0 and multinomial 1)
    assert semi_counting_sum(9, 5, 1) == Fraction(81, 4) * 2 ** (9 - 5 + 1)
    assert semi_counting_bound(9, 5, 1) == semi_counting_sum(9, 5, 1)


def test_semi_counting_bound_collapse():
    for k in range(2, 9):
        for m in range(1, 5):
            assert semi_counting_bound(10, k, m) == semi_counting_sum(10, k, m)
    # no vector walk: a scope of thousands costs one power
    start = time.perf_counter()
    assert semi_counting_bound(6, 3, 5000) == 1152 * (1 - Fraction(1, 2**5000)) ** 2
    assert time.perf_counter() - start < 0.1


def test_semi_counting_bound_validation():
    with pytest.raises(ValueError):
        semi_counting_bound(10, 1, 1)
    with pytest.raises(ValueError):
        semi_counting_bound(0, 3, 1)
    with pytest.raises(ValueError):
        semi_counting_bound(10, 3, 0)


def test_transfer_matrix_entries():
    assert transfer_matrix(2, 1) == (
        (Fraction(1), Fraction(1)),
        (Fraction(1, 2), Fraction(1)),
    )
    assert transfer_matrix(3, 2) == (
        (Fraction(1), Fraction(1), Fraction(1)),
        (Fraction(2, 3), Fraction(2, 3), Fraction(1)),
        (Fraction(4, 9), Fraction(2, 3), Fraction(1)),
    )
    assert transfer_matrix(5, 0) == ((Fraction(1),),)


def test_transfer_matrix_entry_law():
    for r in (2, 3, 4):
        for n in (0, 1, 2, 3, 4):
            rows = transfer_matrix(r, n)
            alpha = 1 - Fraction(1, r)
            for i in range(n + 1):
                for j in range(n + 1):
                    assert rows[i][j] == alpha ** min(i, n - j)
            assert all(x == 1 for x in rows[0])
            assert all(row[n] == 1 for row in rows)
            assert all(0 < x <= 1 for row in rows for x in row)


def test_transfer_matrix_validation():
    # the one weight builder refuses for every reader of the matrix
    for read in (transfer_matrix, perron_bracket,
                 lambda r, n: weighted_conjugate_sum(1, r, n)):
        with pytest.raises(ValueError):
            read(1, 1)
        with pytest.raises(ValueError):
            read(2, -1)
        with pytest.raises(ValueError):
            read(2, 64)  # dimension 65 exceeds the supported cap


def test_dominant_eigenvalue_closed_form():
    # lambda(2, 1) = 1 + 1/sqrt(2) exactly: (lambda - 1)^2 = 1/2
    lo, hi = perron_bracket(2, 1)
    assert (lo - 1) ** 2 <= Fraction(1, 2) <= (hi - 1) ** 2
    assert (hi - lo) * 2**48 <= lo
    assert perron_bracket(2, 0) == (1, 1)
    lo, hi = perron_bracket(3, 2)
    assert 2.425005 - 1e-4 <= lo <= hi <= 2.425005 + 1e-4


def test_dominant_eigenvalue_sandwich_and_positivity():
    for r in (2, 3, 4, 6):
        for n in (1, 2, 3, 5):
            sums = [sum(row) for row in transfer_matrix(r, n)]
            for bits in (48, 120):
                lo, hi = perron_bracket(r, n, bits)
                assert 0 < min(sums) <= lo <= hi <= max(sums)
                assert (hi - lo) * 2**bits <= lo


def test_dominant_eigenvalue_convergence_error(monkeypatch):
    lo, hi = perron_bracket(3, 2, bits=200)
    assert (hi - lo) * 2**200 <= lo
    monkeypatch.setattr(bounds, "MAX_POWER_STEPS", 0)
    with pytest.raises(ConvergenceError):
        perron_bracket(3, 2, bits=200)


def test_perron_bracket_steps(monkeypatch):
    # at most 4 Collatz-Wielandt evaluations (3 steps) per cell of the
    # 10 x 30 table, and 5 (4 steps) at r = 2 up to n = 63 for 200 bits
    monkeypatch.setattr(bounds, "MAX_POWER_STEPS", 3)
    assert len(beta_table(10, 30)) == 270
    monkeypatch.setattr(bounds, "MAX_POWER_STEPS", 4)
    for n in range(58, 64):
        lo, hi = perron_bracket(2, n, 200)
        assert (hi - lo) * 2**200 <= lo
    lo, hi = perron_bracket(2, 63)
    assert (hi - lo) * 2**48 <= lo


def test_perron_bracket_survives_any_solve(monkeypatch):
    # the bracket holds for any positive v, so a step whose solve comes out
    # negative, or vanishes with the 2 x 2 determinant, costs steps at most
    real, state = bounds._march, {"mode": "plain", "zeroed": 0}

    def march(weights, sigma, prec, v, first, last):
        x, residuals = real(weights, sigma, prec, v, first, last)
        if state["mode"] == "negated" and first == last == 0:  # the solve with rhs v
            return [-e for e in x], tuple(-e for e in residuals)
        if state["mode"] == "singular" and state["zeroed"] < 3:  # the first step
            state["zeroed"] += 1
            return x, (0, 0)
        return x, residuals

    monkeypatch.setattr(bounds, "_march", march)
    for r, n, bits in ((2, 30, 200), (3, 2, 120), (10, 63, 48)):
        state.update(mode="plain")
        expected = perron_bracket(r, n, bits)
        state.update(mode="negated")  # x flips as a whole; its sum flips it back
        assert perron_bracket(r, n, bits) == expected
        state.update(mode="singular", zeroed=0)  # det = c_0 = c_n = 0, x = 0, v = 1
        lo, hi = perron_bracket(r, n, bits)
        assert (hi - lo) * 2**bits <= lo and lo <= expected[1] and expected[0] <= hi
        assert state["zeroed"] == 3


def test_transfer_matrix_is_persymmetric():
    # B^T = J B J with J the reversal, so v reversed is a left vector for B
    for r in range(2, 7):
        for n in range(11):
            rows = transfer_matrix(r, n)
            assert all(rows[i][j] == rows[n - j][n - i]
                       for i in range(n + 1) for j in range(n + 1)), (r, n)


def test_charpoly_cross_check():
    for r in range(2, 11):
        for n in range(9):
            lo, hi = perron_bracket(r, n)
            bisected = lambda_max_by_charpoly(transfer_matrix(r, n))
            assert lo - 1e-11 <= bisected <= hi + 1e-11, (r, n)
    with pytest.raises(ValueError, match="nonnegative"):
        lambda_max_by_charpoly([[1, Fraction(-1, 2)], [0, 1]])
    assert lambda_max_by_charpoly([[0]]) == 0.0


def _near_diagonal(diagonal):
    """Rows of a positive matrix whose eigenvalues all lie within 1/4 of the
    largest."""
    dim = len(diagonal)
    return [
        [Fraction(diagonal[i]) if i == j else Fraction(1, 1000) for j in range(dim)]
        for i in range(dim)
    ]


def test_charpoly_brackets_the_largest_root():
    # three or four real roots within 1/4 below the Perron root: a downward
    # scan in 1/4 steps stops at the wrong sign change, or at none
    for diagonal, expected in (
        ((3, Fraction(59, 20), Fraction(29, 10)), 3.0000303905212),
        ((3, Fraction(59, 20), Fraction(29, 10), Fraction(57, 20)), 3.0000374645489),
    ):
        rows = _near_diagonal(diagonal)
        lam = lambda_max_by_charpoly(rows)
        lo, hi = dense_perron_bracket(rows, bits=60)
        assert lo - 1e-11 <= lam <= hi + 1e-11
        assert lam == pytest.approx(expected, abs=1e-12)
    # repeated roots (0 twice) at the first bisection midpoint
    ones = [[Fraction(1)] * 3] * 3
    assert lambda_max_by_charpoly(ones) == pytest.approx(3.0, abs=1e-11)


def test_structured_product_matches_dense_rows():
    rng = random.Random(8)
    for r in (2, 3, 5, 10):
        for n in (0, 1, 2, 7, 30, 63):
            weights, rows = bounds._scaled_weights(r, n), transfer_matrix(r, n)
            for _ in range(3):
                vec = [rng.randint(-10**6, 10**6) for _ in range(n + 1)]
                dense = [r**n * sum(a * x for a, x in zip(row, vec)) for row in rows]
                assert bounds._structured_product(weights, vec) == dense, (r, n)


@functools.lru_cache(maxsize=None)
def _dense_bracket(r, n, bits):
    return dense_perron_bracket(transfer_matrix(r, n), bits)


def _assert_brackets_agree(r, n, bits):
    lo, hi = perron_bracket(r, n, bits)
    dense_lo, dense_hi = _dense_bracket(r, n, bits)
    assert 0 < lo <= hi and (hi - lo) * 2**bits <= lo, (r, n, bits)
    assert lo <= dense_hi and dense_lo <= hi, (r, n, bits)


def test_bracket_overlaps_the_dense_bracket():
    for r in range(2, 11):
        for n in range(1, 31):
            _assert_brackets_agree(r, n, 48)
    _assert_brackets_agree(2, 63, 48)
    for r, n in ((2, 3), (3, 2), (5, 6), (10, 10)):
        for bits in (120, 2000):
            _assert_brackets_agree(r, n, bits)


def test_printed_table_agrees_with_the_dense_brackets(capsys):
    # the benchmark's table, read back from the CLI, against the dense route
    def table(*fmt):
        assert cli.main(["table", "--r-max", "10", "--n-max", "30", *fmt]) == 0
        return capsys.readouterr().out

    records = json.loads(table("--format", "json"))
    rows = list(csv.DictReader(io.StringIO(table())))
    assert len(records) == len(rows) == 270
    for cell, row in zip(records, rows):
        r, n = cell["r"], cell["n"]
        assert (int(row["r"]), int(row["n"])) == (r, n)
        assert cell["lambda_lo"] <= cell["lambda_max"] <= cell["lambda_hi"], (r, n)
        dense_lo, dense_hi = _dense_bracket(r, n, 48)
        assert row["useful"] == str(dense_hi < r).lower(), (r, n)
        if dense_hi < r:
            ends = {cli._truncate5(math.sqrt(r / lam)) for lam in (dense_lo, dense_hi)}
            assert ends == {row["beta"]}, (r, n)
        else:
            assert r < dense_lo and row["beta"] == "<1", (r, n)


def test_beta_quasi_values():
    assert beta_quasi(2, 1).base == pytest.approx(1.08239, abs=1e-5)
    assert beta_quasi(4, 1).base == pytest.approx(1.46410, abs=1e-5)
    res = beta_quasi(3, 4)
    assert res.base < 1 and not res.useful
    assert beta_quasi(2, 1).useful
    with pytest.raises(ValueError):
        beta_quasi(2, 0)


@pytest.mark.parametrize("n, useful", [(1, True), (2, False)])
def test_beta_quasi_narrows_while_r_is_in_the_bracket(monkeypatch, n, useful):
    # a first bracket that holds r = 2 decides nothing, so beta_quasi asks
    # for twice the bits and reads useful from that bracket alone
    real, asked = bounds.perron_bracket, []

    def bracket(r, n, bits=48):
        asked.append(bits)
        return (Fraction(1), Fraction(3)) if bits == 48 else real(r, n, bits)

    monkeypatch.setattr(bounds, "perron_bracket", bracket)
    res = beta_quasi(2, n)
    lo, hi = real(2, n, 96)
    assert asked == [48, 96]
    assert (res.lambda_hi, res.useful) == (hi, useful)
    assert res.lambda_lo <= lo and res.lambda_lo <= res.lambda_max <= hi


def test_weighted_conjugate_sum_base_cases():
    vec, total = weighted_conjugate_sum(1, 2, 1)
    assert vec == [Fraction(1), Fraction(1, 2)]
    assert total == Fraction(3, 2)
    vec, total = weighted_conjugate_sum(2, 2, 1)
    assert vec == [Fraction(3, 2), Fraction(1)]
    assert total == Fraction(5, 2)
    with pytest.raises(ValueError):
        weighted_conjugate_sum(0, 2, 1)


def test_weighted_conjugate_sum_matches_enumeration():
    for r in (2, 3):
        for n in (0, 1, 2):
            for t in range(1, 6):
                vec, total = weighted_conjugate_sum(t, r, n)
                brute_vec = weighted_sums(t, r, n)
                assert vec == brute_vec
                assert total == sum(brute_vec)


def test_weighted_conjugate_sum_closed_form():
    hi = 1 + 1 / math.sqrt(2)
    lo = 1 - 1 / math.sqrt(2)
    for k in range(2, 21):
        _, total = weighted_conjugate_sum(k - 1, 2, 1)
        assert float(total) == pytest.approx((hi**k + lo**k) / 2, rel=1e-9)


def test_quasi_counting_bound():
    assert quasi_counting_bound(2, 10, 3, 1) == 32000
    # displayed two-color diameter-1 closed form
    for k in range(3, 11):
        N = 20
        got = float(quasi_counting_bound(2, N, k, 1))
        hi = (1 + 1 / math.sqrt(2)) ** k
        lo = (1 - 1 / math.sqrt(2)) ** k
        want = N * N * 2 ** (N - k + 1) * (hi + lo) / (2 * (k - 1))
        assert got == pytest.approx(want, rel=1e-9)
    # k=2 base case: single-entry vectors, S_1 = sum of alpha^j
    for r, n in ((2, 1), (3, 2), (4, 0)):
        alpha = 1 - Fraction(1, r)
        s1 = sum(alpha**j for j in range(n + 1))
        assert quasi_counting_bound(r, 7, 2, n) == Fraction(49) * r ** (7 - 1) * s1
    with pytest.raises(ValueError):
        quasi_counting_bound(2, 10, 1, 1)
    with pytest.raises(ValueError, match="ground set must be non-empty"):
        quasi_counting_bound(2, 0, 3, 1)


def test_semi_bound_threshold_is_exact():
    res = semi_bound(2)
    assert res.lambda_lo == res.lambda_hi == Fraction(3, 2)
    assert res.threshold(25) == 36
    assert res.useful
    assert semi_bound(1).threshold(2) == 2
    assert semi_bound(1).threshold(3) == 2  # 2*sqrt(2) = 2.828...
    # exact integer floor must agree with careful float evaluation
    rng = random.Random(108)
    for _ in range(100):
        m = rng.randint(1, 6)
        k = rng.randint(0, 40)
        want = int((Fraction(2**m, 2**m - 1) ** k).__float__() ** 0.5)
        have = semi_bound(m).threshold(k)
        assert abs(have - want) <= 1, (m, k)
    with pytest.raises(ValueError):
        semi_bound(2).threshold(-1)


def test_quasi_threshold_floor():
    res = beta_quasi(4, 1)
    assert res.threshold(10) == math.floor(res.base**10)


def test_beta_table_is_fast():
    start = time.perf_counter()
    assert len(beta_table(10, 30)) == 270
    assert time.perf_counter() - start < 1


def test_beta_table_region():
    results = beta_table(4, 6)
    assert len(results) == 18
    by_cell = {(res.r, res.family.param): res.base for res in results}
    goldens = {
        (2, 1): 1.08239,
        (3, 1): 1.28511,
        (3, 2): 1.11226,
        (3, 3): 1.02236,
        (4, 1): 1.46410,
        (4, 2): 1.24686,
        (4, 3): 1.12770,
        (4, 4): 1.05338,
        (4, 5): 1.00384,
    }
    for cell, value in goldens.items():
        # the published 5-decimal values are truncations, so compare from below
        assert value - 1e-5 <= by_cell[cell] <= value + 1.1e-5
    below_one = {cell for cell, b in by_cell.items() if b <= 1}
    assert below_one == {(2, n) for n in range(2, 7)} | {
        (3, n) for n in range(4, 7)
    } | {(4, 6)}
    with pytest.raises(ValueError):
        beta_table(1, 6)


def test_beta_monotone_where_useful():
    # strict monotonicity (decreasing in n, increasing in r) holds on the
    # useful region base > 1; past it the Perron root outgrows r and the
    # trend in n reverses, so nothing is asserted there
    results = beta_table(6, 8)
    cells = {(res.r, res.family.param): res for res in results}
    for (r, n), res in cells.items():
        if not res.useful:
            continue
        nxt = cells.get((r, n + 1))
        if nxt is not None and nxt.useful:
            assert nxt.base < res.base
        prev_r = cells.get((r - 1, n))
        if prev_r is not None and prev_r.useful:
            assert prev_r.base < res.base


def test_quasi_threshold_exact_at_diameter_1():
    # a float floor of base**k is too low for (2, 1) from k = 290 on, and
    # base**k overflows a float for (10, 1) at k = 2000
    ks = [0, 1, 2, 7, 50, 150, 289, 290, 300, 401, 777, 1234, 1999, 2000]
    for r in (2, 3, 4, 10):
        res = beta_quasi(r, 1)
        for k in ks:
            assert res.threshold(k) == floor_beta_n1_power(r, k), (r, k)
    start = time.perf_counter()
    beta_quasi(10, 1).threshold(2000)
    assert time.perf_counter() - start < 0.5


def test_quasi_threshold_exact_at_large_k():
    # about 23,600 bits of lambda: 4,096 plain power steps fell short here
    start = time.perf_counter()
    floor = beta_quasi(10, 1).threshold(20000)
    assert time.perf_counter() - start < 0.5
    assert floor == floor_beta_n1_power(10, 20000)


def test_threshold_undecided_raises(monkeypatch):
    # the 48-bit bracket leaves floor(beta^2000) open, and one doubling
    # ends the loop right after the refinement, before the floors are retaken
    monkeypatch.setattr(bounds, "THRESHOLD_DOUBLINGS", 1)
    with pytest.raises(ConvergenceError, match="undecided"):
        beta_quasi(2, 1).threshold(2000)


def test_beta_quasi_near_degenerate():
    # the two largest eigenvalues of (2, 63) differ by about 4e-8
    start = time.perf_counter()
    res = beta_quasi(2, 63)
    assert time.perf_counter() - start < 3
    assert res.useful is False
    assert res.lambda_lo > 2
    assert res.lambda_lo <= res.lambda_max <= res.lambda_hi
