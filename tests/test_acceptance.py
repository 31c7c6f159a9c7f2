"""End-to-end acceptance gate.

One test per acceptance criterion, each printing a single pass/fail line
(run with ``pytest tests/test_acceptance.py -s`` to watch them stream) and
asserting at the criterion's stated tolerance.  These tests are intentionally
redundant with the unit suites: they are the contract, the unit tests are
the diagnostics.
"""

import csv
import io
import math
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction

from ramseyprog.bounds import (
    beta_quasi,
    beta_table,
    perron_bracket,
    semi_bound,
    semi_counting_bound,
    weighted_conjugate_sum,
)
from ramseyprog.cli import main
from ramseyprog.oracle import count_mono_colorings, verify_counting_inequality
from ramseyprog.progressions import (
    Coloring,
    Family,
    Progression,
    conjugate_vector,
    forced_elements,
    primary_progression,
    weight,
)
from ramseyprog.search import SearchBudget, check_witness, exact_threshold, random_witness_search

from brute import lexmin_primary, semi_counting_sum, weighted_sums

TABLE_GOLDENS = {
    (2, 1): "1.08239",
    (3, 1): "1.28511",
    (3, 2): "1.11226",
    (3, 3): "1.02236",
    (4, 1): "1.46410",
    (4, 2): "1.24686",
    (4, 3): "1.12770",
    (4, 4): "1.05338",
    (4, 5): "1.00384",
}
TABLE_BELOW_ONE = (
    {(2, n) for n in range(2, 7)} | {(3, n) for n in range(4, 7)} | {(4, 6)}
)


def _report(num, name, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] acceptance {num}: {name}")
    assert ok, f"acceptance criterion {num} failed: {name}"


def test_acceptance_1_table_reproduction():
    start = time.perf_counter()
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["table", "--r-max", "4", "--n-max", "6"])
    elapsed = time.perf_counter() - start
    ok = code == 0
    cells = {
        (int(row["r"]), int(row["n"])): row["beta"]
        for row in csv.DictReader(io.StringIO(buf.getvalue()))
    }
    ok = ok and len(cells) == 18
    ok = ok and all(cells[cell] == value for cell, value in TABLE_GOLDENS.items())
    ok = ok and {cell for cell, v in cells.items() if v == "<1"} == TABLE_BELOW_ONE
    # pre-rounding tolerance on the underlying values
    raw = {(res.r, res.family.param): res.base for res in beta_table(4, 6)}
    ok = ok and all(
        abs(raw[cell] - float(value)) <= 1.1e-5 for cell, value in TABLE_GOLDENS.items()
    )
    ok = ok and elapsed < 1.0
    _report(1, f"table reproduction ({elapsed:.2f}s)", ok)


def test_acceptance_2_closed_form_eigenvalue():
    lo, hi = perron_bracket(2, 1)
    ok = all(abs(end - (1 + 1 / math.sqrt(2))) <= 1e-10 for end in (lo, hi))

    # independent quartic oracle: bisect y^4 - 8y^2 + 8 on [1, 1.2]
    def quartic(y):
        return y**4 - 8 * y**2 + 8

    lo, hi = 1.0, 1.2
    assert quartic(lo) > 0 > quartic(hi)
    for _ in range(100):
        mid = (lo + hi) / 2
        if quartic(mid) > 0:
            lo = mid
        else:
            hi = mid
    root = (lo + hi) / 2
    beta = beta_quasi(2, 1).base
    ok = ok and abs(beta - root) <= 1e-9
    ok = ok and beta > 1.08226
    _report(2, "closed-form eigenvalue and quartic root", ok)


def test_acceptance_3_multinomial_collapse():
    ok = True
    for k in range(2, 13):
        for m in range(1, 6):
            ok = ok and semi_counting_sum(11, k, m) == semi_counting_bound(11, k, m)
    _report(3, "multinomial collapse exact for k <= 12, m <= 5", ok)


def test_acceptance_4_recursion_vs_enumeration():
    ok = True
    for r in (2, 3, 4):
        for n in (0, 1, 2, 3):
            for t in range(1, 9):
                vec, total = weighted_conjugate_sum(t, r, n)
                brute_vec = weighted_sums(t, r, n)
                ok = ok and vec == brute_vec and total == sum(brute_vec)
    hi = 1 + 1 / math.sqrt(2)
    lo = 1 - 1 / math.sqrt(2)
    for k in range(2, 21):
        _, total = weighted_conjugate_sum(k - 1, 2, 1)
        want = (hi**k + lo**k) / 2
        ok = ok and abs(float(total) - want) <= 1e-9 * want
    _report(4, "weighted-sum recursion vs enumeration and closed form", ok)


def test_acceptance_5_counting_inequality():
    start = time.perf_counter()
    ok = True
    for N in range(1, 13):
        for k in (3, 4):
            for m in (1, 2, 3):
                rep = verify_counting_inequality(2, N, k, Family.semi(m))
                ok = ok and rep.bound_satisfied
            for n in (1, 2):
                rep = verify_counting_inequality(2, N, k, Family.quasi(n))
                ok = ok and rep.bound_satisfied
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120.0
    _report(5, f"exhaustive counts within analytic bounds ({elapsed:.2f}s)", ok)


def test_acceptance_6_primary_progression_machinery():
    rng = random.Random(20260815)
    families = [Family.semi(m) for m in (1, 2, 3)] + [
        Family.quasi(n) for n in (0, 1, 2)
    ]
    ok = True
    brute_checked = 0
    found = 0
    for _ in range(10_000):
        N = rng.randint(2, 40)
        chi = Coloring(tuple(rng.randint(0, 1) for _ in range(N)), 2)
        fam = rng.choice(families)
        k = rng.randint(2, 5)
        a = rng.randint(1, N)
        d = rng.randint(1, 4)
        p = primary_progression(chi, a, d, k, fam)
        if N <= 12:
            want = lexmin_primary(chi.colors, a, d, k, fam.kind, fam.param)
            ok = ok and ((p.terms if p else None) == want)
            brute_checked += 1
        if p is None:
            continue
        found += 1
        u = conjugate_vector(p)
        forced = forced_elements(p)
        ok = ok and len(forced) == weight(u)
        base = chi.color_of(p.terms[0])
        ok = ok and all(chi.color_of(e) != base for e in forced)
    ok = ok and brute_checked >= 2_000 and found >= 2_000

    worked = Progression((17, 32, 42, 47, 62, 72), 5, Family.semi(3))
    u = conjugate_vector(worked)
    ok = ok and u.entries == (2, 1, 0, 2, 1)
    ok = ok and weight(u) == 6
    ok = ok and forced_elements(worked) == {22, 27, 37, 52, 57, 67}
    _report(6, "primary machinery on 10^4 random colorings", ok)


def test_acceptance_7_exact_thresholds():
    ok = True
    for r in range(2, 6):
        for fam in (Family.semi(1), Family.semi(3), Family.quasi(0), Family.quasi(2)):
            ok = ok and exact_threshold(r, 2, fam).value == r + 1

    start = time.perf_counter()
    cert = exact_threshold(2, 3, Family.semi(1))
    elapsed = time.perf_counter() - start
    ok = ok and cert.value == 9 and elapsed < 10.0
    ok = ok and cert.witness.n_points == 8
    ok = ok and check_witness(cert.witness, 3, Family.semi(1))

    at9 = count_mono_colorings(2, 9, 3, Family.semi(1))
    at8 = count_mono_colorings(2, 8, 3, Family.semi(1))
    ok = ok and at9.mono_count == at9.total
    ok = ok and at8.mono_count < at8.total

    chain = [exact_threshold(2, 3, Family.semi(m)).value for m in (1, 2, 3, 4)]
    ok = ok and all(chain[i + 1] <= chain[i] for i in range(3))
    _report(7, f"exact thresholds with witnesses ({elapsed:.2f}s)", ok)


def test_acceptance_8_lower_bound_consistency():
    ok = True
    # every exactly computed semi instance (2 colors)
    semi_instances = [(m, 2) for m in (1, 2, 3, 4)] + [(m, 3) for m in (1, 2, 3, 4)]
    for m, k in semi_instances:
        exact = exact_threshold(2, k, Family.semi(m)).value
        ok = ok and semi_bound(m).threshold(k) < exact
    # every exactly computed quasi instance with a spectral bound (n >= 1)
    quasi_instances = [(2, n, 2) for n in (1, 2, 3)] + [(2, n, 3) for n in (1, 2)]
    quasi_instances += [(r, 1, 2) for r in (3, 4, 5)]
    for r, n, k in quasi_instances:
        exact = exact_threshold(r, k, Family.quasi(n)).value
        ok = ok and beta_quasi(r, n).threshold(k) < exact
    _report(8, "floor(base^k) below every exact threshold", ok)


def test_acceptance_9_witness_search_at_bound_scale():
    fam = Family.semi(2)
    n_points = semi_bound(2).threshold(25)
    ok = n_points == 36
    ok = ok and n_points < (2**2 / (2**2 - 1)) ** 12.5  # 36 < alpha(2)^25
    budget = SearchBudget(max_nodes=1_000_000, seed=0, restarts=10)
    chi = random_witness_search(2, n_points, 25, fam, budget)
    ok = ok and chi is not None
    ok = ok and chi.n_points == 36
    ok = ok and check_witness(chi, 25, fam)
    _report(9, "random witness on [1,36] avoiding 25-term scope-2 runs", ok)


# the least k from which floor(alpha(m)^k) stays above Landman's 2k^2/m
LANDMAN_CROSSOVER = {1: 19, 2: 56, 3: 143, 4: 340}


def test_acceptance_10_exponential_overtakes_landman():
    ok = True
    for m, k0 in LANDMAN_CROSSOVER.items():
        res = semi_bound(m)
        ok = ok and res.threshold(k0 - 1) * m <= 2 * (k0 - 1) ** 2
        ok = ok and all(res.threshold(k) * m > 2 * k * k for k in range(k0, 3 * k0))
        # alpha^k / k^2 grows for k > 2 / ln(alpha), so it stays above after
        ok = ok and k0 > 2 / math.log(res.base)
    _report(10, "floor(alpha(m)^k) above Landman's 2k^2/m from a pinned k, m <= 4", ok)
